package loadgen

import (
	"fmt"

	"mcf0"
)

// Target abstracts the system under load: the three op kinds of a mixed
// workload against either sketch front. Implementations must be safe
// for concurrent use by Spec.Clients goroutines.
type Target interface {
	// Ingest absorbs one batch of stream elements.
	Ingest(batch []uint64) error
	// Estimate returns the current distinct-count estimate.
	Estimate() (float64, error)
	// Snapshot persists (HTTP) or serializes (in-process) the sketch
	// state — the op that prices crash-recovery cost under load.
	Snapshot() error
}

// InProc drives a ConcurrentF0 directly — the target for profiling the
// sketch engine itself, with no HTTP or JSON on the path. Snapshot ops
// exercise the wire codec (MarshalBinary of the merged state).
type InProc struct {
	front *mcf0.ConcurrentF0
}

// NewInProc wraps an existing concurrent front.
func NewInProc(front *mcf0.ConcurrentF0) *InProc { return &InProc{front: front} }

// Ingest absorbs one batch. ConcurrentF0.AddBatch panics on elements
// outside the universe; the generator only emits in-range elements, so
// a panic here is a harness bug and is allowed to propagate.
func (t *InProc) Ingest(batch []uint64) error {
	t.front.AddBatch(batch)
	return nil
}

// Estimate returns the merged estimate.
func (t *InProc) Estimate() (float64, error) { return t.front.Estimate(), nil }

// Snapshot encodes the merged sketch state and discards the bytes.
func (t *InProc) Snapshot() error {
	if _, err := t.front.MarshalBinary(); err != nil {
		return fmt.Errorf("loadgen: snapshot encode: %w", err)
	}
	return nil
}
