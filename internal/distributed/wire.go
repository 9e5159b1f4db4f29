// Snapshot-shipping aggregation: the codec-backed counterpart of the
// metered protocols in this package. Instead of simulating per-element
// messages, each site ingests its partition into a same-seed set-stream
// sketch, serializes the *complete* sketch state with the versioned wire
// codec, and ships the snapshot; the coordinator decodes the blobs and
// merges them — the shared-draw Merge precondition is enforced against
// the decoded hash structure, exactly as it would be across real nodes.
//
// Because the sketches are idempotent, order-insensitive functions of the
// element set, the coordinator's estimate is bit-identical to a single
// sketch ingesting the concatenated stream — the differential gate the
// tests pin for both the live-Merge path and the marshal→unmarshal→Merge
// path.
//
// Delivery may be lossy: sites re-send their snapshot blob until the
// coordinator holds a copy that decode-verifies, and every attempt —
// including the failed ones — is metered, so the communication cost of
// unreliability is visible instead of idealised away. Because each
// site's sketch is a pure function of its partition and the shared seed,
// a re-sent or even duplicated snapshot carries the identical state:
// delivery retries can never move the coordinator's estimate
// (ARCHITECTURE.md invariant 9).
package distributed

import (
	"fmt"

	"mcf0/internal/formula"
	"mcf0/internal/setstream"
	"mcf0/internal/stats"
)

// ShipTransport delivers one site's encoded snapshot to the coordinator
// and returns the bytes as received there; attempt counts deliveries of
// this site's blob (0 = first try). A transport models faults by
// returning an error (connection lost), or by returning a mangled blob —
// the coordinator decode-verifies every delivery and treats both the
// same: retry.
type ShipTransport func(site, attempt int, blob []byte) ([]byte, error)

// SketchAndShip runs the snapshot-shipping protocol over a partitioned
// DNF: the coordinator broadcasts one 64-bit seed, every site
// deterministically re-derives the shared hash draws, ingests its
// subformula into a Minimum-style set-stream sketch, and ships the
// encoded snapshot over transport (nil = direct delivery). The
// coordinator decodes each delivery and merges the decoded stream; a
// delivery that fails or does not decode is re-sent, up to maxRetries
// re-sends per site. A merge failure (a foreign draw) is not a delivery
// fault: it fails the run with no partial result and is not retried.
//
// Communication is metered exactly — 64 bits per site down, the encoded
// snapshot size of every attempt up, failed ones included — and the
// estimate is bit-identical to a single same-seed sketch ingesting the
// whole formula: retries change what the protocol costs, never what it
// computes.
func SketchAndShip(parts []*formula.DNF, seed uint64, opts Options, transport ShipTransport, maxRetries int) (Result, error) {
	k := len(parts)
	if k == 0 {
		return Result{}, fmt.Errorf("distributed: no sites")
	}
	if transport == nil {
		transport = func(_, _ int, blob []byte) ([]byte, error) { return blob, nil }
	}

	var res Result
	res.Comm.CoordToSites = int64(k) * 64 // the seed broadcast

	// Sites run independently (their sketches share draws by seed, not by
	// pointer); each ships one snapshot blob.
	blobs := make([][]byte, k)
	errs := make([]error, k)
	runTrials(k, opts.parallelism(), func(j int) {
		site := setstream.NewDNFStream(parts[j].N, setstream.Options{
			Epsilon:     opts.Epsilon,
			Delta:       opts.Delta,
			Thresh:      opts.Thresh,
			Iterations:  opts.Iterations,
			RNG:         stats.NewRNG(seed),
			Parallelism: opts.Parallelism,
		})
		site.ProcessDNF(parts[j])
		blobs[j], errs[j] = site.MarshalBinary()
	})
	for j, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("distributed: site %d snapshot: %w", j, err)
		}
	}

	// Delivery: ship each blob until a copy decode-verifies at the
	// coordinator, then merge that decoded copy. Attempts are serial per
	// site and tallied in site order, so the metered bits are
	// deterministic for a deterministic transport.
	var merged *setstream.DNFStream
	for j := range blobs {
		var dec *setstream.DNFStream
		var lastErr error
		for attempt := 0; attempt <= maxRetries && dec == nil; attempt++ {
			got, err := transport(j, attempt, blobs[j])
			res.Comm.SitesToCoord += int64(len(blobs[j])) * 8
			if err != nil {
				lastErr = err
				continue
			}
			if dec, err = setstream.DecodeDNFStream(got, opts.Parallelism); err != nil {
				dec, lastErr = nil, fmt.Errorf("decode-verify: %w", err)
			}
		}
		if dec == nil {
			return Result{}, fmt.Errorf("distributed: site %d: snapshot undeliverable after %d attempts: %w",
				j, maxRetries+1, lastErr)
		}
		if merged == nil {
			merged = dec
		} else if err := merged.Merge(dec); err != nil {
			return Result{}, fmt.Errorf("distributed: snapshot %d: %w", j, err)
		}
	}
	res.Estimate = merged.Estimate()
	return res, nil
}
