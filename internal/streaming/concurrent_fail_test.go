package streaming

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcf0/internal/stats"
)

// armedBucketing is a Bucketing whose absorb panics once armed, and
// whose sibling panics once build is armed; clones and siblings share
// both switches, so the front's replica 0 panics on replay and a new
// replica on its first absorb.
type armedBucketing struct {
	*Bucketing
	armed, build *atomic.Bool
}

func (a *armedBucketing) ProcessBatch(xs []uint64) {
	if a.armed.Load() {
		panic("injected absorb failure")
	}
	a.Bucketing.ProcessBatch(xs)
}

func (a *armedBucketing) Clone() Sketch {
	return &armedBucketing{a.Bucketing.Clone().(*Bucketing), a.armed, a.build}
}

func (a *armedBucketing) sibling() Sketch {
	if a.build.Load() {
		panic("injected build failure")
	}
	return &armedBucketing{a.Bucketing.sibling().(*Bucketing), a.armed, a.build}
}

func (a *armedBucketing) Merge(other Sketch) error {
	return a.Bucketing.Merge(other.(*armedBucketing).Bucketing)
}

// A sketch that panics under a front's lock fails that front and no
// other: the panic is contained, every later write, estimate and
// MergedClone on it returns at once (from many goroutines, never
// spinning in acquire or blocking in lockAll), Err wraps ErrFailed, and a
// healthy front driven alongside still matches its serial reference. The
// panic is injected in a write's absorb, in the replay of a replica's
// log into replica 0 during an estimate miss, in building a new
// replica and in a new replica's first absorb right after it is built.
// The failing call leaves no lock held, and a failure in a new replica
// leaves replica 0 as it was.
func TestConcurrentFailedSketch(t *testing.T) {
	const n = 20
	stream := dupStream(n, 3000, stats.NewRNG(0xfa11))
	for _, where := range []string{"absorb", "replay", "build", "first-absorb"} {
		t.Run(where, func(t *testing.T) {
			armed, build := new(atomic.Bool), new(atomic.Bool)
			bad := NewConcurrent(&armedBucketing{NewBucketing(n, mergeOpts(91, 1)), armed, build}, 2)
			good := NewConcurrent(NewBucketing(n, mergeOpts(92, 1)), 2)
			serial := NewBucketing(n, mergeOpts(92, 1))
			bad.ProcessBatch(stream[:100])
			var replica0 *Bucketing
			switch where {
			case "absorb", "replay":
				writeOn(bad, 1, stream[100:150]) // builds replica 1
				bad.Estimate()                   // merges replica 1: its later writes are logged
				writeOn(bad, 1, stream[150:155]) // within replayCap: logged
				armed.Store(true)
				if where == "absorb" {
					bad.ProcessBatch(stream[200:300])
				} else if est := bad.Estimate(); est != 0 {
					t.Fatalf("estimate of the failing miss = %v, want 0", est)
				}
			case "build", "first-absorb":
				replica0 = bad.replicas[0].sk.(*armedBucketing).Bucketing.Clone().(*Bucketing)
				armed.Store(where == "first-absorb")
				build.Store(where == "build")
				writeOn(bad, 1, stream[200:300])
				if len(bad.inUse()) != 2 {
					t.Fatalf("the failing write built no replica")
				}
			}
			if err := bad.Err(); !errors.Is(err, ErrFailed) {
				t.Fatalf("Err() = %v, want ErrFailed", err)
			}
			if !bad.grow.TryLock() {
				t.Fatal("failed front holds its growth lock")
			}
			bad.grow.Unlock()
			for i, r := range bad.inUse() {
				if !r.mu.TryLock() {
					t.Fatalf("failed front holds replica %d's lock", i)
				}
				r.mu.Unlock()
			}
			if replica0 != nil {
				requireBucketingEqual(t, replica0, bad.replicas[0].sk.(*armedBucketing).Bucketing)
			}

			done := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						bad.ProcessBatch(stream[i : i+8])
						if est, v, cached := bad.EstimateVersioned(); est != 0 || v != 0 || cached {
							t.Errorf("failed front estimated (%v, v%d, cached=%v)", est, v, cached)
						}
						if bad.MergedClone() != nil {
							t.Errorf("failed front returned a merged clone")
						}
					}
				}()
			}
			go func() { wg.Wait(); close(done) }()
			for lo := 0; lo < len(stream); lo += 250 {
				xs := stream[lo:min(lo+250, len(stream))]
				good.ProcessBatch(xs)
				serial.ProcessBatch(xs)
				if got, want := good.Estimate(), serial.Estimate(); got != want {
					t.Fatalf("healthy front: estimate %v != serial %v", got, want)
				}
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("calls on the failed front did not return")
			}
			if good.Err() != nil {
				t.Fatalf("healthy front failed: %v", good.Err())
			}
		})
	}
}
