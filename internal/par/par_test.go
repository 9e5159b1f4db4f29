package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive request must pass through")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive request must select GOMAXPROCS")
	}
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		for _, count := range []int{0, 1, 5, 100} {
			hits := make([]atomic.Int32, count)
			Run(count, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d count=%d: index %d hit %d times", workers, count, i, got)
				}
			}
		}
	}
}

func TestShardCount(t *testing.T) {
	for _, tc := range []struct{ count, workers, want int }{
		{10, 4, 4}, {3, 8, 3}, {5, 1, 1}, {0, 4, 1}, {7, 0, 1},
	} {
		if got := ShardCount(tc.count, tc.workers); got != tc.want {
			t.Fatalf("ShardCount(%d, %d) = %d, want %d", tc.count, tc.workers, got, tc.want)
		}
	}
}

// RunSharded must visit every index exactly once, assign contiguous
// ascending blocks per shard, and keep the assignment a pure function of
// (count, workers).
func TestRunShardedAssignment(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, count := range []int{0, 1, 4, 29} {
			shards := ShardCount(count, workers)
			gotShard := make([]int32, count)
			var calls atomic.Int32
			RunSharded(count, workers, func(i, shard int) {
				if shard < 0 || shard >= shards {
					t.Errorf("shard %d out of [0, %d)", shard, shards)
				}
				gotShard[i] = int32(shard) // index i visited by exactly one goroutine
				calls.Add(1)
			})
			if int(calls.Load()) != count {
				t.Fatalf("workers=%d count=%d: %d calls", workers, count, calls.Load())
			}
			for i := 0; i < count; i++ {
				want := int32(0)
				for s := 0; s < shards; s++ {
					if i >= s*count/shards && i < (s+1)*count/shards {
						want = int32(s)
					}
				}
				if gotShard[i] != want {
					t.Fatalf("workers=%d count=%d: index %d on shard %d, want %d",
						workers, count, i, gotShard[i], want)
				}
			}
		}
	}
}

// Per-shard scratch must never be touched by two indices concurrently:
// each scratch slot tracks an owner flag that would race (and be caught by
// -race) or observe inconsistency if shared across goroutines.
func TestRunShardedScratchIsolation(t *testing.T) {
	workers := 4
	count := 64
	scratch := make([]*int32, Workers(workers))
	for i := range scratch {
		scratch[i] = new(int32)
	}
	if len(scratch) != workers {
		t.Fatalf("scratch len %d, want %d", len(scratch), workers)
	}
	RunSharded(count, workers, func(i, shard int) {
		if !atomic.CompareAndSwapInt32(scratch[shard], 0, 1) {
			t.Errorf("shard %d scratch entered twice concurrently", shard)
		}
		atomic.StoreInt32(scratch[shard], 0)
	})
}
