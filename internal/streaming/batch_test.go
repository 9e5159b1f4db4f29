package streaming

import (
	"fmt"
	"runtime"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/stats"
)

// dupStream builds a stream over an n-bit universe (n ≥ 14) with heavy
// duplication (so the batch paths exercise the already-present/eviction
// branches).
func dupStream(n, length int, rng *stats.RNG) []uint64 {
	out := make([]uint64, length)
	for i := range out {
		out[i] = rng.Uint64n(1 << 14)
	}
	return out
}

// feedChunks splits the stream into uneven chunks straddling the engine's
// serial/parallel gate (sizes below and above minBatchCheap) and feeds
// them through ProcessBatch.
func feedChunks(e interface{ ProcessBatch([]uint64) }, xs []uint64) {
	sizes := []int{1, 3, 8, 2, 64, 5, 256}
	for i, lo := 0, 0; lo < len(xs); i++ {
		hi := lo + sizes[i%len(sizes)]
		if hi > len(xs) {
			hi = len(xs)
		}
		e.ProcessBatch(xs[lo:hi])
		lo = hi
	}
}

func requireBucketingEqual(t *testing.T, a, b *Bucketing) {
	t.Helper()
	if len(a.copies) != len(b.copies) {
		t.Fatalf("copy counts %d != %d", len(a.copies), len(b.copies))
	}
	for i := range a.copies {
		ca, cb := a.copies[i], b.copies[i]
		if ca.level != cb.level {
			t.Fatalf("copy %d: level %d != %d", i, ca.level, cb.level)
		}
		if ca.size() != cb.size() {
			t.Fatalf("copy %d: cell sizes %d != %d", i, ca.size(), cb.size())
		}
		// Cells are sets keyed by fingerprint; slot assignment is layout,
		// not state, so compare contents through the table lookup.
		for sa, on := range ca.occ {
			if !on {
				continue
			}
			sb, _ := cb.find(ca.keys[sa])
			if sb < 0 || ca.hv[sa] != cb.hv[sb] {
				t.Fatalf("copy %d: cell contents diverge at key %v", i, ca.keys[sa])
			}
		}
	}
}

// firstSet returns copy 0's set.
func firstSet(m *Minimum) *kmv.Set {
	_, set := m.sk.Copy(0)
	return set
}

func requireMinimumEqual(t *testing.T, a, b *Minimum) {
	t.Helper()
	if a.sk.Copies() != b.sk.Copies() {
		t.Fatalf("copy counts %d != %d", a.sk.Copies(), b.sk.Copies())
	}
	for i := 0; i < a.sk.Copies(); i++ {
		_, sa := a.sk.Copy(i)
		_, sb := b.sk.Copy(i)
		if sa.Len() != sb.Len() {
			t.Fatalf("copy %d: %d vs %d minima", i, sa.Len(), sb.Len())
		}
		for j := range sa.Values() {
			if !sa.Values()[j].Equal(sb.Values()[j]) {
				t.Fatalf("copy %d: minima diverge at rank %d", i, j)
			}
		}
	}
}

func requireEstimationEqual(t *testing.T, a, b *Estimation) {
	t.Helper()
	if len(a.s) != len(b.s) || a.thresh != b.thresh {
		t.Fatalf("grid shapes (%d, %d) != (%d, %d)", len(a.s), a.thresh, len(b.s), b.thresh)
	}
	for i := range a.s {
		if a.s[i] != b.s[i] {
			t.Fatalf("grid diverges at (%d, %d): %d != %d",
				i/a.thresh, i%a.thresh, a.s[i], b.s[i])
		}
	}
	if len(a.fm.max) != len(b.fm.max) {
		t.Fatalf("tracker copy counts %d != %d", len(a.fm.max), len(b.fm.max))
	}
	for i := range a.fm.max {
		if a.fm.max[i] != b.fm.max[i] {
			t.Fatalf("tracker copy %d: max trailing zeros %d != %d", i, a.fm.max[i], b.fm.max[i])
		}
	}
}

// Batch-vs-single differential: ProcessBatch over a random stream must
// leave every sketch copy in exactly the state one-element ProcessBatch
// calls produce, at every parallelism level.
func TestBatchVsSingleDifferential(t *testing.T) {
	n := 32
	stream := dupStream(n, 1500, stats.NewRNG(0xba7c4))
	for _, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		opts := Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
			RNG: stats.NewRNG(77), Parallelism: par}
		estOpts := opts
		estOpts.Thresh = 8
		estOpts.Iterations = 3
		estOpts.RNG = stats.NewRNG(77)

		single := NewBucketing(n, Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
			RNG: stats.NewRNG(77), Parallelism: 1})
		batch := NewBucketing(n, opts)
		feed(single, stream)
		feedChunks(batch, stream)
		requireBucketingEqual(t, single, batch)
		if single.Estimate() != batch.Estimate() {
			t.Fatalf("par=%d: bucketing estimates diverge", par)
		}

		mSingle := NewMinimum(n, Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
			RNG: stats.NewRNG(78), Parallelism: 1})
		mOpts := opts
		mOpts.RNG = stats.NewRNG(78)
		mBatch := NewMinimum(n, mOpts)
		feed(mSingle, stream)
		feedChunks(mBatch, stream)
		requireMinimumEqual(t, mSingle, mBatch)
		if mSingle.Estimate() != mBatch.Estimate() {
			t.Fatalf("par=%d: minimum estimates diverge", par)
		}

		eSingle := NewEstimation(n, Options{Epsilon: 0.8, Delta: 0.2, Thresh: 8, Iterations: 3,
			RNG: stats.NewRNG(77), Parallelism: 1})
		eBatch := NewEstimation(n, estOpts)
		feed(eSingle, stream)
		feedChunks(eBatch, stream)
		requireEstimationEqual(t, eSingle, eBatch)
		if eSingle.Estimate() != eBatch.Estimate() {
			t.Fatalf("par=%d: estimation estimates diverge", par)
		}
	}
}

// Parallel-determinism matrix: fixed-seed estimates must be bit-identical
// across Parallelism ∈ {1, 2, GOMAXPROCS} (and an explicit 4 in case
// GOMAXPROCS is small), for both single-element and batched ingestion.
func TestStreamingParallelDeterminism(t *testing.T) {
	n := 32
	stream := dupStream(n, 1200, stats.NewRNG(0xdecaf))
	type result struct{ bucketing, minimum, estimation float64 }
	run := func(par int) result {
		mk := func(seed uint64) Options {
			return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 12, Iterations: 7,
				RNG: stats.NewRNG(seed), Parallelism: par}
		}
		b := NewBucketing(n, mk(41))
		m := NewMinimum(n, mk(42))
		eo := mk(43)
		eo.Thresh = 8
		eo.Iterations = 3
		e := NewEstimation(n, eo)
		for lo := 0; lo < len(stream); lo += 200 {
			hi := lo + 200
			if hi > len(stream) {
				hi = len(stream)
			}
			b.ProcessBatch(stream[lo:hi])
			m.ProcessBatch(stream[lo:hi])
			e.ProcessBatch(stream[lo:hi])
		}
		return result{b.Estimate(), m.Estimate(), e.Estimate()}
	}
	want := run(1)
	for _, par := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := run(par); got != want {
			t.Fatalf("parallelism %d: %+v != serial %+v", par, got, want)
		}
	}
}

// poolStream draws length elements with repeats from a pool of random
// n-bit elements (any width, unlike dupStream's).
func poolStream(n, length int, rng *stats.RNG) []uint64 {
	pool := make([]uint64, 900)
	for i := range pool {
		pool[i] = bitvec.Random(n, rng.Uint64).Uint64()
	}
	out := make([]uint64, length)
	for i := range out {
		out[i] = pool[rng.Uint64n(uint64(len(pool)))]
	}
	return out
}

// absorbRef is the per-element reference of bucketCopy.absorbBatch: the
// full hash value through EvalInto, the level test on the vector's first
// set position (levelAdmits), then add keyed by the element's bitvec word.
func (c *bucketCopy) absorbRef(x uint64, n, thresh int) {
	xv, hv := bitvec.FromUint64(x, n), bitvec.New(n)
	c.h.EvalInto(xv, hv)
	if levelAdmits(hv, c.level) {
		c.add(xv.Words()[0], hv.Words()[0], thresh)
	}
}

// absorbRef is the per-element reference of Minimum.absorbBatch for copy
// i: the full 3n-bit hash value through EvalInto, offered to the set.
func (m *Minimum) absorbRef(i int, x uint64) {
	h, set := m.sk.Copy(i)
	hv := bitvec.New(h.OutBits())
	h.EvalInto(bitvec.FromUint64(x, m.sk.N()), hv)
	set.Insert(hv)
}

// TestWordBatchVsSingleAbsorb pins the word-kernel absorb (one
// PrefixWords call per copy and batch or piece, level test or max reject
// on the words, Minimum's lookup by prefix) against the per-element
// EvalInto reference on the same draws, copy by copy, at parallelism 1
// and 2. The widths cover one multiply, two multiplies and a prefix that
// is Minimum's whole hash, and Minimum rows of one (n ≤ 21), two
// (n ≤ 42) and three words.
func TestWordBatchVsSingleAbsorb(t *testing.T) {
	opts := func(seed uint64, p int) Options {
		return Options{Thresh: 20, Iterations: 6, RNG: stats.NewRNG(seed), Parallelism: p}
	}
	for _, n := range []int{1, 5, 16, 17, 21, 22, 31, 32, 33, 42, 43, 48, 63, 64} {
		stream := poolStream(n, 2500, stats.NewRNG(uint64(0x30d+n)))
		for _, par := range []int{1, 2} {
			word, elem := NewBucketing(n, opts(uint64(n), par)), NewBucketing(n, opts(uint64(n), 1))
			mWord, mElem := NewMinimum(n, opts(uint64(n+1), par)), NewMinimum(n, opts(uint64(n+1), 1))
			feedChunks(word, stream)
			feedChunks(mWord, stream)
			for _, x := range stream {
				for _, c := range elem.copies {
					c.absorbRef(x, n, elem.thresh)
				}
				for i := 0; i < mElem.sk.Copies(); i++ {
					mElem.absorbRef(i, x)
				}
			}
			requireBucketingEqual(t, elem, word)
			requireMinimumEqual(t, mElem, mWord)
			if n >= 8 && (word.MaxLevel() == 0 || firstSet(mWord).Len() < mWord.sk.Thresh()) {
				t.Fatalf("n=%d: the stream must raise a level and fill a Minimum copy", n)
			}
		}
	}
	// Minimum batches of many pieces: 4096 elements at once into a fresh
	// sketch, and more than thresh fresh elements at once into copies the
	// previous batch just filled.
	for _, n := range []int{14, 20, 32, 40, 64} {
		xs := distinctStream(n, 4096+20+70, stats.NewRNG(uint64(0x4096+n)))
		for _, batches := range [][][]uint64{{xs[:4096]}, {xs[4096 : 4096+20], xs[4096+20:]}} {
			for _, par := range []int{1, 2} {
				word, ref := NewMinimum(n, opts(uint64(n+2), par)), NewMinimum(n, opts(uint64(n+2), 1))
				for _, b := range batches {
					word.ProcessBatch(b)
					for _, x := range b {
						for i := 0; i < ref.sk.Copies(); i++ {
							ref.absorbRef(i, x)
						}
					}
				}
				requireMinimumEqual(t, ref, word)
			}
		}
	}
	// Survivors whose prefixes are equal but whose full values differ.
	for _, n := range []int{29, 31, 32} {
		t.Run(fmt.Sprintf("equal-prefix/n=%d", n), func(t *testing.T) { checkEqualPrefixAbsorb(t, n) })
	}
}

// distinctStream returns length distinct random n-bit elements.
func distinctStream(n, length int, rng *stats.RNG) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, length)
	for len(out) < length {
		if x := bitvec.Random(n, rng.Uint64).Uint64(); !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// prefixKernel returns a nonzero integer-form d with h(x) and h(x^d)
// sharing their mp-bit prefix for every x, or 0 when the prefix map is
// injective: a GF(2) dependency among the images of the unit elements.
func prefixKernel(h *hash.Linear, n, mp int) uint64 {
	prefix := func(x uint64) uint64 {
		ws, idx := make([]uint64, 1), make([]int, 1)
		if kept, ok := h.PrefixWords(mp, ^uint64(0), []uint64{packWord(x, n)}, ws, idx); !ok || kept != 1 {
			panic("prefixKernel: no kernel")
		}
		return ws[0]
	}
	b := prefix(0)
	var cols, combos []uint64 // reduced columns, and which units each sums
	for i := 0; i < n; i++ {
		c, m := prefix(1<<uint(i))^b, uint64(1)<<uint(i)
		for k, r := range cols {
			if c&(r&-r) != 0 {
				c, m = c^r, m^combos[k]
			}
		}
		if c == 0 {
			return m
		}
		cols, combos = append(cols, c), append(combos, m)
	}
	return 0
}

// checkEqualPrefixAbsorb drives, at 65−n < 3n, a Minimum copy whose
// mp-bit prefix map has a kernel with pairs x, x^d that share a prefix,
// through the word path and the per-element reference, and requires equal
// sets that hold such a pair with distinct full values.
func checkEqualPrefixAbsorb(t *testing.T, n int) {
	mp := minPrefixBits(n)
	if mp >= 3*n {
		t.Fatalf("n=%d: the prefix is the whole hash", n)
	}
	for seed := uint64(1); seed < 2000; seed++ {
		o := Options{Thresh: 20, Iterations: 1, RNG: stats.NewRNG(seed), Parallelism: 1}
		word, ref := NewMinimum(n, o), NewMinimum(n, Options{Thresh: 20, Iterations: 1, RNG: stats.NewRNG(seed), Parallelism: 1})
		h, _ := word.sk.Copy(0)
		d := prefixKernel(h, n, mp)
		if d == 0 {
			continue
		}
		rng := stats.NewRNG(seed)
		var xs []uint64
		for len(xs) < 600 {
			x := bitvec.Random(n, rng.Uint64).Uint64()
			xs = append(xs, x, x^d, x)
		}
		for lo := 0; lo < len(xs); lo += 150 {
			word.ProcessBatch(xs[lo:min(lo+150, len(xs))])
		}
		for _, x := range xs {
			ref.absorbRef(0, x)
		}
		requireMinimumEqual(t, ref, word)
		vs := firstSet(word).Values()
		pmask := ^uint64(0) >> (64 - uint(mp))
		for j := 1; j < len(vs); j++ {
			if vs[j-1].Words()[0]&pmask == vs[j].Words()[0]&pmask {
				return
			}
		}
		t.Fatalf("n=%d seed %d: no two held values share a prefix", n, seed)
	}
	t.Fatalf("n=%d: no draw with a prefix kernel", n)
}
