package streaming

import (
	"math/bits"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/stats"
)

// cellModel is the reference a Bucketing copy's cell table is checked
// against: the same Algorithm 3 cell kept in a Go map, keyed by the
// element's bitvec word.
type cellModel struct {
	level int
	cells map[uint64]bitvec.BitVec
}

func newCellModels(b *Bucketing) []*cellModel {
	ms := make([]*cellModel, len(b.copies))
	for i := range ms {
		ms[i] = &cellModel{cells: map[uint64]bitvec.BitVec{}}
	}
	return ms
}

func cloneCellModels(ms []*cellModel) []*cellModel {
	out := make([]*cellModel, len(ms))
	for i, m := range ms {
		out[i] = &cellModel{level: m.level, cells: map[uint64]bitvec.BitVec{}}
		for k, v := range m.cells {
			out[i].cells[k] = v
		}
	}
	return out
}

// levelAdmits is the level test on a hash value vector: an all-zero
// level-bit prefix at a level of at most the value's width. A copy that
// outgrows level n reaches the terminal level n+1, which admits nothing.
func levelAdmits(y bitvec.BitVec, level int) bool {
	f := y.FirstSet()
	return level <= y.Len() && (f < 0 || f >= level)
}

func (m *cellModel) add(key uint64, y bitvec.BitVec, thresh int) {
	if _, dup := m.cells[key]; dup || !levelAdmits(y, m.level) {
		return
	}
	m.cells[key] = y.Clone()
	for len(m.cells) > thresh {
		m.raise(m.level + 1)
	}
}

func (m *cellModel) raise(level int) {
	m.level = level
	for k, v := range m.cells {
		if !levelAdmits(v, level) {
			delete(m.cells, k)
		}
	}
}

// modelFeed applies xs to the models through each copy's own hash.
func modelFeed(b *Bucketing, ms []*cellModel, xs []uint64) {
	for i, c := range b.copies {
		hv := bitvec.New(c.h.OutBits())
		for _, x := range xs {
			xv := bitvec.FromUint64(x, b.n)
			c.h.EvalInto(xv, hv)
			ms[i].add(xv.Words()[0], hv, b.thresh)
		}
	}
}

func modelMerge(dst, src []*cellModel, thresh int) {
	for i, m := range dst {
		if src[i].level > m.level {
			m.raise(src[i].level)
		}
		for k, v := range src[i].cells {
			m.add(k, v, thresh)
		}
	}
}

// requireCellsMatch checks every copy of b against its model, and the
// table against the slots: each of the slots [0, size) is indexed
// exactly once, each key the model holds is found at a slot holding its
// hash value, and no entry points past the cell.
func requireCellsMatch(t *testing.T, what string, b *Bucketing, ms []*cellModel) {
	t.Helper()
	for i, c := range b.copies {
		m := ms[i]
		if c.level != m.level || c.size() != len(m.cells) {
			t.Fatalf("%s copy %d: level %d size %d, model level %d size %d",
				what, i, c.level, c.size(), m.level, len(m.cells))
		}
		if len(c.hv) != c.size() {
			t.Fatalf("%s copy %d: %d hash values for %d keys", what, i, len(c.hv), c.size())
		}
		entries := 0
		for _, e := range c.table {
			if e == 0 {
				continue
			}
			entries++
			if int(e) > c.size() {
				t.Fatalf("%s copy %d: table entry points at slot %d past the %d cells", what, i, e-1, c.size())
			}
			if slot, _ := c.find(c.keys[e-1]); slot != e-1 {
				t.Fatalf("%s copy %d: slot %d's key is found at slot %d", what, i, e-1, slot)
			}
		}
		if entries != c.size() {
			t.Fatalf("%s copy %d: %d table entries for %d cells", what, i, entries, c.size())
		}
		for k, v := range m.cells {
			slot, _ := c.find(k)
			if slot < 0 || c.hv[slot] != v.Words()[0] {
				t.Fatalf("%s copy %d: model key %v missing or holds another value", what, i, k)
			}
		}
	}
}

// maxProbe returns the longest probe any occupied entry of c's table
// needs: its distance from its home position, plus one.
func maxProbe(c *bucketCopy) int {
	mask := uint64(len(c.table) - 1)
	longest := 0
	for pos, e := range c.table {
		if e != 0 {
			longest = max(longest, int((uint64(pos)-probeHome(c.keys[e-1], mask))&mask)+1)
		}
	}
	return longest
}

// TestCellTableVsMap is a seeded property test of the Bucketing cell
// table against the map model: random batches with repeats (insert,
// duplicate and level raise), a clone fed a different stream (clone then
// diverge), a merge of the two, and a decode of the result.
func TestCellTableVsMap(t *testing.T) {
	for _, n := range []int{12, 32, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := stats.NewRNG(seed*977 + uint64(n))
			opts := Options{Thresh: 5 + int(seed)*3, Iterations: 3, RNG: rng, Parallelism: 1}
			b := NewBucketing(n, opts)
			ms := newCellModels(b)
			pool := make([]uint64, 300)
			for i := range pool {
				pool[i] = bitvec.Random(n, rng.Uint64).Uint64()
			}
			feed := func(b *Bucketing, ms []*cellModel, rounds int) {
				for r := 0; r < rounds; r++ {
					xs := make([]uint64, 1+rng.Intn(40))
					for k := range xs {
						xs[k] = pool[rng.Intn(len(pool))]
					}
					b.ProcessBatch(xs)
					modelFeed(b, ms, xs)
					requireCellsMatch(t, "feed", b, ms)
				}
			}
			feed(b, ms, 10)
			c := b.Clone().(*Bucketing)
			cms := cloneCellModels(ms)
			requireCellsMatch(t, "clone", c, cms)
			feed(c, cms, 10)
			feed(b, ms, 5)
			requireCellsMatch(t, "original after the clone diverged", b, ms)
			if err := b.Merge(c); err != nil {
				t.Fatal(err)
			}
			modelMerge(ms, cms, b.thresh)
			requireCellsMatch(t, "merge", b, ms)
			requireCellsMatch(t, "merge source", c, cms)
			raw, _ := b.MarshalBinary()
			d, err := DecodeSketch(raw, 1)
			if err != nil {
				t.Fatal(err)
			}
			requireCellsMatch(t, "decode", d.(*Bucketing), ms)
			if b.MaxLevel() == 0 {
				t.Fatalf("n=%d seed=%d: level never rose", n, seed)
			}
		}
	}
}

// TestCellTableSharedProbeRun forces keys into one probe run that wraps
// past the end of the table (their home is its last position) and
// checks lookups, the overflow rebuild and a merge against the model.
func TestCellTableSharedProbeRun(t *testing.T) {
	const n = 32
	b := NewBucketing(n, Options{Thresh: 10, Iterations: 2, RNG: stats.NewRNG(5), Parallelism: 1})
	mask := uint64(len(b.copies[0].table) - 1)
	var xs []uint64
	for v := uint64(0); len(xs) < 3*b.thresh; v++ {
		if probeHome(packWord(v, n), mask) == mask {
			xs = append(xs, v)
		}
	}
	ms := newCellModels(b)
	longest := 0
	for i := range xs {
		b.ProcessBatch(xs[i : i+1])
		modelFeed(b, ms, xs[i:i+1])
		requireCellsMatch(t, "shared run", b, ms)
		longest = max(longest, maxProbe(b.copies[0]))
	}
	if longest < b.thresh/2 {
		t.Fatalf("forced keys reached a probe run of only %d", longest)
	}
	c := NewBucketing(n, Options{Thresh: 10, Iterations: 2, RNG: stats.NewRNG(5), Parallelism: 1})
	cms := newCellModels(c)
	c.ProcessBatch(xs[len(xs)/2:])
	modelFeed(c, cms, xs[len(xs)/2:])
	if err := c.Merge(b); err != nil {
		t.Fatal(err)
	}
	modelMerge(cms, ms, c.thresh)
	requireCellsMatch(t, "merged shared run", c, cms)
}

// TestCellTableCraftedProbeBound plays a caller who knows the sketch's
// hashes and the probe mixer but not the salt. Two crafted streams —
// elements sharing their low 20 bits, and elements whose unsalted probe
// hash lands on one home — must leave every probe short, while the
// second stream does pile into one run when the salt is zero.
func TestCellTableCraftedProbeBound(t *testing.T) {
	const n = 32
	opts := func() Options { return Options{Iterations: 3, RNG: stats.NewRNG(9), Parallelism: 1} }
	mask := uint64(len(NewBucketing(n, opts()).copies[0].table) - 1)
	// A key is the element's packed word.
	fromWord := func(w uint64) uint64 { return bits.Reverse64(w) >> (64 - n) }
	var lowShared, homeShared []uint64
	for k := uint64(0); k < 1<<12; k++ {
		lowShared = append(lowShared, fromWord(k<<20|0x5a5a5))
	}
	for w := uint64(0); len(homeShared) < 1<<12; w++ {
		if stats.Mix64(w)&mask == 0 {
			homeShared = append(homeShared, fromWord(w))
		}
	}
	run := func(xs []uint64) int {
		b := NewBucketing(n, opts())
		longest := 0
		for lo := 0; lo < len(xs); lo += 64 {
			b.ProcessBatch(xs[lo : lo+64])
			for _, c := range b.copies {
				longest = max(longest, maxProbe(c))
			}
		}
		return longest
	}
	const bound = 32
	if got := run(lowShared); got > bound {
		t.Errorf("elements sharing their low bits: probe length %d > %d", got, bound)
	}
	if got := run(homeShared); got > bound {
		t.Errorf("elements sharing an unsalted home: probe length %d > %d", got, bound)
	}
	salt := probeSalt
	probeSalt = 0
	defer func() { probeSalt = salt }()
	if got := run(homeShared); got <= 4*bound {
		t.Errorf("unsalted, the crafted elements reach a probe length of only %d", got)
	}
}
