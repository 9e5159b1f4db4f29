package kmv

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mcf0/internal/bitvec"
	"mcf0/internal/wire"
)

// vec places v in the last 16 bits of a bits-wide vector (bits ≥ 16), so
// lexicographic order is numeric order on v and, for wide vectors, every
// comparison runs through the all-zero leading words.
func vec(v uint16, bits int) bitvec.BitVec {
	x := bitvec.New(bits)
	for i := 0; i < 16; i++ {
		x.Set(bits-16+i, v&(1<<(15-i)) != 0)
	}
	return x
}

// sortedDistinct is the reference: the distinct values, ascending, first p.
func sortedDistinct(vs []uint16, p int) []uint16 {
	ref := slices.Compact(slices.Sorted(slices.Values(vs)))
	return ref[:min(p, len(ref))]
}

func sameValues(s *Set, want []uint16, bits int) error {
	if s.Len() != len(want) {
		return fmt.Errorf("holds %d values, want %d", s.Len(), len(want))
	}
	for i, v := range want {
		if !s.Values()[i].Equal(vec(v, bits)) {
			return fmt.Errorf("value %d is %v, want %d", i, s.Values()[i], v)
		}
	}
	return nil
}

// fill inserts vs one by one, checking each Insert's report and the
// candidate test against the set's state before the call.
func fill(s *Set, vs []uint16, bits int) error {
	for _, v := range vs {
		x := vec(v, bits)
		cand := s.Candidate(x)
		if cand != (!s.Full() || x.Less(s.Max())) {
			return fmt.Errorf("Candidate(%d) = %v on %d values (full %v)", v, cand, s.Len(), s.Full())
		}
		present := slices.ContainsFunc(s.Values(), x.Equal)
		if got := s.Insert(x); got != (cand && !present) {
			return fmt.Errorf("Insert(%d) = %v (candidate %v, present %v)", v, got, cand, present)
		}
	}
	return nil
}

// checkInsertMerge is the property: inserting raw one by one, and merging
// a set built from other into it, both match sort-and-dedup.
func checkInsertMerge(raw, other []uint16, p, bits int) error {
	a, b := New(bits, p), New(bits, p)
	if err := fill(a, raw, bits); err != nil {
		return fmt.Errorf("insert: %w", err)
	}
	if err := sameValues(a, sortedDistinct(raw, p), bits); err != nil {
		return fmt.Errorf("insert: %w", err)
	}
	if err := fill(b, other, bits); err != nil {
		return fmt.Errorf("insert other: %w", err)
	}
	a.Merge(b, make([]uint64, p*((bits+63)/64)))
	if err := sameValues(a, sortedDistinct(append(slices.Clone(raw), other...), p), bits); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if err := sameValues(b, sortedDistinct(other, p), bits); err != nil {
		return fmt.Errorf("merge mutated its argument: %w", err)
	}
	return nil
}

// TestInsertMergeMatchSortDedup checks Insert, Candidate and Merge against
// a sort-and-dedup reference with testing/quick, at one-word and
// multi-word widths, with value ranges wide (few repeats) and narrow (many
// repeats, so merges meet equal values in both sets). The fixed inputs
// first are the accumulator cases FindMin's own tests used to carry.
func TestInsertMergeMatchSortDedup(t *testing.T) {
	for _, c := range []struct {
		raw, other []uint16
		p          int
	}{
		{[]uint16{5, 3, 4}, nil, 2},       // replacement keeps the p smallest
		{[]uint16{5, 3, 4, 7, 1}, nil, 2}, // 7 rejected, 1 accepted
		{[]uint16{9, 9, 9}, []uint16{9}, 3},
		{nil, []uint16{2, 1}, 1},
		{[]uint16{65535, 0, 65535}, []uint16{0, 1}, 20},
	} {
		for _, bits := range []int{16, 70, 130} {
			if err := checkInsertMerge(c.raw, c.other, c.p, bits); err != nil {
				t.Errorf("raw %v other %v p %d bits %d: %v", c.raw, c.other, c.p, bits, err)
			}
		}
	}
	f := func(raw, other []uint16, pRaw, shape uint8) bool {
		bits := []int{16, 70, 130}[shape%3]
		if shape&4 != 0 {
			for i := range raw {
				raw[i] &= 31
			}
			for i := range other {
				other[i] &= 31
			}
		}
		if err := checkInsertMerge(raw, other, int(pRaw%20)+1, bits); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCandidateSound: after the set fills, values above the maximum stop
// being candidates and values below it stay candidates.
func TestCandidateSound(t *testing.T) {
	s := New(8, 2)
	for _, v := range []uint64{5, 3, 4} {
		s.Insert(bitvec.FromUint64(v, 8))
	}
	if s.Candidate(bitvec.FromUint64(7, 8)) || s.Candidate(bitvec.FromUint64(4, 8)) {
		t.Fatal("candidate accepted a value at or above the k-th minimum")
	}
	if !s.Candidate(bitvec.FromUint64(1, 8)) {
		t.Fatal("candidate rejected a new minimum")
	}
}

func TestEstimate(t *testing.T) {
	// Not full: the exact count.
	s := New(16, 4)
	for _, v := range []uint16{0x8000, 3, 0x8000, 9} {
		s.Insert(vec(v, 16))
	}
	if got := s.Estimate(); got != 3 {
		t.Errorf("partial set estimate %v, want 3", got)
	}
	// Full: k / frac(max); max = 0b1 followed by zeros reads as 1/2.
	s.Insert(vec(0x4000, 16))
	if got := s.Estimate(); got != 8 {
		t.Errorf("full set estimate %v, want 4 / 0.5 = 8", got)
	}
	// Full with a 70-bit maximum that is non-zero only past its first 53
	// bits: frac reads from its leading one (position 68), so the
	// estimate is 2 / 2^-69, not the count 2.
	z := New(70, 2)
	z.Insert(vec(1, 70))
	z.Insert(vec(2, 70))
	if !z.Full() || z.Max().Fraction() != math.Ldexp(1, -69) {
		t.Fatal("setup: want a full set whose maximum reads as fraction 2^-69")
	}
	if got := z.Estimate(); got != math.Ldexp(1, 70) {
		t.Errorf("frac(max) = 2^-69 estimate %v, want 2^70", got)
	}
	// k = 1 holding the zero vector.
	one := New(16, 1)
	one.Insert(vec(0, 16))
	if got := one.Estimate(); got != 1 {
		t.Errorf("zero maximum estimate %v, want 1", got)
	}
}

func TestCarveCopyResetWords(t *testing.T) {
	sets := Carve(70, 3, 2)
	a, b := &sets[0], &sets[1]
	for _, v := range []uint16{7, 1, 4, 2} {
		a.Insert(vec(v, 70))
	}
	if b.Len() != 0 {
		t.Fatal("carved sets share values")
	}
	if got := a.Words(); got != 3*2 {
		t.Errorf("Words = %d, want 6 (3 values × 2 words)", got)
	}
	b.CopyFrom(a)
	a.Reset()
	if a.Len() != 0 {
		t.Fatal("Reset left values behind")
	}
	a.Insert(vec(9, 70))
	if err := sameValues(b, []uint16{1, 2, 4}, 70); err != nil {
		t.Fatalf("copy: %v", err)
	}
	if a.Bits() != 70 {
		t.Fatalf("Bits = %d, want 70", a.Bits())
	}
}

func TestWireRoundTrip(t *testing.T) {
	s := New(70, 5)
	for _, v := range []uint16{40, 3, 17, 3, 900, 5, 2} {
		s.Insert(vec(v, 70))
	}
	blob := s.AppendBinary(nil)
	r := wire.NewReader(blob)
	d := New(70, 5)
	if !d.Decode(r) || r.Close() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if err := sameValues(d, []uint16{2, 3, 5, 17, 40}, 70); err != nil {
		t.Fatal(err)
	}
	if d.Estimate() != s.Estimate() || string(d.AppendBinary(nil)) != string(blob) {
		t.Fatal("decoded set diverges from the original")
	}
}

// TestDecodeRejects: a count above k, values out of order or repeated, and
// slabs over the bound fail the reader with ErrCorrupt.
func TestDecodeRejects(t *testing.T) {
	body := func(count int, vs ...uint16) []byte {
		dst := wire.AppendInt(nil, count)
		for _, v := range vs {
			dst = wire.AppendBitVec(dst, vec(v, 16))
		}
		return dst
	}
	for name, data := range map[string][]byte{
		"count above k":  body(5, 1, 2, 3, 4, 5),
		"non-ascending":  body(3, 1, 5, 4),
		"repeated value": body(2, 6, 6),
	} {
		r := wire.NewReader(data)
		if New(16, 4).Decode(r) || !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("%s: decode err %v, want ErrCorrupt", name, r.Err())
		}
	}
	r := wire.NewReader(body(3, 1, 2))
	if New(16, 4).Decode(r) || !errors.Is(r.Err(), wire.ErrTruncated) {
		t.Errorf("truncated body: err %v, want ErrTruncated", r.Err())
	}

	r = wire.NewReader(nil)
	if !CheckSlab(r, MaxSlabWords/2, 128) || r.Err() != nil {
		t.Fatal("slab at the bound rejected")
	}
	if CheckSlab(r, MaxSlabWords/2+1, 128) || !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Fatalf("slab over the bound: err %v, want ErrCorrupt", r.Err())
	}
	r = wire.NewReader(nil)
	if CheckSlab(r, math.MaxInt, 3) || !errors.Is(r.Err(), wire.ErrCorrupt) {
		t.Fatalf("t × k overflowing the bound: err %v, want ErrCorrupt", r.Err())
	}
}
