package kmv

import (
	"mcf0/internal/hash"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

// Sketch is the Minimum F0 sketch (Algorithm 3's Minimum case, and the
// Section 5 set streams run "inside out"): t independent copies, each a
// Toeplitz hash n → 3n and a Set of the thresh smallest distinct hash
// values seen so far, with every copy's rows carved from one slab. The
// owner feeds each copy (Copy) with its own absorb or FindMin; the
// sketch owns the rest: the median estimate, the footprint, Clone, the
// same-draws merge and the codec body.
type Sketch struct {
	n, thresh int
	hs        []*hash.Linear
	sets      []Set
	// mergeTmp is Merge's rank-order staging area (thresh rows' words),
	// allocated on first Merge and reused across copies.
	mergeTmp []uint64
}

// NewSketch draws t Toeplitz n → 3n hashes from rand in copy order and
// returns the sketch with every set empty.
func NewSketch(n, thresh, t int, rand func() uint64) *Sketch {
	fam := hash.NewToeplitz(n, 3*n)
	hs := make([]*hash.Linear, t)
	for i := range hs {
		hs[i] = fam.Draw(rand)
	}
	return newSketch(n, thresh, hs)
}

func newSketch(n, thresh int, hs []*hash.Linear) *Sketch {
	return &Sketch{n: n, thresh: thresh, hs: hs, sets: Carve(3*n, thresh, len(hs))}
}

// Fits reports whether a t-copy sketch of thresh values over an n-bit
// universe is inside the decode bounds, so its snapshot restores.
func Fits(n, thresh, t int) bool {
	return thresh <= MaxThresh && t <= MaxCopies &&
		uint64(t)*uint64(thresh)*uint64((3*n+63)/64) <= MaxSlabWords
}

// N returns the universe width.
func (s *Sketch) N() int { return s.n }

// Thresh returns the set capacity k of every copy.
func (s *Sketch) Thresh() int { return s.thresh }

// Copies returns the copy count t.
func (s *Sketch) Copies() int { return len(s.hs) }

// Copy returns copy i's hash draw and set. Copies are independent: a
// worker may feed copy i while others feed the rest.
func (s *Sketch) Copy(i int) (*hash.Linear, *Set) { return s.hs[i], &s.sets[i] }

// Estimate is the median over copies of the k-minimum-values estimate.
func (s *Sketch) Estimate() float64 {
	ests := make([]float64, len(s.sets))
	for i := range s.sets {
		ests[i] = s.sets[i].Estimate()
	}
	return stats.Median(ests)
}

// Words returns the footprint of the values held, in 64-bit words (hash
// draws excluded).
func (s *Sketch) Words() int {
	total := 0
	for i := range s.sets {
		total += s.sets[i].Words()
	}
	return total
}

// Clone returns a deep copy with its own slab, sharing the immutable hash
// draws — the shared-draw precondition Merge checks.
func (s *Sketch) Clone() *Sketch {
	out := newSketch(s.n, s.thresh, s.hs)
	for i := range s.sets {
		out.sets[i].CopyFrom(&s.sets[i])
	}
	return out
}

// Empty returns a sketch with every set empty that shares s's hash
// draws, so it merges with s. It reads only the draws and the shape,
// never the sets, so it is safe while another goroutine feeds s.
func (s *Sketch) Empty() *Sketch { return newSketch(s.n, s.thresh, s.hs) }

// Merge folds o's values into s and reports true, or reports false with s
// unchanged when the two differ in width, threshold, copy count or any
// hash draw. Per copy the sorted value lists merge and the thresh
// smallest survive: exactly the state one sketch fed both streams would
// hold. o is not mutated.
func (s *Sketch) Merge(o *Sketch) bool {
	if o.n != s.n || o.thresh != s.thresh || len(o.hs) != len(s.hs) {
		return false
	}
	for i, h := range s.hs {
		if !h.Equal(o.hs[i]) {
			return false
		}
	}
	if s.mergeTmp == nil {
		s.mergeTmp = make([]uint64, s.thresh*((3*s.n+63)/64))
	}
	for i := range s.sets {
		s.sets[i].Merge(&o.sets[i], s.mergeTmp)
	}
	return true
}

// AppendBinary appends the codec body: thresh, t, then per copy the hash
// draw and the set body. The universe width is the owner's to frame.
func (s *Sketch) AppendBinary(dst []byte) []byte {
	dst = wire.AppendInt(dst, s.thresh)
	dst = wire.AppendInt(dst, len(s.hs))
	for i, h := range s.hs {
		dst = hash.AppendLinear(dst, h)
		dst = s.sets[i].AppendBinary(dst)
	}
	return dst
}

// DecodeSketch reads an AppendBinary body over an n-bit universe,
// checking the count bounds, the slab bound before allocating, every
// draw's n → 3n shape and every set's order. Failures land in r; it
// returns nil on failure.
func DecodeSketch(r *wire.Reader, n int) *Sketch {
	thresh := r.Int(MaxThresh)
	t := r.Int(MaxCopies)
	if r.Err() != nil {
		return nil
	}
	if thresh < 1 || t < 1 {
		r.Corrupt("k-min sketch shape thresh=%d t=%d", thresh, t)
		return nil
	}
	if !CheckSlab(r, t*thresh, 3*n) {
		return nil
	}
	s := newSketch(n, thresh, make([]*hash.Linear, t))
	for i := range s.hs {
		h := hash.DecodeLinear(r)
		if r.Err() != nil {
			return nil
		}
		if h.InBits() != n || h.OutBits() != 3*n {
			r.Corrupt("k-min copy %d hash is %d->%d bits, want %d->%d",
				i, h.InBits(), h.OutBits(), n, 3*n)
			return nil
		}
		s.hs[i] = h
		if !s.sets[i].Decode(r) {
			return nil
		}
	}
	return s
}
