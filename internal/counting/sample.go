package counting

import (
	"mcf0/internal/bitvec"
	"mcf0/internal/hash"
	"mcf0/internal/oracle"
)

// Sample draws count near-uniform satisfying assignments of φ, following
// the paper's §6 "Sampling" direction (the Jerrum–Valiant–Vazirani
// counting↔sampling connection realised UniGen-style over the Bucketing
// sketch): each sample draws a fresh h ∈ H_Toeplitz(n, n) and a uniform
// cell target α, grows the prefix length until the cell
// Sol(φ) ∩ h_m⁻¹(α_m) is small, and returns a uniform element of the
// cell. Pairwise independence of the cell partition makes cell membership
// nearly uniform over Sol(φ).
//
// Empty cells (possible once m is deep) are retried with a fresh hash, up
// to a bounded number of attempts per sample; a nil slice is returned only
// if φ is unsatisfiable.
func Sample(src oracle.Source, count int, opts Options) []bitvec.BitVec {
	n := src.NVars()
	p := opts.Resolve(defaultSeed)
	thresh, rng := p.Thresh, p.RNG
	fam := hash.NewToeplitz(n, n)

	// Unsatisfiable formulas have nothing to sample.
	if src.Enumerate(nil, nil, 1, func(bitvec.BitVec) bool { return true }) == 0 {
		return nil
	}

	var out []bitvec.BitVec
	const maxAttempts = 64
	for len(out) < count {
		var cell []bitvec.BitVec
		for attempt := 0; attempt < maxAttempts && len(cell) == 0; attempt++ {
			h := fam.Draw(rng.Uint64)
			target := bitvec.Random(n, rng.Uint64)
			cell = sampleCell(src, h, target, thresh)
		}
		if len(cell) == 0 {
			// Degenerate randomness; fall back to the first solution so the
			// call still terminates with valid samples.
			src.Enumerate(nil, nil, 1, func(x bitvec.BitVec) bool {
				cell = append(cell, x)
				return true
			})
		}
		out = append(out, cell[rng.Intn(len(cell))])
	}
	return out
}

// sampleCell finds the deepest prefix length m whose cell
// Sol(φ) ∩ {x : h_m(x) = target_m} is non-empty but below thresh and
// returns its contents; nil when even the first non-full level is empty.
func sampleCell(src oracle.Source, h *hash.Linear, target bitvec.BitVec, thresh int) []bitvec.BitVec {
	n := h.InBits()
	for m := 0; m <= n; m++ {
		cons := h.PrefixEqualSystem(m, target.Prefix(m))
		var cell []bitvec.BitVec
		c := src.Enumerate(cons, nil, thresh, func(x bitvec.BitVec) bool {
			cell = append(cell, x)
			return true
		})
		if c < thresh {
			return cell // may be empty: caller retries with a fresh hash
		}
	}
	return nil
}
