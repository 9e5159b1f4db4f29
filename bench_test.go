// Benchmarks timing the kernels behind the cmd/experiments registry
// (E01–E14, A01–A05; BenchmarkE1ApproxMC is E01, BenchmarkA2Search A02,
// and so on). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark exercises the kernel whose cost the corresponding paper
// claim governs; `go run ./cmd/experiments -run <id>` prints the
// accuracy/communication table that complements its timings.
package mcf0

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"mcf0/internal/bitvec"
	"mcf0/internal/counting"
	"mcf0/internal/delphic"
	"mcf0/internal/distributed"
	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/gf2"
	"mcf0/internal/hash"
	"mcf0/internal/kmv"
	"mcf0/internal/oracle"
	"mcf0/internal/setstream"
	"mcf0/internal/stats"
	"mcf0/internal/streaming"
)

func benchOpts(seed uint64) counting.Options {
	return counting.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(seed)}
}

// BenchmarkE1ApproxMC times Algorithm 5 (Bucketing → ApproxMC) on DNF and
// CNF backends (Theorem 2).
func BenchmarkE1ApproxMC(b *testing.B) {
	rng := stats.NewRNG(1)
	d := formula.RandomDNF(16, 8, 5, rng)
	cnf, _ := formula.PlantedKCNF(14, 21, 3, rng)
	b.Run("DNF/n=16/k=8", func(b *testing.B) {
		b.ReportAllocs()
		src := oracle.NewDNFSource(d)
		for i := 0; i < b.N; i++ {
			counting.ApproxMC(src, benchOpts(uint64(i)))
		}
	})
	b.Run("CNF/n=14", func(b *testing.B) {
		b.ReportAllocs()
		src := oracle.NewCNFSource(cnf)
		for i := 0; i < b.N; i++ {
			counting.ApproxMC(src, benchOpts(uint64(i)))
		}
	})
	// The perfbench count shape: a 20-variable, 62-clause 3-CNF with 255
	// models at default options (Thresh 150, 82 trials), reporting the
	// oracle and solver work per count beside the time.
	b.Run("CNF/n=20/3cnf-defaults", func(b *testing.B) {
		b.ReportAllocs()
		src := oracle.NewCNFSource(formula.RandomKCNF(20, 62, 3, stats.NewRNG(0xb0c2)))
		var queries int64
		for i := 0; i < b.N; i++ {
			queries += counting.ApproxMC(src, counting.Options{RNG: stats.NewRNG(uint64(i))}).OracleQueries
		}
		b.ReportMetric(float64(queries)/float64(b.N), "oracle-calls/op")
		b.ReportMetric(float64(src.SolverStats().Conflicts)/float64(b.N), "conflicts/op")
	})
	// Three 20-variable 3-CNF bands whose models overflow the 2·Thresh
	// solution pool, so every trial asks the oracle and the pool's extra
	// level-0 queries are pure overhead. Op i counts formula i mod 10.
	for _, band := range []struct {
		name    string
		clauses int
		lo, hi  uint64
	}{
		{"CNF/n=20/3cnf-1000-1400-models", 51, 1000, 1400},
		{"CNF/n=20/3cnf-2^14-2^16-models", 28, 1 << 14, 1 << 16},
		{"CNF/n=20/3cnf-2^17-2^19-models", 14, 1 << 17, 1 << 19},
	} {
		var srcs []*oracle.CNFSource
		for seed := uint64(0); len(srcs) < 10; seed++ {
			c := formula.RandomKCNF(20, band.clauses, 3, stats.NewRNG(seed))
			if models := exact.CountCNF(c); band.lo <= models && models < band.hi {
				srcs = append(srcs, oracle.NewCNFSource(c))
			}
		}
		b.Run(band.name, func(b *testing.B) {
			b.ReportAllocs()
			var queries int64
			for i := 0; i < b.N; i++ {
				opts := counting.Options{RNG: stats.NewRNG(uint64(i)), Parallelism: 1}
				queries += counting.ApproxMC(srcs[i%len(srcs)], opts).OracleQueries
			}
			b.ReportMetric(float64(queries)/float64(b.N), "oracle-calls/op")
		})
	}
}

// BenchmarkE2MinDNF times Algorithm 6 (Minimum), the DNF FPRAS, across the
// term-count scaling of Theorem 3.
func BenchmarkE2MinDNF(b *testing.B) {
	rng := stats.NewRNG(2)
	for _, k := range []int{4, 16, 64} {
		d := formula.RandomDNF(32, k, 8, rng)
		b.Run(fmt.Sprintf("n=32/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counting.ApproxModelCountMinDNF(d, benchOpts(uint64(i)))
			}
		})
	}
}

// BenchmarkE2FindMin isolates the Proposition 2 kernel.
func BenchmarkE2FindMin(b *testing.B) {
	rng := stats.NewRNG(3)
	for _, n := range []int{16, 32, 64} {
		d := formula.RandomDNF(n, 16, n/4, rng)
		h := hash.NewToeplitz(n, 3*n).Draw(rng.Uint64).(*hash.Linear)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counting.FindMinDNF(d, h, kmv.New(3*n, 24))
			}
		})
	}
}

// BenchmarkE3FindMaxRange times the Proposition 3 binary search through the
// SAT oracle (linear hash specialisation).
func BenchmarkE3FindMaxRange(b *testing.B) {
	rng := stats.NewRNG(4)
	for _, n := range []int{16, 32, 64} {
		cnf, _ := formula.PlantedKCNF(n, n, 3, rng)
		fam := hash.NewXor(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := oracle.NewCNFSource(cnf)
			for i := 0; i < b.N; i++ {
				oracle.LinearTester{Source: src}.MaxTrailingZeros(fam.Draw(rng.Uint64), n)
			}
		})
	}
}

// BenchmarkE4F0Sketches times per-item processing of the three sketches
// (Lemmas 1–3).
func BenchmarkE4F0Sketches(b *testing.B) {
	n := 32
	rng := stats.NewRNG(5)
	elems := make([]uint64, 4096)
	for i := range elems {
		elems[i] = bitvec.Random(n, rng.Uint64).Uint64()
	}
	sOpts := streaming.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(9)}
	b.Run("bucketing", func(b *testing.B) {
		e := streaming.NewBucketing(n, sOpts)
		for i := 0; i < b.N; i++ {
			e.ProcessBatch(elems[i%len(elems) : i%len(elems)+1])
		}
	})
	b.Run("minimum", func(b *testing.B) {
		e := streaming.NewMinimum(n, sOpts)
		for i := 0; i < b.N; i++ {
			e.ProcessBatch(elems[i%len(elems) : i%len(elems)+1])
		}
	})
	b.Run("estimation", func(b *testing.B) {
		eOpts := sOpts
		eOpts.Iterations = 3
		eOpts.Thresh = 8
		e := streaming.NewEstimation(n, eOpts)
		for i := 0; i < b.N; i++ {
			e.ProcessBatch(elems[i%len(elems) : i%len(elems)+1])
		}
	})
}

// BenchmarkE4SketchBatch times the sharded batch-ingestion path: one
// 256-element ProcessBatch per op, with the per-copy work fanned across
// the worker pool (par=max) vs forced serial (par=1). The copy counts are
// paper-scale (t = 32) so there is enough independent work to shard; on a
// single-core machine the two variants collapse to the same figure.
func BenchmarkE4SketchBatch(b *testing.B) {
	n := 32
	rng := stats.NewRNG(25)
	elems := make([]uint64, 4096)
	for i := range elems {
		elems[i] = bitvec.Random(n, rng.Uint64).Uint64()
	}
	const chunk = 256
	for _, tc := range []struct {
		name string
		par  int
	}{{"par=1", 1}, {"par=max", 0}} {
		mkOpts := func(thresh, iters int) streaming.Options {
			return streaming.Options{Epsilon: 0.8, Delta: 0.2, Thresh: thresh, Iterations: iters,
				RNG: stats.NewRNG(9), Parallelism: tc.par}
		}
		b.Run("minimum/"+tc.name, func(b *testing.B) {
			e := streaming.NewMinimum(n, mkOpts(64, 32))
			for i := 0; i < b.N; i++ {
				lo := (i * chunk) % len(elems)
				e.ProcessBatch(elems[lo : lo+chunk])
			}
		})
		b.Run("bucketing/"+tc.name, func(b *testing.B) {
			e := streaming.NewBucketing(n, mkOpts(64, 32))
			for i := 0; i < b.N; i++ {
				lo := (i * chunk) % len(elems)
				e.ProcessBatch(elems[lo : lo+chunk])
			}
		})
		b.Run("estimation/"+tc.name, func(b *testing.B) {
			e := streaming.NewEstimation(n, mkOpts(24, 16))
			for i := 0; i < b.N; i++ {
				lo := (i * chunk) % len(elems)
				e.ProcessBatch(elems[lo : lo+chunk])
			}
		})
	}
}

// BenchmarkE6DNFStreamBatch times batched set-stream ingestion: one
// 8-item ProcessDNFBatch per op, per-copy FindMin fanned across the pool.
func BenchmarkE6DNFStreamBatch(b *testing.B) {
	n := 16
	rng := stats.NewRNG(26)
	items := make([]*formula.DNF, 4)
	for i := range items {
		items[i] = formula.RandomDNF(n, 1, 8, rng)
	}
	for _, tc := range []struct {
		name string
		par  int
	}{{"par=1", 1}, {"par=max", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			ds := setstream.NewDNFStream(n, setstream.Options{Epsilon: 0.8, Delta: 0.2,
				Thresh: 24, Iterations: 16, RNG: stats.NewRNG(13), Parallelism: tc.par})
			for i := 0; i < b.N; i++ {
				ds.ProcessDNFBatch(items)
			}
		})
	}
}

// BenchmarkE5Distributed times the three Section 4 protocols and reports
// communication bits per operation.
func BenchmarkE5Distributed(b *testing.B) {
	rng := stats.NewRNG(6)
	d := formula.RandomDNF(16, 16, 6, rng)
	dOpts := distributed.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(11)}
	for _, k := range []int{2, 8} {
		parts := distributed.Split(d, k)
		b.Run(fmt.Sprintf("bucketing/k=%d", k), func(b *testing.B) {
			var bits int64
			for i := 0; i < b.N; i++ {
				bits = distributed.Bucketing(parts, dOpts).Comm.Total()
			}
			b.ReportMetric(float64(bits), "comm-bits")
		})
		b.Run(fmt.Sprintf("minimum/k=%d", k), func(b *testing.B) {
			var bits int64
			for i := 0; i < b.N; i++ {
				bits = distributed.Minimum(parts, dOpts).Comm.Total()
			}
			b.ReportMetric(float64(bits), "comm-bits")
		})
	}
}

// BenchmarkE6DNFStream compares per-item cost of the Theorem 5 sketch with
// naive element expansion across set sizes — the crossover experiment.
func BenchmarkE6DNFStream(b *testing.B) {
	n := 24
	rng := stats.NewRNG(7)
	ssOpts := setstream.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(13)}
	for _, w := range []int{16, 12, 8} { // set size 2^(n-w)
		d := formula.RandomDNF(n, 1, w, rng)
		b.Run(fmt.Sprintf("sketch/setsize=2^%d", n-w), func(b *testing.B) {
			ds := setstream.NewDNFStream(n, ssOpts)
			for i := 0; i < b.N; i++ {
				ds.ProcessDNF(d)
			}
		})
		b.Run(fmt.Sprintf("naive/setsize=2^%d", n-w), func(b *testing.B) {
			mOpts := streaming.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(13)}
			m := streaming.NewMinimum(n, mOpts)
			for i := 0; i < b.N; i++ {
				src := oracle.NewDNFSource(d)
				src.Enumerate(nil, nil, -1, func(x bitvec.BitVec) bool {
					m.ProcessBatch([]uint64{x.Uint64()})
					return true
				})
			}
		})
	}
}

// BenchmarkE7Ranges times per-item processing of d-dimensional range items
// (Theorem 6).
func BenchmarkE7Ranges(b *testing.B) {
	rng := stats.NewRNG(8)
	ssOpts := setstream.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(15)}
	for _, tc := range []struct{ d, bits int }{{1, 16}, {2, 12}, {3, 8}} {
		widths := make([]int, tc.d)
		dims := make([]formula.Range, tc.d)
		for i := range widths {
			widths[i] = tc.bits
			maxV := uint64(1)<<uint(tc.bits) - 1
			lo := rng.Uint64n(maxV / 2)
			dims[i] = formula.Range{Lo: lo, Hi: lo + maxV/4, Bits: tc.bits}
		}
		mr := formula.MultiRange{Dims: dims}
		b.Run(fmt.Sprintf("d=%d/bits=%d", tc.d, tc.bits), func(b *testing.B) {
			rs := setstream.NewRangeStream(widths, ssOpts)
			for i := 0; i < b.N; i++ {
				if err := rs.ProcessRange(mr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Affine times AffineFindMin and per-item affine processing
// (Theorem 7: O(n⁴·t) per item).
func BenchmarkE8Affine(b *testing.B) {
	rng := stats.NewRNG(9)
	for _, n := range []int{16, 32, 64} {
		a := gf2.RandomMatrix(n/2, n, rng.Uint64)
		bb := bitvec.Random(n/2, rng.Uint64)
		h := hash.NewToeplitz(n, 3*n).Draw(rng.Uint64).(*hash.Linear)
		b.Run(fmt.Sprintf("findmin/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setstream.AffineFindMin(a, bb, h, kmv.New(3*n, 24))
			}
		})
	}
}

// BenchmarkE9Blowup times the Lemma 4 constructions themselves: DNF
// materialisation cost grows as (2n)^d while CNF stays linear.
func BenchmarkE9Blowup(b *testing.B) {
	for _, tc := range []struct{ n, d int }{{8, 1}, {8, 2}, {8, 3}} {
		dims := make([]formula.Range, tc.d)
		for i := range dims {
			dims[i] = formula.Range{Lo: 1, Hi: uint64(1)<<uint(tc.n) - 1, Bits: tc.n}
		}
		mr := formula.MultiRange{Dims: dims}
		b.Run(fmt.Sprintf("DNF/n=%d/d=%d", tc.n, tc.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := formula.MultiRangeDNF(mr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CNF/n=%d/d=%d", tc.n, tc.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := formula.MultiRangeCNF(mr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Weighted times the weighted-#DNF-to-range-stream reduction.
func BenchmarkE10Weighted(b *testing.B) {
	rng := stats.NewRNG(10)
	n := 6
	d := formula.RandomDNF(n, 4, 3, rng)
	w := exact.WeightFunc{Num: make([]uint64, n), Bits: make([]int, n)}
	for i := 0; i < n; i++ {
		w.Bits[i] = 3
		w.Num[i] = 1 + rng.Uint64n(6)
	}
	ssOpts := setstream.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(17)}
	b.Run("rangestream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			setstream.WeightedCount(setstream.WeightedDNF{D: d, W: w}, ssOpts)
		}
	})
	b.Run("exact-IE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.WeightedCountDNF(d, w)
		}
	})
}

// BenchmarkE11Progressions times arithmetic-progression items
// (Corollary 1).
func BenchmarkE11Progressions(b *testing.B) {
	ssOpts := setstream.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(19)}
	ps := setstream.NewProgressionStream([]int{20}, ssOpts)
	item := []formula.Progression{{A: 5, B: 1 << 19, LogStep: 3, Bits: 20}}
	for i := 0; i < b.N; i++ {
		if err := ps.ProcessProgression(item); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14Delphic compares per-item cost of the hashing route vs the
// APS/Delphic sampling route on range items (Remark 2).
func BenchmarkE14Delphic(b *testing.B) {
	rng := stats.NewRNG(21)
	for _, tc := range []struct{ d, bits int }{{1, 12}, {2, 8}, {3, 6}} {
		dims := make([]formula.Range, tc.d)
		widths := make([]int, tc.d)
		for i := range dims {
			maxV := uint64(1)<<uint(tc.bits) - 1
			lo := rng.Uint64n(maxV / 2)
			dims[i] = formula.Range{Lo: lo, Hi: lo + maxV/4, Bits: tc.bits}
			widths[i] = tc.bits
		}
		mr := formula.MultiRange{Dims: dims}
		b.Run(fmt.Sprintf("hash/d=%d", tc.d), func(b *testing.B) {
			ssOpts := setstream.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, RNG: stats.NewRNG(23)}
			rs := setstream.NewRangeStream(widths, ssOpts)
			for i := 0; i < b.N; i++ {
				if err := rs.ProcessRange(mr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("aps/d=%d", tc.d), func(b *testing.B) {
			est := delphic.NewEstimator(tc.d*tc.bits, 0.8, 0.2, 64, stats.NewRNG(23))
			s, ok := delphic.NewMultiRangeSet(mr)
			if !ok {
				b.Fatal("bad range")
			}
			for i := 0; i < b.N; i++ {
				est.Process(s)
			}
		})
	}
}

// BenchmarkA1HashFamily compares drawing and evaluating H_Toeplitz vs
// H_xor vs the s-wise polynomial family.
func BenchmarkA1HashFamily(b *testing.B) {
	n := 64
	rng := stats.NewRNG(11)
	x := bitvec.Random(n, rng.Uint64)
	fams := []hash.Family{hash.NewToeplitz(n, n), hash.NewXor(n, n), hash.NewPoly(n, 8)}
	draw := func(fam hash.Family) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fam.Draw(rng.Uint64)
			}
		}
	}
	// The Minimum sketch's n → 3n shape.
	b.Run("draw/toeplitz/n=32/m=96", draw(hash.NewToeplitz(32, 96)))
	for _, fam := range fams {
		b.Run("draw/"+fam.Name(), draw(fam))
		h := fam.Draw(rng.Uint64)
		// eval measures the destination-passing path the enumeration loops
		// use (hash.Func.EvalInto).
		scratch := bitvec.New(h.OutBits())
		b.Run("eval/"+fam.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.EvalInto(x, scratch)
			}
		})
	}
}

var sinkUint64 uint64

// BenchmarkToeplitzEvalInto isolates the PR-4 tentpole kernel: Toeplitz
// evaluation as a carry-less multiply of the packed diagonal (clmul)
// against the per-row dot-product sweep (dotrow) over the same drawn
// function. Shapes cover the sketch workloads (n→n bucketing, n→3n
// minimum) and widths straddling the word boundary; the uint64 variant is
// the integer fast path the trailing-zero estimators consume via
// hash.AsUint64Hash.
func BenchmarkToeplitzEvalInto(b *testing.B) {
	rng := stats.NewRNG(31)
	for _, tc := range []struct{ n, m int }{{32, 32}, {32, 96}, {64, 64}, {64, 192}, {127, 127}} {
		h := hash.NewToeplitz(tc.n, tc.m).Draw(rng.Uint64).(*hash.Linear)
		// Rewrapping A and b drops the packed-diagonal kernel, leaving the
		// pre-PR-4 row sweep over the identical function.
		slow := hash.NewLinear(h.A(), h.B)
		x := bitvec.Random(tc.n, rng.Uint64)
		dst := bitvec.New(tc.m)
		b.Run(fmt.Sprintf("clmul/n=%d/m=%d", tc.n, tc.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.EvalInto(x, dst)
			}
		})
		b.Run(fmt.Sprintf("dotrow/n=%d/m=%d", tc.n, tc.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				slow.EvalInto(x, dst)
			}
		})
	}
	u, ok := hash.AsUint64Hash(hash.NewToeplitz(48, 48).Draw(rng.Uint64))
	if !ok {
		b.Fatal("expected integer fast path for 48→48")
	}
	b.Run("clmul-uint64/n=48/m=48", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= u.EvalUint64(uint64(i) & 0xFFFFFFFFFFFF)
		}
		sinkUint64 = acc
	})
}

// BenchmarkA2Search compares linear vs binary prefix search in oracle
// calls and time (ApproxMC vs ApproxMC2).
func BenchmarkA2Search(b *testing.B) {
	rng := stats.NewRNG(12)
	cnf := formula.RandomKCNF(20, 10, 3, rng)
	for _, binary := range []bool{false, true} {
		name := "linear"
		if binary {
			name = "binary"
		}
		b.Run(name, func(b *testing.B) {
			src := oracle.NewCNFSource(cnf)
			var queries int64
			for i := 0; i < b.N; i++ {
				queries = counting.ApproxMC(src, benchOpts(uint64(i)), counting.Variant{BinarySearch: binary}).OracleQueries
			}
			b.ReportMetric(float64(queries), "oracle-calls")
		})
	}
}

// BenchmarkA3Shootout is the §3.5 DNF FPRAS comparison.
func BenchmarkA3Shootout(b *testing.B) {
	rng := stats.NewRNG(13)
	d := formula.RandomDNF(24, 16, 8, rng)
	b.Run("bucketing", func(b *testing.B) {
		src := oracle.NewDNFSource(d)
		for i := 0; i < b.N; i++ {
			counting.ApproxMC(src, benchOpts(uint64(i)))
		}
	})
	b.Run("minimum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counting.ApproxModelCountMinDNF(d, benchOpts(uint64(i)))
		}
	})
	b.Run("karpluby", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counting.KarpLuby(d, benchOpts(uint64(i)))
		}
	})
}

// BenchmarkSATSolver times the CDCL substrate on planted CNF and CNF-XOR
// instances — the cost model behind every oracle call.
func BenchmarkSATSolver(b *testing.B) {
	rng := stats.NewRNG(14)
	for _, n := range []int{50, 100} {
		cnf, _ := formula.PlantedKCNF(n, 4*n, 3, rng)
		b.Run(fmt.Sprintf("planted3sat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := oracle.NewCNFSource(cnf)
				src.Enumerate(nil, nil, 1, func(bitvec.BitVec) bool { return true })
			}
		})
		b.Run(fmt.Sprintf("cnfxor/n=%d", n), func(b *testing.B) {
			cons := gf2.NewSystem(n)
			consRng := stats.NewRNG(15)
			for j := 0; j < n/4; j++ {
				cons.Add(bitvec.Random(n, consRng.Uint64), consRng.Bool())
			}
			for i := 0; i < b.N; i++ {
				src := oracle.NewCNFSource(cnf)
				src.Enumerate(cons, nil, 1, func(bitvec.BitVec) bool { return true })
			}
		})
	}
}

// BenchmarkSystemRewind isolates the PR-5 tentpole primitive: one
// mark/extend/rewind cycle (16 rows) on a persistent half-rank system,
// against the clone-and-replay it replaces. The rewind path recycles rows
// through the system's pool, so steady state is allocation-free.
func BenchmarkSystemRewind(b *testing.B) {
	rng := stats.NewRNG(27)
	for _, n := range []int{64, 256} {
		base := gf2.NewSystem(n)
		rows := make([]bitvec.BitVec, n)
		for i := range rows {
			rows[i] = bitvec.Random(n, rng.Uint64)
		}
		for i := 0; i < n/2; i++ {
			base.Add(rows[i], i%2 == 0)
		}
		const extend = 16
		b.Run(fmt.Sprintf("rewind/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cp := base.Mark()
				for k := 0; k < extend; k++ {
					base.Add(rows[n/2+k], k%2 == 0)
				}
				base.Rewind(cp)
			}
		})
		b.Run(fmt.Sprintf("clone/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := base.Clone()
				for k := 0; k < extend; k++ {
					sys.Add(rows[n/2+k], k%2 == 0)
				}
			}
		})
	}
}

// BenchmarkGF2 times the linear-algebra kernels underlying everything.
func BenchmarkGF2(b *testing.B) {
	rng := stats.NewRNG(16)
	for _, n := range []int{64, 256} {
		m := gf2.RandomMatrix(n, n, rng.Uint64)
		x := bitvec.Random(n, rng.Uint64)
		// mulvec measures MulVecInto, the kernel behind Linear.EvalInto.
		y := bitvec.New(n)
		b.Run(fmt.Sprintf("mulvec/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulVecInto(x, y)
			}
		})
		b.Run(fmt.Sprintf("solve/n=%d", n), func(b *testing.B) {
			rhs := bitvec.Random(n, rng.Uint64)
			for i := 0; i < b.N; i++ {
				sys := gf2.NewSystem(n)
				for r := 0; r < n; r++ {
					sys.Add(m.Row(r), rhs.Get(r))
				}
				sys.Solve()
			}
		})
	}
}

// BenchmarkGF2PolyMul times GF(2^64) multiplication (the s-wise family's
// inner loop).
func BenchmarkGF2PolyMul(b *testing.B) {
	fam := hash.NewPoly(64, 4)
	rng := stats.NewRNG(17)
	h := fam.Draw(rng.Uint64)
	x := bitvec.Random(64, rng.Uint64)
	y := bitvec.New(64)
	for i := 0; i < b.N; i++ {
		h.EvalInto(x, y)
	}
}

var sinkFloat float64

// BenchmarkConcurrentIngest times lock-free concurrent ingestion through
// NewConcurrentF0 (one 256-element AddBatch per op, issued from
// GOMAXPROCS producer goroutines) at replica caps 1 and GOMAXPROCS,
// against a NewF0 sketch (one replica) guarded by one more mutex under
// the same producers, the shape of a single-writer sketch behind a lock. On a single-core machine the variants
// collapse towards the same figure (no parallel producers actually run);
// the replicas=1 row then also bounds the front's acquisition overhead.
func BenchmarkConcurrentIngest(b *testing.B) {
	cfg := Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, Seed: 33, Parallelism: 1}
	const chunk = 256
	chunks := make([][]uint64, 16)
	for k := range chunks {
		chunks[k] = make([]uint64, chunk)
		for i := range chunks[k] {
			chunks[k][i] = uint64(k*chunk+i) * 2654435761 % (1 << 20)
		}
	}
	variants := []struct {
		name string
		reps int
	}{{"replicas=1", 1}, {"replicas=gomaxprocs", runtime.GOMAXPROCS(0)}}
	for _, v := range variants {
		reps := v.reps
		b.Run(v.name, func(b *testing.B) {
			c, err := NewConcurrentF0(32, AlgorithmMinimum, cfg, reps)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					c.AddBatch(chunks[k%len(chunks)])
					k++
				}
			})
			sinkFloat = c.Estimate()
		})
	}
	b.Run("locked-f0", func(b *testing.B) {
		f, err := NewF0(32, AlgorithmMinimum, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			k := 0
			for pb.Next() {
				mu.Lock()
				f.AddBatch(chunks[k%len(chunks)])
				mu.Unlock()
				k++
			}
		})
		sinkFloat = f.Estimate()
	})
}

// BenchmarkF0Ingest times F0.AddBatch at the f0d service's shape: 32-bit
// universe, default ε/δ (82 copies, Thresh 150), serial absorb, and
// 1024-element batches into a pre-filled sketch, reporting ns per
// element. zipf batches (s = 1.1 over 2^20 keys) repeat their hot keys,
// which the sketch's element cache drops before absorb; distinct batches
// repeat nothing the cache still holds (the ring's 32,768 elements
// overflow its 4,096 slots), so nearly every element misses it and its
// overhead stays visible.
func BenchmarkF0Ingest(b *testing.B) {
	const bits, batch, ring = 32, 1024, 32
	zipf := rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.1, 1, 1<<20-1)
	inputs := map[string][][]uint64{}
	for k := 0; k < ring; k++ {
		z, d := make([]uint64, batch), make([]uint64, batch)
		for i := range z {
			z[i] = stats.Mix64(zipf.Uint64()) >> (64 - bits)
			d[i] = stats.Mix64(uint64(k*batch+i)) >> (64 - bits)
		}
		inputs["zipf"] = append(inputs["zipf"], z)
		inputs["distinct"] = append(inputs["distinct"], d)
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum} {
		for _, input := range []string{"zipf", "distinct"} {
			batches := inputs[input]
			b.Run(string(alg)+"/"+input, func(b *testing.B) {
				f, err := NewF0(bits, alg, Config{Seed: 41, Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, xs := range batches {
					f.AddBatch(xs)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.AddBatch(batches[i%ring])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/elem")
				sinkFloat = f.Estimate()
			})
		}
	}
}

// BenchmarkConcurrentZipf times ConcurrentF0.AddBatch in the f0d ingest
// shape, with and without repeated batches: 64 fronts of 32-bit sketches
// at default ε/δ (replica cap 2), prefilled with 4 batches each, take one
// 1024-element Zipf batch (s = 1.1 over 2^20 keys) per op, front i%64 at
// op i. fresh never repeats a batch: it draws the next 256 with the
// timer stopped every 256 ops, so only the Zipf law repeats elements
// across batches; ring cycles a fixed
// set of 256 batches, so each (front, batch) pair comes again every 256
// ops, as in perfbench's op ring, and a front's element cache drops
// nearly all of a batch it absorbed before.
func BenchmarkConcurrentZipf(b *testing.B) {
	const bits, batch, fronts, fill, ring = 32, 1024, 64, 4, 256
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum} {
		for _, input := range []string{"fresh", "ring"} {
			b.Run(string(alg)+"/"+input, func(b *testing.B) {
				zipf := rand.NewZipf(rand.New(rand.NewPCG(5, 6)), 1.1, 1, 1<<20-1)
				draw := func(xs []uint64) []uint64 {
					for i := range xs {
						xs[i] = stats.Mix64(zipf.Uint64()) >> (64 - bits)
					}
					return xs
				}
				cs := make([]*ConcurrentF0, fronts)
				for k := range cs {
					c, err := NewConcurrentF0(bits, alg, Config{Seed: 47}, 2)
					if err != nil {
						b.Fatal(err)
					}
					for range fill {
						c.AddBatch(draw(make([]uint64, batch)))
					}
					cs[k] = c
				}
				batches := make([][]uint64, ring)
				for k := range batches {
					batches[k] = draw(make([]uint64, batch))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if input == "fresh" && i > 0 && i%ring == 0 {
						b.StopTimer()
						for _, xs := range batches {
							draw(xs)
						}
						b.StartTimer()
					}
					cs[i%fronts].AddBatch(batches[i%ring])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/elem")
			})
		}
	}
}

// BenchmarkConcurrentEstimateMiss times one estimate cache miss in the
// perfbench query shape: a 32-bit Bucketing sketch at default parameters
// filled with 2048 random elements and restored through
// DecodeConcurrentF0 with a cap of 2 replicas. Each op adds 16 Zipf
// elements, so the Estimate that follows misses the cache. The one
// writer keeps the front at one replica, so the miss estimates that
// replica directly, with nothing to drain into it; allocs/op counts the
// add's share too. The streaming package's BenchmarkConcurrentTargetMiss
// times a miss that replays or merges a second replica into replica 0.
func BenchmarkConcurrentEstimateMiss(b *testing.B) { benchEstimateMiss(b, 16) }

// BenchmarkConcurrentEstimateMissOverflow is BenchmarkConcurrentEstimateMiss
// with 1024 elements per add: the same direct estimate of the one
// replica, after an add past the replay cap (thresh).
func BenchmarkConcurrentEstimateMissOverflow(b *testing.B) { benchEstimateMiss(b, 1024) }

func benchEstimateMiss(b *testing.B, add int) {
	const bits, fill, ring = 32, 2048, 64
	r := rand.New(rand.NewPCG(3, 4))
	f, err := NewF0(bits, AlgorithmBucketing, Config{Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]uint64, fill)
	for i := range xs {
		xs[i] = uint64(r.Uint32())
	}
	f.AddBatch(xs)
	blob, err := f.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	c, err := DecodeConcurrentF0(blob, 2)
	if err != nil {
		b.Fatal(err)
	}
	zipf := rand.NewZipf(r, 1.1, 1, 1<<20-1)
	adds := make([][]uint64, ring)
	for k := range adds {
		adds[k] = make([]uint64, add)
		for i := range adds[k] {
			adds[k][i] = stats.Mix64(zipf.Uint64()) >> (64 - bits)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddBatch(adds[i%ring])
		sinkFloat = c.Estimate()
	}
}

// BenchmarkSketchMarshalRoundTrip times the PR-7 tentpole: one complete
// marshal → unmarshal cycle of a loaded F0 sketch per op — the snapshot
// cost of the versioned wire codec, covering hash-draw serialization,
// canonical state packing, and validated decode. snapshot-bytes reports
// the encoded size per algorithm.
func BenchmarkSketchMarshalRoundTrip(b *testing.B) {
	cfg := Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, Seed: 35, Parallelism: 1}
	xs := make([]uint64, 4096)
	for i := range xs {
		xs[i] = uint64(i) * 2654435761 % (1 << 20)
	}
	for _, alg := range []Algorithm{AlgorithmBucketing, AlgorithmMinimum, AlgorithmEstimation} {
		f, err := NewF0(32, alg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.AddBatch(xs)
		blob, err := f.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				enc, err := f.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				dec, err := DecodeF0(enc, 1)
				if err != nil {
					b.Fatal(err)
				}
				sinkFloat = dec.Estimate()
			}
			b.ReportMetric(float64(len(blob)), "snapshot-bytes")
		})
	}
}

// BenchmarkEndToEnd runs the full public-API paths once per iteration.
func BenchmarkEndToEnd(b *testing.B) {
	terms := [][]int{{1, 2}, {-3, 4, 5}, {6, -7}}
	cfg := Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 7, Seed: 21}
	b.Run("CountDNFTerms/minimum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := CountDNFTerms(20, terms, AlgorithmMinimum, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkFloat = res.Estimate
		}
	})
	b.Run("F0/minimum", func(b *testing.B) {
		f, err := NewF0(32, AlgorithmMinimum, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			f.Add(uint64(i) % 1000)
		}
		sinkFloat = f.Estimate()
	})
	if math.IsNaN(sinkFloat) {
		b.Fatal("impossible")
	}
}
