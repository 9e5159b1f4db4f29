package mcf0_test

import (
	"fmt"

	"mcf0"
)

// Counting the models of a small DNF with the Minimum-based FPRAS
// (Algorithm 6 of the paper). Everything is deterministic per seed.
func ExampleCountDNFTerms() {
	terms := [][]int{{1, 2}, {-3, 4}} // (x1∧x2) ∨ (¬x3∧x4)
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 1}
	res, err := mcf0.CountDNFTerms(10, terms, mcf0.AlgorithmMinimum, cfg)
	if err != nil {
		panic(err)
	}
	exact, _ := mcf0.ExactCountDNFTerms(10, terms)
	fmt.Printf("exact %d, in-band %v\n", exact, mcf0.WithinFactor(res.Estimate, float64(exact), 0.8))
	// Output: exact 448, in-band true
}

// Streaming distinct-count estimation with the Bucketing sketch
// (Gibbons–Tirthapura / Algorithm 1 of the paper).
func ExampleNewF0() {
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 2}
	f0, err := mcf0.NewF0(24, mcf0.AlgorithmBucketing, cfg)
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < 3000; i++ {
		f0.Add(i % 300) // 300 distinct values
	}
	fmt.Printf("in-band %v\n", mcf0.WithinFactor(f0.Estimate(), 300, 0.8))
	// Output: in-band true
}

// F0 over succinct range items (Theorem 6): unions much too large to
// expand are absorbed one rectangle at a time.
func ExampleNewRangeF0() {
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 3}
	rf, err := mcf0.NewRangeF0([]int{16}, cfg)
	if err != nil {
		panic(err)
	}
	rf.AddRange([]uint64{0}, []uint64{9999})
	rf.AddRange([]uint64{5000}, []uint64{20000}) // overlap is deduplicated
	fmt.Printf("in-band %v\n", mcf0.WithinFactor(rf.Estimate(), 20001, 0.8))
	// Output: in-band true
}

// Chunked stream ingestion: AddBatch absorbs a whole chunk with one
// worker-pool dispatch (Config.Parallelism bounds the pool) and is
// equivalent to calling Add on each element in order — estimates are
// bit-identical at any parallelism level and under any batching.
func ExampleF0_AddBatch() {
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 2, Parallelism: 2}
	batched, err := mcf0.NewF0(24, mcf0.AlgorithmBucketing, cfg)
	if err != nil {
		panic(err)
	}
	oneAtATime, _ := mcf0.NewF0(24, mcf0.AlgorithmBucketing, cfg)
	chunk := make([]uint64, 0, 256)
	for i := uint64(0); i < 3000; i++ {
		x := i % 300 // 300 distinct values
		oneAtATime.Add(x)
		if chunk = append(chunk, x); len(chunk) == cap(chunk) {
			batched.AddBatch(chunk)
			chunk = chunk[:0]
		}
	}
	batched.AddBatch(chunk) // flush the tail
	fmt.Printf("identical %v, in-band %v\n",
		batched.Estimate() == oneAtATime.Estimate(),
		mcf0.WithinFactor(batched.Estimate(), 300, 0.8))
	// Output: identical true, in-band true
}

// A stream of sets, each a DNF formula over n variables: the sketch
// absorbs each set in poly(n) time however large its solution set is
// (Theorem 5). AddDNFBatch validates the whole chunk first (it is
// rejected atomically on any bad term list), then walks it per copy with
// a single pool dispatch.
func ExampleDNFSetF0_AddDNFBatch() {
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 5}
	ds, err := mcf0.NewDNFSetF0(20, cfg)
	if err != nil {
		panic(err)
	}
	err = ds.AddDNFBatch([][][]int{
		{{1, 2}},       // x1 ∧ x2: 2^18 assignments
		{{1, 2}, {3}},  // overlaps the first set
		{{-1, -2, -3}}, // disjoint cube
	})
	if err != nil {
		panic(err)
	}
	// |Sol| = 2^18 + 2^19 - 2^17 + 2^17 = 786432 exactly (inclusion–exclusion).
	fmt.Printf("in-band %v\n", mcf0.WithinFactor(ds.Estimate(), 786432, 0.8))
	// Output: in-band true
}

// A stream of d-dimensional boxes (Theorem 6): each box is absorbed in
// poly(d·bits) time. AddRangeBatch takes parallel lo/hi slices per box
// and rejects the whole chunk atomically on any invalid bound.
func ExampleRangeF0_AddRangeBatch() {
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 3}
	rf, err := mcf0.NewRangeF0([]int{16}, cfg)
	if err != nil {
		panic(err)
	}
	err = rf.AddRangeBatch(
		[][]uint64{{0}, {5000}},     // lower bounds, one slice per box
		[][]uint64{{9999}, {20000}}, // upper bounds
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("in-band %v\n", mcf0.WithinFactor(rf.Estimate(), 20001, 0.8))
	// Output: in-band true
}

// Near-uniform witness sampling (§6 of the paper).
func ExampleSampleDNFTerms() {
	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 24, Iterations: 9, Seed: 4}
	samples, err := mcf0.SampleDNFTerms(6, [][]int{{1, 2, 3}}, 3, cfg)
	if err != nil {
		panic(err)
	}
	for _, s := range samples {
		fmt.Println(s[:3]) // the first three bits are pinned by the term
	}
	// Output:
	// 111
	// 111
	// 111
}
