// Distributed: DNF counting across sites with metered communication —
// Section 4's protocols end to end. A provenance-style DNF is partitioned
// over k sites (think: shards of a distributed probabilistic database,
// each holding part of a query's lineage); the coordinator estimates the
// global model count while we watch exactly how many bits each protocol
// moves.
package main

import (
	"fmt"
	"log"

	"mcf0"
)

func main() {
	// A 16-variable lineage DNF with 18 derivations. (The Estimation
	// protocol's per-site trailing-zero oracle is the exhaustive backend —
	// no polynomial DNF implementation is known, per §3.4 — so the
	// universe is kept at 2^16.)
	n := 16
	var terms [][]int
	rng := uint64(0x9e3779b9)
	next := func(k int) int { rng = rng*6364136223846793005 + 1; return int(rng>>33) % k }
	for i := 0; i < 18; i++ {
		var t []int
		seen := map[int]bool{}
		for len(t) < 6 {
			v := 1 + next(n)
			if seen[v] {
				continue
			}
			seen[v] = true
			if next(2) == 0 {
				v = -v
			}
			t = append(t, v)
		}
		terms = append(terms, t)
	}

	truth, err := mcf0.ExactCountDNFTerms(n, terms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineage: %d terms over %d variables; exact count %d\n\n", len(terms), n, truth)

	cfg := mcf0.Config{Epsilon: 0.8, Delta: 0.2, Thresh: 32, Iterations: 9, Seed: 11}
	fmt.Printf("%-11s %6s %14s %16s %16s %10s\n",
		"protocol", "sites", "estimate", "bits coord→site", "bits site→coord", "in-band?")
	for _, sites := range []int{2, 4, 8} {
		for _, alg := range []mcf0.Algorithm{mcf0.AlgorithmBucketing, mcf0.AlgorithmMinimum, mcf0.AlgorithmEstimation} {
			res, err := mcf0.DistributedCountDNF(n, terms, sites, alg, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-11s %6d %14.0f %16d %16d %10v\n",
				alg, sites, res.Estimate, res.CoordToSites, res.SitesToCoord,
				mcf0.WithinFactor(res.Estimate, float64(truth), 0.8))
		}
		fmt.Println()
	}
	fmt.Println("shape to observe (paper §4): Minimum's site→coord bits ≈ k·t·Thresh·3n dominate;")
	fmt.Println("Bucketing/Estimation send small fingerprints/levels — Õ(k(n+1/ε²)log(1/δ)) total;")
	fmt.Println("every protocol's cost grows linearly in k (lower bound Ω(k/ε²)).")

	// Snapshot shipping over the versioned wire codec: every site ingests
	// its shard into a same-seed sketch, marshals the *complete* sketch
	// state, and ships the blob; the coordinator unmarshals and merges.
	// Because snapshots round-trip complete state (hash draws included),
	// the shared-draw Merge precondition holds across the wire and the
	// coordinator's estimate is bit-identical to a single sketch that
	// ingested the whole formula.
	fmt.Println("\nsnapshot shipping (wire codec, 4 sites):")
	const sites = 4
	parts := make([][][][]int, sites)
	for i, t := range terms {
		parts[i%sites] = append(parts[i%sites], [][]int{t})
	}
	blobs := make([][]byte, sites)
	shipped := 0
	for j := range parts {
		site, err := mcf0.NewDNFSetF0(n, cfg)
		if err != nil {
			log.Fatal(err)
		}
		for _, set := range parts[j] {
			if err := site.AddDNF(set); err != nil {
				log.Fatal(err)
			}
		}
		if blobs[j], err = site.MarshalBinary(); err != nil {
			log.Fatal(err)
		}
		shipped += len(blobs[j])
	}
	merged, err := mcf0.DecodeDNFSetF0(blobs[0], 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, blob := range blobs[1:] {
		dec, err := mcf0.DecodeDNFSetF0(blob, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := merged.Merge(dec); err != nil {
			log.Fatal(err)
		}
	}
	single, err := mcf0.NewDNFSetF0(n, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range terms {
		if err := single.AddDNF([][]int{t}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("coordinator estimate %.0f from %d snapshot bytes; bit-identical to single-node: %v\n",
		merged.Estimate(), shipped, merged.Estimate() == single.Estimate())
}
