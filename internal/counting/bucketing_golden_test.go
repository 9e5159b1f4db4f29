package counting

import (
	"testing"

	"mcf0/internal/exact"
	"mcf0/internal/formula"
	"mcf0/internal/oracle"
	"mcf0/internal/stats"
)

// goldenBucketingDigests pins SHA-256 over ApproxMC's PerIteration bits
// and Estimate bits per case; the linear and the binary prefix search
// locate the same prefix, so they share a digest. The values were
// captured before level 0 was shared across trials and before nested
// cells were seeded with the coarser cell's solutions, so a change that
// moves any trial's prefix length or cell size fails here. OracleQueries
// is left out on purpose: asking each cell once lowers it.
var goldenBucketingDigests = map[string]string{
	"cnf/exact":              "b4e4a784380f133a61446fe7c2f7935829fb3e7ee0e3056c3acf6ff3d3ae1e3a",
	"cnf/m=1":                "235809cceb600fde496795c0397a700687a7204d76a0762cf92d74f7fa418f46",
	"cnf/multi":              "8d2b1f067e5f7b7e32428fdc8f5fe863092f1d6eb7a13e28138159fabe694c6c",
	"dnf/exact":              "a0cd0ac502c4a5a925c21a75d91cd0d79437477e40718faf5e1c1239edc8fbce",
	"dnf/m=1":                "db9562a452ae0d1fb54aa9f956dc3f1fc7316f786134b732829cfe16ad9e6da9",
	"dnf/multi":              "8430fe6c830a8ebcb9559ad36de799f10a07cc2cc2ef5aabf6a34a08fff1ee76",
	"cnf/n=20/3cnf-defaults": "9e28cf501c234e7fc692a8a90166324c60b80c22b3437c1399b3ba197d71ca63",
}

// bucketingCase is one golden configuration. shape names where the walk
// ends: "exact" (the level-0 cell is below Thresh), "m=1" (Thresh ≤ |Sol|
// < 2·Thresh, so most trials stop one level down) or "multi" (|Sol| ≥
// 8·Thresh); the test checks the shape against the exact count.
type bucketingCase struct {
	name   string
	shape  string
	src    func() oracle.Source
	models uint64
	opts   Options
}

func bucketingCases() []bucketingCase {
	small := func(thresh int) Options { return Options{Thresh: thresh, Iterations: 9} }
	var cs []bucketingCase
	cnf := func(name, shape string, seed uint64, n, clauses int, opts Options) {
		c := formula.RandomKCNF(n, clauses, 3, stats.NewRNG(seed))
		cs = append(cs, bucketingCase{name, shape, func() oracle.Source { return oracle.NewCNFSource(c) },
			exact.CountCNF(c), opts})
	}
	dnf := func(name, shape string, seed uint64, n, terms, width int, opts Options) {
		d := formula.RandomDNF(n, terms, width, stats.NewRNG(seed))
		cs = append(cs, bucketingCase{name, shape, func() oracle.Source { return oracle.NewDNFSource(d) },
			exact.CountDNF(d), opts})
	}
	cnf("cnf/exact", "exact", 0xb001, 12, 30, small(128))
	cnf("cnf/m=1", "m=1", 0xb001, 12, 30, small(64))
	cnf("cnf/multi", "multi", 0xb002, 16, 8, small(8))
	dnf("dnf/exact", "exact", 0xb003, 12, 3, 7, small(128))
	dnf("dnf/m=1", "m=1", 0xb003, 12, 3, 7, small(64))
	dnf("dnf/multi", "multi", 0xb004, 20, 6, 6, small(8))
	// The perfbench count shape: a 20-variable, 62-clause 3-CNF with a few
	// hundred models, at default options (Thresh 150, 82 trials).
	cnf("cnf/n=20/3cnf-defaults", "m=1", 0xb0c0+2, 20, 62, Options{})
	return cs
}

// TestBucketingCountGoldenDeterminism checks the pinned digests for the
// linear and the binary prefix search at parallelism 1 and 2.
func TestBucketingCountGoldenDeterminism(t *testing.T) {
	for _, c := range bucketingCases() {
		opts := c.opts
		thresh := uint64(thresh(opts))
		ok := map[string]bool{
			"exact": c.models < thresh,
			"m=1":   thresh <= c.models && c.models < 2*thresh,
			"multi": c.models >= 8*thresh,
		}[c.shape]
		if !ok {
			t.Fatalf("%s: %d models at Thresh %d is not shape %s", c.name, c.models, thresh, c.shape)
		}
		for _, binary := range []bool{false, true} {
			for _, par := range []int{1, 2} {
				o := opts
				o.Parallelism, o.RNG = par, stats.NewRNG(0xb0c0)
				got := estimateDigest(ApproxMC(c.src(), o, Variant{BinarySearch: binary}))
				if want := goldenBucketingDigests[c.name]; got != want {
					t.Errorf("%s binary=%v par=%d: digest %s, want %s", c.name, binary, par, got, want)
				}
			}
		}
	}
}
