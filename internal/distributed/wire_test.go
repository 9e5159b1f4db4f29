package distributed

import (
	"bytes"
	"testing"

	"mcf0/internal/formula"
	"mcf0/internal/setstream"
	"mcf0/internal/stats"
)

func shipOpts() Options {
	return Options{Epsilon: 0.8, Delta: 0.2, Thresh: 16, Iterations: 5}
}

func shipStreamOpts(seed uint64, par int) setstream.Options {
	return setstream.Options{Epsilon: 0.8, Delta: 0.2, Thresh: 16, Iterations: 5,
		RNG: stats.NewRNG(seed), Parallelism: par}
}

// Differential gate for the snapshot-shipping protocol: the coordinator's
// estimate must be bit-identical to (a) a single same-seed sketch
// ingesting the whole formula and (b) an in-process live Merge of the
// site sketches — at several site counts and parallelism levels.
func TestSketchAndShipDifferential(t *testing.T) {
	const seed = 0x5ee0
	d := formula.RandomDNF(12, 11, 4, stats.NewRNG(77))
	for _, k := range []int{1, 2, 5} {
		for _, par := range []int{1, 4} {
			parts := Split(d, k)
			opts := shipOpts()
			opts.Parallelism = par
			res, err := SketchAndShip(parts, seed, opts, nil, 0)
			if err != nil {
				t.Fatalf("k=%d par=%d: %v", k, par, err)
			}

			single := setstream.NewDNFStream(d.N, shipStreamOpts(seed, par))
			single.ProcessDNF(d)
			if res.Estimate != single.Estimate() {
				t.Fatalf("k=%d par=%d: shipped estimate %v != single-node %v",
					k, par, res.Estimate, single.Estimate())
			}

			live := setstream.NewDNFStream(d.N, shipStreamOpts(seed, par))
			live.ProcessDNF(parts[0])
			for _, p := range parts[1:] {
				site := setstream.NewDNFStream(d.N, shipStreamOpts(seed, par))
				site.ProcessDNF(p)
				if err := live.Merge(site); err != nil {
					t.Fatalf("k=%d par=%d: live merge: %v", k, par, err)
				}
			}
			if res.Estimate != live.Estimate() {
				t.Fatalf("k=%d par=%d: shipped estimate %v != live merge %v",
					k, par, res.Estimate, live.Estimate())
			}

			if res.Comm.CoordToSites != int64(k)*64 {
				t.Fatalf("k=%d: seed broadcast metered as %d bits", k, res.Comm.CoordToSites)
			}
			if res.Comm.SitesToCoord <= 0 {
				t.Fatalf("k=%d: no snapshot bits metered", k)
			}
			var blobBits int64
			for _, p := range parts {
				site := setstream.NewDNFStream(d.N, shipStreamOpts(seed, par))
				site.ProcessDNF(p)
				blob, err := site.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				blobBits += int64(len(blob)) * 8
			}
			if res.Comm.SitesToCoord != blobBits {
				t.Fatalf("k=%d par=%d: metered %d bits up, want exactly 8·Σ len(blob) = %d",
					k, par, res.Comm.SitesToCoord, blobBits)
			}
		}
	}
}

// SketchAndShip must reject no sites, a foreign-seed snapshot, and a
// corrupt snapshot — with errors, never a panic or partial merge. A
// foreign snapshot decodes fine, so it fails at the merge, which is not
// retried.
func TestSketchAndShipErrors(t *testing.T) {
	d := formula.RandomDNF(10, 6, 3, stats.NewRNG(79))
	parts := Split(d, 2)
	mk := func(seed uint64) []byte {
		s := setstream.NewDNFStream(d.N, shipStreamOpts(seed, 1))
		s.ProcessDNF(d)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return blob
	}
	// swapIn delivers bad in place of site 1's blob and counts the tries.
	swapIn := func(bad []byte, tries *int) ShipTransport {
		return func(site, _ int, blob []byte) ([]byte, error) {
			if site != 1 {
				return blob, nil
			}
			*tries++
			return bad, nil
		}
	}
	if _, err := SketchAndShip(nil, 1, shipOpts(), nil, 0); err == nil {
		t.Fatal("no sites shipped")
	}
	tries := 0
	if _, err := SketchAndShip(parts, 1, shipOpts(), swapIn(mk(2), &tries), 2); err == nil {
		t.Fatal("foreign-seed snapshot merged")
	}
	if tries != 1 {
		t.Fatalf("foreign-seed merge failure retried: %d deliveries, want 1", tries)
	}
	corrupt := bytes.Clone(mk(1))
	corrupt = corrupt[:len(corrupt)-3]
	tries = 0
	if _, err := SketchAndShip(parts, 1, shipOpts(), swapIn(corrupt, &tries), 2); err == nil {
		t.Fatal("truncated snapshot merged")
	}
	if tries != 3 {
		t.Fatalf("corrupt delivery tried %d times, want 1 + 2 retries", tries)
	}
}
