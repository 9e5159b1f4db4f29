package distributed

import (
	"fmt"
	"testing"

	"mcf0/internal/faultinject"
	"mcf0/internal/formula"
	"mcf0/internal/setstream"
	"mcf0/internal/stats"
)

// TestResilientShipUnderFlakyTransport: a seeded flaky transport drops
// and mangles deliveries; retries must recover a bit-identical estimate
// while the failed attempts show up in the communication meter.
func TestResilientShipUnderFlakyTransport(t *testing.T) {
	const seed = 0x5ee0
	d := formula.RandomDNF(12, 11, 4, stats.NewRNG(77))
	parts := Split(d, 4)
	want, err := SketchAndShip(parts, seed, shipOpts(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic faults in (site, attempt): ~half of first and second
	// deliveries are disturbed — dropped outright or truncated in flight
	// (the coordinator's decode-verify catches the mangled ones).
	faults := 0
	transport := func(site, attempt int, blob []byte) ([]byte, error) {
		frac := faultinject.FracAt(0xf1a4, uint64(site)<<8|uint64(attempt))
		switch {
		case attempt < 2 && frac < 0.25:
			faults++
			return nil, fmt.Errorf("injected drop (site %d attempt %d)", site, attempt)
		case attempt < 2 && frac < 0.5:
			faults++
			return blob[:len(blob)/2], nil
		}
		return blob, nil
	}
	got, err := SketchAndShip(parts, seed, shipOpts(), transport, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("estimate under flaky transport %v != lossless %v (invariant 9 broken)",
			got.Estimate, want.Estimate)
	}
	if faults == 0 {
		t.Fatal("flaky transport injected nothing; the test validated an empty hypothesis")
	}
	if got.Comm.SitesToCoord <= want.Comm.SitesToCoord {
		t.Fatalf("failed deliveries not metered: resilient %d bits <= lossless %d bits",
			got.Comm.SitesToCoord, want.Comm.SitesToCoord)
	}
}

// TestResilientShipDuplicateDeliveryIdempotent: merging the same site
// snapshot twice (a duplicate delivery after a lost ack) cannot move the
// estimate — sketch union is idempotent.
func TestResilientShipDuplicateDeliveryIdempotent(t *testing.T) {
	const seed = 0x5ee0
	d := formula.RandomDNF(12, 9, 4, stats.NewRNG(78))
	parts := Split(d, 3)
	blobs := make([][]byte, len(parts))
	for j, p := range parts {
		s := setstream.NewDNFStream(d.N, shipStreamOpts(seed, 1))
		s.ProcessDNF(p)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs[j] = blob
	}
	decode := func(blob []byte) *setstream.DNFStream {
		s, err := setstream.DecodeDNFStream(blob, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	merge := func(blobs [][]byte) float64 {
		merged := decode(blobs[0])
		for _, blob := range blobs[1:] {
			if err := merged.Merge(decode(blob)); err != nil {
				t.Fatal(err)
			}
		}
		return merged.Estimate()
	}
	once := merge(blobs)
	twice := merge(append(append([][]byte{}, blobs...), blobs...))
	if once != twice {
		t.Fatalf("duplicate delivery moved the estimate: %v -> %v", once, twice)
	}
}

// TestResilientShipUndeliverable: a transport that always fails for one
// site exhausts the budget and surfaces a descriptive error, not a
// partial merge.
func TestResilientShipUndeliverable(t *testing.T) {
	d := formula.RandomDNF(10, 6, 3, stats.NewRNG(79))
	parts := Split(d, 2)
	transport := func(site, attempt int, blob []byte) ([]byte, error) {
		if site == 1 {
			return nil, fmt.Errorf("site 1 unreachable")
		}
		return blob, nil
	}
	if _, err := SketchAndShip(parts, 1, shipOpts(), transport, 2); err == nil {
		t.Fatal("undeliverable site did not fail the protocol")
	}
}
