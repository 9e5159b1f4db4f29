package main

import (
	"testing"

	"mcf0"
)

func TestParseTerms(t *testing.T) {
	terms, err := parseTerms([]string{"1", "-2", "0", "3", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 2 || len(terms[0]) != 2 || terms[0][1] != -2 || terms[1][0] != 3 {
		t.Fatalf("parsed %v", terms)
	}
	// Trailing unterminated term is kept.
	terms, err = parseTerms([]string{"4", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || len(terms[0]) != 2 {
		t.Fatalf("parsed %v", terms)
	}
	if _, err := parseTerms([]string{"x"}); err == nil {
		t.Fatal("bad literal accepted")
	}
}

// Snapshot round-trip through the command's helpers: every input mode
// encodes, decodes into the matching slot, and resumes bit-identically —
// the crash-recovery contract of -snapshot/-restore.
func TestSnapshotHelpers(t *testing.T) {
	cfg := mcf0.Config{Thresh: 24, Iterations: 5, Seed: 31, Parallelism: 1}

	f, err := mcf0.NewF0(16, mcf0.AlgorithmMinimum, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 800; i++ {
		f.Add(i * i % 500)
	}
	blob, err := encodeSnapshot(f, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	elem, rng, prog, dnf, err := decodeSnapshot(blob, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elem == nil || rng != nil || prog != nil || dnf != nil {
		t.Fatal("F0 snapshot restored into the wrong slot")
	}
	if elem.Replicas() != 1 {
		t.Fatalf("serial restore has replica cap %d, want 1", elem.Replicas())
	}
	if elem.Estimate() != f.Estimate() {
		t.Fatalf("restored estimate %v != %v", elem.Estimate(), f.Estimate())
	}
	// Crash recovery: restore + remainder equals one uninterrupted run.
	whole, _ := mcf0.NewF0(16, mcf0.AlgorithmMinimum, cfg)
	for i := uint64(0); i < 1200; i++ {
		whole.Add(i * i % 500)
	}
	for i := uint64(800); i < 1200; i++ {
		elem.Add(i * i % 500)
	}
	if elem.Estimate() != whole.Estimate() {
		t.Fatalf("resumed estimate %v != uninterrupted %v", elem.Estimate(), whole.Estimate())
	}

	// With -replicas, the same F0 blob restores at that replica cap.
	conc, _, _, _, err := decodeSnapshot(blob, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if conc == nil || conc.Replicas() != 2 {
		t.Fatal("F0 snapshot did not restore at replica cap 2")
	}
	if conc.Estimate() != f.Estimate() {
		t.Fatalf("concurrent restore estimate %v != %v", conc.Estimate(), f.Estimate())
	}

	d, err := mcf0.NewDNFSetF0(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddDNF([][]int{{1, 2}, {-3, 4}}); err != nil {
		t.Fatal(err)
	}
	blob, err = encodeSnapshot(nil, nil, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, dnf, err = decodeSnapshot(blob, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dnf == nil || dnf.Estimate() != d.Estimate() {
		t.Fatal("DNF snapshot did not restore")
	}

	// Kinds without an input mode and corrupt blobs are refused.
	a, err := mcf0.NewAffineF0(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ablob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := decodeSnapshot(ablob, 1, 0); err == nil {
		t.Fatal("affine snapshot accepted by a command with no affine input")
	}
	if _, _, _, _, err := decodeSnapshot([]byte("garbage"), 1, 0); err == nil {
		t.Fatal("garbage blob accepted")
	}
	if _, err := encodeSnapshot(nil, nil, nil, nil); err == nil {
		t.Fatal("empty run snapshotted")
	}
}
