package state

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcf0/internal/hash"
	"mcf0/internal/stats"
	"mcf0/internal/wire"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"a", "A9", "flow-1", "x_y.z", "a123456789012345678901234567890123456789012345678901234567890123"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "-x", "_x", "a/b", "a b", "a\x00b", "é",
		"a1234567890123456789012345678901234567890123456789012345678901234"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

func TestRegistryQuotaAndLifecycle(t *testing.T) {
	r := NewRegistry("")
	cfg := SketchConfig{Bits: 8}

	if _, err := r.Create("t", "bad name", cfg, 0); err == nil {
		t.Fatal("Create accepted an invalid name")
	}
	if _, err := r.Create("t", "s1", cfg, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("t", "s1", cfg, 2); err != ErrExists {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if _, err := r.Create("t", "s2", cfg, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("t", "s3", cfg, 2); err != ErrQuota {
		t.Fatalf("over-quota create: %v, want ErrQuota", err)
	}
	// Another tenant has its own quota and namespace.
	if _, err := r.Create("u", "s1", cfg, 2); err != nil {
		t.Fatalf("cross-tenant create: %v", err)
	}
	if n := r.CountByTenant()["t"]; n != 2 {
		t.Fatalf("CountByTenant[t] = %d, want 2", n)
	}
	// Delete frees quota; deleting twice errors.
	if err := r.Delete("t", "s2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("t", "s2"); err != ErrNotFound {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if _, err := r.Create("t", "s3", cfg, 2); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	if _, err := r.Get("t", "nope"); err != ErrNotFound {
		t.Fatalf("Get missing: %v, want ErrNotFound", err)
	}

	names := func(sks []*Sketch) []string {
		out := make([]string, len(sks))
		for i, sk := range sks {
			out[i] = sk.Tenant + "/" + sk.Name
		}
		return out
	}
	got := names(r.All())
	want := []string{"t/s1", "t/s3", "u/s1"}
	if len(got) != len(want) {
		t.Fatalf("All() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("All() = %v, want %v (sorted)", got, want)
		}
	}
}

func TestSnapshotWithoutDataDir(t *testing.T) {
	r := NewRegistry("")
	sk, err := r.Create("t", "s", SketchConfig{Bits: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot(sk); err != ErrNoDataDir {
		t.Fatalf("Snapshot without data dir: %v, want ErrNoDataDir", err)
	}
	if n, err := r.SnapshotDirty(); n != 0 || err != nil {
		t.Fatalf("SnapshotDirty without data dir: (%d, %v), want (0, nil)", n, err)
	}
	if n, err := r.Load(); n != 0 || err != nil {
		t.Fatalf("Load without data dir: (%d, %v), want (0, nil)", n, err)
	}
}

func TestDirtyTracking(t *testing.T) {
	r := NewRegistry(t.TempDir())
	sk, err := r.Create("t", "s", SketchConfig{Bits: 16, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sk.Dirty() {
		t.Fatal("a never-snapshotted sketch must be dirty")
	}
	sk.AddBatch([]uint64{1, 2, 3})
	if _, err := r.Snapshot(sk); err != nil {
		t.Fatal(err)
	}
	if sk.Dirty() {
		t.Fatal("freshly snapshotted sketch must be clean")
	}
	sk.AddBatch([]uint64{4})
	if !sk.Dirty() {
		t.Fatal("a write must re-dirty the sketch")
	}
	if n, err := r.SnapshotDirty(); n != 1 || err != nil {
		t.Fatalf("SnapshotDirty = (%d, %v), want (1, nil)", n, err)
	}
	if sk.Dirty() {
		t.Fatal("SnapshotDirty must leave the sketch clean")
	}
}

func TestLoadRefusesCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	sk, err := r.Create("t", "s", SketchConfig{Bits: 16, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sk.AddBatch([]uint64{1, 2, 3})
	if _, err := r.Snapshot(sk); err != nil {
		t.Fatal(err)
	}

	// A clean reload works and restores the counters.
	r2 := NewRegistry(dir)
	if n, err := r2.Load(); n != 1 || err != nil {
		t.Fatalf("Load = (%d, %v), want (1, nil)", n, err)
	}
	got, err := r2.Get("t", "s")
	if err != nil || got.Items() != 3 {
		t.Fatalf("restored sketch: items=%d err=%v", got.Items(), err)
	}

	// Truncated blob → Load refuses to boot.
	blobPath := filepath.Join(dir, "t", "s.snap")
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobPath, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(dir).Load(); err == nil {
		t.Fatal("Load accepted a truncated snapshot blob")
	}

	// An F0 frame around a retired sketch kind → Load refuses to boot,
	// naming the file: 0x04, a Flajolet–Martin estimator, and 0x05, an
	// exact-distinct set, each in the layout its encoder wrote.
	frame := func(kind byte) []byte {
		b := wire.AppendHeader(nil, wire.KindF0, 1)
		return wire.AppendHeader(wire.AppendInt(b, 16), kind, 1)
	}
	fm := wire.AppendInt(frame(0x04), 1)
	fm = hash.AppendLinear(fm, hash.NewXor(16, 16).Draw(stats.NewRNG(0x04).Uint64))
	exact := wire.AppendInt(wire.AppendInt(frame(0x05), 16), 1)
	exact = wire.AppendUint64(wire.AppendUint64(exact, 3), 0)
	for kind, retired := range map[byte][]byte{0x04: wire.AppendInt(fm, 0), 0x05: exact} {
		if err := os.WriteFile(blobPath, retired, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := NewRegistry(dir).Load()
		if n != 0 || err == nil || !strings.Contains(err.Error(), blobPath) {
			t.Errorf("kind %#02x: Load = (%d, %v), want an error naming %s", kind, n, err, blobPath)
		}
	}
	if err := os.WriteFile(blobPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Corrupt metadata → Load refuses to boot.
	metaPath := filepath.Join(dir, "t", "s.json")
	if err := os.WriteFile(metaPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(dir).Load(); err == nil {
		t.Fatal("Load accepted corrupt snapshot metadata")
	}
}

// TestReplicaBound checks that create and boot restore share one replica
// bound: a sidecar asking for more replicas than create admits fails the
// boot, naming the file, instead of cloning the sketch that many times.
func TestReplicaBound(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	for _, reps := range []int{-1, MaxReplicas + 1} {
		if _, err := r.Create("t", "s", SketchConfig{Bits: 8, Replicas: reps}, 0); err == nil {
			t.Fatalf("Create accepted %d replicas", reps)
		}
	}
	cfg := SketchConfig{Bits: 8, Thresh: 2, Iterations: 1, Replicas: MaxReplicas}
	sk, err := r.Create("t", "s", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sk.AddBatch([]uint64{1, 2, 3})
	if _, err := r.Snapshot(sk); err != nil {
		t.Fatal(err)
	}
	if n, err := NewRegistry(dir).Load(); n != 1 || err != nil {
		t.Fatalf("Load at the bound = (%d, %v), want (1, nil)", n, err)
	}

	metaPath := filepath.Join(dir, "t", "s.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta snapshotMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta.Config.Replicas = MaxReplicas + 1
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := NewRegistry(dir).Load()
	if n != 0 || err == nil || !strings.Contains(err.Error(), metaPath) {
		t.Fatalf("Load of an oversized sidecar = (%d, %v), want an error naming %s", n, err, metaPath)
	}
}

func TestEstimateCache(t *testing.T) {
	r := NewRegistry("")
	sk, err := r.Create("t", "s", SketchConfig{Bits: 16, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sk.AddBatch([]uint64{10, 20, 30})
	est1, v1, cached := sk.Estimate()
	if cached {
		t.Fatal("first estimate claims cached")
	}
	est2, v2, cached := sk.Estimate()
	if !cached || est2 != est1 || v2 != v1 {
		t.Fatalf("repeat estimate: (%v, %d, %v), want cached (%v, %d)", est2, v2, cached, est1, v1)
	}
	sk.AddBatch([]uint64{40})
	_, v3, cached := sk.Estimate()
	if cached || v3 == v1 {
		t.Fatalf("estimate after a write must recompute (cached=%v, version %d→%d)", cached, v1, v3)
	}
}

// FuzzSnapshotSidecar writes a fuzzed JSON sidecar next to a valid
// snapshot blob and runs the boot restore over it: Load must never
// panic. It either restores the one sketch the sidecar names, which then
// answers the blob's estimate, or refuses the boot with an error naming
// the sidecar or the blob.
func FuzzSnapshotSidecar(f *testing.F) {
	src := persistedSketch(f)
	for _, meta := range []string{
		string(src.meta),
		`{"tenant":"t","name":"s","items":3,"config":{"bits":8,"replicas":1024}}`,
		`{"tenant":"t","name":"s","items":3,"config":{"bits":8,"replicas":1025}}`,
		`{"tenant":"t","name":"s","items":3,"config":{"bits":8,"replicas":-1}}`,
		`{"tenant":"t","name":"s","items":3,"config":{"bits":8}}`,
		`{"tenant":"t","name":"s","config":{"bits":9}}`,
		`{"tenant":"t","name":"s","config":{"bits":0}}`,
		`{"tenant":"u","name":"other.1","items":18446744073709551615,"config":{"bits":8,"algorithm":"minimum","thresh":-5}}`,
		`{"tenant":"","name":"s","config":{"bits":8}}`,
		`{"tenant":"t","name":"../s","config":{"bits":8}}`,
		`{"tenant":"t","name":"s","items":-1,"config":{"bits":8}}`,
		`{"tenant":"t","name":"s","config":{"bits":8,"replicas":"2"}}`,
		`{"tenant":"t","name":"s","config":null}`,
		`{not json`, `null`, `[]`, ``,
	} {
		f.Add([]byte(meta))
	}
	f.Fuzz(func(t *testing.T, meta []byte) {
		dir := t.TempDir()
		metaPath, snapPath := filepath.Join(dir, "t", "s.json"), filepath.Join(dir, "t", "s.snap")
		if err := os.MkdirAll(filepath.Dir(metaPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath, src.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath, meta, 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewRegistry(dir)
		n, err := r.Load()
		if err != nil {
			if n != 0 || !strings.Contains(err.Error(), metaPath) && !strings.Contains(err.Error(), snapPath) {
				t.Fatalf("sidecar %q: Load = (%d, %v), want an error naming %s or %s", meta, n, err, metaPath, snapPath)
			}
			return
		}
		var sm snapshotMeta
		if n != 1 || json.Unmarshal(meta, &sm) != nil {
			t.Fatalf("sidecar %q: Load = (%d, nil), want 1 sketch from a decodable sidecar", meta, n)
		}
		sk, err := r.Get(sm.Tenant, sm.Name)
		if err != nil {
			t.Fatalf("sidecar %q: restored sketch %s/%s not found: %v", meta, sm.Tenant, sm.Name, err)
		}
		if est, _, _ := sk.Estimate(); est != src.est || sk.Items() != sm.Items {
			t.Fatalf("sidecar %q: restored estimate %v items %d, want %v and %d", meta, est, sk.Items(), src.est, sm.Items)
		}
	})
}

// sidecarSource is a persisted 8-bit sketch: its blob, its sidecar and
// its estimate.
type sidecarSource struct {
	blob, meta []byte
	est        float64
}

func persistedSketch(tb testing.TB) sidecarSource {
	dir := tb.TempDir()
	r := NewRegistry(dir)
	sk, err := r.Create("t", "s", SketchConfig{Bits: 8, Thresh: 4, Iterations: 3, Seed: 5, Replicas: 1}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	sk.AddBatch([]uint64{1, 2, 3, 200, 201})
	if _, err := r.Snapshot(sk); err != nil {
		tb.Fatal(err)
	}
	var src sidecarSource
	if src.blob, err = os.ReadFile(filepath.Join(dir, "t", "s.snap")); err != nil {
		tb.Fatal(err)
	}
	if src.meta, err = os.ReadFile(filepath.Join(dir, "t", "s.json")); err != nil {
		tb.Fatal(err)
	}
	src.est, _, _ = sk.Estimate()
	return src
}
