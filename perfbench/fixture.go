package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"

	"mcf0/internal/server/state"
)

// buildFixture writes the seed's data directory through the code under
// test (create, add, snapshot), so each revision restores its own format.
func buildFixture(dir string, fx []fixtureSketch) error {
	reg := state.NewRegistry(dir)
	sketches := make([]*state.Sketch, len(fx))
	for j, s := range fx {
		cfg := state.SketchConfig{Bits: universeBits, Algorithm: s.Algorithm, Seed: s.Seed, Replicas: sketchReplicas}
		sk, err := reg.Create(tenantName(s.Tenant), s.Name, cfg, 0)
		if err != nil {
			return fmt.Errorf("fixture: create %s/%s: %w", tenantName(s.Tenant), s.Name, err)
		}
		sketches[j] = sk
	}
	// Fill on two workers; each sketch's state is a function of its
	// element set, so the split does not change the fixture's bytes.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(fx); j += 2 {
				sketches[j].AddBatch(fx[j].Elems)
			}
		}()
	}
	wg.Wait()
	for _, sk := range sketches {
		if _, err := reg.Snapshot(sk); err != nil {
			return fmt.Errorf("fixture: snapshot %s/%s: %w", sk.Tenant, sk.Name, err)
		}
	}
	return nil
}

// copyTree copies the two-level fixture directory (tenant/file).
func copyTree(src, dst string) error {
	tenants, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, t := range tenants {
		files, err := os.ReadDir(filepath.Join(src, t.Name()))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, t.Name()), 0o755); err != nil {
			return err
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(src, t.Name(), f.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dst, t.Name(), f.Name()), b, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// freshCopy copies the fixture to dst, flushes all dirty pages to disk,
// and collects this process's garbage, so neither background writeback of
// the copy nor a pending collection lands in the measurement that follows.
func freshCopy(src, dst string) error {
	if err := copyTree(src, dst); err != nil {
		return err
	}
	syscall.Sync()
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// fixtureBlobs reads every sketch's snapshot blob, in fixture order.
func fixtureBlobs(dir string, fx []fixtureSketch) ([][]byte, error) {
	blobs := make([][]byte, len(fx))
	for j, s := range fx {
		b, err := os.ReadFile(filepath.Join(dir, tenantName(s.Tenant), s.Name+".snap"))
		if err != nil {
			return nil, err
		}
		blobs[j] = b
	}
	return blobs, nil
}

// writeAuthFile writes f0d's tenant file for the fixture's tenants.
func writeAuthFile(path string) error {
	var b []byte
	for t := 0; t < fixtureTenants; t++ {
		b = fmt.Appendf(b, "%s %s\n", tenantName(t), tenantToken(t))
	}
	return os.WriteFile(path, b, 0o600)
}
