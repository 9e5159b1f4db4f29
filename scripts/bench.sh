#!/usr/bin/env bash
# Runs the hot-path benchmarks with -benchmem and regenerates BENCH_7.json,
# pairing the results with the checked-in pre-change baseline
# (bench/baseline7_*.txt, captured at the PR-6 tree before the versioned
# wire codec). BenchmarkSketchMarshalRoundTrip is new in PR 7 (the codec's
# snapshot cost) and therefore has no baseline row. Raw `go test -bench`
# transcripts go to
# $BENCH_DIR (a fresh temp directory by default) instead of bench/, so a
# benchmark run no longer dirties the working tree; export BENCH_DIR to
# keep them somewhere inspectable (CI does, to upload them as artifacts).
#
# In-run baselines (both sides measured in the same process, over identical
# inputs): BenchmarkToeplitzEvalInto's dotrow/* variants force the per-row
# dot-product path; BenchmarkSystemRewind's clone/* variants run the
# clone-and-replay the rewind engine replaces; BenchmarkConcurrentIngest's
# locked-f0 variant drives one mutex-guarded F0 with the same producers the
# replicated front absorbs lock-free. BenchmarkAbsorbLayout's variants
# are */slab (small saturated sketches in cache), minimum/48sketches
# (1024-element batches round-robin over 48 default 32-bit Minimum
# sketches, state beyond L2) and minimum/fresh65536 (one 65,536-element
# batch into a fresh sketch); none has a baseline row. Sketch values live
# once in word slabs, so the old per-row heap layout its */scattered
# baselines rebuilt no longer exists (their rows in
# bench/baseline7_streaming.txt come out baseline-only).
# The par=1 vs par=max sharding variants and the replicas=1 vs
# replicas=gomaxprocs front variants collapse to the same figure on a
# single-core machine.
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_7.json}
BENCH_DIR=${BENCH_DIR:-$(mktemp -d)}
HOT='BenchmarkA1HashFamily|BenchmarkToeplitzEvalInto|BenchmarkE4F0Sketches|BenchmarkE4SketchBatch|BenchmarkGF2$|BenchmarkSystemRewind|BenchmarkE1ApproxMC|BenchmarkE2FindMin|BenchmarkE6DNFStream|BenchmarkConcurrentIngest|BenchmarkSketchMarshalRoundTrip'

mkdir -p "$BENCH_DIR"
go test . -run '^$' -bench "$HOT" -benchmem -benchtime 300ms | tee "$BENCH_DIR/current_hot.txt"
go test ./internal/sat -run '^$' -bench . -benchmem -benchtime 300ms | tee "$BENCH_DIR/current_sat.txt"
go test ./internal/streaming -run '^$' -bench 'BenchmarkAbsorbLayout' -benchmem -benchtime 300ms | tee "$BENCH_DIR/current_streaming.txt"
go test ./internal/gf2poly -run '^$' -bench 'BenchmarkClmulKernel' -benchmem -benchtime 300ms | tee "$BENCH_DIR/current_gf2poly.txt"

NOTE=""
if [ "$(nproc 2>/dev/null || echo 1)" = 1 ]; then
  NOTE="CAVEAT: captured on a single-core machine (nproc=1) — the replicas=gomaxprocs / par=max variants collapse to the serial figure and multi-core scaling of the concurrent front is unmeasured here; rerun on multi-core hardware to see it."
fi
go run ./scripts/benchjson -out "$OUT" -note "$NOTE" \
  -baseline bench/baseline7_hot.txt -baseline bench/baseline7_sat.txt \
  -baseline bench/baseline7_streaming.txt -baseline bench/baseline7_gf2poly.txt \
  -current "$BENCH_DIR/current_hot.txt" -current "$BENCH_DIR/current_sat.txt" \
  -current "$BENCH_DIR/current_streaming.txt" -current "$BENCH_DIR/current_gf2poly.txt"

echo "wrote $OUT (raw transcripts in $BENCH_DIR)"
