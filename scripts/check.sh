#!/usr/bin/env bash
# Tier-1 gate: build, then run the tier1 test label twice — once fully
# serial (UPAQ_THREADS=1) and once at 4 threads — so the determinism suite
# and the pool-dispatched kernel paths are both exercised on every check.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> tier1, serial (UPAQ_THREADS=1)"
UPAQ_THREADS=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

echo "==> tier1, parallel (UPAQ_THREADS=4)"
UPAQ_THREADS=4 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

# Tracing must never change results: the whole tier-1 label (including the
# determinism suite) has to pass with every span/counter live.
echo "==> tier1, traced (UPAQ_TRACE=1, UPAQ_THREADS=4)"
UPAQ_TRACE=1 UPAQ_THREADS=4 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS"

# Perf smoke: bench_ablation_micro runs a hard equivalence gate (blocked
# GEMM vs a double-precision naive reference) before its benchmarks — a
# nonzero exit fails the check. The timing numbers themselves are
# informational only: this box is shared/virtualised, so wall-clock
# regressions warn but never gate.
echo "==> perf smoke (GEMM equivalence gate hard-fails; timings warn-only)"
UPAQ_THREADS=4 "$BUILD_DIR"/bench/bench_ablation_micro \
  --benchmark_filter='BM_Gemm' --benchmark_min_time=0.05 \
  || { echo "perf smoke FAILED (equivalence gate)"; exit 1; }

# Packed-vs-fp32 ratchet: the whole point of the packed integer path is that
# it beats the float path on the same compressed model. The bench
# recomputes bench_fig4.json; the p50-based ratio must stay above the floor.
# The target on quiet/dedicated hardware is 1.30x — run with
# UPAQ_SPEEDUP_FLOOR=1.30 there. The default floor is calibrated to this
# shared, contended CI box. There the whole-scene ratio measured 1.07-1.11x
# before the 64-column AVX-512 segment block, the in-place BN+ReLU epilogue
# and the compact PFN (3 runs), and 1.79-1.97x after them (5 runs), on a
# 4-vCPU AVX-512 host. It swings run to run from host noise alone (the
# whole-scene number also carries the never-lowered layers and the non-GEMM
# pipeline). The ratchet exists to catch "quantized slower than fp32 again"
# step-regressions, not to police scheduler noise.
PACKED_SPEEDUP_FLOOR="${UPAQ_SPEEDUP_FLOOR:-1.10}"
# A contention burst on this shared box can sink one whole bench run's
# whole-scene ratio below any useful floor (observed: 1.03 and 1.37 within
# the same hour, per-layer gates green both times). Transient noise passes
# on a retry; a genuine "quantized slower than fp32" regression fails all
# attempts. bench_fig4.json keeps the last attempt's numbers either way.
RATCHET_ATTEMPTS="${UPAQ_RATCHET_ATTEMPTS:-3}"
echo "==> packed-vs-fp32 speedup ratchet (floor ${PACKED_SPEEDUP_FLOOR}x, <= ${RATCHET_ATTEMPTS} attempts)"
SPEEDUP=""
for attempt in $(seq 1 "$RATCHET_ATTEMPTS"); do
  UPAQ_THREADS=1 "$BUILD_DIR"/bench/bench_fig4_speedup > /dev/null
  SPEEDUP="$(sed -n 's/.*"packed_vs_fp32_speedup": \([0-9.]*\).*/\1/p' bench_fig4.json)"
  if [ -z "$SPEEDUP" ]; then
    echo "ratchet FAILED: packed_vs_fp32_speedup missing from bench_fig4.json"
    exit 1
  fi
  if awk -v s="$SPEEDUP" -v f="$PACKED_SPEEDUP_FLOOR" 'BEGIN { exit !(s >= f) }'; then
    break
  fi
  echo "ratchet attempt ${attempt}/${RATCHET_ATTEMPTS}: packed_vs_fp32_speedup=${SPEEDUP} < floor ${PACKED_SPEEDUP_FLOOR}"
done
if ! awk -v s="$SPEEDUP" -v f="$PACKED_SPEEDUP_FLOOR" 'BEGIN { exit !(s >= f) }'; then
  echo "ratchet FAILED: packed_vs_fp32_speedup=${SPEEDUP} < floor ${PACKED_SPEEDUP_FLOOR} after ${RATCHET_ATTEMPTS} attempts"
  exit 1
fi
echo "packed_vs_fp32_speedup=${SPEEDUP} (>= ${PACKED_SPEEDUP_FLOOR})"

# Per-layer floor: every planned layer is lowered onto the one integer
# kernel (the entry-skipping segment GEMM) — no measurement sends a slow
# layer back to float. So every integer-path row must beat its own fp32 run;
# a value below 1.0 here means that kernel loses to the float path on a
# shipped layer (measured 1.21-1.64 in four runs on a 4-vCPU AVX-512 host).
INT_MIN="$(sed -n 's/.*"int_speedup_min": \([0-9.]*\).*/\1/p' bench_fig4.json)"
if [ -z "$INT_MIN" ]; then
  echo "per-layer gate FAILED: int_speedup_min missing from bench_fig4.json"
  exit 1
fi
if ! awk -v s="$INT_MIN" 'BEGIN { exit !(s >= 1.0) }'; then
  echo "per-layer gate FAILED: int_speedup_min=${INT_MIN} < 1.0"
  exit 1
fi
echo "int_speedup_min=${INT_MIN} (>= 1.0)"

# <= 4-bit floor: geometric mean of the measured speedups over the bits<=4
# rows. Four runs on a
# 4-vCPU AVX-512 host measured 1.97-2.21x; the floor keeps a wide margin
# because a contended host can land single rows just above 1.0x.
INT4_GEOMEAN_FLOOR="${UPAQ_INT4_GEOMEAN_FLOOR:-1.05}"
LE4_GEO="$(sed -n 's/.*"le4bit_geomean_speedup": \([0-9.]*\).*/\1/p' bench_fig4.json)"
if [ -z "$LE4_GEO" ]; then
  echo "<=4-bit gate FAILED: le4bit_geomean_speedup missing from bench_fig4.json"
  exit 1
fi
if ! awk -v s="$LE4_GEO" -v f="$INT4_GEOMEAN_FLOOR" 'BEGIN { exit !(s >= f) }'; then
  echo "<=4-bit gate FAILED: le4bit_geomean_speedup=${LE4_GEO} < floor ${INT4_GEOMEAN_FLOOR}"
  exit 1
fi
echo "le4bit_geomean_speedup=${LE4_GEO} (>= ${INT4_GEOMEAN_FLOOR})"

# Serve smoke: bench_serve --smoke runs the hard equivalence gate first —
# the streaming server draining a fixed scene stream must produce
# detections bitwise identical to the serial detect() loop — and then one
# short low-load open-loop run. A gate mismatch exits non-zero and fails
# the check; the latency/throughput numbers are informational (shared box).
echo "==> serve smoke (serve-vs-serial equivalence gate hard-fails)"
UPAQ_THREADS=4 "$BUILD_DIR"/bench/bench_serve --smoke --out "$BUILD_DIR"/bench_serve_smoke.json \
  || { echo "serve smoke FAILED (equivalence gate)"; exit 1; }

# Scenario smoke: the robustness matrix over every zoo variant (fp32,
# LCK fp32, LCK/HCK packed) across the five scenario families, with the
# critical-object recall gate live — compression dropping pedestrian /
# cyclist / near-range recall more than the margin below fp32 exits
# non-zero and fails the check. mAP and latency numbers are informational.
echo "==> scenario smoke (critical-object recall gate hard-fails)"
UPAQ_THREADS=4 "$BUILD_DIR"/bench/bench_scenarios --smoke --out "$BUILD_DIR"/bench_scenarios_smoke.json \
  || { echo "scenario smoke FAILED (critical recall gate)"; exit 1; }

# Metrics smoke: the always-on obs layer must produce a snapshot that a
# Prometheus scraper would accept. upaq_tool drives a short serve workload
# and writes the exposition; bench_compare re-parses it with the strict
# line-level validator (TYPE declarations, name charset, bucket
# monotonicity, +Inf == _count).
echo "==> metrics smoke (Prometheus exposition must validate)"
UPAQ_THREADS=4 "$BUILD_DIR"/examples/upaq_tool metrics --scenes 8 \
  --out "$BUILD_DIR"/metrics_smoke.prom \
  || { echo "metrics smoke FAILED (snapshot emit)"; exit 1; }
"$BUILD_DIR"/bench/bench_compare --validate-metrics "$BUILD_DIR"/metrics_smoke.prom \
  || { echo "metrics smoke FAILED (exposition validation)"; exit 1; }

# Bench-regression gate: diff the bench outputs this check just produced
# (plus the committed fig4 file the ratchet refreshed above) against the
# committed bench_baseline.json. Latency metrics carry generous relative
# slack for the shared box; the speedup ratchet and critical-recall floors
# are tight absolute bounds. Any metric past its limit — or missing from a
# supplied file — exits non-zero and fails the check.
echo "==> bench-regression gate (vs bench_baseline.json)"
"$BUILD_DIR"/bench/bench_compare --baseline bench_baseline.json \
  --current fig4=bench_fig4.json \
  --current serve="$BUILD_DIR"/bench_serve_smoke.json \
  --current scenarios="$BUILD_DIR"/bench_scenarios_smoke.json \
  || { echo "bench-regression gate FAILED"; exit 1; }

# The packed-integer path does raw bit twiddling (sign extension, packed
# buffers) — run its suites under ASan/UBSan so memory and UB bugs in the
# pack/unpack/GEMM code cannot slip past the plain Release gate. The prof
# suite rides along: its event buffers are touched from every pool worker,
# so it is the natural place for the sanitizers to catch a lifetime bug.
# test_gemm_kernel joins them: the float GEMM's panel packs and the
# workspace arena do raw pointer arithmetic over reused blocks, exactly where
# ASan earns its keep; test_qgemm_kernel runs the segment GEMM and the plane
# build on exactly sized buffers, so any read past them faults.
# test_nn covers the conv epilogue (f32_epilogue) body and tail;
# test_detectors covers the counting-sort pillarize and its non-finite drop.
# test_scenarios rides along too: the corruption passes (occlusion shadow
# walk, dropout filter) and the suite's report assembly are fresh code.
# test_prune rides along: its pattern/mask contracts produce the pruned
# weights whose zero layout the packer turns into entry lists.
# test_tensor and test_data cover the in-repo MT19937-64, the batched
# normals' stack buffers and the render's direct plane writes, including
# the hostile-box renders (NaN/inf/huge coordinates).
# GCC leaves float-cast-overflow out of `undefined`; it is listed so an
# out-of-range float-to-int cast (the render's hull bounds, SMOKE's render
# seed) is reported. UPAQ_SANITIZE builds with -fno-sanitize-recover=all,
# so any UBSan report fails its test instead of printing and exiting 0.
echo "==> qnn + quant + prof + serve + scenarios + gemm/workspace + prune + nn + detectors + tensor + data suites under UPAQ_SANITIZE=address,undefined,float-cast-overflow"
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DUPAQ_SANITIZE=address,undefined,float-cast-overflow
cmake --build "$ASAN_DIR" -j "$JOBS" --target test_qnn test_quant test_prof test_obs test_serve test_scenarios test_gemm_kernel test_qgemm_kernel test_prune test_nn test_detectors test_tensor test_data
UPAQ_THREADS=4 ctest --test-dir "$ASAN_DIR" -R 'test_qnn|test_quant|test_gemm_kernel|test_qgemm_kernel|test_scenarios|test_prune|test_nn|test_detectors|test_tensor|test_data' --output-on-failure
# The serve pipeline overlaps stages across pool lanes and recycles batch
# slots — ASan watches the slot/workspace lifetimes, and the traced run
# keeps every span live while the stages overlap.
# test_obs rides with them: its histogram shards are hammered from four
# plain threads and the serve integration test overlaps the obs record
# sites with the pipeline, exactly where a lifetime bug would hide.
UPAQ_TRACE=1 UPAQ_THREADS=4 ctest --test-dir "$ASAN_DIR" -R 'test_prof|test_obs|test_serve' --output-on-failure

# On an AVX-512 host the kernel TU's AVX2 paths (the 16-column segment
# block) only run on column tails, and its other vector bodies (the conv
# epilogue among them) are compiled for AVX-512. A second build with
# -mno-avx512f runs the AVX2 code on every column:
# GCC keeps the explicit -mno-avx512f over what the kernel TU's later
# -march=native implies, so that TU compiles without AVX-512 (an AVX2 host
# in miniature) and its suites must still pass bitwise. rng.cpp shares the
# kernel TU's options: test_tensor and test_data check its engine and
# batched normals against libstdc++'s, and the frozen render hashes, on the
# AVX2 code generation too. test_detectors runs whole detectors (the SMOKE
# fused stages against a layer-by-layer walk, float and packed) on it.
echo "==> qgemm + qnn + nn + tensor + data + detectors suites with the native TUs built without AVX-512"
NOAVX512_DIR="${BUILD_DIR}-noavx512"
cmake -B "$NOAVX512_DIR" -S . -DCMAKE_CXX_FLAGS=-mno-avx512f
cmake --build "$NOAVX512_DIR" -j "$JOBS" --target test_qgemm_kernel test_qnn test_nn test_tensor test_data test_detectors
UPAQ_THREADS=4 ctest --test-dir "$NOAVX512_DIR" -R '^(test_qgemm_kernel|test_qnn|test_nn|test_tensor|test_data|test_detectors)$' --output-on-failure

echo "check.sh: OK (tier1 passed serial, 4-thread, and traced; perf + serve + scenario + metrics smokes, ratchet, recall gate, bench-regression gate, sanitizers and no-AVX-512 suites green)"
