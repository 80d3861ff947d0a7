#!/usr/bin/env bash
# Continuous-integration gate: formatting, lints, release build, tests.
#
# Mirrors what a PR must pass locally. The wedge-detection test
# (tests/cross_crate.rs::wedged_network_surfaces_as_stalled_error) rides
# in the tier-1 `cargo test` step, so a hung-network regression fails CI
# with a HealthReport dump instead of a timeout.
#
# Usage: scripts/ci.sh [extra cargo args...]
# CARGO=... overrides the cargo invocation (e.g. a wrapper that adds
# --offline and local registry patches on air-gapped builders).

set -euo pipefail
cd "$(dirname "$0")/.."

CARGO=${CARGO:-cargo}

echo "==> cargo fmt --check"
$CARGO fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
$CARGO clippy --workspace --all-targets "$@" -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" $CARGO doc --workspace --no-deps "$@"

echo "==> cargo build --release"
$CARGO build --release "$@"

echo "==> cargo test (tier-1)"
$CARGO test -q "$@"

echo "==> cargo test --workspace"
$CARGO test --workspace "$@"

echo "==> bench telemetry smoke (traced fig6 + summary validation)"
# A tiny traced fig6 run must emit its machine-readable summary and a
# Chrome trace; validate_bench then checks every BENCH_*.json written so
# far against scripts/bench_schema.json. Catches a bench binary that
# silently stops writing (or corrupts) its summary. Summaries left over
# from runs predating the current BENCH_SCHEMA_VERSION would fail that
# scan spuriously on incremental builders, so start from a clean slate —
# every summary validated below is written by this CI run.
rm -f target/experiments/BENCH_*.json
RC_APPS=blackscholes RC_CYCLES=2000 RC_WARMUP=1000 RC_SMALL_CACHES=1 \
  RC_CORES=16 RC_MAX_CYCLES=10000 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null
test -s target/experiments/BENCH_fig6.json
test -s target/experiments/fig6_trace.json
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> parallel sweep smoke (RC_JOBS determinism, cache, speedup)"
# The sweep engine's contract: BENCH rows are byte-identical for any
# worker count — only the telemetry fields (wall_ms/busy_ms/jobs/
# cached_points) may differ — and a cache-warm rerun serves every point
# from disk. On runners with >= 4 cores the 4-worker sweep must also be
# at least 1.5x faster than the serial one.
smoke=(RC_APPS=blackscholes RC_CYCLES=2000 RC_WARMUP=1000
       RC_SMALL_CACHES=1 RC_CORES=16 RC_MAX_CYCLES=10000)
cache_dir=target/experiments/cache-ci
rm -rf "$cache_dir"
strip_telemetry() {
  grep -v -E '"(wall_ms|busy_ms|jobs|cached_points)"' "$1"
}
telemetry() {
  awk -F': ' -v key="\"$2\"" '$1 ~ key {gsub(/,/, "", $2); print $2; exit}' "$1"
}

env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_serial.json

env "${smoke[@]}" RC_JOBS=4 RC_CACHE_DIR="$cache_dir" \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_parallel.json

diff <(strip_telemetry target/experiments/ci_fig6_serial.json) \
     <(strip_telemetry target/experiments/ci_fig6_parallel.json) \
  || { echo "FAIL: BENCH_fig6.json rows differ between RC_JOBS=1 and RC_JOBS=4"; exit 1; }

serial_ms=$(telemetry target/experiments/ci_fig6_serial.json wall_ms)
parallel_ms=$(telemetry target/experiments/ci_fig6_parallel.json wall_ms)
echo "    serial ${serial_ms} ms, 4 workers ${parallel_ms} ms ($(nproc) cores)"
if [ "$(nproc)" -ge 4 ]; then
  awk -v s="$serial_ms" -v p="$parallel_ms" 'BEGIN { exit !(s > 1.5 * p) }' \
    || { echo "FAIL: expected > 1.5x sweep speedup with RC_JOBS=4 on a $(nproc)-core runner"; exit 1; }
fi

env "${smoke[@]}" RC_JOBS=4 RC_CACHE_DIR="$cache_dir" \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cached=$(telemetry target/experiments/BENCH_fig6.json cached_points)
[ "${cached:-0}" -gt 0 ] \
  || { echo "FAIL: cache-warm rerun recomputed every point (cached_points=$cached)"; exit 1; }
echo "    cache-warm rerun served $cached points from $cache_dir"
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> dense-vs-event kernel smoke (RC_KERNEL byte-identity on fig6 rows)"
# The event kernel (idle-skip scheduling) must be observationally
# indistinguishable from the dense one: the same fig6 quick grid, run
# once per kernel, must emit byte-identical BENCH rows. RC_NO_CACHE=1 is
# load-bearing — the disk cache keys on SimConfig, which deliberately
# excludes RC_KERNEL, so a cache hit would compare a result with itself.
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=dense \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_dense.json
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=event \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_event.json
diff <(strip_telemetry target/experiments/ci_fig6_dense.json) \
     <(strip_telemetry target/experiments/ci_fig6_event.json) \
  || { echo "FAIL: BENCH_fig6.json rows differ between RC_KERNEL=dense and RC_KERNEL=event"; exit 1; }

echo "==> kernel bench smoke (BENCH_kernel.json + internal identity asserts)"
# The kernel bench re-asserts dense/event RunResult identity on every
# point it times, so just running it is a differential check; then make
# sure its summary landed and validates against the schema.
env "${smoke[@]}" \
  $CARGO run --release -q -p rcsim-bench --bin kernel "$@" > /dev/null
test -s target/experiments/BENCH_kernel.json
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> resilience smoke (dead links: every mechanism, kernel/jobs invariance)"
# Permanent-fault gate (DESIGN.md §10). The resilience test suite proves
# every Figure-6 mechanism completes — nothing stalled, nothing
# abandoned — with a permanently dead interior link; the resilience
# bench (degradation sweep + mid-run-onset recovery, with its own
# zero-abandoned asserts) must then emit byte-identical rows for any
# worker count and either kernel. RC_NO_CACHE=1 is load-bearing for the
# kernel diff — the cache key excludes RC_KERNEL.
$CARGO test -q -p rcsim-system --test resilience "$@"
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=dense \
  $CARGO run --release -q -p rcsim-bench --bin resilience "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_resilience.json target/experiments/ci_resilience_dense.json
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=event \
  $CARGO run --release -q -p rcsim-bench --bin resilience "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_resilience.json target/experiments/ci_resilience_event.json
env "${smoke[@]}" RC_JOBS=4 RC_NO_CACHE=1 RC_KERNEL=event \
  $CARGO run --release -q -p rcsim-bench --bin resilience "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_resilience.json target/experiments/ci_resilience_jobs4.json
diff <(strip_telemetry target/experiments/ci_resilience_dense.json) \
     <(strip_telemetry target/experiments/ci_resilience_event.json) \
  || { echo "FAIL: BENCH_resilience.json rows differ between RC_KERNEL=dense and RC_KERNEL=event"; exit 1; }
diff <(strip_telemetry target/experiments/ci_resilience_event.json) \
     <(strip_telemetry target/experiments/ci_resilience_jobs4.json) \
  || { echo "FAIL: BENCH_resilience.json rows differ between RC_JOBS=1 and RC_JOBS=4"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> overload smoke (open-loop saturation: conservation, kernel/jobs invariance)"
# Overload gate (DESIGN.md §11). The open_loop test suite proves
# conservation (offered == completed + shed + gave_up + in_flight, zero
# unaccounted) below and past saturation, with admission on and off, and
# dense/event byte-identity on open-loop runs. The overload bench — a
# past-saturation load sweep per mechanism with per-point conservation,
# termination and queue-bound asserts baked in — must then emit
# byte-identical rows for either kernel and any worker count.
# RC_NO_CACHE=1 is load-bearing for the kernel diff — the cache key
# excludes RC_KERNEL.
$CARGO test -q -p rcsim-system --test open_loop "$@"
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=dense \
  $CARGO run --release -q -p rcsim-bench --bin overload "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_overload.json target/experiments/ci_overload_dense.json
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 RC_KERNEL=event \
  $CARGO run --release -q -p rcsim-bench --bin overload "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_overload.json target/experiments/ci_overload_event.json
env "${smoke[@]}" RC_JOBS=4 RC_NO_CACHE=1 RC_KERNEL=event \
  $CARGO run --release -q -p rcsim-bench --bin overload "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_overload.json target/experiments/ci_overload_jobs4.json
diff <(strip_telemetry target/experiments/ci_overload_dense.json) \
     <(strip_telemetry target/experiments/ci_overload_event.json) \
  || { echo "FAIL: BENCH_overload.json rows differ between RC_KERNEL=dense and RC_KERNEL=event"; exit 1; }
diff <(strip_telemetry target/experiments/ci_overload_event.json) \
     <(strip_telemetry target/experiments/ci_overload_jobs4.json) \
  || { echo "FAIL: BENCH_overload.json rows differ between RC_JOBS=1 and RC_JOBS=4"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> topology smoke (mesh/torus/cmesh/ring circuit sweep, deadlock-freedom)"
# Topology gate (DESIGN.md §12). A small closed-loop sweep over every
# topology shape at 64 cores: every point must drain to quiescence with
# zero abandoned packets (asserted inside the bench — this is the
# wraparound dateline correctness check), rows must be byte-identical
# across reruns (seeded, single-threaded determinism), and the summary
# must validate against the schema.
RC_TOPO_CYCLES=600 RC_TOPO_CORES=64 \
  $CARGO run --release -q -p rcsim-bench --bin topology "$@" > /dev/null
test -s target/experiments/BENCH_topology.json
cp target/experiments/BENCH_topology.json target/experiments/ci_topology_a.json
RC_TOPO_CYCLES=600 RC_TOPO_CORES=64 \
  $CARGO run --release -q -p rcsim-bench --bin topology "$@" > /dev/null
diff <(strip_telemetry target/experiments/ci_topology_a.json) \
     <(strip_telemetry target/experiments/BENCH_topology.json) \
  || { echo "FAIL: BENCH_topology.json rows differ between identical reruns"; exit 1; }
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> adaptive policy smoke (static-vs-adaptive rows, off-path byte-identity)"
# Adaptive-policy gate (DESIGN.md §14). The differential suite proves
# the policy hooks are invisible with `adaptive` off (traced dense vs
# event runs on mesh and torus) and deterministic with it on; the
# property suite pins the controller's hysteresis/dwell algebra and the
# teardown conservation law. The adaptive bench then runs the
# adversarial sweep — phased hotspot salvos over a light closed-loop
# foreground — and asserts internally that the adaptive row beats the
# best static row on p99 RTT or foreground goodput while actually
# switching; the rows are echoed here so a CI log shows the margin.
# Finally, an off-path re-check: a fresh RC_NO_CACHE=1 fig6 run after
# the policy layer has been exercised must still match the serial rows
# from the sweep smoke bit for bit (RC_NO_CACHE=1 is load-bearing —
# `adaptive` is skip-serialized when off, so a cache hit would compare
# a pre-adaptive row with itself).
$CARGO test -q -p rcsim-system --test adaptive_diff "$@"
$CARGO test -q -p rcsim-core --test policy_props "$@"
$CARGO run --release -q -p rcsim-bench --bin adaptive "$@" > /dev/null
test -s target/experiments/BENCH_adaptive.json
grep -E '"(label|p99_latency|goodput)"' target/experiments/BENCH_adaptive.json \
  | sed 's/^ */    /'
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"
env "${smoke[@]}" RC_JOBS=1 RC_NO_CACHE=1 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_fig6_serial.json) \
     <(strip_telemetry target/experiments/BENCH_fig6.json) \
  || { echo "FAIL: adaptive-off BENCH_fig6.json rows drifted after the adaptive smoke"; exit 1; }

echo "==> kernel/region/power/traffic differential suites (RC_JOBS=1 and 4)"
# The dense-vs-event differential layer, the adaptive region-map
# properties, and the power-model and traffic-pattern suites, under both
# a serial and a parallel test
# harness (RC_JOBS is read by sweep-backed tests; the loop also shakes
# out any accidental test-order coupling).
for jobs in 1 4; do
  RC_JOBS=$jobs $CARGO test -q -p rcsim-system --test kernel_diff "$@"
  RC_JOBS=$jobs $CARGO test -q -p rcsim-core --test region_props "$@"
  RC_JOBS=$jobs $CARGO test -q -p rcsim-power "$@"
  RC_JOBS=$jobs $CARGO test -q -p rcsim-noc --test traffic_patterns "$@"
done

echo "==> checkpoint smoke (kill-and-resume byte-identity, corrupt-file clean miss)"
# Crash-resilience gate (DESIGN.md §15). The differential suite proves
# save/restore byte-identity at arbitrary split cycles across kernels,
# topologies, faults, overload and adaptive runs; the diagnoser
# suite pins the wait-for-graph cycle report on a real legacy-allocator
# wedge. Then the crash drill: a checkpointed fig6 sweep is SIGKILLed
# mid-run (the bench binary is invoked directly — killing a `cargo run`
# wrapper would orphan the simulator), half of whatever checkpoints it
# left behind are deliberately corrupted, and the rerun must finish
# from the surviving on-disk state with rows byte-identical to an
# uncheckpointed reference — a corrupt or stale checkpoint is a clean
# miss (fresh start), never a crash. Finally rcsim-replay must reject a
# stale-version checkpoint with a clean nonzero exit.
$CARGO test -q -p rcsim-system --test checkpoint_diff "$@"
$CARGO test -q -p rcsim-noc --test deadlock_diagnoser "$@"
ckpt_smoke=(RC_APPS=blackscholes RC_CYCLES=8000 RC_WARMUP=2000
            RC_SMALL_CACHES=1 RC_CORES=16 RC_MAX_CYCLES=40000
            RC_JOBS=1 RC_NO_CACHE=1)
ckpt_dir=target/experiments/ckpt-ci
rm -rf "$ckpt_dir"
env "${ckpt_smoke[@]}" \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
cp target/experiments/BENCH_fig6.json target/experiments/ci_fig6_nockpt.json
env "${ckpt_smoke[@]}" RC_CKPT_DIR="$ckpt_dir" RC_CKPT_INTERVAL=500 \
  target/release/fig6 > /dev/null 2> /dev/null &
victim=$!
sleep 0.4
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
echo "    SIGKILLed sweep left $(find "$ckpt_dir" -name '*.ckpt' 2> /dev/null | wc -l) checkpoint(s) in $ckpt_dir"
i=0
for f in "$ckpt_dir"/*.ckpt; do
  [ -e "$f" ] || continue
  if [ $((i % 2)) -eq 0 ]; then printf 'garbage' >> "$f"; fi
  i=$((i + 1))
done
env "${ckpt_smoke[@]}" RC_CKPT_DIR="$ckpt_dir" RC_CKPT_INTERVAL=500 \
  $CARGO run --release -q -p rcsim-bench --bin fig6 "$@" > /dev/null 2> /dev/null
diff <(strip_telemetry target/experiments/ci_fig6_nockpt.json) \
     <(strip_telemetry target/experiments/BENCH_fig6.json) \
  || { echo "FAIL: BENCH_fig6.json rows differ after a SIGKILLed checkpointed sweep resumed"; exit 1; }
if find "$ckpt_dir" -name '*.ckpt' | grep -q .; then
  echo "FAIL: completed sweep left checkpoints behind in $ckpt_dir"; exit 1
fi
mkdir -p "$ckpt_dir"
printf 'rcsim-checkpoint v0 0000000000000000\n{}' > "$ckpt_dir/stale.ckpt"
if $CARGO run --release -q -p rcsim-bench --bin rcsim-replay "$ckpt_dir/stale.ckpt" > /dev/null 2> /dev/null; then
  echo "FAIL: rcsim-replay accepted a stale-version checkpoint"; exit 1
fi

echo "==> checkpoint cost bench (BENCH_checkpoint.json + <5% default-interval gate)"
# The cost sweep asserts internally that every checkpointed run is
# byte-identical to the plain run and that default-interval overhead
# stays under 5%; a short window keeps it quick.
RC_CKPT_BENCH_CYCLES=2000 RC_CKPT_BENCH_REPS=2 \
  RC_CKPT_NET_CORES=64 RC_CKPT_NET_CYCLES=600 \
  $CARGO run --release -q -p rcsim-bench --bin checkpoint "$@" > /dev/null
test -s target/experiments/BENCH_checkpoint.json
$CARGO run --release -q -p rcsim-bench --bin validate_bench "$@"

echo "==> perfbench self-test + benchmark byte-identity (--tiny fingerprints)"
# The host-speed benchmark (perfbench/, its own cargo workspace) must
# pass its self-test, and speed-only changes must not move what it
# simulates: the --tiny sim_fingerprint of every benchmark workload at
# seed 49600 is pinned here. A change that means to alter simulated
# behaviour updates these values and says why.
$CARGO test --release --manifest-path perfbench/Cargo.toml
for pinned in fs64-canneal=fd4ea47058a7c1d7 fs16-blackscholes=1064934417e962a9 \
              noc256-echo=b080e5c88fa2a3e1; do
  workload=${pinned%%=*}
  want=${pinned#*=}
  got=$($CARGO run --release --quiet --manifest-path perfbench/Cargo.toml -- \
          --workload "$workload" --seed 49600 --seconds 1 --trace 0 --tiny \
        | awk '$1 == "sim_fingerprint" { print $2 }')
  [ "$got" = "$want" ] \
    || { echo "FAIL: $workload --tiny sim_fingerprint is ${got:-missing}, pinned $want"; exit 1; }
  echo "    $workload $got"
done

echo "CI gate passed."
