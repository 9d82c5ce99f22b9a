#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and clippy with warnings
# denied — the checks every PR must keep green (see ROADMAP.md).
#
# Usage: scripts/tier1.sh
#
# The workspace vendors its external dependencies (vendor/ via
# [patch.crates-io]), so everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Dead-API scan: every `pub fn` / `pub(crate) fn` under crates/*/src must
# be named, as a whole word, in some other .rs file of the workspace or
# of the benchmark. A `pub use` re-export is not a use: the scan reads
# copies of the files with those statements cut out. A function only its
# own file calls is private, and one nothing calls is deleted (~3 s on a
# 2-core host).
mapfile -t RS_FILES < <(find crates src tests examples perfbench/src -name '*.rs' | sort)
SCAN_DIR="$(mktemp -d)"
printf '%s\n' "${RS_FILES[@]}" | sed 's|/[^/]*$||' | sort -u | (cd "$SCAN_DIR" && xargs mkdir -p)
awk -v out="$SCAN_DIR" '
  FNR == 1 { close(dst); dst = out "/" FILENAME; printf "" > dst; skip = 0 }
  !skip && /^[ \t]*pub(\(crate\))? use / { skip = 1 }
  skip { if (index($0, ";")) skip = 0; next }
  { print > dst }' "${RS_FILES[@]}"
DEAD_API="$(cd "$SCAN_DIR" && grep -rHoE --include='*.rs' \
    '^\s*pub(\(crate\))? (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
  | sed -E 's/^([^:]*):.* fn ([A-Za-z0-9_]+)$/\1 \2/' | sort -u \
  | while read -r file name; do
      grep -lw -- "$name" "${RS_FILES[@]}" | grep -vxF -- "$file" > /dev/null \
        || echo "  $file: $name"
    done)"
rm -rf "$SCAN_DIR"
if [ -n "$DEAD_API" ]; then
  echo "public functions no other file names (make them private or delete them):" >&2
  echo "$DEAD_API" >&2
  exit 1
fi
# Command coverage: every row of the CLI's `COMMANDS` table is run by a
# test (`run(&["NAME"` in the CLI's tests) or by a line of this script;
# a command nothing runs is deleted.
mapfile -t COMMAND_NAMES < <(sed -n '/^pub const COMMANDS/,/^];/p' crates/cli/src/commands.rs \
  | tr -d '\n' | grep -oE '(command\(|name:) *"[^"]+"' | grep -oE '"[^"]+"' | tr -d '"')
UNRUN="$(for name in "${COMMAND_NAMES[@]}"; do
  grep -qF -- "run(&[\"$name\"" crates/cli/src/commands.rs crates/cli/tests/cli.rs \
    || grep -qE -- "target/release/escalate $name( |\$)" scripts/tier1.sh \
    || echo "  $name"
done)"
if [ "${#COMMAND_NAMES[@]}" -eq 0 ] || [ -n "$UNRUN" ]; then
  echo "commands no test and no line of scripts/tier1.sh runs (test them or delete them):" >&2
  echo "${UNRUN:-  (no COMMANDS rows found in crates/cli/src/commands.rs)}" >&2
  exit 1
fi


# `--workspace` everywhere: the root manifest is both a package (the
# `escalate` facade) and the workspace, so bare `cargo build`/`cargo test`
# would cover only the facade and silently skip every member crate's
# binaries and test targets.
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The plan executor and the determinism suites again on a pool wider
# than a 2-core host: every parallel call shares the one pool, and its
# outputs must stay bit-identical and in unit order at any width.
ESCALATE_THREADS=4 cargo test -q --offline -p escalate-bench --test determinism --test plan
# The library walk-throughs run, not just compile, so they cannot rot.
for example in quickstart design_space quantized_network; do
  cargo run -q --release --offline --example "$example" > /dev/null
done
# The observability crate is dependency-free and cheap: exercise its full
# test matrix (unit + doc tests) explicitly so a workspace-level filter
# can never silently drop it.
cargo test -q --offline -p escalate-obs
# The batched `log1pf` of weight synthesis against the host libm on every
# input synthesis can reach (1.09e9 f32 values, ~20 s in release on a
# 2-core host); the default suite runs a sampled version of it.
cargo test -q --release --offline -p escalate-models --lib -- --ignored \
  batch_ln_1p_matches_libm_on_every_reachable_input
# Benchmark smoke: one iteration of every perfbench workload at smoke
# size, untraced and traced, with output digests checked and the metric
# catalogue matched against BENCHMARK.json. perfbench is its own
# workspace, so the --workspace passes above never reach it.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
# Criterion's `--test` mode runs each benchmark once, unmeasured: a
# smoke check that the position kernel's scalar/word-parallel/batched
# differential assertion and the bench wiring stay green without paying
# for real measurement (the std::arch dispatch is compiled in on x86_64;
# the kernel_diff proptests force it off and on to pin both paths
# byte-identical). The component, kernel and simulator benches run the
# same way so they are executed, not just compiled by clippy.
cargo bench --offline -p escalate-bench --bench position_kernel -- --test
cargo bench --offline -p escalate-bench --bench components -- --test
cargo bench --offline -p escalate-bench --bench kernels -- --test
cargo bench --offline -p escalate-bench --bench simulator -- --test
# Golden-diff regression check over the full corpus: all 20 experiments
# must stay byte-identical to the committed results/ files (~20 s in
# release on a 2-core host; the per-experiment dev-profile round-trips
# live in crates/bench/tests/report.rs).
./target/release/escalate report --all --check
# Forwarded-args smoke: tokens after `--` reach the experiment unchanged.
FIG11="$(./target/release/escalate report fig11 -- ResNet18)"
grep -q '^Figure 11: layer-wise speedup over Eyeriss, ResNet18' <<< "$FIG11"
# Resumable design-space sweep smoke on the frontier-golden grid: run
# the 64-point cold grid (the exact grid committed as
# results/sweep_frontier.txt, so frontier drift fails here), "interrupt"
# it by keeping only the first 20 records, resume from the stream, and
# require the resumed stream to be byte-identical to the cold run — with
# an identical Pareto summary (it is recomputed from the parsed stream
# either way). The cold run records metrics so the cross-point
# work-sharing layer is provably engaged (derived-state cache hits).
SWEEP_DIR="$(mktemp -d)"
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SWEEP_DIR" "$SERVE_DIR"; kill "${SERVE_PID:-}" "${SWEEP_PID:-}" 2>/dev/null || true' EXIT
# `report` reads its options with the shared option reader, so a valued
# option never takes the next flag as its value: this line fails typed
# before any experiment runs, instead of printing an unchecked Table 4.
if ./target/release/escalate report --results --check table4 \
  > "$SWEEP_DIR/misuse.out" 2> "$SWEEP_DIR/misuse.err"; then
  echo "report --results --check table4 must fail" >&2
  exit 1
fi
grep -q -- '--results requires a value' "$SWEEP_DIR/misuse.err"
[ ! -s "$SWEEP_DIR/misuse.out" ]
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/cold.jsonl" --metrics "$SWEEP_DIR/cold.metrics.json" \
  --check results/sweep_frontier.txt > "$SWEEP_DIR/cold.txt"
grep -o '"sweep.derived_hits": [0-9]*' "$SWEEP_DIR/cold.metrics.json" \
  | grep -qv ': 0$'
head -n 20 "$SWEEP_DIR/cold.jsonl" > "$SWEEP_DIR/resumed.jsonl"
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/resumed.jsonl" > "$SWEEP_DIR/resumed.txt"
cmp "$SWEEP_DIR/cold.jsonl" "$SWEEP_DIR/resumed.jsonl"
grep -q "44 sample(s) ran, 20 resumed" "$SWEEP_DIR/resumed.txt"
diff <(tail -n +2 "$SWEEP_DIR/cold.txt" | grep -v '^frontier matches') \
     <(tail -n +2 "$SWEEP_DIR/resumed.txt")
# Real-interruption smoke: records land as the finished prefix grows, so
# a sweep killed mid-run keeps its work. Run the same grid in the
# background, wait (bounded) until its stream holds at least 4 records,
# kill -9 it, resume, and require a byte-identical stream with at least
# one sample run by the resume.
: > "$SWEEP_DIR/killed.jsonl"
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/killed.jsonl" > /dev/null &
SWEEP_PID=$!
for _ in $(seq 1 1200); do
  [ "$(wc -l < "$SWEEP_DIR/killed.jsonl")" -ge 4 ] && break
  sleep 0.05
done
[ "$(wc -l < "$SWEEP_DIR/killed.jsonl")" -ge 4 ]
kill -9 "$SWEEP_PID"
wait "$SWEEP_PID" 2>/dev/null || true
./target/release/escalate sweep MobileNet MobileNetV2 --samples 32 --seeds 1 \
  --out "$SWEEP_DIR/killed.jsonl" > "$SWEEP_DIR/killed.txt"
cmp "$SWEEP_DIR/cold.jsonl" "$SWEEP_DIR/killed.jsonl"
grep -Eq '^sweep: [1-9][0-9]* sample\(s\) ran' "$SWEEP_DIR/killed.txt"
# One-shot runs share compiled layer plans across input seeds through
# the process-wide plan cache: a two-seed simulate must record plan
# reuses.
./target/release/escalate simulate MobileNet --seeds 2 \
  --metrics "$SWEEP_DIR/simulate.metrics.json" > /dev/null
grep -o '"ca.plan_reuses": [0-9]*' "$SWEEP_DIR/simulate.metrics.json" \
  | grep -qv ': 0$'
# Network-description + pipelined-schedule smoke: write a generated
# network as an escalate-network/v1 file, require the file → Model →
# file round trip to be byte-identical, and simulate it under the
# pipelined schedule (the pipeline stage/interval/stall line only
# renders when that schedule actually ran, and the run manifest records
# the schedule).
./target/release/escalate network gen:dilated:blocks=2 \
  --out "$SWEEP_DIR/gen.network"
./target/release/escalate network "@$SWEEP_DIR/gen.network" \
  --out "$SWEEP_DIR/gen2.network"
cmp "$SWEEP_DIR/gen.network" "$SWEEP_DIR/gen2.network"
./target/release/escalate simulate "@$SWEEP_DIR/gen.network" \
  --schedule pipelined --seeds 1 --metrics "$SWEEP_DIR/pipelined.metrics.json" \
  > "$SWEEP_DIR/pipelined.txt"
grep -q '^pipeline: .* stage(s), interval ' "$SWEEP_DIR/pipelined.txt"
grep -q '"schedule": "pipelined"' "$SWEEP_DIR/pipelined.metrics.json"
# Serve smoke: an ephemerally-bound daemon (port discovered via
# --port-file), one job per verb through `escalate submit`, well-formed
# escalate-run-manifest/v1 unit records, non-empty metrics, and a
# graceful drain — every step timeout-bounded so a wedged daemon fails
# the gate instead of hanging it.
./target/release/escalate serve --port-file "$SERVE_DIR/port" \
  > "$SERVE_DIR/serve.txt" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/port" ]
submit() { timeout 120 ./target/release/escalate submit "$@" --port-file "$SERVE_DIR/port"; }
# A refused or failed job prints its `error` frame and exits non-zero.
submit_fails() {
  if submit "$@" > "$SERVE_DIR/failed.txt" 2> "$SERVE_DIR/failed.err"; then
    echo "submit $* must exit non-zero" >&2
    exit 1
  fi
  grep -q '"type": "error"' "$SERVE_DIR/failed.txt"
  grep -q "last frame is \"error\"" "$SERVE_DIR/failed.err"
}
submit ping | grep -q '"type": "pong"'
submit simulate MobileNet --seeds 1 > "$SERVE_DIR/simulate.txt"
test "$(grep -c '"schema": "escalate-run-manifest/v1"' "$SERVE_DIR/simulate.txt")" -eq 4
grep -q '"type": "done"' "$SERVE_DIR/simulate.txt"
# The same job again: a one-seed job repeats no walk of its own, so the
# walk-cache hits the metrics frame must show below come from the daemon
# re-serving walks it already simulated.
submit simulate MobileNet --seeds 1 | grep -q '"type": "done"'
submit compress MobileNet | grep -q '"type": "done"'
# An out-of-range M is a bad request, not a job: the daemon answers with
# an error frame, and the drain count below stays at five jobs.
submit_fails compress MobileNet --m 0
submit report table4 | grep -q '"type": "done"'
# An unregistered experiment is a bad request too: an error frame, no job.
submit_fails report fig99
# A served custom-network pipelined job: the daemon resolves the same
# @FILE spec the CLI does and its done frame carries the pipeline line.
submit simulate "@$SWEEP_DIR/gen.network" --seeds 1 --schedule pipelined \
  > "$SERVE_DIR/network.txt"
grep -q '"type": "done"' "$SERVE_DIR/network.txt"
grep -q 'pipeline: ' "$SERVE_DIR/network.txt"
submit metrics > "$SERVE_DIR/metrics.txt"
grep -q '"serve.jobs_done": 5' "$SERVE_DIR/metrics.txt"
grep -o '"sim.walk_cache.hits": [0-9]*' "$SERVE_DIR/metrics.txt" | grep -qv ': 0$'
submit shutdown | grep -q '"drained": true'
for _ in $(seq 1 300); do kill -0 "$SERVE_PID" 2>/dev/null || break; sleep 0.1; done
# Not `! kill -0 …`: `set -e` ignores the status of a `!`-negated command.
if kill -0 "$SERVE_PID" 2>/dev/null; then echo "daemon alive after shutdown" >&2; exit 1; fi
grep -q "drained — 5 jobs done, 0 failed" "$SERVE_DIR/serve.txt"
cargo fmt --check
cargo clippy --all-targets --offline --workspace -- -D warnings

echo "tier-1: OK"
