#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, then an end-to-end check that the
# parallel experiment engine is observably equivalent to serial execution
# (byte-identical CLI output on a tiny grid at --jobs 1 vs --jobs 8).
set -euo pipefail
cd "$(dirname "$0")"

echo "== build =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== serial-vs-parallel equivalence (tiny grid) =="
CLI=(cargo run -q --release -p charlie-cli --)
serial=$("${CLI[@]}" sweep --workload mp3d --refs 2000 --procs 2 --json --jobs 1)
parallel=$("${CLI[@]}" sweep --workload mp3d --refs 2000 --procs 2 --json --jobs 8)
if [[ "$serial" != "$parallel" ]]; then
    echo "FAIL: sweep output differs between --jobs 1 and --jobs 8" >&2
    diff <(echo "$serial") <(echo "$parallel") >&2 || true
    exit 1
fi
echo "sweep output byte-identical at --jobs 1 and --jobs 8"

echo "== coherence invariant checker (release, --check) =="
# Debug builds check unconditionally; this proves the opt-in release path.
"${CLI[@]}" run --workload pverify --strategy pws --refs 4000 --procs 4 --check >/dev/null
"${CLI[@]}" sweep --workload topopt --refs 2000 --procs 2 --json --check >/dev/null
echo "release runs pass with invariant checking enabled"

echo "== coherence protocols: four-way exhibit + per-protocol checkers =="
# DESIGN.md §18: the protocols exhibit must render every protocol for every
# workload (5 workloads x 4 protocols in the traffic table), the update
# protocols must eliminate invalidation misses by construction, and each
# protocol's release-mode invariant checker must stay green.
protocols_out=$("${CLI[@]}" experiments protocols --jobs 8)
for proto in illinois firefly dragon moesi; do
    rows=$(grep -c "^[A-Za-z0-9]*  *$proto " <<<"$protocols_out") || true
    if [[ "$rows" -ne 5 ]]; then
        echo "FAIL: protocols exhibit has $rows traffic rows for $proto (expected 5)" >&2
        echo "$protocols_out" >&2
        exit 1
    fi
done
if grep -E "^[A-Za-z0-9]*  *(firefly|dragon) " <<<"$protocols_out" \
    | awk '{ if ($3 != 0) exit 1 }'; then
    echo "update protocols show zero invalidation misses in the exhibit"
else
    echo "FAIL: an update-protocol row reports invalidation misses:" >&2
    grep -E "^[A-Za-z0-9]*  *(firefly|dragon) " <<<"$protocols_out" >&2
    exit 1
fi
for proto in dragon moesi; do
    "${CLI[@]}" run --workload mp3d --strategy pref --refs 4000 --procs 4 \
        --protocol "$proto" --check >/dev/null
done
echo "protocols exhibit renders 4x5 and dragon/moesi pass --check in release"

echo "== hardware-prefetcher property suite (release) =="
# The debug run is part of `cargo test -q` above (where the invariant
# checker is unconditional); the release run proves the --check opt-in
# path the property tests rely on.
cargo test -q --release -p charlie --test hw_prefetch_props

echo "== shared-journal tail equivalence (release, 300 cases) =="
# DESIGN.md §19: an incremental tail must fold exactly what a full scan
# folds at every byte prefix; release builds run 300 random journals.
cargo test -q --release -p charlie --test tail_props

echo "== prefetch planner equivalence (release, 512 cases) =="
# DESIGN.md §4: the planner must reproduce the reference per-event
# placement model, and the stream the simulator merges at its cursor must
# equal the materialized trace, for every strategy and distance; release
# builds run 512 random traces.
cargo test -q --release -p charlie --test prefetch_props

echo "== benches compile =="
cargo bench --no-run -q

echo "== perfbench builds and passes its own tests =="
# perfbench is a package of its own (outside the workspace) that drives the
# serve and core APIs; building it here turns an API change that breaks the
# benchmark into a CI failure rather than a failed benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench grids reproduce their reference checksums =="
# A short run of each grid workload checks its warm-up outputs against
# perfbench/reference.json: the streamed prefetch plans are pinned under
# exact Illinois (exact_grid) and under MOESI + stride hardware prefetch +
# SMARTS sampling (sampled_grid). The run must exit 0 and report
# "correct": true.
for workload in exact_grid sampled_grid; do
    if ! bench_out=$(env GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072 \
        cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0); then
        echo "FAIL: perfbench $workload exited nonzero:" >&2
        echo "$bench_out" >&2
        exit 1
    fi
    if ! tail -1 <<<"$bench_out" | grep -q '^{"correct": true,'; then
        echo "FAIL: perfbench $workload outputs differ from perfbench/reference.json:" >&2
        echo "$bench_out" >&2
        exit 1
    fi
    echo "perfbench $workload: correct"
done

echo "== quick-bench smoke vs checked-in baseline =="
# Fails if events/sec drops more than 20% below BENCH_charlie.json's
# quick_baseline run. Catches large regressions; the full grid slice
# (charlie bench, no --quick) is the authoritative number. On top of the
# CLI's built-in 20% gate, CI holds the disabled hardware-prefetcher hooks
# to a tighter bar: >=90% of the checked-in baseline.
# Throughput is scheduler-noisy (±15% run-to-run on a shared host), so
# the gate is best-of-3: a genuine regression fails all three attempts,
# a noisy dip does not.
pct=0
for attempt in 1 2 3; do
    bench_out=$("${CLI[@]}" bench --quick --label ci_smoke \
        --out "$(mktemp -t charlie-ci-bench.XXXXXX)" \
        --baseline BENCH_charlie.json) || true
    echo "$bench_out"
    run_pct=$(grep -o '[0-9]*% of baseline' <<<"$bench_out" | grep -o '^[0-9]*') || true
    [[ -n "$run_pct" && "$run_pct" -gt "$pct" ]] && pct=$run_pct
    [[ "$pct" -ge 90 ]] && break
    echo "attempt $attempt at ${run_pct:-?}% of baseline; retrying"
done
if [[ "$pct" -lt 90 ]]; then
    echo "FAIL: quick bench at ${pct}% of baseline after 3 attempts (>=90%" >&2
    echo "      required: the disabled hardware-prefetch hooks must cost nothing)" >&2
    exit 1
fi
echo "quick bench at ${pct}% of baseline (>=90% required, best of 3)"

echo "== checkpoint kill-and-resume (SIGTERM mid-sweep) =="
journal=$(mktemp -t charlie-ci-journal.XXXXXX)
rm -f "$journal"
fresh=$("${CLI[@]}" sweep --workload water --refs 20000 --procs 4 --json --jobs 2)
"${CLI[@]}" sweep --workload water --refs 20000 --procs 4 --json --jobs 2 \
    --resume "$journal" >/dev/null 2>&1 &
victim=$!
sleep 1
kill -TERM "$victim" 2>/dev/null || true   # may already have finished
wait "$victim" 2>/dev/null || true
resumed=$("${CLI[@]}" sweep --workload water --refs 20000 --procs 4 --json --jobs 2 \
    --resume "$journal")
if [[ "$fresh" != "$resumed" ]]; then
    echo "FAIL: resumed sweep output differs from an uninterrupted run" >&2
    diff <(echo "$fresh") <(echo "$resumed") >&2 || true
    exit 1
fi
rm -f "$journal"
echo "resumed sweep output byte-identical to an uninterrupted run"

echo "== observability: profile smoke + sampling-off identity =="
# 1. Sampling must be invisible: run --json output byte-identical with the
#    sampler armed (the hooks are always compiled in).
plain=$("${CLI[@]}" run --workload mp3d --refs 4000 --procs 2 --json)
sampled=$("${CLI[@]}" run --workload mp3d --refs 4000 --procs 2 --json --sample-interval 1000)
if [[ "$plain" != "$sampled" ]]; then
    echo "FAIL: run --json output changed with --sample-interval" >&2
    diff <(echo "$plain") <(echo "$sampled") >&2 || true
    exit 1
fi
echo "run --json byte-identical with sampling on"
# 1b. Like sampling, a degree-0 hardware prefetcher must be invisible: the
#     hooks are always compiled in, but the disabled path is the zero-cost
#     path.
hw_off=$("${CLI[@]}" run --workload mp3d --refs 4000 --procs 2 --json --hw-prefetch stride:0)
if [[ "$plain" != "$hw_off" ]]; then
    echo "FAIL: run --json output changed with --hw-prefetch stride:0" >&2
    diff <(echo "$plain") <(echo "$hw_off") >&2 || true
    exit 1
fi
echo "run --json byte-identical with a degree-0 hardware prefetcher"
# 2. profile --json: the timeline must tile the run — summed per-window
#    bus_busy equals the final report's busy_cycles.
profile_json=$("${CLI[@]}" profile mp3d --strategy pws --refs 4000 --procs 2 \
    --sample-interval 1000 --json)
total=$(grep -o '"busy_cycles":[0-9]*' <<<"$profile_json" | head -1 | cut -d: -f2)
summed=$(grep -o '"bus_busy":[0-9]*' <<<"$profile_json" | cut -d: -f2 | awk '{s += $1} END {print s}')
if [[ "$total" != "$summed" ]]; then
    echo "FAIL: profile timeline bus_busy sum $summed != report busy_cycles $total" >&2
    exit 1
fi
echo "profile timeline tiles the run (bus_busy sum == busy_cycles == $total)"
# 3. JSONL trace: every line is a {"t":...} object in an allowed category.
events=$(mktemp -t charlie-ci-events.XXXXXX)
"${CLI[@]}" run --workload water --refs 2000 --procs 2 \
    --trace-out "$events" --trace-cats bus,prefetch >/dev/null
if [[ ! -s "$events" ]]; then
    echo "FAIL: --trace-out wrote no events" >&2
    exit 1
fi
if grep -vq '^{"t":[0-9]*,"cat":"\(bus\|prefetch\)","ev":"[a-z_]*",' "$events"; then
    echo "FAIL: malformed or mis-categorized JSONL trace line:" >&2
    grep -v '^{"t":[0-9]*,"cat":"\(bus\|prefetch\)","ev":"[a-z_]*",' "$events" | head -3 >&2
    exit 1
fi
echo "JSONL trace schema valid ($(wc -l <"$events") events)"
rm -f "$events"

echo "== full-grid differential: degree-0 hardware prefetcher =="
# The authoritative statement of the zero-cost disabled path: regenerating
# the entire paper grid with an online prefetcher configured at degree 0
# must reproduce experiments_output.txt byte-for-byte.
grid=$(mktemp -t charlie-ci-grid.XXXXXX)
CHARLIE_HW_PREFETCH=stride:0 cargo run -q --release -p charlie-bench \
    --bin all_experiments >"$grid" 2>/dev/null
if ! cmp -s experiments_output.txt "$grid"; then
    echo "FAIL: full grid with a degree-0 hardware prefetcher differs from" >&2
    echo "      experiments_output.txt" >&2
    diff experiments_output.txt "$grid" | head -20 >&2 || true
    exit 1
fi
rm -f "$grid"
echo "full grid byte-identical to experiments_output.txt with hw prefetch at degree 0"

echo "== sampled simulation: calibration gate + exact-path identity =="
# Two-sided gate on the sampled-simulation subsystem (DESIGN.md §17).
# First: the measured estimation error on the quick calibration grid must
# stay inside a CI tolerance. 160k refs/proc is ~5x smaller than the scale
# the defaults are tuned for, so the gate is 10% — loose enough for the
# extra sampling variance at this size, tight enough to catch estimator
# regressions (the period-32 phase-aliasing bug measured 75% here).
"${CLI[@]}" calibrate --grid quick --refs 160000 --jobs 8 --tolerance 10
# Second: with the sampling code in the tree but --sample-mode absent, the
# exact path must still reproduce the golden grid byte-for-byte.
grid=$(mktemp -t charlie-ci-sampled.XXXXXX)
cargo run -q --release -p charlie-bench --bin all_experiments >"$grid" 2>/dev/null
if ! cmp -s experiments_output.txt "$grid"; then
    echo "FAIL: exact path (sampling off) no longer reproduces" >&2
    echo "      experiments_output.txt" >&2
    diff experiments_output.txt "$grid" | head -20 >&2 || true
    exit 1
fi
rm -f "$grid"
echo "calibration inside 10% and exact path byte-identical with sampling off"

echo "== chaos drill: crash-point matrix + live fault plans =="
# Truncates the checkpoint journal at interior offsets and line boundaries,
# arms every FaultKind against a live sweep, and crashes a bench snapshot
# mid-write; every recovery path must render byte-identical output
# (DESIGN.md §14). Loud stderr warnings here are the recovery paths firing.
"${CLI[@]}" chaos --workload water --refs 1200 --procs 2 --jobs 4 --points 6
echo "chaos drill passed (byte-identical under every injected fault)"

echo "== serve: SIGKILL-and-resume, memo cache, shed, chaos journal =="
# The always-on daemon (DESIGN.md §16): a SIGKILL'd campaign resumes
# exactly-once per cell from its journal, a repeated sweep is served
# entirely from the memo cache, a saturated queue sheds with a retry hint,
# and an injected journal fault degrades durability without corrupting
# resumed output.
BIN=target/release/charlie
serve_state=$(mktemp -d -t charlie-ci-serve.XXXXXX)
serve_log="$serve_state/daemon.log"
serve_pid=""
serve_addr=""
start_daemon() {  # start_daemon <state-dir> [extra serve flags...]
    local dir=$1
    shift
    # Create the log first: the background job opens its redirect only
    # after the fork, and under `set -e -o pipefail` a `sed` that runs
    # before then would fail on the missing file and abort the script.
    : >"$serve_log"
    "$BIN" serve --addr 127.0.0.1:0 --state-dir "$dir" "$@" \
        >"$serve_log" 2>"$serve_log.err" &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 1 200); do
        serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -1)
        [[ -n "$serve_addr" ]] && return 0
        sleep 0.1
    done
    echo "FAIL: serve daemon did not start" >&2
    cat "$serve_log.err" >&2 || true
    exit 1
}
stat_field() {  # stat_field <name> <stats-json>
    grep -o "\"$1\":[0-9]*" <<<"$2" | head -1 | cut -d: -f2
}

# 1. SIGKILL mid-campaign, restart, resubmit: byte-identical to the
#    checked-in full grid, with journaled cells restored not re-simulated.
start_daemon "$serve_state"
"$BIN" submit --addr "$serve_addr" --grid paper >"$serve_state/first.out" 2>/dev/null &
submitter=$!
for _ in $(seq 1 3000); do
    lines=$(cat "$serve_state"/*.ckpt 2>/dev/null | wc -l) || true
    [[ "$lines" -ge 4 ]] && break
    sleep 0.1
done
kill -KILL "$serve_pid" 2>/dev/null
if wait "$submitter" 2>/dev/null; then
    echo "FAIL: submit reported success although its daemon was SIGKILLed" >&2
    exit 1
fi
start_daemon "$serve_state"
"$BIN" submit --addr "$serve_addr" --grid paper >"$serve_state/resumed.out" \
    2>"$serve_state/resumed.err"
if ! cmp -s experiments_output.txt "$serve_state/resumed.out"; then
    echo "FAIL: resumed daemon campaign differs from experiments_output.txt" >&2
    diff experiments_output.txt "$serve_state/resumed.out" | head -20 >&2 || true
    exit 1
fi
stats=$("$BIN" serve --stats --addr "$serve_addr")
if [[ "$(stat_field restored "$stats")" -lt 3 ]]; then
    echo "FAIL: restart restored $(stat_field restored "$stats") cells (expected >=3): $stats" >&2
    exit 1
fi
echo "SIGKILL'd campaign resumed byte-identical ($(stat_field restored "$stats") cells restored)"

# 2. Same sweep again: 100% memo-cache hits, zero re-simulated cells.
executed_before=$(stat_field executed "$stats")
misses_before=$(stat_field misses "$stats")
hits_before=$(stat_field hits "$stats")
"$BIN" submit --addr "$serve_addr" --grid paper >"$serve_state/cached.out" 2>/dev/null
if ! cmp -s experiments_output.txt "$serve_state/cached.out"; then
    echo "FAIL: cached daemon campaign differs from experiments_output.txt" >&2
    exit 1
fi
stats=$("$BIN" serve --stats --addr "$serve_addr")
if [[ "$(stat_field executed "$stats")" -ne "$executed_before" \
   || "$(stat_field misses "$stats")" -ne "$misses_before" \
   || "$(stat_field hits "$stats")" -le "$hits_before" ]]; then
    echo "FAIL: repeated sweep was not served from the memo cache: $stats" >&2
    exit 1
fi
echo "repeated sweep served 100% from cache (0 cells re-simulated)"
"$BIN" serve --shutdown --addr "$serve_addr" >/dev/null
wait "$serve_pid"

# 3. Admission control: a full queue sheds with a structured retry hint.
shed_state=$(mktemp -d -t charlie-ci-shed.XXXXXX)
start_daemon "$shed_state" --queue 1 --jobs 1
"$BIN" submit --addr "$serve_addr" --grid paper >/dev/null 2>&1 &
occupant=$!
for _ in $(seq 1 100); do
    "$BIN" serve --stats --addr "$serve_addr" | grep -q '"active":1' && break
    sleep 0.1
done
if "$BIN" submit --addr "$serve_addr" --workload water \
    >"$serve_state/shed.out" 2>&1; then
    echo "FAIL: submit to a saturated single-slot daemon did not shed" >&2
    exit 1
fi
if ! grep -qi "saturated" "$serve_state/shed.out"; then
    echo "FAIL: shed reply lacks the saturation hint:" >&2
    cat "$serve_state/shed.out" >&2
    exit 1
fi
kill -KILL "$serve_pid" 2>/dev/null
wait "$occupant" 2>/dev/null || true
echo "saturated daemon sheds with a retry hint"

# 4. Chaos: a torn write in the daemon's journal mid-campaign must not
#    corrupt results — the live campaign completes, and after a SIGKILL
#    the CRC framing rejects the torn tail and the resumed campaign is
#    still byte-identical.
chaos_state=$(mktemp -d -t charlie-ci-servechaos.XXXXXX)
serve_ref=$("$BIN" sweep --workload water --refs 20000 --procs 4 --json)
export CHARLIE_CHAOS=journal:torn@400
start_daemon "$chaos_state"
unset CHARLIE_CHAOS
"$BIN" submit --addr "$serve_addr" --workload water --refs 20000 --procs 4 --json \
    >"$serve_state/chaos1.out" 2>/dev/null
if [[ "$serve_ref" != "$(cat "$serve_state/chaos1.out")" ]]; then
    echo "FAIL: daemon output diverged under an injected torn journal write" >&2
    diff <(echo "$serve_ref") "$serve_state/chaos1.out" >&2 || true
    exit 1
fi
kill -KILL "$serve_pid" 2>/dev/null
start_daemon "$chaos_state"
"$BIN" submit --addr "$serve_addr" --workload water --refs 20000 --procs 4 --json \
    >"$serve_state/chaos2.out" 2>/dev/null
if [[ "$serve_ref" != "$(cat "$serve_state/chaos2.out")" ]]; then
    echo "FAIL: resume from a torn daemon journal diverged" >&2
    diff <(echo "$serve_ref") "$serve_state/chaos2.out" >&2 || true
    exit 1
fi
"$BIN" serve --shutdown --addr "$serve_addr" >/dev/null
wait "$serve_pid"
rm -rf "$serve_state" "$shed_state" "$chaos_state"
echo "daemon survives torn journal writes with byte-identical resumed output"

echo "== fleet kill-matrix: 3 workers, SIGKILL mid-campaign, lease chaos =="
# The lease-sharded fleet (DESIGN.md §19): a 3-worker paper-grid campaign
# with one worker SIGKILL'd mid-run must still complete byte-identical to
# the checked-in full grid, with the victim's stranded cells reclaimed by
# the survivors under a higher generation. The same fleet must also
# survive a torn lease-record write injected at the appender.
fleet_state=$(mktemp -d -t charlie-ci-fleet.XXXXXX)
"$BIN" submit --grid paper --workers 3 --state-dir "$fleet_state" \
    --lease-ms 1500 >"$fleet_state/fleet.out" 2>"$fleet_state/fleet.err" &
fleet_sub=$!
# Pick a victim only once its health file shows an unpublished claim in
# flight — SIGKILL then is guaranteed to strand a live lease.
victim=""
for _ in $(seq 1 1200); do
    for hf in "$fleet_state"/workers/*.json; do
        [[ -e "$hf" ]] || continue
        claimed=$(grep -o '"claimed":[0-9]*' "$hf" | cut -d: -f2) || true
        completed=$(grep -o '"completed":[0-9]*' "$hf" | cut -d: -f2) || true
        if [[ -n "$claimed" && "$claimed" -gt "${completed:-0}" ]]; then
            victim=$(grep -o '"pid":[0-9]*' "$hf" | cut -d: -f2) || true
            break 2
        fi
    done
    sleep 0.1
done
if [[ -z "$victim" ]]; then
    echo "FAIL: no fleet worker ever reported an in-flight claim" >&2
    cat "$fleet_state/fleet.err" >&2 || true
    exit 1
fi
kill -KILL "$victim" 2>/dev/null || true
if ! wait "$fleet_sub"; then
    echo "FAIL: fleet campaign failed after one worker was SIGKILLed:" >&2
    cat "$fleet_state/fleet.err" >&2
    exit 1
fi
if ! cmp -s experiments_output.txt "$fleet_state/fleet.out"; then
    echo "FAIL: fleet campaign with a SIGKILL'd worker differs from" >&2
    echo "      experiments_output.txt" >&2
    diff experiments_output.txt "$fleet_state/fleet.out" | head -20 >&2 || true
    exit 1
fi
fleet_stats=$("$BIN" serve --stats --state-dir "$fleet_state")
reclaimed=$(grep -o '"reclaimed":[0-9]*' <<<"$fleet_stats" \
    | cut -d: -f2 | awk '{s += $1} END {print s}')
if [[ "${reclaimed:-0}" -lt 1 ]]; then
    echo "FAIL: survivors reclaimed no cells after the SIGKILL: $fleet_stats" >&2
    exit 1
fi
echo "3-worker fleet survived a SIGKILL byte-identical ($reclaimed cells reclaimed)"
# Coordination cost (DESIGN.md §19): each worker tails the shared journal,
# so none may have read more than twice the final journal per claim thread
# (these workers run one each). Three full scans per claim read ~100x.
journal_bytes=$(cat "$fleet_state"/*.ckpt | wc -c)
scan_bytes=$(grep -o '"scan_bytes":[0-9]*' <<<"$fleet_stats" | cut -d: -f2)
if [[ -z "$scan_bytes" ]]; then
    echo "FAIL: serve --stats reports no scan_bytes: $fleet_stats" >&2
    exit 1
fi
if awk -v max=$((2 * journal_bytes)) '$1 > max { bad = 1 } END { exit !bad }' <<<"$scan_bytes"; then
    echo "FAIL: a worker scanned more than 2 x the ${journal_bytes}-byte journal:" >&2
    echo "$fleet_stats" >&2
    exit 1
fi
echo "fleet scan_bytes within 2 x the ${journal_bytes}-byte journal:" $scan_bytes

# Torn lease-record write mid-campaign: the next appender seals the torn
# tail, CRC framing rejects the fragment, the failed worker dies and its
# cells are reclaimed — output still byte-identical.
chaos_fleet=$(mktemp -d -t charlie-ci-fleetchaos.XXXXXX)
if ! CHARLIE_CHAOS=lease:torn@900 "$BIN" submit --grid paper --workers 3 \
    --state-dir "$chaos_fleet" --lease-ms 1500 >"$chaos_fleet/fleet.out" \
    2>"$chaos_fleet/fleet.err"; then
    echo "FAIL: fleet campaign failed under torn lease-write chaos:" >&2
    cat "$chaos_fleet/fleet.err" >&2
    exit 1
fi
if ! cmp -s experiments_output.txt "$chaos_fleet/fleet.out"; then
    echo "FAIL: fleet campaign under lease chaos differs from" >&2
    echo "      experiments_output.txt" >&2
    diff experiments_output.txt "$chaos_fleet/fleet.out" | head -20 >&2 || true
    exit 1
fi
rm -rf "$fleet_state" "$chaos_fleet"
echo "fleet output byte-identical under torn lease-record injection"

echo "== OK =="
