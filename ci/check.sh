#!/bin/sh
# Repository check: build everything, run the test suites, and (when the
# formatter is installed) verify formatting. Run from the repo root:
#
#   sh ci/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build @all

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt =="
  dune build @fmt
else
  echo "== dune fmt skipped (ocamlformat not installed) =="
fi

# Bench smoke: one quick artifact end to end, then hard-validate the
# BENCH.json schema (parse + hot-path counter/timer keys) and compare
# artifact wall times against the committed BENCH.baseline.json — a >25%
# regression prints WARN (set RAPID_BENCH_STRICT=1 to make it fail).
echo "== bench smoke =="
BENCH_SMOKE_OUT="${TMPDIR:-/tmp}/rapid_bench_smoke.json"
RAPID_BENCH_OUT="$BENCH_SMOKE_OUT" dune exec bench/main.exe -- table3 >/dev/null
dune exec bench/check_bench.exe -- "$BENCH_SMOKE_OUT" BENCH.baseline.json

# ILP smoke: the full fig13 grid must close every instance to proven
# optimality with the pinned golden objective on the load 2.0 / day 1
# slice, and two 25% slices at load 2.0 must branch and still close at
# their pinned objectives (see bench/ilp_smoke.ml). RAPID_BENCH_STRICT=1
# additionally pins the solver's work: twelve lp.*/ilp.* counters (pivots,
# eta updates, bound flips, refactorizations, cold solves, presolve
# reductions, B&B nodes and warm starts, and zero phase-1 iterations,
# iteration limits and unconverged nodes) must equal their exact totals.
echo "== ilp smoke =="
RAPID_BENCH_STRICT=1 dune exec bench/ilp_smoke.exe

# Parallel determinism smoke: the same figure with --jobs 2 and --jobs 4
# must be byte-identical to the sequential run (the Rapid_par contract),
# and the sequential run must match a pinned golden hash — buffer/send-
# queue rewrites must keep reports byte-identical; any deliberate output
# change (e.g. new counters in the JSON) retunes this hash on purpose.
echo "== parallel determinism smoke =="
FIG_SEQ="${TMPDIR:-/tmp}/rapid_fig3_seq.json"
FIG_PAR="${TMPDIR:-/tmp}/rapid_fig3_par.json"
FIG_PAR4="${TMPDIR:-/tmp}/rapid_fig3_par4.json"
dune exec bin/main.exe -- figure -i fig3 --json "$FIG_SEQ" >/dev/null
dune exec bin/main.exe -- figure -i fig3 --jobs 2 --json "$FIG_PAR" >/dev/null
dune exec bin/main.exe -- figure -i fig3 --jobs 4 --json "$FIG_PAR4" >/dev/null
cmp "$FIG_SEQ" "$FIG_PAR"
cmp "$FIG_SEQ" "$FIG_PAR4"
# retuned when the send queue started checking each pop: the diff is
# counters-only (the counters block lost "send_queue.replans": 0). The
# artifact pin below did not move, and pins the results alone, so a
# counters-only retune of the sha256 can be told apart from a change in
# results.
FIG3_GOLDEN="3d28a070d656a8cd8b77ca5ebc4e80ca0cbce38302ab28c795b49d9e714ec047"
FIG3_HASH="$(sha256sum "$FIG_SEQ" | cut -d' ' -f1)"
if [ "$FIG3_HASH" != "$FIG3_GOLDEN" ]; then
  echo "fig3 report hash mismatch: $FIG3_HASH != $FIG3_GOLDEN" >&2
  exit 1
fi
JSON_MEMBER_BIN="./_build/default/bench/json_member.exe"
FIG3_ARTIFACT_MD5="68d7456c74c238910b5845edef9f76b9"
FIG3_ARTIFACT_GOT="$("$JSON_MEMBER_BIN" "$FIG_SEQ" artifact | md5sum | cut -d' ' -f1)"
if [ "$FIG3_ARTIFACT_GOT" != "$FIG3_ARTIFACT_MD5" ]; then
  echo "fig3 artifact md5 mismatch: $FIG3_ARTIFACT_GOT != $FIG3_ARTIFACT_MD5" >&2
  exit 1
fi

# Protocol report goldens: every protocol/metric/load cell of the core
# comparison, pinned by MD5 of the run's "reports" JSON member. The hot
# paths behind these runs (the flat replica DB, positional indexes,
# flat plan scoring, delta dedup) are all exact rewrites — a drifting
# hash here means an "optimization" changed routing behavior. Only the
# reports member is hashed, so adding counters/instrumentation does not
# retune these; the fig3 hash above pins the full JSON.
echo "== protocol report goldens =="
RAPID_BIN="./_build/default/bin/main.exe"
PROTO_OUT="${TMPDIR:-/tmp}/rapid_proto_golden.json"
check_proto() {
  proto="$1"; metric="$2"; load="$3"; want="$4"
  "$RAPID_BIN" run --protocol "$proto" --metric "$metric" --load "$load" \
    --json "$PROTO_OUT" >/dev/null
  got="$("$JSON_MEMBER_BIN" "$PROTO_OUT" reports | md5sum | cut -d' ' -f1)"
  if [ "$got" != "$want" ]; then
    echo "report golden mismatch: $proto/$metric/load=$load: $got != $want" >&2
    exit 1
  fi
}
check_proto rapid        avg 2 d37c5341580264d3181d64627c09c503
check_proto rapid-global avg 2 02dcc5902850b68f4ab4e44c86f62ac0
check_proto rapid-local  avg 2 65c3004adbdfaf69c1b4cddd8faaacbb
check_proto maxprop      avg 2 9efbf2868e4d7db7e852571f96a78add
check_proto spraywait    avg 2 d838e042f08d09197966c3ff1950f337
check_proto prophet      avg 2 907494843160b8813f9ff27a0ff603ff
check_proto random       avg 2 562073e36a3e0f76a3cc393a384d9588
check_proto random-acks  avg 2 e85a11e5f6d7db9bd11d25e2f1c87eba
check_proto epidemic     avg 2 baaeadf39d8b2ac1959ea25ed7e4907e
check_proto direct       avg 2 efd9df0f3b66c730427bb14ee4b63d16
check_proto rapid        avg 4 2e0d1f2c1a9ebc70a652409948feb1ea
check_proto rapid-global avg 4 41754bd39ff59d7df3393e708bcfa704
check_proto rapid-local  avg 4 666448a3071955f2630e1413172f4d95
check_proto maxprop      avg 4 20f855d1c0eba6306fec38a837a4b94a
check_proto spraywait    avg 4 a9067e10148f68f76179a5e3aeca8b26
check_proto prophet      avg 4 aa70da4defa86dfced85819821313116
check_proto random       avg 4 9cf35c677b0cc4558d8350737cd95d0a
check_proto random-acks  avg 4 fb889ae15b621511ad1bd6c4a99808c4
check_proto epidemic     avg 4 c4355abcaaf4910713cac37034fd59a5
check_proto direct       avg 4 4b5c33c86d2c7fcfb59e542878c3b9bf
check_proto rapid max      2 9abdef2a27caadece73f918c9e87447c
check_proto rapid deadline 2 59d370a22d5f880fca9c417ec74c5b45

# Fault-injection smoke: three contracts of lib/faults.
#   1. All-zero fault rates are the plain engine, byte for byte.
#   2. A faulted run is byte-identical across --jobs widths (the fault
#      plan is pre-drawn from (spec seed, run seed, trace)).
#   3. The faulted report matches a pinned golden hash — any change to
#      the fault stream or its engine plumbing must retune this on
#      purpose, not by accident.
echo "== fault injection smoke =="
FAULT_PLAIN="${TMPDIR:-/tmp}/rapid_faults_plain.json"
FAULT_ZERO="${TMPDIR:-/tmp}/rapid_faults_zero.json"
FAULT_SEQ="${TMPDIR:-/tmp}/rapid_faults_seq.json"
FAULT_PAR="${TMPDIR:-/tmp}/rapid_faults_par.json"
FAULT_SPEC="reboots=1,truncate=0.2,metaloss=0.2,noshow=0.1,seed=7"
dune exec bin/main.exe -- run --load 2 --json "$FAULT_PLAIN" >/dev/null
dune exec bin/main.exe -- run --load 2 --faults "seed=7" --json "$FAULT_ZERO" >/dev/null
cmp "$FAULT_PLAIN" "$FAULT_ZERO"
dune exec bin/main.exe -- run --load 2 --faults "$FAULT_SPEC" --json "$FAULT_SEQ" >/dev/null
dune exec bin/main.exe -- run --load 2 --faults "$FAULT_SPEC" --jobs 4 --json "$FAULT_PAR" >/dev/null
cmp "$FAULT_SEQ" "$FAULT_PAR"
# retuned with FIG3_GOLDEN above, for the same counters-only diff; the
# reports pin below did not move, and the zero-fault and cross-jobs
# byte-compares prove the fault stream itself is untouched
FAULT_GOLDEN="5c910d8d8381a2ce492205a93fe614ed101b3fbf0c479ef91721f310b74a463d"
FAULT_HASH="$(sha256sum "$FAULT_SEQ" | cut -d' ' -f1)"
if [ "$FAULT_HASH" != "$FAULT_GOLDEN" ]; then
  echo "faulted report hash mismatch: $FAULT_HASH != $FAULT_GOLDEN" >&2
  exit 1
fi
FAULT_REPORTS_MD5="1232caa4bab6cbd3b6281a69fc33b3d1"
FAULT_REPORTS_GOT="$("$JSON_MEMBER_BIN" "$FAULT_SEQ" reports | md5sum | cut -d' ' -f1)"
if [ "$FAULT_REPORTS_GOT" != "$FAULT_REPORTS_MD5" ]; then
  echo "faulted reports md5 mismatch: $FAULT_REPORTS_GOT != $FAULT_REPORTS_MD5" >&2
  exit 1
fi

# One short trace-faulted benchmark run: its seed-42 digests pin 16
# faulted engine runs with 568 reboots, the only check that drives
# reboots and lost exchanges through RAPID's metadata delta at scale.
echo "== perfbench trace-faulted smoke =="
PERF_OUT="${TMPDIR:-/tmp}/rapid_perf_faulted.txt"
if ! ./_build/default/perfbench/benchmark.exe --workload trace-faulted \
  --seed 42 --seconds 1 > "$PERF_OUT"; then
  tail -n 5 "$PERF_OUT" >&2
  echo "perfbench trace-faulted run failed" >&2
  exit 1
fi

# One short trace-heavy run: its 16 seed-42 digests pin the unlimited-
# storage plans at benchmark scale (every buffer ranked at every contact,
# each plan's heaps popped only as far as the contact ships).
echo "== perfbench trace-heavy smoke =="
if ! ./_build/default/perfbench/benchmark.exe --workload trace-heavy \
  --seed 42 --seconds 1 > "$PERF_OUT"; then
  tail -n 5 "$PERF_OUT" >&2
  echo "perfbench trace-heavy run failed" >&2
  exit 1
fi

# One short powerlaw-buffered run: its seed-42 digests are the only check
# of RAPID's eviction at benchmark scale (13,011 drop_candidate calls per
# pass, each re-summing Eq. 9 over the replica DB for every buffered
# entry).
echo "== perfbench powerlaw-buffered smoke =="
if ! ./_build/default/perfbench/benchmark.exe --workload powerlaw-buffered \
  --seed 42 --seconds 1 > "$PERF_OUT"; then
  tail -n 5 "$PERF_OUT" >&2
  echo "perfbench powerlaw-buffered run failed" >&2
  exit 1
fi

# First-use registration of the faults.* counters must be domain-safe:
# eight domains record their first fault at once, in 40 fresh processes
# (each one registers anew; see test/faults_race.ml).
i=0
while [ "$i" -lt 40 ]; do
  ./_build/default/test/faults_race.exe
  i=$((i + 1))
done

# Point-store smoke: four contracts of lib/store via the CLI.
#   1. A warm --cache-dir rerun's artifact is byte-identical to the cold
#      run's (the full JSON differs only in live engine counters, so the
#      comparison extracts the "artifact" member).
#   2. The warm run is served from the store: store.hits > 0 and
#      warm wall-time < 25% of cold.
#   3. A manually corrupted cell degrades to a recompute — the rerun
#      still succeeds, still byte-matches, and counts corrupt_cells=1.
#   4. An uncached run is unaffected (the fig3 golden hash above already
#      pins that: store counters only register once a store is opened).
echo "== point store smoke =="
STORE_DIR="${TMPDIR:-/tmp}/rapid_store_smoke"
FIG_COLD="${TMPDIR:-/tmp}/rapid_fig3_cold.json"
FIG_WARM="${TMPDIR:-/tmp}/rapid_fig3_warm.json"
FIG_REPAIR="${TMPDIR:-/tmp}/rapid_fig3_repair.json"
STORE_OUT="${TMPDIR:-/tmp}/rapid_store_smoke_out.txt"
rm -rf "$STORE_DIR"
RAPID="./_build/default/bin/main.exe"
JSON_MEMBER="./_build/default/bench/json_member.exe"
COLD_T0=$(date +%s%N)
"$RAPID" figure -i fig3 --cache-dir "$STORE_DIR" --json "$FIG_COLD" > "$STORE_OUT"
COLD_T1=$(date +%s%N)
grep -E "store: hits=0 misses=[1-9][0-9]* writes=[1-9][0-9]* corrupt_cells=0" "$STORE_OUT" >/dev/null
WARM_T0=$(date +%s%N)
"$RAPID" figure -i fig3 --cache-dir "$STORE_DIR" --json "$FIG_WARM" > "$STORE_OUT"
WARM_T1=$(date +%s%N)
grep -E "store: hits=[1-9][0-9]* misses=0 writes=0 corrupt_cells=0" "$STORE_OUT" >/dev/null
"$JSON_MEMBER" "$FIG_COLD" artifact > "$FIG_COLD.artifact"
"$JSON_MEMBER" "$FIG_WARM" artifact > "$FIG_WARM.artifact"
cmp "$FIG_COLD.artifact" "$FIG_WARM.artifact"
COLD_NS=$((COLD_T1 - COLD_T0))
WARM_NS=$((WARM_T1 - WARM_T0))
if [ $((WARM_NS * 4)) -ge "$COLD_NS" ]; then
  echo "warm rerun not fast enough: ${WARM_NS}ns vs cold ${COLD_NS}ns" >&2
  exit 1
fi
# Corrupt one cell and rerun: recomputed, repaired, still byte-identical.
CELL="$(find "$STORE_DIR" -name '*.json' | sort | head -n 1)"
printf 'garbage' > "$CELL"
"$RAPID" figure -i fig3 --cache-dir "$STORE_DIR" --json "$FIG_REPAIR" > "$STORE_OUT" 2>/dev/null
grep -E "store: hits=[1-9][0-9]* misses=1 writes=1 corrupt_cells=1" "$STORE_OUT" >/dev/null
"$JSON_MEMBER" "$FIG_REPAIR" artifact > "$FIG_REPAIR.artifact"
cmp "$FIG_COLD.artifact" "$FIG_REPAIR.artifact"
# The repair rewrote the cell, so one more run must be all hits again.
"$RAPID" figure -i fig3 --cache-dir "$STORE_DIR" > "$STORE_OUT"
grep -E "store: hits=[1-9][0-9]* misses=0 writes=0 corrupt_cells=0" "$STORE_OUT" >/dev/null
# cache subcommands: stats sees the cells, gc bounds the size, clear empties.
"$RAPID" cache stats --cache-dir "$STORE_DIR" | grep -E "cells +[1-9]" >/dev/null
"$RAPID" cache gc --cache-dir "$STORE_DIR" --max-bytes 1 >/dev/null
"$RAPID" cache stats --cache-dir "$STORE_DIR" | grep -E "cells +0" >/dev/null
# Unknown artifact ids exit 2 and list the valid ids.
if "$RAPID" figure -i nosuchfig 2> "$STORE_OUT"; then
  echo "unknown artifact id should fail" >&2
  exit 1
else
  [ $? -eq 2 ]
fi
grep "fig3" "$STORE_OUT" >/dev/null

# Unknown protocol and metric names behave the same way: exit 2 and list
# the valid names (run and ttest share the protocol lookup).
echo "== cli unknown names =="
CLI_OUT="${TMPDIR:-/tmp}/rapid_cli_unknown.txt"
expect_exit2() {
  want="$1"; shift
  if "$RAPID" "$@" 2> "$CLI_OUT"; then
    echo "$* should fail" >&2
    exit 1
  else
    [ $? -eq 2 ]
  fi
  grep -x "  $want" "$CLI_OUT" >/dev/null
}
expect_exit2 maxprop run --protocol nosuchproto
expect_exit2 deadline run --metric nosuchmetric
expect_exit2 spraywait ttest -a rapid -b nosuchproto

# A malformed flag exits 2 (not cmdliner's 124), and so does an output
# the OS refuses, with a one-line diagnostic instead of a trace.
echo "== cli bad input =="
expect_bad_input() {
  want="$1"; shift
  if "$RAPID" "$@" >/dev/null 2> "$CLI_OUT"; then
    echo "$* should fail" >&2
    exit 1
  else
    [ $? -eq 2 ]
  fi
  grep -F "$want" "$CLI_OUT" >/dev/null
}
expect_bad_input 'invalid value "abc"' run --load abc
# --jobs outside 1..127 is refused before any domain starts (OCaml 5 caps
# a process at 128 domains, the main one included).
expect_bad_input 'invalid value "0", expected an integer in 1..127' \
  run --load 1 --jobs 0
expect_bad_input 'invalid value "1000", expected an integer in 1..127' \
  run --load 1 --jobs 1000
NO_DIR="${TMPDIR:-/tmp}/rapid_no_such_dir"
rm -rf "$NO_DIR"
expect_bad_input "No such file or directory" trace --days 1 --out "$NO_DIR/sub"
[ "$(wc -l < "$CLI_OUT")" -eq 1 ]
# A malformed trace file names its bad line (an infinite duration used to
# hang the workload generator), and an infinite reboot rate is refused at
# parse time (it used to hang the fault planner).
BAD_TRACE="${TMPDIR:-/tmp}/rapid_bad_trace.txt"
printf 'rapid-trace 1\nnodes 2\nduration inf\ncontact 1 0 1 100\n' > "$BAD_TRACE"
expect_bad_input "line 3: bad duration" run --trace "$BAD_TRACE" --load 1
[ "$(wc -l < "$CLI_OUT")" -eq 1 ]
expect_bad_input "reboots wants a finite rate" run --load 1 --faults reboots=inf
[ "$(grep -c "reboots wants a finite rate" "$CLI_OUT")" -eq 1 ]

echo "All checks passed."
