#!/bin/sh
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./ci.sh
#
# 1. full build + test suite (unit, property, golden, crash sweeps),
#    under the workspace's default `release` profile — plus a negative
#    control: a throwaway library with an unused variable must fail the
#    build with warning 27, proving the root `dune` file still makes
#    warnings errors outside the dev profile;
# 2. bounded chaos smoke: 30 seeds x 5 protocols of randomized
#    fault-schedule campaigns (~150 runs, a few seconds);
# 3. scale-campaign smoke: emits BENCH_scale.json so the machine-readable
#    baseline stays exercised end to end;
# 4. breakdown smoke: one small span-recorded run per protocol (all
#    five, L1PC included); the bench exits nonzero unless the measured
#    critical-path force and message counts equal
#    Acp.Cost_model.paper_table1 — plus a negative control that corrupts
#    the expected L1PC row and demands the gate trip;
# 5. timeline smoke: crash-and-recover run with the sampler + journal
#    on; exits nonzero if no unavailability window closes or the MTTR
#    window start drifts from the injected crash instant;
# 6. profile smoke: one host-profiled scale point per protocol; the
#    bench exits nonzero unless every profile has buckets and telescopes
#    exactly (buckets + residual == total CPU), and both BENCH_profile.json
#    and the speedscope files re-parse through Obs.Json (every bench
#    artifact does);
# 7. perf-regression gate: re-measures the heaviest 1PC point from the
#    BENCH_scale.json written in step 3 (same machine, same run) and
#    fails if events/s drops more than 15% (a tighter bound sits inside
#    run-to-run noise); first proves the gate can fail (and names the
#    worst-regressing subsystem) by checking against a synthetically
#    inflated baseline, and that it refuses a baseline whose recorded
#    build profile is not this build's;
# 8. overload smoke: open-loop retry storms for every protocol
#    through the admission-controlled ingress — the in-bench
#    graceful-degradation gate must pass with admission control on,
#    provably fail with it off (--unbounded), and the overload chaos
#    campaign (reference/storm pairs with fault schedules, >= 30 runs)
#    must satisfy every oracle;
# 9. recovery-drill gate: crash-and-recover campaigns per protocol,
#    MTTR decomposed into detect/fence/scan/resolve and the percentiles
#    checked against the committed per-protocol recovery SLOs (L1PC
#    fence p99 must be exactly 0) — plus a negative control with
#    impossible budgets that must trip;
# 10. autopsy smoke: force an oracle failure (unmeetable settle
#    deadline) through bin/chaos --autopsy, demand a complete incident
#    bundle (manifest, ring tail, journal, trace slice, MTTR, repro
#    line) — the runner re-parses the bundle through Obs.Json before
#    exiting, so a bundle that does not validate exits nonzero;
# 11. coverage gate: the full protocol-coverage observatory — chaos
#    campaign + directed supplements + deterministic probes merged into
#    one per-protocol transition bitmap; fails unless all five
#    protocols cover >= 90% of their declared edge maps, every run
#    conserves messages exactly (sent = delivered + dup + dropped +
#    in-flight) and every probe settles — plus a negative control with
#    floors inflated past 100% that must trip and name never-hit edges.
#
# The line before the final "CI OK" gives the script's own wall time.
set -eu

cd "$(dirname "$0")"
started=$(date +%s)

# The negative controls' temp files; removed on exit, pass or fail.
trap 'rm -rf BENCH_*.negative.* BENCH_*.inflated.json BENCH_*.unbounded.json AUTOPSY_smoke* CI_warning_probe*' EXIT

# must_print OUT PATTERN: file OUT must hold a line matching the grep
# pattern PATTERN; the matching lines are echoed.
must_print() {
  if ! grep "$2" "$1"; then
    cat "$1"
    echo "FAIL: no line matching '$2' in $1" >&2
    exit 1
  fi
}

# must_trip OUT PATTERN CMD...: a negative control. CMD must exit
# nonzero, and its output, kept in OUT, must match PATTERN.
must_trip() {
  out=$1 pattern=$2
  shift 2
  if "$@" > "$out" 2>&1; then
    cat "$out"
    echo "FAIL: negative control exited 0: $*" >&2
    exit 1
  fi
  must_print "$out" "$pattern"
  echo "the gate trips as expected"
}

echo "== dune build && dune runtest =="
dune build
dune runtest

echo "== warnings negative test (an unused variable must fail the build) =="
# The default profile is `release`, whose own flags leave warnings off;
# the root `dune` file restores the dev profile's checks. A library
# whose only function ignores its argument must then fail to build on
# warning 27, as it would under dev.
mkdir -p CI_warning_probe
echo '(library (name ci_warning_probe))' > CI_warning_probe/dune
echo 'let f x = 0' > CI_warning_probe/probe.ml
must_trip CI_warning_probe.out "Error (warning 27" dune build ./CI_warning_probe
rm -rf CI_warning_probe

echo "== chaos smoke: 30 seeds x 5 protocols =="
dune exec bin/chaos.exe -- --seeds 30 --first-seed 1

echo "== bench scale --smoke (writes BENCH_scale.json) =="
dune exec bench/main.exe -- scale --smoke

echo "== bench breakdown --smoke (cross-checks Table I critical path) =="
dune exec bench/main.exe -- breakdown --smoke

echo "== bench breakdown negative test (wrong L1PC row must fail) =="
# A deliberately corrupted expected row for L1PC must trip the
# cross-check: nonzero exit and a named mismatch. Proves the gate
# compares instead of rubber-stamping.
must_trip BENCH_breakdown.negative.out "L1PC.*mismatch" \
  dune exec bench/main.exe -- breakdown --smoke --wrong-l1pc-row \
    --json BENCH_breakdown.negative.json

echo "== bench timeline --smoke (recovery journal + MTTR decomposition) =="
dune exec bench/main.exe -- timeline --smoke

echo "== bench profile --smoke (host CPU/alloc attribution) =="
# The bench self-validates: nonempty buckets per protocol, exact
# telescoping, and both BENCH_profile.json and the speedscope files
# re-parsed through the strict Obs.Json reader. Any violation exits 1.
dune exec bench/main.exe -- profile --smoke

echo "== bench check negative test (inflated baseline must fail) =="
# A baseline claiming an absurd events/s must trip the gate: build one
# from the real file with events_per_s replaced by a value far beyond
# reach. Run this before the real gate so the BENCH_check.json left on
# disk is the passing one. The tripped gate must also attribute the
# "regression" — the baseline's profile section names the subsystem
# whose self-time per event grew most.
awk '{ gsub(/"events_per_cpu_s":[0-9.eE+-]+/, "\"events_per_cpu_s\":999999999"); print }' \
  BENCH_scale.json > BENCH_scale.inflated.json
must_trip BENCH_check.negative.out "subsystem attribution" \
  dune exec bench/main.exe -- check --against BENCH_scale.inflated.json --tolerance 0.15

echo "== bench check negative test (baseline from another build must fail) =="
# Builds time differently (dev runs every cross-module call out of
# line), so a baseline must come from the build it judges: one whose
# build_profile is rewritten must be refused, naming both profiles.
awk '{ gsub(/"build_profile":"[^"]*"/, "\"build_profile\":\"another-build\""); print }' \
  BENCH_scale.json > BENCH_scale.negative.json
must_trip BENCH_check.negative.profile.out \
  'build profile mismatch: .* timed under "another-build", this binary is "' \
  dune exec bench/main.exe -- check --against BENCH_scale.negative.json --tolerance 0.15

echo "== bench check (perf-regression gate vs freshly written baseline) =="
dune exec bench/main.exe -- check --against BENCH_scale.json --tolerance 0.15

echo "== bench overload --smoke (goodput across the knee, gated) =="
# Sweeps offered load past the capacity knee for every protocol and
# exits 1 unless every protocol holds >= 25% of its peak goodput at the
# heaviest offered load with zero oracle violations.
dune exec bench/main.exe -- overload --smoke

echo "== bench overload negative test (unbounded admission must fail) =="
# With admission control disabled the open-loop retry storm drives
# goodput toward zero: the graceful-degradation gate must trip.
must_trip BENCH_overload.negative.out "FAILS graceful degradation" \
  dune exec bench/main.exe -- overload --smoke --unbounded \
    --json BENCH_overload.unbounded.json

echo "== overload chaos campaign: 8 seeds x 5 protocols (retry storms + faults) =="
dune exec bin/chaos.exe -- --overload --seeds 8 --first-seed 1

echo "== bench drill --smoke (MTTR percentiles vs committed recovery SLOs) =="
# Crash-and-recover campaigns; the bench exits 1 unless every segment
# percentile meets the protocol's committed budget — including L1PC's
# structural claim that logless recovery never fences (fence p99 == 0).
dune exec bench/main.exe -- drill --smoke

echo "== bench drill negative test (impossible SLO must fail) =="
# Zeroed budgets are unmeetable by construction: the gate must trip,
# exit nonzero and name the SLO it failed. Proves the drill gate
# compares instead of rubber-stamping.
must_trip BENCH_drill.negative.out "FAILS recovery SLO" \
  dune exec bench/main.exe -- drill --smoke --impossible-slo \
    --json BENCH_drill.negative.json

echo "== autopsy smoke: forced failure must produce a valid incident bundle =="
# An unmeetable settle deadline fails the liveness oracle on a healthy
# run; --autopsy must then shrink it, replay it fully observed and
# write an incident bundle that Obs.Json re-parses (the runner
# exits nonzero on a bundle that fails validation). The repro line is
# printed verbatim for every failed seed.
rm -rf AUTOPSY_smoke
must_trip AUTOPSY_smoke.out "incident bundle: AUTOPSY_smoke/INCIDENT_1PC_1" \
  dune exec bin/chaos.exe -- -p 1pc --seeds 1 --first-seed 1 \
    --settle-deadline 1 --autopsy AUTOPSY_smoke
must_print AUTOPSY_smoke.out "^repro: "
for f in incident.json ring.jsonl journal.jsonl trace.json mttr.json; do
  if [ ! -s "AUTOPSY_smoke/INCIDENT_1PC_1/$f" ]; then
    echo "FAIL: incident bundle is missing $f" >&2
    exit 1
  fi
done
echo "autopsy bundle written, self-validated and complete"

echo "== bench coverage negative test (inflated floors must fail) =="
# Floors pushed past 100% are unmeetable by construction: the gate must
# exit nonzero and name at least one never-hit edge per protocol.
# Proves the gate compares instead of rubber-stamping. Run before the
# real gate so the BENCH_coverage.json left on disk is the passing one.
must_trip BENCH_coverage.negative.out "FLOOR MISS .*never hit:" \
  dune exec bench/main.exe -- coverage --smoke --inflated-floors \
    --json BENCH_coverage.negative.json

echo "== bench coverage (transition-map floors + conservation ledger) =="
# The full observatory: standard chaos campaign, directed supplements
# and the four deterministic probes merged into one per-protocol edge
# bitmap. Exits 1 unless every protocol covers >= 90% of its declared
# transition map, message conservation holds exactly on every run, and
# every probe settles with a balanced ledger.
dune exec bench/main.exe -- coverage

echo "ci.sh wall time: $(($(date +%s) - started)) s"
echo "CI OK"
