#!/bin/sh
# Tier-1 gate: everything a PR must keep green, in one command.
#
#   ./ci.sh
#
# Every `bench` step is a gate: it judges what it measured against its
# committed bounds, which must hold, and against a negative control,
# the same data with one bound or datum broken on purpose, which must
# fail with a named message (bench/main.ml, `gate`; each gate's bounds
# and control are documented with it).
#
# 1. full build + test suite (unit, property, golden, crash sweeps),
#    under the workspace's default `release` profile — plus a negative
#    control: a throwaway library with an unused variable must fail the
#    build with warning 27, proving the root `dune` file still makes
#    warnings errors outside the dev profile;
# 2. bounded chaos smoke: 30 seeds x 5 protocols of randomized
#    fault-schedule campaigns (~150 runs, a few seconds);
# 3. scale: writes BENCH_scale.json, step 6's baseline, and gates the
#    host profiles' exact telescoping (buckets + residual == total);
# 4. breakdown: measured critical-path forces and messages vs Table I;
# 5. timeline: MTTR window starts vs the injected crash instant;
# 6. check: events/s of the heaviest 1PC point vs step 3's baseline
#    (same machine, same run), within 15% — a tighter bound sits inside
#    run-to-run noise; it also refuses a baseline from another build;
# 7. overload: goodput across the knee through admission control, then
#    the overload chaos campaign (reference/storm pairs with fault
#    schedules, >= 30 runs) must satisfy every oracle;
# 8. drill: MTTR percentiles vs the committed recovery SLOs (L1PC fence
#    p99 must be exactly 0);
# 9. autopsy smoke: force an oracle failure (unmeetable settle
#    deadline) through bin/chaos --autopsy, demand a complete incident
#    bundle (manifest, ring tail, journal, trace slice, MTTR, repro
#    line) — the runner re-parses the bundle through Obs.Json before
#    exiting, so a bundle that does not validate exits nonzero;
# 10. coverage: the full observatory's per-protocol edge coverage vs the
#    90% floors, exact message conservation on every run, and every
#    probe settling.
#
# The line before the final "CI OK" gives the script's own wall time.
set -eu

cd "$(dirname "$0")"
started=$(date +%s)

# The temp files of the two negative controls that are not `bench`
# gates; removed on exit, pass or fail.
trap 'rm -rf AUTOPSY_smoke* CI_warning_probe*' EXIT

# step CMD...: one step of the list; `set -e` stops at the first failure.
step() {
  echo "== $* =="
  "$@"
}

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

step dune build
step dune runtest

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

step dune exec bin/chaos.exe -- --seeds 30 --first-seed 1
step dune exec bench/main.exe -- scale --smoke
step dune exec bench/main.exe -- breakdown --smoke
step dune exec bench/main.exe -- timeline --smoke
step dune exec bench/main.exe -- check --against BENCH_scale.json --tolerance 0.15
step dune exec bench/main.exe -- overload --smoke
step dune exec bin/chaos.exe -- --overload --seeds 8 --first-seed 1
step dune exec bench/main.exe -- drill --smoke

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

step dune exec bench/main.exe -- coverage

echo "ci.sh wall time: $(($(date +%s) - started)) s"
echo "CI OK"
