#!/bin/sh
# bench.sh — benchmark-regression harness for the simulator core.
#
# Record mode (default) runs the regression benchmark set and writes two
# artifacts: a raw `go test -bench` log (benchstat-compatible — compare
# two recordings with `benchstat old.txt new.txt`) and a JSON baseline
# with one {name, ns_op, b_op, allocs_op, plan_ns} entry per benchmark
# (plan_ns is the planner's share of the last measured point, so sweep
# recordings double as planner-throughput history):
#
#   scripts/bench.sh                              # -> results/BENCH_pr10.json + .txt
#   scripts/bench.sh -out results/BENCH_new.json  # record elsewhere
#   scripts/bench.sh -benchtime 3x                # extra go-test flags pass through
#
# Check mode re-runs benchmarks and compares them against the committed
# baseline, failing on allocation regressions (the property the
# zero-allocation event core guarantees) while staying tolerant on ns/op
# (CI hardware varies; only a blow-up past NS_FACTOR fails):
#
#   scripts/bench.sh -check                                      # full set
#   scripts/bench.sh -check -bench=BenchmarkTraceOverhead -benchtime=1x
#
# Rules in check mode, per benchmark present in both runs:
#   - allocs/op: baseline 0 must stay 0; otherwise <= 1.25x + 16.
#   - ns/op: must stay under NS_FACTOR (default 4) x baseline.
# Benchmarks missing from the baseline are reported but do not fail.
set -eu

cd "$(dirname "$0")/.."

BASELINE=results/BENCH_pr10.json
DEFAULT_BENCH='^(BenchmarkFig9a_Torus|BenchmarkPacketEngineSteadyState|BenchmarkTraceOverhead|BenchmarkFluidSweep_Torus8x8|BenchmarkFluidEngineSteadyState|BenchmarkPlanMesh16x16|BenchmarkPlanCacheWarmLoad|BenchmarkWarmLoadMesh32x32Parallel|BenchmarkMemCacheHit|BenchmarkLowerMesh32x32)$'
NS_FACTOR=${NS_FACTOR:-4}

mode=record
out=$BASELINE
passthrough=
have_bench=0
have_time=0
while [ $# -gt 0 ]; do
  case "$1" in
    -check) mode=check ;;
    -out) out=$2; shift ;;
    -bench|-benchtime)
      [ "$1" = -bench ] && have_bench=1 || have_time=1
      passthrough="$passthrough $1 $2"; shift ;;
    -bench=*) have_bench=1; passthrough="$passthrough $1" ;;
    -benchtime=*) have_time=1; passthrough="$passthrough $1" ;;
    -h|-help|--help) sed -n '2,26p' "$0"; exit 0 ;;
    *) passthrough="$passthrough $1" ;;
  esac
  shift
done
[ $have_bench = 1 ] || passthrough="$passthrough -bench $DEFAULT_BENCH"
[ $have_time = 1 ] || passthrough="$passthrough -benchtime 1x"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
# shellcheck disable=SC2086  # passthrough is intentionally word-split
go test -run '^$' $passthrough -count=1 . | tee "$raw"

# bench_to_tsv: name<TAB>ns/op<TAB>B/op<TAB>allocs/op<TAB>plan_ns per
# benchmark line. plan_ns (planner share of each all-reduce point, from
# b.ReportMetric) is 0 for benchmarks that do not plan. Other
# ReportMetric columns (GB/s, simCycles, ...) are skipped by matching on
# the unit token; the trailing -N GOMAXPROCS suffix is stripped.
bench_to_tsv() {
  awk '
    /^Benchmark/ {
      name = $1
      sub(/^Benchmark/, "", name)
      sub(/-[0-9]+$/, "", name)
      ns = ""; bytes = "0"; allocs = "0"; plan = "0"
      for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        else if ($i == "B/op") bytes = $(i-1)
        else if ($i == "allocs/op") allocs = $(i-1)
        else if ($i == "plan_ns") plan = $(i-1)
      }
      if (ns != "") printf "%s\t%s\t%s\t%s\t%s\n", name, ns, bytes, allocs, plan
    }
  ' "$1"
}

if [ "$mode" = record ]; then
  txt=${out%.json}.txt
  cp "$raw" "$txt"
  {
    echo '{'
    printf '  "schema": "multitree-bench/v1",\n'
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "goos": "%s",\n' "$(go env GOOS)"
    printf '  "goarch": "%s",\n' "$(go env GOARCH)"
    printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    printf '  "benchmarks": [\n'
    bench_to_tsv "$raw" | awk -F'\t' '
      { lines[NR] = sprintf("    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s, \"plan_ns\": %s}", $1, $2, $3, $4, $5) }
      END { for (i = 1; i <= NR; i++) printf "%s%s\n", lines[i], (i < NR ? "," : "") }
    '
    printf '  ]\n'
    echo '}'
  } > "$out"
  echo "wrote $out and $txt"
  exit 0
fi

# Check mode: join the fresh run against the baseline JSON (one benchmark
# object per line, as record mode writes it).
[ -f "$BASELINE" ] || { echo "bench.sh: no baseline at $BASELINE; run scripts/bench.sh first" >&2; exit 1; }
bench_to_tsv "$raw" | awk -F'\t' -v base="$BASELINE" -v nsf="$NS_FACTOR" '
  BEGIN {
    while ((getline line < base) > 0) {
      if (line !~ /"name":/) continue
      name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      ns = line; sub(/.*"ns_op": /, "", ns); sub(/[,}].*/, "", ns)
      al = line; sub(/.*"allocs_op": /, "", al); sub(/[,}].*/, "", al)
      baseNs[name] = ns + 0; baseAllocs[name] = al + 0
    }
    close(base)
    fails = 0
  }
  {
    name = $1; ns = $2 + 0; allocs = $4 + 0
    if (!(name in baseNs)) {
      printf "SKIP  %-50s not in baseline (ns/op %.0f, allocs/op %d)\n", name, ns, allocs
      next
    }
    bNs = baseNs[name]; bAl = baseAllocs[name]
    ok = "ok  "
    if ((bAl == 0 && allocs > 0) || (bAl > 0 && allocs > bAl*1.25 + 16)) {
      ok = "FAIL"; fails++
      printf "%s  %-50s allocs/op %d -> %d (regression)\n", ok, name, bAl, allocs
      next
    }
    if (bNs > 0 && ns > bNs*nsf) {
      ok = "FAIL"; fails++
      printf "%s  %-50s ns/op %.0f -> %.0f (> %sx baseline)\n", ok, name, bNs, ns, nsf
      next
    }
    printf "%s  %-50s ns/op %.0f -> %.0f, allocs/op %d -> %d\n", ok, name, bNs, ns, bAl, allocs
  }
  END {
    if (fails > 0) { printf "bench.sh: %d benchmark regression(s) vs %s\n", fails, base; exit 1 }
    print "bench.sh: no regressions vs " base
  }
'
