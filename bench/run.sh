#!/usr/bin/env bash
# run.sh — build and run the end-to-end benchmark. See bench/README.md.
#
# One run of one workload (the command BENCHMARK.json names):
#
#   bench/run.sh --workload plan-serve-mesh32 --seed 1 --seconds 24 --trace 0
#
# Every workload, untraced then traced, each in its own process so memory
# numbers stay per workload; one JSON array of run records:
#
#   bench/run.sh -all [-seed N] [-seconds S] [-out results.json]
#
# Interleaved A/B against another checkout (the parent): K pairs, pair i
# using seed i. Each run of the matrix is made on both sides back to back,
# alternating which side goes first (ABBA...), so the two runs of a pair
# see the same host. Then bench/compare over both sides:
#
#   bench/run.sh -pairs K -base ../parent-checkout [-seconds S] [-out DIR]
#
# The benchmark builds from source into .bench_build/ at the checkout root,
# with the Go build cache, module cache and temp files kept there too.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
workloads="allreduce-packet training-fig11 fabric-mesh16 plan-serve-mesh32"

# build <checkout root> <package dir under bench> <output name>: builds a
# benchmark binary from that checkout into its .bench_build/.
build() {
  local out=$1/.bench_build
  mkdir -p "$out/tmp"
  (cd "$1/bench" && env GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
    GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off \
    GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 go build -o "$out/$3" "$2") >&2 || return 1
  echo "$out/$3"
}

# record <checkout root> <workload> <seed> <seconds> <trace>: runs the
# checkout's built benchmark once, sends its metric lines to stderr and
# prints its run record. Fails, after printing any record, if the run did.
record() {
  local out status=0 last digest
  out=$("$1/.bench_build/bench" --workload "$2" --seed "$3" --seconds "$4" --trace "$5" \
    --tmpdir "$1/.bench_build/tmp") || status=1
  printf '%s\n' "$out" | sed '$d' >&2
  last=$(printf '%s\n' "$out" | tail -n 1)
  digest=$(printf '%s\n' "$out" | awk '$2 == "sim_digest" { print $3 }')
  case $last in
    "{"*) printf '{"workload":"%s","seed":%s,"trace":%s,"sim_digest":"%s","result":%s}\n' \
      "$2" "$3" "$5" "$digest" "$last" ;;
    *) status=1 ;;
  esac
  return $status
}

# array: joins the records on stdin, one a line, into one JSON array.
array() {
  echo "["
  sed '2,$s/^/,/'
  echo "]"
}

mode=one seed=1 seconds=24 pairs=0 base="" out=""
case ${1:-} in
  -all|-pairs)
    while [ $# -gt 0 ]; do
      case $1 in
        -all) mode=all ;;
        -pairs) mode=pairs pairs=$2; shift ;;
        -base) base=$2; shift ;;
        -seed) seed=$2; shift ;;
        -seconds) seconds=$2; shift ;;
        -out) out=$2; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
      esac
      shift
    done ;;
esac

case $mode in
  one)
    bin=$(build "$root" . bench)
    exec "$bin" --tmpdir "$root/.bench_build/tmp" "$@" ;;
  all)
    build "$root" . bench >/dev/null
    status=0
    recs=$(for w in $workloads; do for tr in 0 1; do
      record "$root" "$w" "$seed" "$seconds" "$tr" || echo FAILED
    done; done)
    case $recs in *FAILED*) status=1 ;; esac
    recs=$(printf '%s\n' "$recs" | grep -v '^FAILED$' || true)
    if [ -n "$out" ]; then
      printf '%s\n' "$recs" | array > "$out"
    else
      printf '%s\n' "$recs" | array
    fi
    exit $status ;;
  pairs)
    [ -n "$base" ] || { echo "run.sh: -pairs needs -base <parent checkout>" >&2; exit 2; }
    base=$(cd "$base" && pwd)
    out=${out:-$root/.bench_build/ab}
    mkdir -p "$out"
    build "$base" . bench >/dev/null
    build "$root" . bench >/dev/null
    status=0
    for i in $(seq 1 "$pairs"); do
      if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
      rm -f "$out/a-$i.jsonl" "$out/b-$i.jsonl"
      for w in $workloads; do
        for tr in 0 1; do
          for side in $order; do
            if [ "$side" = a ]; then dir=$base; else dir=$root; fi
            echo "pair $i: $w trace $tr side $side ($dir)" >&2
            record "$dir" "$w" "$i" "$seconds" "$tr" >> "$out/$side-$i.jsonl" || status=1
          done
        done
      done
      for side in a b; do
        array < "$out/$side-$i.jsonl" > "$out/$side-$i.json"
        rm "$out/$side-$i.jsonl"
      done
    done
    cmp=$(build "$root" ./compare compare) || exit 1
    "$cmp" -spec "$root/BENCHMARK.json" -a "$out/a-*.json" -b "$out/b-*.json" || status=1
    exit $status ;;
esac
