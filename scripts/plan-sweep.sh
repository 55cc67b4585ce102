#!/bin/sh
# plan-sweep.sh — the Fig. 9-style planner scaling sweep: cold build
# wall time vs warm trusted-load wall time at growing Mesh sizes,
# through the plan cache's binary IR.
#
#     scripts/plan-sweep.sh [out.csv] [topo...]
#
# Defaults: results/plan-scale-sweep.csv over mesh-16x16 mesh-32x32
# mesh-48x48 mesh-64x64 (256 to 4096 nodes; the 4096-node cold build
# takes minutes — that is the point of the warm columns). Each row
# records the cold build+store wall, the warm run's end-to-end wall
# (load + re-validating re-export), the warm *load* alone (the
# cache-lookup phase of the warm run's planner profile — the number the
# "warm hit in seconds" budget is about), the load's decode vs verify
# CPU split (summed per-worker, so with several decode workers either
# can exceed the load wall), the entry's IR size, and a byte-identity
# check between the two exports.
# PROFILE_DIR=dir additionally writes the cold build's planner phase
# profile to dir/plan-profile-<topo>.csv.
#
# Workers default to 4 (override with PLAN_WORKERS); they run the
# eccentricity, lowering and section-decode passes, while tree growth
# is sequential. The schedule is byte-identical at any worker count, so
# the sweep is reproducible modulo wall time.
set -eu

out=${1:-results/plan-scale-sweep.csv}
[ $# -gt 0 ] && shift
topos=${*:-"mesh-16x16 mesh-32x32 mesh-48x48 mesh-64x64"}
workers=${PLAN_WORKERS:-4}

bin=$(mktemp -t schedule-dump.XXXXXX)
go build -o "$bin" ./cmd/schedule-dump
cache=$(mktemp -d -t plan-sweep.XXXXXX)
trap 'rm -rf "$cache" "$bin"' EXIT

now() { date +%s.%N; }

echo "topology,nodes,transfers,ir_bytes,cold_wall_s,warm_wall_s,warm_load_s,warm_decode_s,warm_verify_s,warm_validation" > "$out"
for topo in $topos; do
    nodes=$(echo "$topo" | awk -F'[-x]' '{print $2 * $3}')
    profile=""
    if [ -n "${PROFILE_DIR:-}" ]; then
        # mesh-64x64 -> plan-profile-mesh64x64.csv, matching the
        # committed results/ naming.
        profile="-planprofile $PROFILE_DIR/plan-profile-$(printf '%s' "$topo" | sed 's/-//').csv"
    fi
    cold="$cache/$topo-cold.plan"
    warm="$cache/$topo-warm.plan"

    t0=$(now)
    # shellcheck disable=SC2086
    "$bin" -topo "$topo" -algo multitree -size 1MiB -plan-workers "$workers" \
        -plan-cache "$cache" -progress off $profile \
        -export "$cold" > "$cache/cold.out"
    t1=$(now)
    "$bin" -topo "$topo" -algo multitree -size 1MiB \
        -plan-cache "$cache" -plan-workers "$workers" -progress off \
        -planprofile "$cache/warm-profile.csv" \
        -export "$warm" > "$cache/warm.out"
    t2=$(now)

    cmp "$cold" "$warm" || { echo "plan-sweep: $topo warm export differs from cold" >&2; exit 1; }
    transfers=$(sed -n 's/^schedule .*: \([0-9]*\) transfers.*/\1/p' "$cache/warm.out")
    validation=$(sed -n 's/.*validation=\(.*\)$/\1/p' "$cache/warm.out")
    warm_load=$(awk -F, '$1 == "cache-lookup" { printf "%.2f", $3 / 1e9 }' "$cache/warm-profile.csv")
    # Header-indexed so the extraction survives future profile columns;
    # summed across phases (decode_ns lands on the decode row, verify_ns
    # on the validate row).
    warm_decode=$(awk -F, 'NR==1 { for (i=1;i<=NF;i++) col[$i]=i; next }
        { d += $col["decode_ns"] } END { printf "%.2f", d/1e9 }' "$cache/warm-profile.csv")
    warm_verify=$(awk -F, 'NR==1 { for (i=1;i<=NF;i++) col[$i]=i; next }
        { v += $col["verify_ns"] } END { printf "%.2f", v/1e9 }' "$cache/warm-profile.csv")
    ir_bytes=$(wc -c < "$cold" | tr -d ' ')
    awk -v t="$topo" -v n="$nodes" -v x="$transfers" -v b="$ir_bytes" \
        -v c0="$t0" -v c1="$t1" -v w1="$t2" -v wl="$warm_load" \
        -v wd="$warm_decode" -v wv="$warm_verify" -v v="$validation" \
        'BEGIN { printf "%s,%d,%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%s\n", t, n, x, b, c1-c0, w1-c1, wl, wd, wv, v }' >> "$out"
    rm -f "$cold" "$warm"
    # Flush the row's dirty pages (cache entry + exports) before the next
    # topology's timer starts: writeback from one row otherwise competes
    # with the next row's build and skews its cold wall.
    sync
    echo "plan-sweep: $topo done" >&2
done
echo "plan-sweep: wrote $out" >&2
