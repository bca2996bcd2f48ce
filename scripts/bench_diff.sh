#!/usr/bin/env bash
# bench_diff.sh — regression gate for the counting engine's recorded
# speedups.
#
# Re-runs the arithmetic-tier benchmark matrix (BenchmarkUnrank,
# BenchmarkSample and BenchmarkCostRank in internal/core: uint64 vs the
# math/big test reference on Q5/Q8/Q9, wide vs the reference on
# Q8+cross), the plan renderer against its fmt reference
# (BenchmarkRender) and the overlay re-cost (BenchmarkRecost in the
# root package), computes the same production-vs-reference speedups
# BENCH_core.json records, and fails when the median of any of them
# has fallen to 80% of its recording or below.
#
# Absolute ns/op shift with the host, and on a shared machine they
# drift within seconds, so the gate never compares ns/op across runs.
# The root and core test binaries are built once and run COUNT times
# as separate processes, interleaved (the order alternates per run).
# Every ratio is computed within one run: a production row against
# its reference row from the same process, a few hundred milliseconds
# apart, and re-cost against the reference's Q9 unrank from the same
# run (a faster cold Prepare is no re-cost regression). The gate then
# takes the median of each ratio over the runs. Every uint64 and wide
# row (unrank, sample and cost by rank) must also report 0 allocs/op
# in every run.
#
# Usage: scripts/bench_diff.sh   [BENCHTIME=300ms] [COUNT=3] [TOLERANCE=0.8]
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-300ms}"
COUNT="${COUNT:-3}"
TOLERANCE="${TOLERANCE:-0.8}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "bench_diff: building test binaries" >&2
go test -c -o "$WORK/root.test" .
go test -c -o "$WORK/core.test" ./internal/core

# bench DIR BINARY PATTERN runs one benchmark process in its package
# directory, as go test would.
bench() {
	(cd "$1" && "$2" -test.run '^$' -test.bench "$3" -test.benchtime "$BENCHTIME")
}
for i in $(seq 1 "$COUNT"); do
	echo "bench_diff: run $i of $COUNT (benchtime=$BENCHTIME)" >&2
	order=(core root)
	if ((i % 2 == 0)); then order=(root core); fi
	for side in "${order[@]}"; do
		case "$side" in
		core) bench internal/core "$WORK/core.test" '^(BenchmarkUnrank|BenchmarkSample|BenchmarkCostRank|BenchmarkRender)$' ;;
		root) bench . "$WORK/root.test" '^BenchmarkRecost$' ;;
		esac | tee "$WORK/run$i.$side.txt"
	done
done

python3 - "$WORK" "$COUNT" "$TOLERANCE" <<'PYEOF'
import json, re, statistics, sys

work, count, tolerance = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
pat = re.compile(r'^(Benchmark(?:Unrank|Sample|CostRank|Render|Recost)/\S+?)-\d+\s+\d+\s+([\d.]+) ns/op')
alloc_pat = re.compile(r'\s([\d.]+) allocs/op')

def parse(run):
    rows, allocs = {}, {}
    for side in ("core", "root"):
        for line in open(f"{work}/run{run}.{side}.txt"):
            m = pat.match(line)
            if m:
                rows[m.group(1)] = float(m.group(2))
                a = alloc_pat.search(line)
                if a:
                    allocs[m.group(1)] = float(a.group(1))
    return rows, allocs

def ratios(rows):
    """Every recorded speedup, from one run's rows."""
    def speedup(kind, query, fast_tier):
        slow = rows.get(f"Benchmark{kind}/{query}/ref")
        fast = rows.get(f"Benchmark{kind}/{query}/{fast_tier}")
        if slow is None or not fast:
            return None
        return slow / fast
    fresh = {"unrank": {}, "sample": {}, "costrank": {}, "render": {}, "recost": {}}
    for q in ("Q5", "Q8", "Q9"):
        fresh["unrank"][q] = speedup("Unrank", q, "uint64")
        fresh["sample"][q] = speedup("Sample", q, "uint64")
        fresh["costrank"][q] = speedup("CostRank", q, "uint64")
    fresh["unrank"]["Q8cross"] = speedup("Unrank", "Q8cross", "wide")
    fresh["sample"]["Q8cross"] = speedup("Sample", "Q8cross", "wide")
    fresh["costrank"]["Q8cross"] = speedup("CostRank", "Q8cross", "wide")
    # The append renderer against the fmt renderer it replaced.
    fresh["render"]["Q5"] = speedup("Render", "Q5", "append")
    # Overlay re-cost against the math/big reference's Q9 unrank, a
    # test-only calibration that production changes do not move.
    ref = rows.get("BenchmarkUnrank/Q9/ref")
    recost = rows.get("BenchmarkRecost/Q9/recost")
    fresh["recost"]["Q9"] = ref / recost if ref is not None and recost else None
    return fresh

runs = [parse(i) for i in range(1, count + 1)]
if not any(rows for rows, _ in runs):
    sys.exit("bench_diff: no benchmark rows parsed")
per_run = [ratios(rows) for rows, _ in runs]

recorded = json.load(open("BENCH_core.json"))["speedup"]
failed = []
print(f"\nbench_diff: speedups per run and their median (fail at or below {tolerance:.0%} of recorded)")
print(f"{'row':20} {'recorded':>9} {'runs':>{9 * count}} {'median':>9} {'ratio':>7}")
for kind in ("unrank", "sample", "costrank", "render", "recost"):
    for q, want in sorted(recorded.get(kind, {}).items()):
        got = [r[kind].get(q) for r in per_run]
        if any(g is None for g in got):
            failed.append(f"{kind}/{q}: row missing from a fresh run")
            continue
        med = statistics.median(got)
        ratio = med / want
        flag = "" if ratio > tolerance else "  << REGRESSION"
        runs_text = "".join(f"{g:8.2f}x" for g in got)
        print(f"{kind + '/' + q:20} {want:8.2f}x {runs_text} {med:8.2f}x {ratio:6.2f}{flag}")
        if ratio <= tolerance:
            failed.append(f"{kind}/{q}: {want:.2f}x recorded, median {med:.2f}x fresh")

# Production rows must stay allocation-free in every run.
print("\nbench_diff: allocs/op on production rows (must be 0)")
prod = sorted({k for rows, _ in runs for k in rows if re.search(r'/(uint64|wide)$', k)})
if not prod:
    failed.append("no uint64/wide rows parsed")
for k in prod:
    got = [allocs.get(k) for rows, allocs in runs if k in rows]
    if len(got) != count or any(a is None for a in got):
        failed.append(f"{k}: allocs/op missing from a run")
        continue
    worst = max(got)
    print(f"{k:36} {worst:6g}{'' if worst == 0 else '  << ALLOCATES'}")
    if worst != 0:
        failed.append(f"{k}: {worst:g} allocs/op")
if failed:
    print("\nbench_diff: FAIL")
    for f in failed:
        print("  " + f)
    sys.exit(1)
print("\nbench_diff: OK — every recorded speedup's median stays above "
      f"{tolerance:.0%} of its recording and every production row is allocation-free")
PYEOF
