#!/usr/bin/env bash
# bench_diff.sh — regression gate for the counting engine's recorded
# speedups.
#
# Re-runs the arithmetic-tier benchmark matrix (BenchmarkUnrank and
# BenchmarkSample in internal/core: uint64 vs the math/big test
# reference on Q5/Q8/Q9, wide vs the reference on Q8+cross) and the
# overlay re-cost (BenchmarkRecost in the root package), computes the
# same production-vs-reference speedups BENCH_core.json records, and
# fails when any of them has fallen to 80% of its recording or below.
# Absolute ns/op shift with the host; every ratio's reference runs in
# the same invocation (go test runs benchmark binaries one at a time),
# so the ratios are what the gate checks. Re-cost is priced against the
# reference's Q9 unrank, not against cold Prepare: a faster cold
# Prepare is no re-cost regression. Runs COUNT times and compares
# medians to damp scheduler noise. Every uint64 and wide row must also
# report 0 allocs/op in every run.
#
# Usage: scripts/bench_diff.sh   [BENCHTIME=300ms] [COUNT=3] [TOLERANCE=0.8]
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-300ms}"
COUNT="${COUNT:-3}"
TOLERANCE="${TOLERANCE:-0.8}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "bench_diff: running benchmark matrix (benchtime=$BENCHTIME count=$COUNT)" >&2
go test -run '^$' -bench '^(BenchmarkUnrank|BenchmarkSample|BenchmarkRecost)$' \
	-benchtime "$BENCHTIME" -count "$COUNT" . ./internal/core | tee "$OUT"

python3 - "$OUT" "$TOLERANCE" <<'PYEOF'
import json, re, statistics, sys

out_path, tolerance = sys.argv[1], float(sys.argv[2])
rows, allocs = {}, {}
pat = re.compile(r'^(Benchmark(?:Unrank|Sample|Recost)/\S+?)-\d+\s+\d+\s+([\d.]+) ns/op')
alloc_pat = re.compile(r'\s([\d.]+) allocs/op')
for line in open(out_path):
    m = pat.match(line)
    if m:
        rows.setdefault(m.group(1), []).append(float(m.group(2)))
        a = alloc_pat.search(line)
        if a:
            allocs.setdefault(m.group(1), []).append(float(a.group(1)))
if not rows:
    sys.exit("bench_diff: no benchmark rows parsed")
med = {k: statistics.median(v) for k, v in rows.items()}

def speedup(kind, query, fast_tier):
    slow = med.get(f"Benchmark{kind}/{query}/ref")
    fast = med.get(f"Benchmark{kind}/{query}/{fast_tier}")
    if slow is None or fast is None or fast == 0:
        return None
    return slow / fast

fresh = {"unrank": {}, "sample": {}, "recost": {}}
for q in ("Q5", "Q8", "Q9"):
    fresh["unrank"][q] = speedup("Unrank", q, "uint64")
    fresh["sample"][q] = speedup("Sample", q, "uint64")
fresh["unrank"]["Q8cross"] = speedup("Unrank", "Q8cross", "wide")
fresh["sample"]["Q8cross"] = speedup("Sample", "Q8cross", "wide")
# Overlay re-cost against the math/big reference's Q9 unrank, a
# test-only calibration that production changes do not move.
ref = med.get("BenchmarkUnrank/Q9/ref")
recost = med.get("BenchmarkRecost/Q9/recost")
if ref is not None and recost:
    fresh["recost"]["Q9"] = ref / recost

recorded = json.load(open("BENCH_core.json"))["speedup"]
failed = []
print(f"\nbench_diff: speedup comparison (fail at or below {tolerance:.0%} of recorded)")
print(f"{'row':28} {'recorded':>9} {'fresh':>9} {'ratio':>7}")
for kind in ("unrank", "sample", "recost"):
    for q, want in sorted(recorded.get(kind, {}).items()):
        got = fresh.get(kind, {}).get(q)
        if got is None:
            failed.append(f"{kind}/{q}: row missing from fresh run")
            continue
        ratio = got / want
        flag = "" if ratio > tolerance else "  << REGRESSION"
        print(f"{kind}/{q:22} {want:8.2f}x {got:8.2f}x {ratio:6.2f}{flag}")
        if ratio <= tolerance:
            failed.append(f"{kind}/{q}: {want:.2f}x recorded, {got:.2f}x fresh")

# Production rows must stay allocation-free in every run.
print("\nbench_diff: allocs/op on production rows (must be 0)")
prod = [k for k in sorted(rows) if re.search(r'/(uint64|wide)$', k)]
if not prod:
    failed.append("no uint64/wide rows parsed")
for k in prod:
    got = allocs.get(k)
    if not got or len(got) != len(rows[k]):
        failed.append(f"{k}: allocs/op missing")
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
print("\nbench_diff: OK — every recorded speedup stays above "
      f"{tolerance:.0%} of its recording and every production row is allocation-free")
PYEOF
