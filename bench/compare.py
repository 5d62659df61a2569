#!/usr/bin/env python3
"""Compare two result sets written by bench/run.py.

    python3 bench/compare.py <a.json> <b.json>

One row per workload x end-to-end metric: the median of each set, the ratio
b/a (base: a), each set's spread (interquartile distance as a share of its
median, `statistics.quantiles(values, n=4)`) and the bound BENCHMARK.json
fixes for the metric. A row is

  regressed   b's median is worse than a's by more than the bound;
  unresolved  a spread is wider than the bound, so the two medians cannot be
              told apart - unless every run of b reads better than every run
              of a, which resolves the row as ok;
  ok          otherwise.

Exits 1 on any regressed row, any run that is not correct and any rise in the
share of failed operations, 0 otherwise. Unresolved rows are listed and do not
change the exit code. Exits 2 without comparing when the two sets are not
comparable: a workload of BENCHMARK.json missing from either, or different
commands, run lengths, seeds or recorded sizes.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(entry):
    attempted = sum(r["attempted"] for r in entry["runs"])
    return sum(r["failed"] for r in entry["runs"]) / max(attempted, 1)


def not_comparable(a, b, bench):
    """Why medians of the two sets cannot be compared; empty if they can."""
    why = [f"{key} differs: {a.get(key)} vs {b.get(key)}"
           for key in ("command", "run_seconds", "seeds") if a.get(key) != b.get(key)]
    for workload in (w["name"] for w in bench["workloads"]):
        entries = [s["workloads"].get(workload) for s in (a, b)]
        if None in entries:
            why.append(f"{workload}: missing from set {'a' if entries[0] is None else 'b'}")
            continue
        sizes = [e["header"]["sizes"] for e in entries]
        if sizes[0] != sizes[1]:
            why.append(f"{workload}: recorded sizes differ: {sizes[0]} vs {sizes[1]}")
        if any([r["seed"] for r in e["runs"]] != a.get("seeds") for e in entries):
            why.append(f"{workload}: the runs' seeds are not the set's seeds")
    return why


def compare(a, b, bench):
    """Returns (rows, problems); each row is a dict."""
    rows, problems = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        ea, eb = a["workloads"][workload], b["workloads"][workload]
        if failed_share(eb) > failed_share(ea):
            problems.append(f"{workload}: failed share rose from {failed_share(ea):.3g} to {failed_share(eb):.3g}")
        for label, entry in (("a", ea), ("b", eb)):
            if not all(r["correct"] for r in entry["runs"]):
                problems.append(f"{workload}: set {label} has runs that are not correct")
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            va = [r["metrics"][name] for r in ea["runs"]]
            vb = [r["metrics"][name] for r in eb["runs"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            if min(ma, mb) <= 0:
                problems.append(f"{workload}: {name} has a median of 0, which is not a measurement")
                continue
            worse_by = (mb / ma - 1.0) if lower else (ma / mb - 1.0)
            all_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if worse_by > bound:
                verdict = "regressed"
            elif max(spread(va), spread(vb)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": ma, "b": mb, "ratio_b_over_a": mb / ma,
                "spread_a": spread(va), "spread_b": spread(vb),
                "bound": bound, "verdict": verdict,
            })
    return rows, problems


def render(rows, problems):
    lines = [f"{'workload':<16} {'metric':<12} {'a (median)':>12} {'b (median)':>12} {'b/a':>7} "
             f"{'spread a':>9} {'spread b':>9} {'bound':>6}  verdict"]
    for r in rows:
        lines.append(f"{r['workload']:<16} {r['metric']:<12} {r['a']:>12.4f} {r['b']:>12.4f} "
                     f"{r['ratio_b_over_a']:>7.3f} {r['spread_a']:>9.3f} {r['spread_b']:>9.3f} "
                     f"{r['bound']:>6.2f}  {r['verdict']}")
    lines += [f"FAILED: {p}" for p in problems]
    regressed = sum(r["verdict"] == "regressed" for r in rows)
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    lines.append(f"{len(rows)} rows: {regressed} regressed, {unresolved} unresolved, "
                 f"{len(problems)} correctness problems (ratios are b/a, base a)")
    return "\n".join(lines)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in sys.argv[1:])
    why = not_comparable(a, b, bench)
    if why:
        print("\n".join(f"compare.py: not comparable: {w}" for w in why), file=sys.stderr)
        sys.exit(2)
    rows, problems = compare(a, b, bench)
    print(render(rows, problems))
    sys.exit(1 if problems or any(r["verdict"] == "regressed" for r in rows) else 0)


if __name__ == "__main__":
    main()
