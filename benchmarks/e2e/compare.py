"""Summarise one set of runs, or compare two.

    python3 benchmarks/e2e/compare.py A.jsonl            # one set
    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl    # B against A
    python3 benchmarks/e2e/compare.py A.jsonl --json OUT # write the summary

A set is the file ``run.py --out`` appends to: one JSON line per pass,
several seeds per workload.  For every workload and end-to-end metric the
table gives each set's median and quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (quartile distance over
median), the metric's bound, and a verdict on B against A:

* ``same``: B's median is no worse than A's by more than the bound;
* ``worse``: it is worse by more than the bound;
* ``unresolved``: either set's spread exceeds the bound, so the medians
  cannot tell, unless every run of B reads better than every run of A.

It states no gain: a gain needs the paired runs described in the README.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_records(path: str) -> List[dict]:
    """The passes of a set, refusing one that holds a failed output check:
    a set with failures compares nothing."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for record in records:
        if not record["correct"] or record["failed"]:
            raise SystemExit(
                f"{path}: {record['workload']} seed {record['seed']} failed "
                f"its output check")
    return records


def values_of(records: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` over a set's untraced and
    traced passes together (their metric names never collide)."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for record in records:
        for metric, entry in record["metrics"].items():
            values[record["workload"]][metric].append(entry["value"])
    return values


def digests_of(records: List[dict]) -> Dict[tuple, str]:
    return {(r["workload"], r["seed"]): r["digest"] for r in records}


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, and spread = (q3 - q1) / median."""
    if len(values) < 2:
        only = values[0]
        return {"n": 1, "median": only, "q1": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values), "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if not a:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sa, sb = summary(a), summary(b)
    if max(sa["spread"], sb["spread"]) > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        if not all_better:
            return "unresolved"
    return ("worse" if worsening(sa["median"], sb["median"], better) > bound
            else "same")


def end_to_end_spec() -> List[dict]:
    return json.loads(BENCHMARK.read_text())["end_to_end"]


def summarise(name: str, values: Dict[str, Dict[str, List[float]]]) -> dict:
    """The summary of one set, as committed under ``results/``."""
    out = {"source": name, "workloads": {}}
    for workload in sorted(values):
        out["workloads"][workload] = {
            metric: summary(series)
            for metric, series in sorted(values[workload].items())
        }
    greedy = values.get("offline_greedy", {}).get("tok_per_s")
    incr = values.get("offline_incr", {}).get("tok_per_s")
    if greedy and incr:
        # The paper's speedup: speculative over incremental decoding on the
        # same LLM; the base is offline_incr's median tok_per_s.
        out["engine.spec_over_incr"] = (
            statistics.median(greedy) / statistics.median(incr))
    return out


def print_table(a: dict, b: dict = None) -> bool:
    """Print the end-to-end rows; returns whether any row is ``worse``."""
    spec = end_to_end_spec()
    any_worse = False
    header = f"{'workload':16s} {'metric':14s} {'unit':6s} {'bound':>5s}  " \
             f"{'A median [q1, q3] spread':44s}"
    if b is not None:
        header += f"  {'B median [q1, q3] spread':44s}  verdict"
    print(header)
    for workload in sorted(a):
        for metric in spec:
            name = metric["name"]
            if name not in a[workload]:
                continue

            def cell(series):
                s = summary(series)
                return (f"{s['median']:11.4f} [{s['q1']:10.4f}, "
                        f"{s['q3']:10.4f}] {s['spread']:6.3f}")

            row = (f"{workload:16s} {name:14s} {metric['unit']:6s} "
                   f"{metric['bound']:5.2f}  {cell(a[workload][name]):44s}")
            if b is not None and name in b.get(workload, {}):
                result = verdict(a[workload][name], b[workload][name],
                                 metric["better"], metric["bound"])
                any_worse = any_worse or result == "worse"
                row += f"  {cell(b[workload][name]):44s}  {result}"
            print(row)
    return any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="the base set (JSON lines)")
    parser.add_argument("b", nargs="?", help="the set to judge against it")
    parser.add_argument("--json", help="write A's summary here")
    args = parser.parse_args(argv)
    records_a = load_records(args.a)
    records_b = load_records(args.b) if args.b else None
    a = values_of(records_a)
    b = values_of(records_b) if records_b is not None else None
    any_worse = print_table(a, b)
    if b is not None:
        da, db = digests_of(records_a), digests_of(records_b)
        shared = sorted(set(da) & set(db))
        differing = [key for key in shared if da[key] != db[key]]
        print(f"digests: {len(shared) - len(differing)} of {len(shared)} "
              f"shared (workload, seed) pairs identical"
              + (f"; differing: {differing}" if differing else ""))
    if args.json:
        Path(args.json).write_text(
            json.dumps(summarise(Path(args.a).name, a), indent=1,
                       sort_keys=True) + "\n")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
