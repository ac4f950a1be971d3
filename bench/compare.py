"""Compare two benchmark result files, parent first, child second.

    python3 bench/run.py --compare PARENT.jsonl CHILD.jsonl

Each file holds JSON lines appended by ``run.py --out``, one per run. For
every workload and every metric of BENCHMARK.json present in both files,
this prints each side's median and quartiles over its runs, the child's
change against the parent, and the child's wins over the runs paired by
seed. End-to-end metrics get a verdict, using their bound from
BENCHMARK.json:

- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound;
- ``worse``: the child's median is worse than the parent's by more than
  the bound;
- ``better``: the child's median is better by more than the parent's own
  quartile spread, and the child wins at least nine tenths of the pairs
  (when there are pairs);
- ``same``: none of these; no regression and no gain shown.

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def _values(records: list[dict], workload: str, metric: str) -> list[tuple[int, float]]:
    return [(r["seed"], r["metrics"][metric]) for r in records
            if r["workload"] == workload and metric in r["metrics"]]


def _pairs(parent: list[tuple[int, float]], child: list[tuple[int, float]]):
    """Runs paired by seed, the k-th parent run of a seed with its k-th child run."""
    by_seed = defaultdict(list)
    for seed, v in parent:
        by_seed[seed].append(v)
    used: dict[int, int] = defaultdict(int)
    for seed, v in child:
        k = used[seed]
        if k < len(by_seed[seed]):
            used[seed] += 1
            yield by_seed[seed][k], v


def verdict(parent: list[float], child: list[float], bound: float, better: str,
            wins: int, n_pairs: int) -> str:
    pq1, pm, pq3 = quartiles(parent)
    cq1, cm, cq3 = quartiles(child)
    if pm == 0 or cm == 0 or max((pq3 - pq1) / pm, (cq3 - cq1) / cm) > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    if sign * (cm - pm) / pm > bound:
        return "worse"
    if sign * (pm - cm) > pq3 - pq1 and wins >= 0.9 * n_pairs:
        return "better"
    return "same"


def main(parent_path: str, child_path: str, spec: dict) -> int:
    parent, child = load(parent_path), load(child_path)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"parent {parent_path}: {len(parent)} runs; child {child_path}: {len(child)} runs")
    print(f"{'workload':16} {'metric':40} {'parent median [q1, q3] n':>34} "
          f"{'child median [q1, q3] n':>34} {'change':>8} {'wins':>6}  verdict")
    for kind in ("end_to_end", "per_layer"):
        for wl in workloads:
            for m in spec[kind]:
                pv, cv = _values(parent, wl, m["name"]), _values(child, wl, m["name"])
                if not pv or not cv:
                    continue
                pairs = list(_pairs(pv, cv))
                p = [v for _, v in pv]
                c = [v for _, v in cv]
                pq1, pm, pq3 = quartiles(p)
                cq1, cm, cq3 = quartiles(c)
                change = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
                sign = 1.0 if m["better"] == "lower" else -1.0
                wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
                judged = (verdict(p, c, m["bound"], m["better"], wins, len(pairs))
                          if kind == "end_to_end" else "-")
                print(f"{wl:16} {m['name']:40} "
                      f"{f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}] {len(p)}':>34} "
                      f"{f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}] {len(c)}':>34} "
                      f"{change:>8} {f'{wins}/{len(pairs)}':>6}  {judged}")
    return 0
