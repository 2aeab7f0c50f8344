"""Compare two benchmark results, metric by metric and workload by workload.

    python3 benchmarks/perf/compare.py BASE NEW

Each side is a file that ``run.py --out`` wrote (one invocation), a
collection ``{"invocations": [...]}`` such as ``baseline.json``, or a
directory of such files. The per-pass samples of each side's untraced
invocations are pooled. Every (end-to-end metric, workload) gets one
verdict, using the metric's bound from ``BENCHMARK.json`` as a share of the
base median:

* ``unresolved``: either side's interquartile range is wider than the
  bound, unless every new sample beats every base sample (``better``);
* ``worse`` / ``better``: the medians differ by more than the bound, in the
  metric's bad / good direction;
* ``within``: otherwise.

Untraced invocations of the two sides that ran the same seed are paired,
and the report counts the pairs whose new median beats the base median.
Separately, the digests, every ``*.calls`` count and every ``sim.*`` value
are compared exactly wherever both sides ran a workload with the same seed
and scale, and every difference is listed. Exits 1 when a verdict is
``worse`` or an exact value differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def invocations(path: Path) -> list[dict]:
    if path.is_dir():
        return [inv for file in sorted(path.glob("*.json")) for inv in invocations(file)]
    data = json.loads(path.read_text())
    return data["invocations"] if "invocations" in data else [data]


def pair_wins(base: list[dict], new: list[dict], workload: str, metric: dict) -> str:
    """``won/pairs`` over untraced invocations of both sides with the same seed."""
    def medians(invs):
        return {inv["seed"]: inv["workloads"][workload]["end_to_end"][metric["name"]]["median"]
                for inv in invs if not inv["trace"] and workload in inv["workloads"]}

    sign = 1 if metric["better"] == "higher" else -1
    b, n = medians(base), medians(new)
    seeds = b.keys() & n.keys()
    return f"{sum(sign * (n[s] - b[s]) > 0 for s in seeds)}/{len(seeds)}"


def pooled_samples(invs: list[dict]) -> dict:
    """(workload, metric) -> per-pass samples of every untraced invocation."""
    samples = defaultdict(list)
    for inv in invs:
        if inv["trace"]:
            continue
        for workload, result in inv["workloads"].items():
            for metric, summary in result["end_to_end"].items():
                samples[workload, metric].extend(summary["samples"])
    return samples


def exact_values(invs: list[dict]) -> dict:
    """(workload, seed, scale) -> {name: value} that must repeat exactly."""
    out = defaultdict(dict)
    for inv in invs:
        for workload, result in inv["workloads"].items():
            values = out[workload, inv["seed"], result["scale"]]
            values.update({f"digest {k}": v for k, v in result["digests"].items()})
            values.update(result["sim"])
            values.update({k: v for k, v in result.get("per_layer", {}).items()
                           if k.endswith(".calls")})
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], better: str, bound: float):
    """``(verdict, change)``; ``change`` is the relative gain, positive = better."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = sign * (nm - bm) / bm
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "within", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = invocations(args.base), invocations(args.new)
    base_samples, new_samples = pooled_samples(base), pooled_samples(new)

    bad = False
    print(f"{'workload':<14} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'pairs':>6}  verdict")
    workloads = sorted({w for w, _ in base_samples} & {w for w, _ in new_samples})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base_samples or key not in new_samples:
                continue
            result, change = verdict(base_samples[key], new_samples[key],
                                     metric["better"], metric["bound"])
            bad |= result == "worse"
            cells = []
            for xs in (base_samples[key], new_samples[key]):
                q1, median, q3 = quartiles(xs)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(xs)}")
            print(f"{workload:<14} {metric['name']:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{change:>+8.1%} {pair_wins(base, new, workload, metric):>6}  {result}")

    base_exact, new_exact = exact_values(base), exact_values(new)
    shared = sorted(set(base_exact) & set(new_exact))
    differences = []
    for key in shared:
        for name in sorted(set(base_exact[key]) & set(new_exact[key])):
            if base_exact[key][name] != new_exact[key][name]:
                differences.append(f"{key[0]} seed {key[1]}: {name} "
                                   f"{base_exact[key][name]} -> {new_exact[key][name]}")
    compared = sum(len(set(base_exact[k]) & set(new_exact[k])) for k in shared)
    print(f"\nexact values: {compared} compared over {len(shared)} workload/seed pairs, "
          f"{len(differences)} differ")
    for line in differences:
        print(f"  {line}")
    return 1 if bad or differences else 0


if __name__ == "__main__":
    sys.exit(main())
