"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 benchmarks/compare.py BASE NEW

BASE and NEW are result records (the results/*.json files run.py writes) or
directories holding them.  For every workload and end-to-end metric it prints
each side's median and quartiles, and how many seed-matched pairs the change
won (ties count for neither side).  Then a verdict against the bound that
BENCHMARK.json fixes for the metric:

  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, and not every change run beats
              every parent run;
  regression  the change's median is worse than the parent's by more than
              the bound;
  improved    the change won at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile distance;
  unchanged   otherwise.

Per-layer metrics of traced runs are listed with their medians.  The exit
code is 1 when any metric regressed or a run failed its checks.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str):
    """{(workload, trace): {seed: record}} from files or directories."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = defaultdict(dict)
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        out[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, pairs, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    mb, mn = median(base), median(new)
    (b1, b3), (n1, n3) = quartiles(base), quartiles(new)
    spread = max((b3 - b1) / abs(mb), (n3 - n1) / abs(mn))
    all_better = (max(new) < min(base)) if lower_better else (min(new) > max(base))
    worse = sign * (mn - mb) / abs(mb)
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "REGRESSION"
    elif pairs and wins >= 0.9 * len(pairs) and worse < 0 and abs(mn - mb) > b3 - b1:
        label = "improved"
    else:
        label = "unchanged"
    return label, wins, worse, spread


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    bad = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b_runs, n_runs = base[key], new[key]
        seeds = sorted(set(b_runs) & set(n_runs))
        print(f"\n{workload} ({'traced' if trace else 'untraced'}): "
              f"{len(b_runs)} base runs, {len(n_runs)} new runs, {len(seeds)} pairs")
        for side, runs in (("base", b_runs), ("new", n_runs)):
            res = [r["result"] for r in runs.values()]
            wrong = sum(1 for r in res if not r["correct"])
            bad |= wrong > 0
            print(f"  {side}: attempted {sum(r['attempted'] for r in res)}, "
                  f"failed {sum(r['failed'] for r in res)}, incorrect runs {wrong}")
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            if not all(name in r["result"]["metrics"]
                       for r in (*b_runs.values(), *n_runs.values())):
                print(f"  {name}: missing from some records")
                continue
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs.values()]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs.values()]
            if trace:
                print(f"  {name:40s} base {median(bv):12.6g}  new {median(nv):12.6g} "
                      f"{m['unit']}")
                continue
            pairs = [(b_runs[s]["result"]["metrics"][name]["value"],
                      n_runs[s]["result"]["metrics"][name]["value"]) for s in seeds]
            label, wins, worse, spread = verdict(bv, nv, pairs, m["bound"],
                                                 m["better"] == "lower")
            bad |= label == "REGRESSION"
            (b1, b3), (n1, n3) = quartiles(bv), quartiles(nv)
            print(f"  {name:12s} base {median(bv):.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {median(nv):.6g} [{n1:.6g}, {n3:.6g}] {m['unit']}  "
                  f"won {wins}/{len(pairs)}  worse by {worse:+.1%} "
                  f"(bound {m['bound']:.0%}, spread {spread:.1%})  {label}")
    for key in sorted(set(base) ^ set(new)):
        print(f"\n{key[0]} (trace {key[1]}): only in one result set")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
