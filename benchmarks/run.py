"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --selftest

With `--trace 0` the workload's passes run back to back, untraced, for S
seconds, and the end-to-end metrics of BENCHMARK.json are reported: medians
over the passes, plus the median of several fresh-interpreter imports.  With
`--trace 1` untraced and traced passes of the workload alternate for S
seconds; then one traced pass of every other workload and the fixed layer
probes run, and the per-layer metrics are reported: per-pass layer times
summed over the workloads and the prior solves.  Spans go to
results/*.spans.jsonl.

Every run checks the outputs (see workloads.py and checks.py) and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  The whole
record, with the machine and library versions, is also written to
results/.  BLAS is pinned to one thread in this process and its children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = "import time, phaselim.cli; print(repr(time.time()))"
MIN_COVERAGE = 0.9     # layer spans must cover this share of a traced pass

# per-layer metrics made from span self times, inclusive times and counters
SELF_TIMES = ("angmom.dephasing_tables", "angmom.coupling_blocks",
              "qcore.channel_blocks", "qcore.compose_collective", "qcore.state_qfi",
              "qfi_opt.optimize", "bayes.covariant_cost")
INCLUSIVE_TIMES = ("bayes.gaussian_prior_cost", "cli.run_sweep")
COUNTS = ("qcore.channel_blocks_count", "qfi_opt.iterations", "qfi_opt.unconverged")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="only feed every check a known-bad value")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def window(round_fn, seconds: float):
    """Whole rounds of passes, back to back, until `seconds` have passed."""
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes += round_fn()
    return passes


def measure_setup(wl):
    """Seconds from starting a fresh interpreter until phaselim is imported."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=wl.child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout) - t0)
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0     # Linux reports KiB


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phaselim").glob("*.py")):
        src.update(path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_id, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "seed": seed,
            "machine": platform.machine()}


def layer_medians(tr, passes):
    """Median over passes of each layer's self time, inclusive time and count."""
    rows = []
    for p in passes:
        self_t, incl_t = tr.layer_times(p.root)
        rows.append((self_t, incl_t, tr.counts.get(p.root.sid, {})))
    out = []
    for i, mid in enumerate((median, median, median_low)):   # counts stay whole
        names = set().union(*(r[i] for r in rows))
        out.append({n: mid([r[i].get(n, 0) for r in rows]) for n in names})
    return out


def coverage(tr, p) -> float:
    """Share of a traced pass that its layer spans cover."""
    self_t, _ = tr.layer_times(p.root)
    return 1.0 - self_t[p.root.name] / (p.root.end - p.root.start)


def run_untraced(wl, workload: str, seconds: float, rng):
    setup = measure_setup(wl)
    passes = window(lambda: [wl.run_pass(workload)], seconds)
    metrics = {"cpu_s": median(p.cpu for p in passes),
               "top_row_s": median(p.top for p in passes),
               "setup_s": median(setup),
               "peak_rss_mb": peak_rss_mb(children=workload == "cli-scan")}
    bad = wl.check_outputs(workload, passes, rng)
    samples = {"wall_s": [p.wall for p in passes], "cpu_s": [p.cpu for p in passes],
               "top_row_s": [p.top for p in passes], "setup_s": setup}
    print(f"wall time per pass: median {median(samples['wall_s']):.4f} s over "
          f"{len(passes)} passes (not a metric: it also counts time the hypervisor "
          f"gives this CPU to others)")
    return passes, metrics, bad, samples, {}


def run_traced(wl, workload: str, seconds: float, rng):
    from tracing import Tracer
    tr = Tracer()
    passes = window(lambda: [wl.run_pass(workload), wl.run_pass(workload, tr)], seconds)
    untraced, traced = passes[0::2], passes[1::2]
    by_workload, cli_walls = {workload: traced}, [p.wall for p in untraced]
    for w in wl.SHAPES:
        if w != workload:
            by_workload[w] = [wl.run_pass(w, tr)]
        if w == "cli-scan" != workload:
            # right after the traced scan, so that little drift enters the
            # difference behind cli.process_overhead_s
            cli_walls = [wl.cli_subprocess_pass().wall]
    unpolished = wl.unpolished_prior_pass(tr)
    metrics = wl.layer_probes(tr)

    tables = {w: layer_medians(tr, ps) for w, ps in by_workload.items()}
    for name in SELF_TIMES:
        metrics[f"{name}_s"] = sum(t[0].get(name, 0.0) for t in tables.values())
    for name in INCLUSIVE_TIMES:
        metrics[f"{name}_s"] = sum(t[1].get(name, 0.0) for t in tables.values())
    for name in COUNTS:
        metrics[name] = sum(t[2].get(name, 0) for t in tables.values())
    metrics["cli.emit_ms"] = 1000.0 * sum(t[0].get("cli.emit", 0.0) for t in tables.values())
    metrics["qfi_opt.ms_per_iteration"] = (1000.0 * metrics["qfi_opt.optimize_s"]
                                           / max(metrics["qfi_opt.iterations"], 1))
    polished = tables["prior-solves"][0]["qfi_opt.optimize"]
    bare = layer_medians(tr, [unpolished])[0]["qfi_opt.optimize"]
    metrics["qfi_opt.polish_s"] = polished - bare
    metrics["qfi_opt.polish_gain"] = max(
        (trace.qfi - max(trace.qfi_values)) / max(trace.qfi_values)
        for p in by_workload["prior-solves"] for _, trace in p.outputs if trace is not None)
    metrics["cli.process_overhead_s"] = (median(cli_walls)
                                         - tables["cli-scan"][1]["cli.run_sweep"])

    bad = wl.check_outputs(workload, passes, rng)
    bad += wl.check_outputs("prior-solves", by_workload["prior-solves"], rng)
    covered = {w: min(coverage(tr, p) for p in ps) for w, ps in by_workload.items()}
    bad += [f"{w}: layer spans cover only {c:.1%} of the traced pass"
            for w, c in covered.items() if c < MIN_COVERAGE]

    print("per-pass layer times of the traced run (median over passes), seconds:")
    for w, (self_t, incl_t, counts) in tables.items():
        n_pass = len(by_workload[w])
        print(f"  {w} ({n_pass} traced pass{'es' if n_pass > 1 else ''}, "
              f"layers cover {covered[w]:.1%}):")
        for name in sorted(self_t, key=lambda k: -self_t[k]):
            print(f"    {name:32s} self {self_t[name]:10.4f}  incl {incl_t[name]:10.4f}")
        for name in sorted(counts):
            print(f"    {name:32s} {counts[name]}")
    overhead = None
    if workload != "cli-scan":
        overhead = median(p.wall for p in traced) - median(p.wall for p in untraced)
        print(f"tracing overhead on {workload}: {overhead:+.4f} s per pass "
              f"(traced minus untraced wall time)")
    else:
        print("tracing overhead on cli-scan: not defined, the traced pass runs "
              "in-process and the untraced one as a subprocess")
    samples = {"untraced_wall_s": [p.wall for p in untraced],
               "traced_wall_s": [p.wall for p in traced], "cli_subprocess_s": cli_walls,
               "tracing_overhead_s": overhead}
    return passes, metrics, bad, samples, {"tracer": tr, "tables": tables}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:               # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(HERE))
    import checks

    failing = checks.self_test()
    if args.selftest:
        for name in failing:
            print(f"check accepted a known-bad value: {name}")
        print("check self-test:", "FAIL" if failing else "PASS")
        return 1 if failing else 0

    if not (ROOT / "src" / "phaselim" / "__init__.py").is_file():
        print(f"error: no phaselim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    t0 = time.perf_counter()
    runner = run_traced if args.trace else run_untraced
    passes, values, bad, samples, extra = runner(wl, args.workload, args.seconds, rng)
    bad += [f"check accepted a known-bad value: {name}" for name in failing]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not bad, "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes), "metrics": metrics}

    env = environment(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{args.workload}_seed{args.seed}_trace{args.trace}_"
            f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "passes": len(passes),
              "elapsed_s": time.perf_counter() - t0, "samples": samples,
              "check_failures": bad, "result": result}
    if args.trace:
        extra["tracer"].write_jsonl(RESULTS / f"{stem}.spans.jsonl")
        record["layers"] = {w: {"self_s": t[0], "inclusive_s": t[1], "counts": t[2]}
                            for w, t in extra["tables"].items()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    for failure in bad:
        print(f"CHECK FAILED: {failure}")
    print(f"{args.workload}: {len(passes)} passes, seed {args.seed}, "
          f"trace {args.trace}, {record['elapsed_s']:.1f} s in all")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
