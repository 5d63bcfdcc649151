"""The four workloads, one pass at a time, and the checks on their outputs.

Each workload is a closed loop: one caller, every call waits for the one
before it.  An untraced pass calls phaselim's public entry points
(`qfi_iterate`, `covariant_cost`, `gaussian_prior_cost`, the CLI).  A traced
pass makes the same computation through the public functions those entry
points call today (`dephasing_tables`, `coupling_blocks`, `channel_blocks`,
`compose_collective`, `maximize_qfi_over_states`, ...), each call recorded
as a span, and must reproduce the untraced outputs bit for bit.

Inputs are fixed: the seed only picks the random probe states the checks
use.  The sizes are scaled down from the acceptance criteria so that one
pass takes seconds; see README.md.
"""

from __future__ import annotations

import io
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from phaselim import angmom, cli, oracles, qcore, qfi_opt
from phaselim.bayes import covariant_cost, gaussian_prior_cost
from phaselim.qcore import (CollectiveDephasing, LocalDephasing, Loss, NoiseFree,
                            SymmetricPureState, channel_blocks, compose_collective,
                            fidelity_qfi_check, resample_state, state_qfi)
from phaselim.qfi_opt import IterationConfig, maximize_qfi_over_states, qfi_iterate

import checks
from tracing import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ETA = 0.7
GAMMA = 0.02
DEPHASING_N_TOP = 50
LOSS_N_TOP = 25
# (noise, N, delta0): the shapes of criteria 5 and 6 at smaller N, largest last
PRIOR_SOLVES = ((NoiseFree(), 60, 0.2), (NoiseFree(), 60, 0.5),
                (CollectiveDephasing(GAMMA), 80, 0.5),
                (CollectiveDephasing(GAMMA), 80, 0.1))
PRIOR_CFG = IterationConfig(rel_tol=1e-10, max_iters=400, polish=True,
                            polish_max_evals=600)
FIRST_STEP_CFG = IterationConfig(max_iters=1, polish=False)
CLI_PRIOR_WIDTH = 0.5
CLI_NS = tuple(range(10, 201, 10))
CLI_ARGS = ("scan", "--noise", "collective", "--gamma", str(GAMMA),
            "--method", "bayes-gauss", "--prior-width", str(CLI_PRIOR_WIDTH),
            "--n-min", "10", "--n-max", "200", "--n-step", "10")
FD_DELTA = 1e-4
SUBPROCESS_TIMEOUT_S = 170


@dataclass
class Pass:
    wall: float
    cpu: float                 # CPU seconds (user + system) of the pass
    top: float                 # wall seconds of the pass's largest-N operation
    attempted: int
    failed: int
    outputs: object            # what the checks read
    root: Optional[Span] = None


class _Tally:
    """Counts operations; a failing one is recorded, not fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn: Callable, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 -- counted in `failed`
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None


def child_env() -> dict:
    """Environment of the processes the benchmark starts: the source tree on
    the path and the BLAS thread pins inherited from this process."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def clear_caches() -> None:
    """Start from cold per-N caches, as a fresh sweep does."""
    for fn in (angmom.dephasing_tables, angmom.coupling_blocks):
        getattr(fn, "cache_clear", lambda: None)()


# ---------------------------------------------------------------------------
# traced calls: the public functions the entry points call, one span each
# ---------------------------------------------------------------------------


def _blocks(tr: Tracer, noise, n: int):
    with tr.span("qcore.channel_blocks"):
        blocks = channel_blocks(noise, n)
    tr.count("qcore.channel_blocks_count", len(blocks))
    return blocks


def _optimize(tr: Tracer, n: int, blocks, cfg=None):
    with tr.span("qfi_opt.optimize"):
        trace = maximize_qfi_over_states(n, blocks, cfg)
    tr.count("qfi_opt.iterations", len(trace.qfi_values))
    tr.count("qfi_opt.unconverged", int(not trace.converged))
    return trace


def _traced_iterate(tr: Tracer, noise, n: int, cfg):
    if isinstance(noise, LocalDephasing):
        with tr.span("angmom.dephasing_tables"):
            angmom.dephasing_tables(n)
        with tr.span("angmom.coupling_blocks"):
            angmom.coupling_blocks(n, noise.eta)
    return _optimize(tr, n, _blocks(tr, noise, n), cfg)


def _traced_covariant(tr: Tracer, noise, n: int):
    with tr.span("bayes.covariant_cost"):
        return covariant_cost(n, noise)


def traced_prior(tr: Tracer, noise, n: int, delta0: float, cfg):
    """gaussian_prior_cost, step by step; returns (cost, trace)."""
    with tr.span("bayes.gaussian_prior_cost"):
        blocks = _blocks(tr, noise, n)
        with tr.span("qcore.compose_collective"):
            blocks = compose_collective(blocks, delta0 ** 2)
        trace = _optimize(tr, n, blocks, cfg)
        slack = max(0.0, 1.0 - delta0 ** 2 * trace.qfi)
        return delta0 * math.sqrt(slack), trace


@contextmanager
def _cli_layers_traced(tr: Tracer):
    """Route the CLI's calls into qcore and qfi_opt through spans."""
    patches = ((qcore, "channel_blocks", lambda noise, n: _blocks(tr, noise, n)),
               (qcore, "compose_collective",
                tr.wrap("qcore.compose_collective", compose_collective)),
               (qcore, "state_qfi", tr.wrap("qcore.state_qfi", state_qfi)),
               (qfi_opt, "maximize_qfi_over_states",
                lambda n, blocks, cfg=None: _optimize(tr, n, blocks, cfg)))
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def _root(tr: Optional[Tracer], name: str):
    return tr.span(f"pass:{name}") if tr is not None else nullcontext()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    qfi: float
    cost: float
    state: SymmetricPureState


def sweep_pass(name: str, noise, n_top: int, tr: Optional[Tracer] = None) -> Pass:
    """Warm-started optimized QFI plus flat-prior cost for N = 1..n_top."""
    clear_caches()
    tally = _Tally()
    rows: Dict[int, Optional[SweepRow]] = {}
    warm = None
    t_pass, c_pass = time.perf_counter(), time.process_time()
    with _root(tr, name) as root:
        for n in range(1, n_top + 1):
            t_row = time.perf_counter()
            init = resample_state(warm, n) if warm is not None else None
            cfg = IterationConfig(rel_tol=1e-9, max_iters=3000,
                                  initial_state=init, polish=False)
            if tr is None:
                trace = tally.run(qfi_iterate, n, noise, cfg)
                cov = tally.run(covariant_cost, n, noise)
            else:
                trace = tally.run(_traced_iterate, tr, noise, n, cfg)
                cov = tally.run(_traced_covariant, tr, noise, n)
            top = time.perf_counter() - t_row
            warm = trace.final_state if trace is not None else warm
            rows[n] = (SweepRow(trace.qfi, cov.cost, trace.final_state)
                       if trace is not None and cov is not None else None)
    return Pass(time.perf_counter() - t_pass, time.process_time() - c_pass, top,
                tally.attempted, tally.failed, rows, root)


def prior_pass(tr: Tracer, cfg: IterationConfig = PRIOR_CFG,
               name: str = "prior-solves") -> Pass:
    """Cold Gaussian-prior solves, step by step and traced; outputs
    (cost, trace) per solve."""
    tally = _Tally()
    out = []
    t_pass, c_pass = time.perf_counter(), time.process_time()
    with _root(tr, name) as root:
        for noise, n, delta0 in PRIOR_SOLVES:
            t_op = time.perf_counter()
            out.append(tally.run(traced_prior, tr, noise, n, delta0, cfg) or (None, None))
            top = time.perf_counter() - t_op
    return Pass(time.perf_counter() - t_pass, time.process_time() - c_pass, top,
                tally.attempted, tally.failed, out, root)


@dataclass
class CliOutput:
    returncode: int
    csv: str


def cli_subprocess_pass() -> Pass:
    """The README's plateau scan as a `python -m phaselim.cli` subprocess."""
    cmd = [sys.executable, "-m", "phaselim.cli", *CLI_ARGS]
    c0 = _children_cpu()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return _cli_pass(wall, _children_cpu() - c0, proc.returncode, proc.stdout)


def _children_cpu() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def cli_config(timings: bool) -> "cli.SweepConfig":
    """The SweepConfig that `main` builds for CLI_ARGS."""
    return cli.SweepConfig(n_min=10, n_max=200, n_step=10,
                           noise=CollectiveDephasing(GAMMA),
                           methods=("bayes-gauss",), prior_width=CLI_PRIOR_WIDTH,
                           out="-", timings=timings)


def cli_inprocess_pass(tr: Optional[Tracer] = None, timings: bool = True) -> Pass:
    """The same scan in this process through `cli.run_sweep` and `cli.emit`."""
    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with _root(tr, "cli-scan") as root:
        if tr is None:
            cli.emit(cli.run_sweep(cli_config(timings)), "csv", buf)
        else:
            with _cli_layers_traced(tr), tr.span("cli.run_sweep"):
                records = cli.run_sweep(cli_config(timings))
            with tr.span("cli.emit"):
                cli.emit(records, "csv", buf)
    p = _cli_pass(time.perf_counter() - t0, time.process_time() - c0, 0, buf.getvalue())
    p.root = root
    return p


def _cli_pass(wall: float, cpu: float, returncode: int, text: str) -> Pass:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    done = sum(1 for r in rows if len(r) == 8 and r[4]) if returncode == 0 else 0
    top = float(rows[-1][7]) if rows and len(rows[-1]) == 8 and rows[-1][7] else 0.0
    return Pass(wall, cpu, top, len(CLI_NS), len(CLI_NS) - done,
                CliOutput(returncode, text))


def run_pass(workload: str, tr: Optional[Tracer] = None) -> Pass:
    """One pass of a workload; traced when a tracer is given."""
    if workload == "dephasing-sweep":
        return sweep_pass(workload, LocalDephasing(ETA), DEPHASING_N_TOP, tr)
    if workload == "loss-sweep":
        return sweep_pass(workload, Loss(ETA), LOSS_N_TOP, tr)
    if workload == "prior-solves" and tr is not None:
        return prior_pass(tr)
    if workload == "cli-scan":
        return cli_subprocess_pass() if tr is None else cli_inprocess_pass(tr)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("dephasing-sweep", "loss-sweep", "cli-scan")
# what a traced run covers: the workloads plus the Gaussian-prior solves, which
# are no workload of their own (see README.md) but keep gaussian_prior_cost
# and the polish measured per layer, and checked
SHAPES = WORKLOADS + ("prior-solves",)


# ---------------------------------------------------------------------------
# probes of single layers at fixed N (traced run only)
# ---------------------------------------------------------------------------


def layer_probes(tr: Tracer) -> Dict[str, float]:
    """Table builds at N = 120/200, and the channel compile plus one
    optimizer step for each noise at N = 60/120/200."""
    out = {}
    for n in (120, 200):
        clear_caches()
        with tr.span(f"probe:angmom.dephasing_tables.n{n}") as sp:
            angmom.dephasing_tables(n)
        out[f"angmom.dephasing_tables_n{n}_s"] = sp.end - sp.start
    for kind, noise in (("dephasing", LocalDephasing(ETA)), ("loss", Loss(ETA)),
                        ("collective", CollectiveDephasing(GAMMA))):
        for n in (60, 120, 200):
            blocks = channel_blocks(noise, n)
            with tr.span(f"probe:qfi_opt.first_step.{kind}.n{n}") as sp:
                maximize_qfi_over_states(n, blocks, FIRST_STEP_CFG)
            out[f"qfi_opt.first_step_ms.{kind}.n{n}"] = 1000.0 * (sp.end - sp.start)
    clear_caches()
    return out


def unpolished_prior_pass(tr: Tracer) -> Pass:
    """The prior solves without the L-BFGS polish, for qfi_opt.polish_s."""
    return prior_pass(tr, replace(PRIOR_CFG, polish=False), "prior-solves-unpolished")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def output_key(workload: str, p: Pass):
    """What must repeat bit for bit across passes, traced or not."""
    if workload.endswith("-sweep"):
        return [(n, r.qfi, r.cost, r.state.amplitudes.tobytes()) if r else None
                for n, r in sorted(p.outputs.items())]
    if workload == "prior-solves":
        return [cost for cost, _ in p.outputs]
    return _csv_without_times(p.outputs.csv)


def _csv_without_times(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def _random_state(rng: np.random.Generator, n: int) -> SymmetricPureState:
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return SymmetricPureState(n, amps, normalize=True)


def _reference_states(rng: np.random.Generator, n: int) -> Dict[str, SymmetricPureState]:
    k = np.arange(n + 1)
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                          for i in k])
    noon = np.zeros(n + 1)
    noon[0] = noon[-1] = 1.0
    return {"product": SymmetricPureState(n, np.exp(0.5 * log_binom - 0.5 * n * math.log(2.0)),
                                          normalize=True),
            "NOON": SymmetricPureState(n, noon, normalize=True),
            "random-a": _random_state(rng, n),
            "random-b": _random_state(rng, n)}


def _brute_loss_qfi(state: SymmetricPureState, eta: float) -> float:
    """QFI from the beam-splitter dilation: loss patterns are orthogonal, so
    each contributes 4 p Var(m) of its normalized component."""
    total = 0.0
    for (l0, l1), (w, amps) in oracles.brute_loss_components(state, eta).items():
        m = np.arange(l0, state.n_particles - l1 + 1, dtype=float)
        prob = np.abs(amps) ** 2
        total += 4.0 * w * float(np.sum(prob * (m - np.sum(prob * m)) ** 2))
    return total


def check_sweep(kind: str, noise, p: Pass, rng: np.random.Generator) -> List[str]:
    rows = {n: r for n, r in p.outputs.items() if r is not None}
    n_top = max(p.outputs)
    qfis = {n: r.qfi for n, r in rows.items()}
    bad = checks.check_sweep_qfi(kind, ETA, qfis)
    bad += checks.check_flat_costs({n: r.cost for n, r in rows.items()})
    mids = sorted(int(n) for n in rng.choice(np.arange(5, n_top), size=3, replace=False))
    for n in (1, 2, 3, 4, *mids, n_top):
        if n not in rows:
            continue
        states = _reference_states(rng, n)
        if n <= 4:
            brute = (oracles.brute_dephasing_qfi if kind == "dephasing" else _brute_loss_qfi)
            refs = {name: brute(s, ETA) for name, s in states.items()}
            oracle = (oracles.dephasing_block_error if kind == "dephasing"
                      else oracles.loss_mixture_error)
            for name in ("random-a", "random-b"):
                bad += checks.check_below(f"N={n} {kind} channel oracle ({name})",
                                          oracle(states[name], ETA), 1e-10)
        else:
            refs = {name: state_qfi(s, noise) for name, s in states.items()}
        bad += checks.check_dominates(n, qfis[n], refs)
    for n in (2, mids[0], n_top):
        if n in rows:
            fd = fidelity_qfi_check(rows[n].state, noise, FD_DELTA)
            bad += checks.check_close(f"N={n} fidelity QFI", fd, qfis[n])
    return bad


def check_prior(p: Pass) -> List[str]:
    """On a traced pass of the prior solves: van Trees bounds on every cost,
    the same cost bit for bit from `gaussian_prior_cost` itself, and the
    fidelity QFI of the returned state under the prior-averaged channel."""
    bad = []
    for (noise, n, delta0), (cost, trace) in zip(PRIOR_SOLVES, p.outputs):
        if cost is None:
            continue
        label = f"{type(noise).__name__} N={n} delta0={delta0}"
        gamma = getattr(noise, "gamma", 0.0)
        f_phys_max = float(n * n) if gamma == 0.0 else 1.0 / gamma
        bad += checks.check_prior_cost(label, delta0, f_phys_max, cost)
        bad += checks.check_identical(f"{label} step-by-step vs gaussian_prior_cost",
                                      cost, gaussian_prior_cost(n, delta0, noise, PRIOR_CFG))
        fd = fidelity_qfi_check(trace.final_state, CollectiveDephasing(gamma + delta0 ** 2),
                                FD_DELTA)
        bad += checks.check_close(f"{label} prior-averaged fidelity QFI", fd, trace.qfi)
    return bad


def check_cli(passes: List[Pass]) -> List[str]:
    """Exit code, header, rows and cost bounds of every scan, then the
    byte-identical `--no-timings` output of a subprocess and of run_sweep + emit
    in this process (the two run side by side)."""
    floor = math.sqrt(GAMMA / (1.0 + GAMMA / CLI_PRIOR_WIDTH ** 2))
    bad = []
    for p in passes:
        if p.outputs.returncode != 0:
            bad.append(f"scan exited with {p.outputs.returncode}")
        bad += checks.check_csv(p.outputs.csv, CLI_NS, "bayes-gauss", floor,
                                CLI_PRIOR_WIDTH)
    cmd = [sys.executable, "-m", "phaselim.cli", *CLI_ARGS, "--no-timings"]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            inproc = cli_inprocess_pass(timings=False).outputs.csv
            out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        bad.append(f"--no-timings scan exited with {proc.returncode}: {err[-500:]}")
    bad += checks.check_identical("--no-timings subprocess vs run_sweep + emit", out, inproc)
    bad += checks.check_identical("timed scans vs --no-timings scan (times removed)",
                                  _csv_without_times(passes[0].outputs.csv),
                                  _csv_without_times(out))
    return bad


def check_outputs(workload: str, passes: List[Pass], rng: np.random.Generator) -> List[str]:
    """All checks of a workload on the passes of one run."""
    try:
        return _check_outputs(workload, passes, rng)
    except Exception as exc:  # noqa: BLE001 -- a fault while checking fails the run
        traceback.print_exc(file=sys.stderr)
        return [f"a check raised {exc!r}"]


def _check_outputs(workload: str, passes: List[Pass], rng: np.random.Generator) -> List[str]:
    keys = [output_key(workload, p) for p in passes]
    bad = [] if all(k == keys[0] for k in keys) else [
        "passes disagree: outputs are not reproduced bit for bit"]
    first = passes[0]
    if workload == "dephasing-sweep":
        bad += check_sweep("dephasing", LocalDephasing(ETA), first, rng)
    elif workload == "loss-sweep":
        bad += check_sweep("loss", Loss(ETA), first, rng)
    elif workload == "prior-solves":
        bad += check_prior(first)
    else:
        bad += check_cli([p for p in passes if p.root is None])
    return bad
