"""Batch front-end: sweeps over particle number and noise for the QFI and
Bayesian pipelines, machine-readable tables, and the indefinite-particle
report.

Subcommands:

* ``scan``       -- sweep N for a noise model and a set of methods, emitting
                    one row per (N, method) as CSV or JSON;
* ``indefinite`` -- analyse a definite-N mixture file (vacuum + N00N style);
* ``asymptote``  -- tabulate a closed-form reference curve;
* ``selftest``   -- run the small-N brute-force oracle suite.

Exit codes: 0 success, 1 configuration error, 2 I/O error (a closed stdout
included), 3 numerical failure in every row (or a failed selftest).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import asymptotics, bayes, qcore, qfi_opt
from .qcore import (CollectiveDephasing, LocalDephasing, Loss, NoiseFree,
                    NoiseModel)

__all__ = ["SweepConfig", "PrecisionRecord", "run_sweep", "run_indefinite",
           "emit", "main"]

METHODS = ("qfi-opt", "bayes-flat", "bayes-gauss")
# --noise name -> (model class, the flag holding its one parameter)
NOISES = {"none": (NoiseFree, None), "dephasing": (LocalDephasing, "eta"),
          "loss": (Loss, "eta"), "collective": (CollectiveDephasing, "gamma")}


def _check_n_range(n_min: int, n_max: int, n_step: int) -> None:
    """Validate a linear particle-number grid n_min..n_max by n_step."""
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if n_max < n_min:
        raise ValueError("n_max must be >= n_min")
    if n_step < 1:
        raise ValueError("n_step must be >= 1")


@dataclass
class SweepConfig:
    n_min: int
    n_max: int
    noise: NoiseModel
    methods: Tuple[str, ...]
    n_step: int = 1
    grid: str = "linear"          # or "geometric"
    prior_width: Optional[float] = None
    repetitions: int = 1
    seed: int = 0                 # only recorded: scans draw no random numbers
    out: Optional[str] = None     # None/'-' means stdout
    fmt: str = "csv"
    timings: bool = True

    def __post_init__(self):
        _check_n_range(self.n_min, self.n_max, self.n_step)
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.grid not in ("linear", "geometric"):
            raise ValueError("grid must be 'linear' or 'geometric'")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if "bayes-gauss" in self.methods and self.prior_width is None:
            raise ValueError("bayes-gauss requires --prior-width")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.prior_width is not None and self.prior_width <= 0.0:
            raise ValueError("prior width must be positive")

    def n_grid(self) -> List[int]:
        if self.grid == "linear":
            return list(range(self.n_min, self.n_max + 1, self.n_step))
        pts = np.unique(np.round(np.geomspace(self.n_min, self.n_max,
                                              num=40)).astype(int))
        return [int(n) for n in pts if self.n_min <= n <= self.n_max]


@dataclass
class PrecisionRecord:
    """One sweep row."""

    n: int
    method: str
    qfi: Optional[float] = None
    cr_bound: Optional[float] = None
    bayes_cost: Optional[float] = None
    asymptote: Optional[float] = None
    converged: Optional[bool] = None
    wall_time_s: Optional[float] = None


COLUMNS = tuple(f.name for f in fields(PrecisionRecord))
CSV_HEADER = ",".join(COLUMNS)


def _asymptote_for(noise: NoiseModel, kind: str,
                   prior_width: Optional[float]) -> asymptotics.AsymptoteSpec:
    """The closed-form limit of a `kind` ('cr' or 'bayes') curve; a prior
    width, when given, applies to the Bayesian curve.  Loss and dephasing
    at eta = 1 and collective dephasing at gamma = 0 are noise-free."""
    if noise in (NoiseFree(), LocalDephasing(1.0), Loss(1.0),
                 CollectiveDephasing(0.0)):
        return asymptotics.HeisenbergCR() if kind == "cr" \
            else asymptotics.BayesPi()
    if isinstance(noise, LocalDephasing):
        return asymptotics.DephasingLimit(noise.eta)
    if isinstance(noise, Loss):
        return asymptotics.LossLimit(noise.eta)
    if isinstance(noise, CollectiveDephasing):
        width = prior_width if (kind == "bayes" and prior_width) else math.inf
        return asymptotics.CollectiveLimit(noise.gamma, width)
    raise ValueError(f"unsupported noise model {noise!r}")


def _sweep_row(cfg: SweepConfig, n: int, method: str,
               warm: Dict[str, "qcore.SymmetricPureState"]) -> PrecisionRecord:
    """One (N, method) row; `warm` carries the previous optimum per method."""
    t0 = time.perf_counter()
    rec = PrecisionRecord(n=n, method=method)
    # tail-certified loop accuracy (rel_tol) is ample for sweep columns;
    # the quasi-Newton polish is reserved for the prior-averaged rows whose
    # cost formula amplifies QFI errors near the 1 - delta0^2 F = 0 edge; it
    # stops once the residual |(A + F) c| / F is <= qfi_opt.STATIONARITY_RTOL,
    # else when its evaluation budget runs out
    warm_state = warm.get(method)
    if warm_state is not None and warm_state.n_particles != n:
        warm_state = qcore.resample_state(warm_state, n)
    it_cfg = qfi_opt.IterationConfig(max_iters=3000, rel_tol=1e-9,
                                     initial_state=warm_state,
                                     polish=(method == "bayes-gauss"))
    if method == "qfi-opt":
        trace = qfi_opt.qfi_iterate(n, cfg.noise, it_cfg)
        if trace.qfi > 0.0:  # no finite bound from F = 0 (eta = 0)
            rec.cr_bound = qfi_opt.cr_bound(trace.qfi, cfg.repetitions)
    elif method == "bayes-flat":
        trace = None
        rec.bayes_cost = bayes.covariant_cost(n, cfg.noise).cost
        rec.converged = True
    else:  # bayes-gauss
        rec.bayes_cost, trace = bayes.gaussian_prior_solve(
            n, cfg.prior_width, cfg.noise, it_cfg)
        # prior-aware C-R bound for the returned state under the physical noise
        rec.cr_bound = bayes.bayesian_cr_bound(
            bayes.GaussianPrior(cfg.prior_width),
            qcore.state_qfi(trace.final_state, cfg.noise))
    if trace is not None:
        warm[method] = trace.final_state
        rec.qfi = trace.qfi
        rec.converged = trace.converged
    if getattr(cfg.noise, "eta", 1.0) > 0.0:  # the closed forms need eta > 0
        rec.asymptote = asymptotics.evaluate(_asymptote_for(
            cfg.noise, "cr" if method == "qfi-opt" else "bayes",
            cfg.prior_width if method == "bayes-gauss" else None), n)
    if cfg.repetitions > 1 and rec.bayes_cost is not None:
        # i.i.d. repetition scaling; exact for the C-R column, the standard
        # large-k behaviour for the Bayesian columns
        rec.bayes_cost /= math.sqrt(cfg.repetitions)
    rec.wall_time_s = time.perf_counter() - t0 if cfg.timings else None
    return rec


def run_sweep(cfg: SweepConfig) -> List[PrecisionRecord]:
    """One record per (N, method); a failing row is recorded with empty
    numeric fields rather than aborting the sweep, and its exception named
    on stderr.  Deterministic for a fixed config (timings aside)."""
    records: List[PrecisionRecord] = []
    warm: Dict[str, "qcore.SymmetricPureState"] = {}
    for n in cfg.n_grid():
        for method in cfg.methods:
            try:
                rec = _sweep_row(cfg, n, method, warm)
            except Exception as exc:  # noqa: BLE001 -- per-row fault isolation
                print(f"row (n={n}, {method}) failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rec = PrecisionRecord(n=n, method=method, converged=False)
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.12g}"


def _round12(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return float(f"{value:.12g}")


def _dump_json(obj, stream: TextIO, sort_keys: bool = False) -> None:
    json.dump(obj, stream, indent=1, sort_keys=sort_keys)
    stream.write("\n")


def emit(records: Sequence[PrecisionRecord], fmt: str, stream: TextIO) -> None:
    """Write records as CSV (fixed header) or a JSON array, one column per
    `PrecisionRecord` field; numbers carry 12 significant digits,
    non-applicable fields are empty/null."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        stream.write(CSV_HEADER + "\n")
        for r in records:
            stream.write(",".join(_fmt(getattr(r, c)) for c in COLUMNS) + "\n")
    elif fmt == "json":
        _dump_json([{c: _round12(getattr(r, c)) for c in COLUMNS}
                    for r in records], stream)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _check_writable(out: Optional[str]) -> None:
    """Fail fast, before any computation, when the output path is unusable."""
    if out is None or out == "-":
        return
    path = Path(out)
    try:
        with path.open("a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"cannot write {out}: {exc}") from None


def _write_output(out: Optional[str], write: Callable[[TextIO], None],
                  metadata: Optional[dict] = None) -> None:
    """`write` the output to `out` (stdout for None/'-'), plus a
    `<out>.meta.json` sidecar when `metadata` is given."""
    if out is None or out == "-":
        write(sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, inside main
        return
    path = Path(out)
    try:
        with path.open("w", encoding="utf-8") as fh:
            write(fh)
        if metadata is not None:
            meta_path = path.with_suffix(path.suffix + ".meta.json")
            with meta_path.open("w", encoding="utf-8") as fh:
                _dump_json(metadata, fh, sort_keys=True)
    except OSError as exc:
        raise SystemExit(f"cannot write {out}: {exc}") from None


# ---------------------------------------------------------------------------
# indefinite particle number report
# ---------------------------------------------------------------------------


def parse_mixture_file(path: str) -> bayes.ParticleNumberMixture:
    """Mixture file: one `N weight` (or `N,weight`) pair per line, `#`
    comments allowed.  Raises with the offending line number."""
    entries: List[Tuple[int, float]] = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'N weight', got {raw!r}")
        try:
            n = int(parts[0])
            p = float(parts[1])
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: could not parse numbers in {raw!r}") from None
        entries.append((n, p))
    if not entries:
        raise ValueError(f"{path}: mixture file contains no entries")
    return bayes.ParticleNumberMixture(entries)


def run_indefinite(mix: bayes.ParticleNumberMixture, delta0: float) -> dict:
    """Side-by-side indefinite-particle-number report: the mixture QFI (ideal
    phase probes per sector), the naive Cramer-Rao bound it implies, and the
    Bayesian lower bounds that stay pinned near the definite mean-N value."""
    per_n = {n: float(n) * float(n) for n, _ in mix.entries}
    f_mix = bayes.mixture_qfi(mix, per_n)
    bound = bayes.indefinite_bayes_bound(mix, delta0)
    nbar = mix.mean_n
    report = {
        "entries": [[n, p] for n, p in mix.entries],
        "mean_n": nbar,
        "delta0": delta0,
        "mixture_qfi": f_mix,
        "cr_bound": 1.0 / math.sqrt(f_mix) if f_mix > 0 else None,
        "bayes_exact": bound.exact,
        "bayes_relaxed": bound.relaxed,
        "definite_mean_n_cost": bound.relaxed,
        "asymptotic_pi_over_mean_n": math.pi / nbar if nbar > 0 else None,
    }
    return report


# ---------------------------------------------------------------------------
# selftest: the small-N oracle suite
# ---------------------------------------------------------------------------


def run_selftest() -> bool:
    """Brute-force oracle checks at small N (the same ones the test suite
    pins down, in quick form), one PASS/FAIL line each on stdout."""
    from . import oracles
    from .angmom import clebsch_gordan
    checks: List[Tuple[str, bool]] = []

    ok = True
    for n in (1, 2, 3, 4):
        for eta in (0.3, 0.7):
            state = oracles.random_state(n, seed=11 * n + int(eta * 10))
            err = oracles.dephasing_block_error(state, eta)
            checks.append((f"dephasing oracle N={n} eta={eta}", err < 1e-12))
    for n in (1, 2, 3):
        for eta in (0.3, 0.7):
            state = oracles.random_state(n, seed=5 * n + int(eta * 10))
            err = oracles.loss_mixture_error(state, eta)
            checks.append((f"loss dilation oracle N={n} eta={eta}", err < 1e-10))
    cg_err = abs(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) - 1 / math.sqrt(2))
    checks.append(("two-qubit coupling coefficient", cg_err < 1e-14))
    for n in (1, 2, 3, 4):
        got = bayes.covariant_cost(n, NoiseFree()).cost_squared
        want = 2.0 - 2.0 * math.cos(math.pi / (n + 2))
        checks.append((f"covariant noise-free N={n}", abs(got - want) < 1e-12))

    for name, passed in checks:
        ok &= passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    return ok


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _noise_from_args(args) -> NoiseModel:
    if args.noise not in NOISES:  # a config file can bypass argparse choices
        raise ValueError(f"unknown noise {args.noise!r}")
    model, param = NOISES[args.noise]
    if param is None:
        return model()
    if getattr(args, param) is None:
        raise ValueError(f"--noise {args.noise} requires --{param}")
    return model(getattr(args, param))


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="phaselim",
        description="Finite-N precision limits for quantum phase estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="sweep N for a noise model")
    scan.add_argument("--config", default=None,
                      help="JSON file of flag defaults; explicit flags win")
    scan.add_argument("--noise", choices=tuple(NOISES), default="none")
    scan.add_argument("--eta", type=float, default=None)
    scan.add_argument("--gamma", type=float, default=None)
    scan.add_argument("--n-min", type=int, default=1)
    scan.add_argument("--n-max", type=int, default=None)
    scan.add_argument("--n-step", type=int, default=1)
    scan.add_argument("--grid", choices=("linear", "geometric"), default="linear")
    scan.add_argument("--method", default="qfi-opt",
                      help="comma-separated subset of " + ",".join(METHODS))
    scan.add_argument("--prior-width", type=float, default=None)
    scan.add_argument("--reps", type=int, default=1)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--no-timings", action="store_true",
                      help="blank the wall_time_s column for byte-stable output")
    _add_common_output(scan)

    indef = sub.add_parser("indefinite", help="indefinite particle number report")
    indef.add_argument("mixture", help="file of 'N weight' lines")
    indef.add_argument("--prior-width", type=float, required=True)
    indef.add_argument("--out", default="-",
                       help="JSON output path ('-' for stdout)")

    asym = sub.add_parser("asymptote", help="tabulate a closed-form limit")
    asym.add_argument("--noise", choices=tuple(NOISES), default="none")
    asym.add_argument("--eta", type=float, default=None)
    asym.add_argument("--gamma", type=float, default=None)
    asym.add_argument("--kind", choices=("cr", "bayes"), default="bayes")
    asym.add_argument("--prior-width", type=float, default=None)
    asym.add_argument("--n-min", type=int, default=1)
    asym.add_argument("--n-max", type=int, required=True)
    asym.add_argument("--n-step", type=int, default=1)
    _add_common_output(asym)

    sub.add_parser("selftest", help="run the small-N oracle suite")
    return parser, scan


def _apply_config_file(scan: argparse.ArgumentParser, argv) -> None:
    """Load `--config FILE` defaults for the scan subcommand ahead of the
    real parse, so explicit flags keep precedence over file values."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    try:
        overrides = json.loads(Path(known.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"cannot read {known.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{known.config}: not valid JSON ({exc})") from None
    if not isinstance(overrides, dict):
        raise ValueError(f"{known.config}: expected a JSON object of flag values")
    valid = {a.dest for a in scan._actions}
    mapped = {k.replace("-", "_"): v for k, v in overrides.items()}
    unknown = sorted(set(mapped) - valid)
    if unknown:
        raise ValueError(f"{known.config}: unknown config keys {unknown}")
    scan.set_defaults(**mapped)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, scan = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "scan":
            _apply_config_file(scan, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return 1 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "selftest":
            return 0 if run_selftest() else 3

        if args.command == "scan":
            if args.n_max is None:
                raise ValueError("--n-max is required (flag or config file)")
            cfg = SweepConfig(
                n_min=args.n_min, n_max=args.n_max, n_step=args.n_step,
                grid=args.grid, noise=_noise_from_args(args),
                methods=tuple(m.strip() for m in args.method.split(",") if m.strip()),
                prior_width=args.prior_width, repetitions=args.reps,
                seed=args.seed, out=args.out, fmt=args.format,
                timings=not args.no_timings)
            _check_writable(cfg.out)
            records = run_sweep(cfg)
            numeric = [r for r in records
                       if r.qfi is not None or r.bayes_cost is not None]
            metadata = {
                "command": "scan", "seed": cfg.seed, "noise": repr(cfg.noise),
                "methods": list(cfg.methods), "n_min": cfg.n_min,
                "n_max": cfg.n_max, "n_step": cfg.n_step, "grid": cfg.grid,
                "prior_width": cfg.prior_width, "repetitions": cfg.repetitions,
            }
            _write_output(cfg.out, partial(emit, records, cfg.fmt), metadata)
            return 0 if numeric else 3

        if args.command == "indefinite":
            mix = parse_mixture_file(args.mixture)
            report = run_indefinite(mix, args.prior_width)
            _write_output(args.out, partial(_dump_json, report, sort_keys=True))
            return 0

        if args.command == "asymptote":
            _check_n_range(args.n_min, args.n_max, args.n_step)
            spec = _asymptote_for(_noise_from_args(args), args.kind,
                                  args.prior_width)
            records = [PrecisionRecord(n=n, method=f"asymptote:{args.kind}",
                                       asymptote=asymptotics.evaluate(spec, n))
                       for n in range(args.n_min, args.n_max + 1, args.n_step)]
            _write_output(args.out, partial(emit, records, args.format))
            return 0
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send the rest to devnull so that the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
