"""CLI tests: sweep records, CSV/JSON schema, determinism, the indefinite
report, exit codes, and the selftest subcommand."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys

import pytest

from phaselim import cli
from phaselim.cli import (CSV_HEADER, PrecisionRecord, SweepConfig, emit,
                          parse_mixture_file, run_indefinite, run_sweep)
from phaselim.bayes import GaussianPrior, bayesian_cr_bound, gaussian_prior_solve
from phaselim.qcore import (CollectiveDephasing, LocalDephasing, Loss, NoiseFree,
                            resample_state, state_qfi)
from phaselim.qfi_opt import IterationConfig
from references import asymptote_ladder

COLUMNS = [f.name for f in dataclasses.fields(PrecisionRecord)]


def small_sweep(methods=("qfi-opt", "bayes-flat"), n_max=10, **kw):
    cfg = SweepConfig(n_min=1, n_max=n_max, noise=NoiseFree(),
                      methods=tuple(methods), timings=False, **kw)
    return cfg, run_sweep(cfg)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n_min=0, n_max=5, noise=NoiseFree(), methods=("qfi-opt",))
        with pytest.raises(ValueError):
            SweepConfig(n_min=5, n_max=2, noise=NoiseFree(), methods=("qfi-opt",))
        with pytest.raises(ValueError):
            SweepConfig(n_min=1, n_max=5, noise=NoiseFree(), methods=())
        with pytest.raises(ValueError):
            SweepConfig(n_min=1, n_max=5, noise=NoiseFree(), methods=("nope",))
        with pytest.raises(ValueError):
            SweepConfig(n_min=1, n_max=5, noise=NoiseFree(),
                        methods=("bayes-gauss",))  # needs prior width
        for width in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="prior width"):
                SweepConfig(n_min=1, n_max=5, noise=NoiseFree(),
                            methods=("bayes-gauss",), prior_width=width)
        for step in (0, -1):
            with pytest.raises(ValueError):
                SweepConfig(n_min=1, n_max=5, noise=NoiseFree(),
                            methods=("qfi-opt",), n_step=step)

    def test_geometric_grid_is_increasing_and_bounded(self):
        cfg = SweepConfig(n_min=1, n_max=100, noise=NoiseFree(),
                          methods=("bayes-flat",), grid="geometric")
        grid = cfg.n_grid()
        assert grid[0] == 1 and grid[-1] == 100
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestRunSweep:
    def test_one_record_per_n_and_method(self):
        _, records = small_sweep(n_max=6)
        assert len(records) == 12
        assert {(r.n, r.method) for r in records} == {
            (n, m) for n in range(1, 7) for m in ("qfi-opt", "bayes-flat")}

    def test_noise_free_columns(self):
        _, records = small_sweep(n_max=8)
        for r in records:
            if r.method == "qfi-opt":
                assert r.qfi == pytest.approx(r.n ** 2, rel=1e-8)
                assert r.cr_bound == pytest.approx(1.0 / r.n, rel=1e-8)
                assert r.asymptote == pytest.approx(1.0 / r.n)
                assert r.bayes_cost is None
            else:
                assert r.bayes_cost is not None
                assert r.asymptote == pytest.approx(math.pi / r.n)
                n_cost = r.n * r.bayes_cost
                assert 1.0 - 1e-12 <= n_cost < math.pi

    def test_bayes_gauss_rows_carry_prior_bound(self):
        cfg = SweepConfig(n_min=4, n_max=6, noise=NoiseFree(),
                          methods=("bayes-gauss",), prior_width=0.4,
                          timings=False)
        records = run_sweep(cfg)
        for r in records:
            assert r.bayes_cost is not None and r.cr_bound is not None
            assert r.bayes_cost >= r.cr_bound - 1e-12
            assert r.bayes_cost <= 0.4 + 1e-12

    @pytest.mark.parametrize("noise", [
        LocalDephasing(0.7), Loss(0.7), CollectiveDephasing(0.02)], ids=repr)
    def test_noisy_bayes_gauss_rows_respect_van_trees_bound(self, noise):
        # every row is one shot: no cost falls below the single-shot bound
        # 1/sqrt(F + 1/delta0^2) of its own state under the physical noise
        cfg = SweepConfig(n_min=2, n_max=10, n_step=4, noise=noise,
                          methods=("bayes-gauss",), prior_width=0.5,
                          timings=False)
        records = run_sweep(cfg)
        assert [r.n for r in records] == [2, 6, 10]
        for r in records:
            assert r.bayes_cost is not None and r.cr_bound is not None
            assert r.bayes_cost >= r.cr_bound - 1e-12

    def test_dephasing_rows_above_asymptote(self):
        cfg = SweepConfig(n_min=2, n_max=8, noise=LocalDephasing(0.7),
                          methods=("qfi-opt", "bayes-flat"), timings=False)
        records = run_sweep(cfg)
        for r in records:
            value = r.cr_bound if r.method == "qfi-opt" else r.bayes_cost
            assert value >= r.asymptote

    @pytest.mark.parametrize("noise", ["loss", "dephasing"])
    def test_eta_zero_rows_keep_their_values(self, noise, capsys):
        # F = 0 has no finite C-R bound and the closed-form limits need
        # eta > 0, so those cells stay empty; the computed columns stay
        assert cli.main(["scan", "--noise", noise, "--eta", "0", "--n-max", "2",
                         "--method", "qfi-opt,bayes-flat,bayes-gauss",
                         "--prior-width", "0.3", "--no-timings"]) == 0
        out, err = capsys.readouterr()
        rows = ["qfi-opt,0,,,,true,", "bayes-flat,,,1.41421356237,,true,",
                "bayes-gauss,0,0.3,0.3,,true,"]
        assert out == "".join(f"{line}\n" for line in [CSV_HEADER] + [
            f"{n},{row}" for n in (1, 2) for row in rows])
        assert err == ""
        assert cli.main(["asymptote", "--noise", noise, "--eta", "0",
                         "--n-max", "2"]) == 1
        assert "must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--noise", "loss", "--eta", "1"],
                                       ["--noise", "collective", "--gamma", "0"]])
    def test_noise_free_edges_have_noise_free_asymptotes(self, flags, capsys):
        # loss at eta = 1 and collective dephasing at gamma = 0 are noise-free:
        # their limits are 1/N (C-R) and pi/N (flat prior), not 0
        assert cli.main(["scan", *flags, "--method", "qfi-opt,bayes-flat",
                         "--n-max", "2", "--no-timings"]) == 0
        rows = [CSV_HEADER, "1,qfi-opt,1,1,,1,true,",
                "1,bayes-flat,,,1,3.14159265359,true,",
                "2,qfi-opt,4,0.5,,0.5,true,",
                "2,bayes-flat,,,0.76536686473,1.57079632679,true,"]
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in rows)

    def test_failing_row_recorded_without_aborting(self, monkeypatch, capsys):
        import phaselim.bayes as bayes_mod

        real = bayes_mod.covariant_cost

        def flaky(n, noise):
            if n == 3:
                raise RuntimeError("synthetic numerical failure")
            return real(n, noise)

        monkeypatch.setattr(cli.bayes, "covariant_cost", flaky)
        cfg = SweepConfig(n_min=1, n_max=5, noise=NoiseFree(),
                          methods=("bayes-flat",), timings=False)
        records = run_sweep(cfg)
        assert len(records) == 5
        failed = [r for r in records if r.n == 3][0]
        assert failed.bayes_cost is None and failed.converged is False
        assert all(r.bayes_cost is not None for r in records if r.n != 3)
        assert ("row (n=3, bayes-flat) failed: RuntimeError: synthetic "
                "numerical failure") in capsys.readouterr().err

    @pytest.mark.parametrize("noise,delta0,grid", [
        (NoiseFree(), 0.4, (4, 8, 1)),
        (CollectiveDephasing(0.02), 0.5, (10, 30, 10))])
    def test_bayes_gauss_rows_are_the_library_solve(self, noise, delta0, grid):
        # the CLI adds nothing of its own: a hand-run warm chain of the
        # library solve reproduces every numeric column exactly
        n_min, n_max, n_step = grid
        cfg = SweepConfig(n_min=n_min, n_max=n_max, n_step=n_step, noise=noise,
                          methods=("bayes-gauss",), prior_width=delta0,
                          timings=False)
        records = run_sweep(cfg)
        ns = list(range(n_min, n_max + 1, n_step))
        assert [r.n for r in records] == ns
        warm = None
        for rec, n in zip(records, ns):
            init = resample_state(warm, n) if warm is not None else None
            cost, trace = gaussian_prior_solve(n, delta0, noise, IterationConfig(
                max_iters=3000, rel_tol=1e-9, initial_state=init))
            warm = trace.final_state
            assert rec.qfi == trace.qfi
            assert rec.bayes_cost == cost
            assert rec.cr_bound == bayesian_cr_bound(
                GaussianPrior(delta0), state_qfi(trace.final_state, noise))


class TestNoiseLimit:
    @pytest.mark.parametrize("width", [None, 0.5, math.inf])
    @pytest.mark.parametrize("kind", ["cr", "bayes"])
    @pytest.mark.parametrize("noise", [
        NoiseFree(), LocalDephasing(0.0), LocalDephasing(0.7), LocalDephasing(1.0),
        Loss(0.0), Loss(0.7), Loss(1.0), CollectiveDephasing(0.0),
        CollectiveDephasing(0.02)], ids=repr)
    def test_each_model_names_the_ladder_limit(self, noise, kind, width):
        got = noise.limit(kind, width)
        if noise in (LocalDephasing(0.0), Loss(0.0)):
            # no phase reaches the output: no limit, where the ladder raised
            assert got is None
            with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
                asymptote_ladder(noise, kind, width)
        else:
            assert got == asymptote_ladder(noise, kind, width)


class TestEmit:
    def make_records(self):
        return [
            PrecisionRecord(n=1, method="qfi-opt", qfi=1.0, cr_bound=1.0,
                            asymptote=1.0, converged=True, wall_time_s=None),
            PrecisionRecord(n=2, method="bayes-flat", bayes_cost=0.847,
                            asymptote=math.pi / 2, converged=True,
                            wall_time_s=None),
            PrecisionRecord(n=3, method="qfi-opt", converged=False),
        ]

    def test_csv_layout(self):
        buf = io.StringIO()
        emit(self.make_records(), "csv", buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER.split(",") == COLUMNS
        row = lines[2].split(",")
        assert row[0] == "2" and row[1] == "bayes-flat"
        assert row[2] == ""  # non-applicable qfi is an empty cell
        # failed row has empty numerics but keeps its identity
        assert lines[3].startswith("3,qfi-opt,,,")

    def test_twelve_significant_digits(self):
        rec = PrecisionRecord(n=5, method="bayes-flat",
                              bayes_cost=0.12345678901234567,
                              asymptote=1.0 / 3.0, converged=True)
        buf = io.StringIO()
        emit([rec], "csv", buf)
        assert "0.123456789012" in buf.getvalue()
        assert "0.333333333333" in buf.getvalue()

    def test_json_round_trip(self):
        buf = io.StringIO()
        emit(self.make_records(), "json", buf)
        payload = json.loads(buf.getvalue())
        assert [r["n"] for r in payload] == [1, 2, 3]
        assert all(list(r) == COLUMNS for r in payload)
        assert payload[0]["bayes_cost"] is None
        assert payload[1]["bayes_cost"] == pytest.approx(0.847)
        assert payload[2]["converged"] is False

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit([], "csv", io.StringIO())


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--noise", "dephasing", "--eta", "0.7", "--n-max", "6",
                "--method", "qfi-opt,bayes-flat", "--no-timings",
                "--format", "csv"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_metadata_sidecar_records_the_configuration(self, tmp_path):
        out = tmp_path / "a.csv"
        assert cli.main(["scan", "--n-max", "3", "--method", "bayes-flat",
                         "--no-timings", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert set(meta) == {"command", "noise", "methods", "n_min", "n_max",
                             "n_step", "grid", "prior_width"}
        assert meta["methods"] == ["bayes-flat"]


class TestIndefinite:
    def test_mixture_file_parsing(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("# vacuum plus a large phase probe\n0 0.99\n1000, 0.01\n")
        mix = parse_mixture_file(str(path))
        assert mix.entries == [(0, 0.99), (1000, 0.01)]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("0 0.5\nnot numbers here\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_mixture_file(str(path))

    def test_empty_mixture_rejected(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no entries"):
            parse_mixture_file(str(path))

    def test_report_exhibits_the_paradox(self):
        from phaselim.bayes import ParticleNumberMixture
        nbar, n = 10.0, 1000
        mix = ParticleNumberMixture([(0, 1 - nbar / n), (n, nbar / n)])
        report = run_indefinite(mix, delta0=0.3)
        assert report["mixture_qfi"] == pytest.approx(nbar * n)
        assert report["cr_bound"] == pytest.approx(0.01)
        # the Bayesian bound stays pinned near the prior width, far above
        # the naive Cramer-Rao value, and above the definite mean-N cost
        assert report["bayes_exact"] > 10 * report["cr_bound"]
        assert report["bayes_exact"] >= report["definite_mean_n_cost"] - 1e-12

    def test_cli_subcommand(self, tmp_path, capsys):
        path = tmp_path / "mix.txt"
        path.write_text("0 0.99\n1000 0.01\n")
        assert cli.main(["indefinite", str(path), "--prior-width", "0.3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_n"] == pytest.approx(10.0)

    @pytest.mark.parametrize("text,width,message", [
        ("0 nan\n1000 0.01\n", "0.3", "mix.txt:1: weight 'nan' is not finite"),
        ("0 0.99\n1000 inf\n", "0.3", "mix.txt:2: weight 'inf' is not finite"),
        ("0 0.99\n1000 0.01\n", "nan", "delta0=nan"),
        ("0 0.99\n1000 0.01\n", "inf", "delta0=inf")])
    def test_non_finite_input_is_a_config_error(self, tmp_path, capsys, text,
                                                width, message):
        # unchecked, a NaN weight passes the sum test and trips the concavity
        # assertion, and a NaN width is written into the report
        path = tmp_path / "mix.txt"
        path.write_text(text)
        assert cli.main(["indefinite", str(path), "--prior-width", width]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error") and message in captured.err

    def test_missing_file_is_io_error(self):
        assert cli.main(["indefinite", "/nonexistent/mix.txt",
                         "--prior-width", "0.3"]) == 2

    def test_takes_no_format_flag(self, tmp_path, capsys):
        path = tmp_path / "mix.txt"
        path.write_text("0 0.99\n1000 0.01\n")
        assert cli.main(["indefinite", str(path), "--prior-width", "0.3",
                         "--format", "csv"]) == 1
        assert "--format" in capsys.readouterr().err


class TestConfigFile:
    GOOD = {"noise": "dephasing", "eta": 0.7, "n-max": 6,
            "method": "qfi-opt,bayes-flat"}
    FLAGS = ["--noise", "dephasing", "--eta", "0.7", "--n-max", "6",
             "--method", "qfi-opt,bayes-flat"]

    def _scan(self, tmp_path, name, *args):
        out = tmp_path / name
        assert cli.main(["scan", *args, "--no-timings", "--out", str(out)]) == 0
        return out.read_text()

    def test_file_equals_the_same_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.GOOD))
        from_file = self._scan(tmp_path, "file.csv", "--config", str(cfg))
        assert from_file == self._scan(tmp_path, "flags.csv", *self.FLAGS)
        assert len(from_file.splitlines()) == 1 + 12

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.GOOD))
        got = self._scan(tmp_path, "file.csv", "--config", str(cfg),
                         "--n-max", "4")
        assert got == self._scan(tmp_path, "flags.csv", *self.FLAGS,
                                 "--n-max", "4")
        assert max(int(row.split(",")[0]) for row in got.splitlines()[1:]) == 4

    @pytest.mark.parametrize("text,message", [
        ('{"noise": "dephasing", "bogus": 1}', "unknown config keys ['bogus']"),
        # scan rows are single-shot and draw no random numbers
        ('{"reps": 2}', "unknown config keys ['reps']"),
        ('{"noise": ', "not valid JSON"),
        ("[1, 2]", "expected a JSON object of flag values"),
        ('{"noise": "white", "n-max": 3}', "unknown noise 'white'")])
    def test_bad_file_is_a_config_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["scan", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["scan", "--config", str(missing)]) == 2
        assert f"cannot read {missing}" in capsys.readouterr().err


class TestExitCodes:
    def test_config_error(self, capsys):
        assert cli.main(["scan", "--n-max", "4", "--method", "bogus"]) == 1
        assert cli.main(["scan", "--n-max", "4", "--noise", "dephasing"]) == 1
        assert "--noise dephasing requires --eta" in capsys.readouterr().err
        assert cli.main(["scan", "--n-max", "4", "--method", "bayes-gauss"]) == 1
        # every row is one shot, and a scan draws no random numbers
        for flag in (["--reps", "2"], ["--seed", "1"]):
            assert cli.main(["scan", "--n-max", "3", *flag]) == 1
            assert f"unrecognized arguments: {' '.join(flag)}" in \
                capsys.readouterr().err
        # non-finite strengths and widths: NaN fails every sign test, and
        # unchecked it fails every row or prints NaN cells; inf prints
        # qfi = -inf
        for argv, message in [
                (["scan", "--noise", "collective", "--gamma", "nan",
                  "--n-min", "2", "--n-max", "3"], "gamma=nan"),
                (["scan", "--noise", "collective", "--gamma", "inf",
                  "--n-min", "2", "--n-max", "3"], "gamma=inf"),
                (["scan", "--noise", "none", "--method", "bayes-gauss",
                  "--prior-width", "inf", "--n-max", "3"], "prior width inf"),
                (["asymptote", "--noise", "collective", "--gamma", "nan",
                  "--n-max", "2"], "gamma=nan"),
                (["asymptote", "--noise", "collective", "--gamma", "0.02",
                  "--prior-width", "nan", "--n-max", "2"], "delta0=nan"),
                (["asymptote", "--noise", "collective", "--gamma", "0.02",
                  "--prior-width", "0", "--n-max", "2"], "delta0=0.0"),
                # the width is checked under every noise, not only where a
                # collective limit reads it
                (["asymptote", "--noise", "none", "--prior-width", "-5",
                  "--n-max", "2"], "delta0=-5.0"),
                (["asymptote", "--noise", "dephasing", "--eta", "0.7",
                  "--prior-width", "nan", "--n-max", "2"], "delta0=nan")]:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("configuration error") and message in err, argv

    @pytest.mark.parametrize("noise", [
        ["none"], ["dephasing", "--eta", "0.7"], ["loss", "--eta", "0.7"],
        ["collective", "--gamma", "0.02"]], ids=lambda flags: flags[0])
    def test_asymptote_rejects_bad_width_under_every_noise(self, noise,
                                                           capsys):
        for width, shown in (("0", "0.0"), ("-0.5", "-0.5"), ("nan", "nan")):
            argv = ["asymptote", "--noise", *noise, "--prior-width", width,
                    "--n-max", "2"]
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("configuration error"), argv
            assert f"prior width delta0={shown} must be positive" in err, argv

    @pytest.mark.parametrize("width", ["0", "-0.5"])
    def test_nonpositive_prior_width_rejected(self, width, capsys):
        assert cli.main(["scan", "--n-max", "40", "--method", "bayes-gauss",
                         "--prior-width", width]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "prior width" in err

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_nonpositive_n_step_rejected(self, step, capsys):
        assert cli.main(["scan", "--n-max", "4", "--method", "bayes-flat",
                         "--n-step", step]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "n_step" in err

    def test_unwritable_output_fails_before_compute(self):
        assert cli.main(["scan", "--n-max", "3", "--method", "bayes-flat",
                         "--out", "/nonexistent-dir/x.csv"]) == 2

    def test_asymptote_subcommand(self, tmp_path):
        out = tmp_path / "asym.csv"
        assert cli.main(["asymptote", "--noise", "loss", "--eta", "0.7",
                         "--n-min", "1", "--n-max", "5",
                         "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 5
        assert float(rows[-1]["asymptote"]) == pytest.approx(
            math.sqrt(0.3 / (0.7 * 5)))

    @pytest.mark.parametrize("args,message", [
        (["--n-step", "0"], "n_step"), (["--n-step", "-1"], "n_step"),
        (["--n-min", "5", "--n-max", "3"], "n_max must be >= n_min"),
        (["--n-min", "0"], "n_min")])
    def test_asymptote_rejects_a_bad_grid(self, args, message, capsys):
        argv = ["asymptote", "--noise", "loss", "--eta", "0.7", "--n-max", "4"]
        assert cli.main(argv + args) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phaselim.cli", "scan", "--n-max", "3",
             "--method", "bayes-flat", "--no-timings"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith(CSV_HEADER)

    def test_import_leaves_scipy_optimize_unloaded(self):
        # importing scipy.optimize costs every process ~0.3 s of CPU; neither
        # the import nor a polished prior solve may load it
        code = ("import sys, phaselim.cli\n"
                "print('scipy.optimize' in sys.modules)\n"
                "from phaselim.bayes import gaussian_prior_solve\n"
                "from phaselim.qcore import NoiseFree\n"
                "_, trace = gaussian_prior_solve(40, 0.5, NoiseFree())\n"
                "print(trace.polish_evals > 0, 'scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "False"]

    def test_wide_prior_warns_once(self):
        # the sweep builds its one GaussianPrior once, so a width above 1 is
        # reported once, not once per solve and once per C-R bound
        proc = subprocess.run(
            [sys.executable, "-m", "phaselim.cli", "scan", "--noise",
             "collective", "--gamma", "0.02", "--method", "bayes-gauss",
             "--prior-width", "2", "--n-min", "2", "--n-max", "3",
             "--no-timings"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("is not narrow") == 1

    @pytest.mark.parametrize("config", [
        "n_min=10, n_max=40, noise=CollectiveDephasing(0.02), "
        "methods=('bayes-gauss',), prior_width=0.5",
        "n_min=1, n_max=12, noise=NoiseFree(), methods=('qfi-opt',)",
        "n_min=1, n_max=12, noise=LocalDephasing(0.7), "
        "methods=('qfi-opt', 'bayes-flat')",
        "n_min=1, n_max=60, noise=NoiseFree(), methods=('bayes-flat',)",
        "n_min=1, n_max=60, noise=CollectiveDephasing(0.02), "
        "methods=('bayes-flat',)",
        "n_min=1, n_max=25, noise=Loss(0.7), methods=('qfi-opt', 'bayes-flat')",
        "n_min=10, n_max=20, n_step=10, noise=Loss(0.7), "
        "methods=('bayes-gauss',), prior_width=0.5"],
        ids=["collective-bayes-gauss", "noise-free-qfi-opt",
             "dephasing-qfi-opt-bayes-flat", "noise-free-bayes-flat",
             "collective-bayes-flat", "loss-qfi-opt-bayes-flat",
             "loss-bayes-gauss"])
    def test_scans_without_scipy(self, config):
        # importing scipy costs a process ~0.35 s of CPU, and no scan needs
        # any of it: the log-gamma table, the flat-prior eigensolve and the
        # see-saw's eigensolve run on math and numpy
        code = ("import sys\n"
                "from phaselim.cli import SweepConfig, run_sweep\n"
                "from phaselim.qcore import (CollectiveDephasing, LocalDephasing,\n"
                "                            Loss, NoiseFree)\n"
                f"records = run_sweep(SweepConfig({config}, timings=False))\n"
                "assert all(r.converged for r in records)\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_oracles_without_scipy(self):
        # the package needs numpy alone: with scipy unimportable, the loss
        # dilation (its unitary exponentiated with numpy), its comparison
        # with the forward map and the whole selftest run
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from phaselim import cli, oracles\n"
                "state = oracles.random_state(3, seed=1)\n"
                "comps = oracles.brute_loss_components(state, 0.7).values()\n"
                "assert abs(sum(w for w, _ in comps) - 1.0) < 1e-12\n"
                "assert oracles.loss_mixture_error(state, 0.7) < 1e-12\n"
                "sys.exit(cli.main(['selftest']))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout

    def test_closed_stdout_exits_2_quietly(self):
        # ~1 MB of rows: the writer is still writing when the reader leaves
        proc = subprocess.Popen(
            [sys.executable, "-m", "phaselim.cli", "asymptote", "--noise",
             "loss", "--eta", "0.7", "--n-max", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().rstrip("\n") == CSV_HEADER
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "dephasing oracle" in out
