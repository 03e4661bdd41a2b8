import csv
import os
import pathlib
import sys
import threading
import time
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from randskel.bench.cli import run, parse_grid, load_config_file
from randskel.bench.experiments import _sweep
from randskel.errors import BadShape, RankDeficient


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


TINY_SNN = "snn:60x60,r=60,a=2,r1=20,density=0.2"


class TestParseGrid:
    def test_range(self):
        assert parse_grid("20:100:20") == [20, 40, 60, 80, 100]

    def test_comma_list(self):
        assert parse_grid("3,7,9") == [3, 7, 9]

    def test_bad(self):
        with pytest.raises(ValueError):
            parse_grid("5:1:2")

    @pytest.mark.parametrize("text", ["1:5", "1:5:2:1", "1:5:0"])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)


class TestCurAccuracy:
    def test_schema_and_row_accounting(self, tmp_path):
        out = tmp_path / "o"
        code = run(["cur-accuracy", "--matrix", TINY_SNN,
                    "--ranks", "4,8", "--methods", "rand-lupp,rsvd-deim",
                    "--trials", "2", "--seed", "1", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out / "cur_accuracy.csv")
        assert header == ["experiment", "method", "matrix", "param_l",
                          "param_q", "trial", "metric", "value", "nanos"]
        err_rows = [r for r in rows if r["metric"] == "err_fro"]
        assert len(err_rows) == 2 * 2 * 2  # methods x ranks x trials
        base_rows = [r for r in rows if r["metric"] == "opt_fro"]
        assert len(base_rows) == 2  # one per rank
        assert (out / "cur_accuracy.svg").exists()
        for r in rows:
            assert np.isfinite(float(r["value"]))

    def test_baseline_matches_eckart_young(self, tmp_path):
        from randskel.bench.matrices import realize_matrix
        from randskel import svd_thin

        out = tmp_path / "o"
        run(["cur-accuracy", "--matrix", TINY_SNN, "--ranks", "6",
             "--methods", "rand-lupp", "--trials", "1", "--seed", "3",
             "--out", str(out)])
        _, rows = read_rows(out / "cur_accuracy.csv")
        base = [float(r["value"]) for r in rows if r["metric"] == "opt_fro"][0]
        A = realize_matrix(TINY_SNN, seed=3).A
        sigma = svd_thin(A).sigma
        want = np.sqrt((sigma[6:] ** 2).sum()) / np.linalg.norm(A)
        assert base == pytest.approx(want, rel=1e-12)

    def test_reproducible_metric_columns(self, tmp_path):
        args = ["cur-accuracy", "--matrix", TINY_SNN, "--ranks", "4,8",
                "--methods", "rand-lupp,rand-cpqr", "--trials", "2",
                "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        _, rows_a = read_rows(out_a / "cur_accuracy.csv")
        _, rows_b = read_rows(out_b / "cur_accuracy.csv")
        strip = lambda rows: [{k: v for k, v in r.items() if k != "nanos"}
                              for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_unknown_method_exit_2(self, tmp_path, capsys):
        code = run(["cur-accuracy", "--matrix", TINY_SNN, "--ranks", "4",
                    "--methods", "does-not-exist", "--out", str(tmp_path)])
        assert code == 2
        assert "does-not-exist" in capsys.readouterr().err

    def test_non_finite_metric_exit_3_without_csv(self, tmp_path, monkeypatch, capsys):
        from randskel.bench import experiments

        def rows_with_nan(cfg):
            return [experiments.Row("cur_accuracy", "rand-lupp", TINY_SNN, 4, 0, t,
                                    "err_fro", v, 0)
                    for t, v in enumerate([0.5, 0.25, 0.125, float("nan")])]

        monkeypatch.setattr(experiments, "run_cur_accuracy", rows_with_nan)
        out = tmp_path / "o"
        code = run(["cur-accuracy", "--matrix", TINY_SNN, "--ranks", "4",
                    "--out", str(out)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_all_zero_matrix_exit_3_without_csv(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        np.savetxt(path, np.zeros((40, 30)), delimiter=",")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["cur-accuracy", "--matrix", f"csv:{path}", "--ranks", "5",
                        "--methods", "rand-lupp", "--out", str(out)])
        assert code == 3
        assert "all-zero matrix" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_any_cell_error_recorded_as_failed_row(self, tmp_path, capsys):
        # five nonzero columns: leverage sampling of 10 columns runs out of
        # scores, while LU pivoting truncates at the detected rank
        A = np.zeros((40, 30))
        A[:, :5] = np.random.default_rng(0).standard_normal((40, 5))
        path = tmp_path / "rank5.csv"
        np.savetxt(path, A, delimiter=",")
        out = tmp_path / "o"
        code = run(["cur-accuracy", "--matrix", f"csv:{path}", "--ranks", "10",
                    "--methods", "rsvd-ls,rand-lupp", "--out", str(out)])
        assert code == 0
        assert "DegenerateDistribution" in capsys.readouterr().err
        _, rows = read_rows(out / "cur_accuracy.csv")
        failed = [r for r in rows if r["metric"] == "failed"]
        assert len(failed) == 5 and {r["method"] for r in failed} == {"rsvd-ls"}
        assert len([r for r in rows if r["metric"] == "err_fro"
                    and r["method"] == "rand-lupp"]) == 5

    def test_non_integer_thread_cap_exit_2_before_any_work(self, tmp_path, monkeypatch,
                                                           capsys):
        from randskel.bench import experiments

        monkeypatch.setenv("RANDSKEL_THREADS", "abc")
        monkeypatch.setattr(experiments, "run_cur_accuracy",
                            lambda cfg: pytest.fail("the sweep started"))
        code = run(["cur-accuracy", "--matrix", TINY_SNN, "--ranks", "4",
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "RANDSKEL_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_rank_grid_exit_2(self, tmp_path):
        code = run(["cur-accuracy", "--matrix", TINY_SNN,
                    "--ranks", "8,4", "--out", str(tmp_path)])
        assert code == 2


#: A small run of each pooled subcommand with several cells; the `angles` and
#: `balance` inputs are large enough that their bits depend on the BLAS
#: thread count unless the driver pins it.
POOLED = {
    "cur-accuracy": ["cur-accuracy", "--matrix", TINY_SNN, "--ranks", "4,8",
                     "--methods", "rand-lupp,rsvd-deim,rsvd-ls", "--trials", "3",
                     "--seed", "11"],
    "angles": ["angles", "--matrix", "gauss:300x200,profile=slow,r=180", "--ranks", "20,30",
               "--q", "0,1", "--k", "4", "--trials", "1", "--estimate-trials", "2",
               "--seed", "5"],
    "balance": ["balance", "--k", "4", "--alpha", "8", "--beta", "20", "--gamma", "1.05",
                "--gaps", "1.01,1.5", "--trials", "2", "--seed", "2"],
}


def metric_columns(out, command):
    _, rows = read_rows(out / f"{command.replace('-', '_')}.csv")
    return [{k: v for k, v in r.items() if k != "nanos"} for r in rows]


class TestPooledCommands:
    @pytest.mark.parametrize("command", sorted(POOLED))
    def test_metric_columns_independent_of_worker_count(self, command, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("RANDSKEL_THREADS", "1")
        assert run(POOLED[command] + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.delenv("RANDSKEL_THREADS")
        assert run(POOLED[command] + ["--out", str(tmp_path / "pooled")]) == 0
        assert (metric_columns(tmp_path / "serial", command)
                == metric_columns(tmp_path / "pooled", command))

    @pytest.mark.parametrize("command", ["angles", "balance"])
    def test_metric_columns_independent_of_blas_environment(self, command, tmp_path):
        from randskel.dense import blas_threads

        for n in (1, 2):
            with blas_threads(n):
                assert run(POOLED[command] + ["--out", str(tmp_path / str(n))]) == 0
        assert metric_columns(tmp_path / "1", command) == metric_columns(tmp_path / "2", command)

    @pytest.mark.parametrize("command", ["angles", "balance"])
    def test_non_integer_thread_cap_exit_2_before_any_work(self, command, tmp_path,
                                                           monkeypatch, capsys):
        from randskel.bench import experiments

        monkeypatch.setenv("RANDSKEL_THREADS", "abc")
        monkeypatch.setattr(experiments, f"run_{command}",
                            lambda cfg: pytest.fail("the sweep started"))
        assert run(POOLED[command] + ["--out", str(tmp_path / "o")]) == 2
        assert "RANDSKEL_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_thread_cap_not_read_by_timing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDSKEL_THREADS", "abc")
        assert run(["timing", "sketch", "--sizes", "128", "--ranks", "16", "--repeats", "1",
                    "--n-fixed", "32", "--out", str(tmp_path)]) == 0


class TestSweep:
    @pytest.fixture
    def workers(self, monkeypatch):
        from randskel.bench import experiments

        def set_count(n):
            monkeypatch.setattr(experiments, "worker_count", lambda: n)
        return set_count

    def test_every_cell_once_in_cell_order(self, workers):
        workers(8)  # more workers than cores, switching threads often
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = _sweep([(i,) for i in range(2000)], lambda i: ran.append(i) or [i, -i])
        finally:
            sys.setswitchinterval(interval)
        assert rows == [v for i in range(2000) for v in (i, -i)]
        assert sorted(ran) == list(range(2000))

    def test_caller_is_a_worker_and_one_worker_starts_no_thread(self, workers):
        def one(i):
            time.sleep(0.02)
            return [(threading.get_ident(), threading.active_count())]

        workers(2)
        assert threading.get_ident() in {t for t, _ in _sweep([(0,), (1,)], one)}
        workers(1)
        before = threading.active_count()
        assert _sweep([(0,), (1,)], one) == [(threading.get_ident(), before)] * 2

    def test_first_failed_cell_in_order_is_raised(self, workers):
        def one(i):
            if i == 3:
                time.sleep(0.05)  # fails after cell 7 has
                raise RankDeficient("cell 3")
            if i == 7:
                raise BadShape("cell 7")
            return [i]

        workers(8)
        with pytest.raises(RankDeficient, match="cell 3"):
            _sweep([(i,) for i in range(10)], one)

    def test_no_cell_claimed_after_a_failure(self, workers):
        ran = []

        def one(i):
            ran.append(i)
            time.sleep(0.005)
            if i == 0:
                raise RankDeficient("cell 0")
            return [i]

        workers(2)
        with pytest.raises(RankDeficient):
            _sweep([(i,) for i in range(50)], one)
        assert len(ran) < 10


class TestSvg:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        from randskel.bench import svg

        real_open = open

        class DiskFull:
            """A file that takes half of the first write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("builtins.open", lambda *a, **k: DiskFull(real_open(*a, **k)))
        with pytest.raises(OSError):
            svg.render_line_chart(str(tmp_path / "chart.svg"), "t", "x", "y",
                                  [("s", [1, 2], [3, 4])])
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []


class TestTiming:
    def test_pivot_sorted_and_single_repeat(self, tmp_path):
        out = tmp_path / "t"
        code = run(["timing", "pivot", "--sizes", "64", "--ranks", "16",
                    "--repeats", "1", "--seed", "0", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "timing_pivot.csv")
        times = [r for r in rows if r["metric"] == "time_ns"]
        assert {r["method"] for r in times} == {"lupp", "cpqr", "deim"}
        assert all(r["trial"] == "0" for r in times)  # one repeat, no medians over repeats
        keys = [(r["method"], r["matrix"]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("what, extra", [("pivot", []), ("sketch", ["--n-fixed", "32"])])
    def test_sizes_in_numeric_order(self, what, extra, tmp_path):
        out = tmp_path / "t"
        assert run(["timing", what, "--sizes", "64,128", "--ranks", "8,16", "--repeats", "1",
                    "--out", str(out)] + extra) == 0
        _, rows = read_rows(out / f"timing_{what}.csv")
        keys = [(r["method"], int(r["matrix"].split(":")[1].split("x")[0]), int(r["param_l"]))
                for r in rows]
        assert keys == sorted(keys) and {size for _, size, _ in keys} == {64, 128}

    def test_sketch_runs(self, tmp_path):
        out = tmp_path / "t"
        code = run(["timing", "sketch", "--sizes", "128", "--ranks", "16",
                    "--repeats", "2", "--n-fixed", "32", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "timing_sketch.csv")
        assert {r["method"] for r in rows} == {"gaussian", "srtt", "sparse-sign"}


class TestAngles:
    def run_tiny(self, tmp_path):
        out = tmp_path / "ang"
        code = run(["angles", "--matrix", "gauss:120x120,profile=slow,r=100",
                    "--ranks", "20,40", "--q", "0", "--k", "10",
                    "--trials", "1", "--seed", "5", "--estimate-trials", "2",
                    "--out", str(out)])
        assert code == 0
        return read_rows(out / "angles.csv")

    def test_true_series_self_consistent(self, tmp_path):
        from randskel import canonical_angles, randomized_svd
        from randskel.bench.matrices import realize_matrix
        from randskel.bench.experiments import _run_seed

        _, rows = self.run_tiny(tmp_path)
        bundle = realize_matrix("gauss:120x120,profile=slow,r=100", seed=5)
        lr = randomized_svd(bundle.A, 20, q=0, seed=_run_seed(5, 20, 0, 0))
        want = canonical_angles(lr.U_hat, bundle.U[:, :10])
        got = [float(r["value"]) for r in rows
               if r["method"] == "true" and r["param_l"] == "20"
               and r["metric"].startswith("left_sin")]
        assert np.allclose(sorted(got), want, atol=1e-12)

    def test_posterior_series_dominate_true(self, tmp_path):
        _, rows = self.run_tiny(tmp_path)
        for l in ("20", "40"):
            for side in ("left", "right"):
                true = {r["metric"]: float(r["value"]) for r in rows
                        if r["method"] == "true" and r["param_l"] == l
                        and r["metric"].startswith(side)}
                post = {r["metric"]: float(r["value"]) for r in rows
                        if r["method"] == "posterior_residual_sigma"
                        and r["param_l"] == l and r["metric"].startswith(side)}
                gapv = [float(r["value"]) for r in rows
                        if r["method"] == "posterior_gap_sigma"
                        and r["param_l"] == l and r["metric"] == "gap_valid"]
                gap = {r["metric"]: float(r["value"]) for r in rows
                       if r["method"] == "posterior_gap_sigma"
                       and r["param_l"] == l and r["metric"].startswith(side)}
                for m, v in true.items():
                    assert post[m] >= v - 1e-10
                    if gapv and gapv[0] == 1.0:
                        assert gap[m] >= v - 1e-10

    def test_numerical_precondition_exit_3(self, tmp_path, capsys):
        # k >= l breaks the bound preconditions -> exit 3, named on stderr
        code = run(["angles", "--matrix", "gauss:120x120,profile=slow,r=100",
                    "--ranks", "20", "--q", "0", "--k", "30", "--trials", "1",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "BadShape" in capsys.readouterr().err
        assert not (tmp_path / "angles.csv").exists()

    @pytest.mark.parametrize("k, ranks, l", [("30", "40,80", 80), ("10", "5,40", 5),
                                             ("10", "20,40,90", 90)])
    def test_inadmissible_rank_exit_3_before_any_cell(self, k, ranks, l, tmp_path,
                                                      monkeypatch, capsys):
        from randskel.bench import experiments

        monkeypatch.setattr(experiments, "_sweep", lambda *a: pytest.fail("a cell ran"))
        code = run(["angles", "--matrix", "gauss:120x120,profile=slow,r=100", "--ranks", ranks,
                    "--k", k, "--out", str(tmp_path)])
        assert code == 3
        assert f"need k < l < r - k, got k={k}, l={l}, r=100" in capsys.readouterr().err
        assert not (tmp_path / "angles.csv").exists()

    def test_largest_admissible_rank_runs(self, tmp_path):
        assert run(["angles", "--matrix", "gauss:60x60,profile=slow,r=40", "--ranks", "29",
                    "--q", "0", "--k", "10", "--estimate-trials", "1",
                    "--out", str(tmp_path)]) == 0

    def test_matrix_too_large_exit_3(self, tmp_path, capsys):
        code = run(["angles", "--matrix", TINY_SNN, "--ranks", "8", "--q", "0",
                    "--k", "4", "--trials", "1", "--max-exact-dim", "32",
                    "--out", str(tmp_path)])
        assert code == 3
        assert "MatrixTooLarge" in capsys.readouterr().err


class TestBalance:
    def test_phi_rows_and_trend(self, tmp_path):
        out = tmp_path / "bal"
        code = run(["balance", "--k", "4", "--alpha", "8", "--beta", "8",
                    "--gamma", "1.05", "--gaps", "1.01,1.5", "--trials", "2",
                    "--seed", "2", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "balance.csv")
        phis = [float(r["value"]) for r in rows if r["metric"] == "phi"]
        assert phis and all(0 < p < 1 for p in phis)
        # measured rows exist for every admissible q
        qs = sorted({int(r["param_q"]) for r in rows if r["metric"] == "phi"})
        meas_qs = sorted({int(r["param_q"]) for r in rows if r["metric"] == "sin_mean"})
        assert qs == meas_qs

    def test_nearby_gaps_draw_their_own_streams(self, tmp_path):
        # cells are seeded by the gap's position in --gaps, not by its value
        # to three decimals, which these two gaps share. Shared factors and
        # embeddings would move the sines by the gap's 0.03 % only (a median
        # of 0.2 %); independent draws move them by a few percent.
        assert run(["balance", "--gaps", "1.5,1.5004", "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "balance.csv")
        sines = {}
        for r in rows:
            if r["metric"].startswith("sin_"):
                key = (r["param_q"], r["trial"], r["metric"])
                sines.setdefault(r["matrix"], {})[key] = float(r["value"])
        assert len(sines) == 2
        first, second = sines.values()
        assert first.keys() == second.keys()
        rel = [abs(first[key] - second[key]) / max(first[key], second[key]) for key in first]
        assert min(rel) > 0 and np.median(rel) > 0.01

    def test_oversized_sample_exit_3_before_any_phi(self, tmp_path, monkeypatch, capsys):
        from randskel.bench import experiments

        # about 2.7 million admissible q, and l = 18,000,000 at q = 0
        monkeypatch.setattr(experiments, "balance_phi",
                            lambda *a: pytest.fail("a phi was computed"))
        out = tmp_path / "o"
        assert run(["balance", "--k", "3", "--alpha", "6e6", "--beta", "6", "--gaps", "1.3",
                    "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "BadShape" in err and "l=18000000" in err and "21x21" in err
        assert not (out / "balance.csv").exists()

    def test_bad_gap_exit_3_before_any_cell(self, tmp_path, monkeypatch, capsys):
        from randskel.bench import experiments

        monkeypatch.setattr(experiments, "_sweep", lambda *a: pytest.fail("a cell ran"))
        assert run(["balance", "--gaps", "1.5,-1", "--out", str(tmp_path)]) == 3
        assert "gap must be finite and above 0, got gap=-1.0" in capsys.readouterr().err
        assert not (tmp_path / "balance.csv").exists()

    def test_cell_error_exit_3_without_csv(self, tmp_path, capsys):
        # alpha / gamma^2 < 1 admits no q: every cell raises InadmissibleQ
        code = run(["balance", "--k", "4", "--alpha", "1", "--gamma", "1.05",
                    "--trials", "2", "--out", str(tmp_path)])
        assert code == 3
        assert "InadmissibleQ" in capsys.readouterr().err
        assert not (tmp_path / "balance.csv").exists()


class TestConfigFile:
    def test_round_trip_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "matrix=" + TINY_SNN + "\n"
            "ranks=4,8\n"
            "methods=rand-lupp\n"
            "trials=2\n"
            "seed=9\n"
        )
        out = tmp_path / "o"
        code = run(["cur-accuracy", "--config", str(cfg), "--trials", "1",
                    "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "cur_accuracy.csv")
        err_rows = [r for r in rows if r["metric"] == "err_fro"]
        assert len(err_rows) == 2  # trials overridden to 1 by the flag
        assert all(r["matrix"] == TINY_SNN for r in err_rows)

    def test_file_overrides_default_and_flag_overrides_file(self, tmp_path):
        from randskel.bench.cli import _DEFAULTS, build_config, make_parser

        cfg = tmp_path / "run.cfg"
        cfg.write_text("ranks=16,32\nk=8\n")
        args = make_parser().parse_args(["angles", "--config", str(cfg), "--k", "4"])
        merged = build_config("angles", args)
        assert merged.ranks == [16, 32]  # the file over the angles default
        assert merged.k == 4             # the flag over the file
        assert (merged.matrix, merged.qs) == (_DEFAULTS["angles"]["matrix"], [0, 1])
        merged.qs.append(2)              # the defaults are copied, not shared
        assert _DEFAULTS["angles"]["qs"] == [0, 1]

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not key value\n")
        with pytest.raises(ValueError):
            load_config_file(bad)

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code = run(["cur-accuracy", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2


#: Each experiment's subcommand.
COMMANDS = {"cur_accuracy": ["cur-accuracy"], "timing_pivot": ["timing", "pivot"],
            "timing_sketch": ["timing", "sketch"], "angles": ["angles"], "balance": ["balance"]}

#: A tiny run of each experiment, as the argv of its subcommand.
TINY = {experiment: COMMANDS[experiment] + flags for experiment, flags in {
    "cur_accuracy": ["--matrix", TINY_SNN, "--ranks", "4", "--trials", "1"],
    "timing_pivot": ["--sizes", "64,96", "--ranks", "8,16", "--repeats", "1"],
    "timing_sketch": ["--sizes", "128,256", "--ranks", "8,16", "--repeats", "1",
                      "--n-fixed", "32"],
    "angles": ["--matrix", "gauss:60x50,profile=slow,r=40", "--ranks", "12", "--q", "0,1",
               "--k", "4", "--estimate-trials", "2"],
    "balance": ["--k", "3", "--alpha", "6", "--beta", "6", "--gaps", "1.3", "--trials", "1"],
}.items()}

#: A value of each parameter, as text, that differs from every default.
TEXTS = {"matrix": "gauss:60x50,profile=fast", "ranks": "4:12:4", "methods": "rsvd-ls,rand-cpqr",
         "trials": "2", "seed": "9", "qs": "0,2", "sizes": "64,128", "repeats": "3",
         "n_fixed": "16", "k": "6", "estimate_trials": "4", "max_exact_dim": "99",
         "alpha": "8", "beta": "12.5", "gamma": "1.1", "gaps": "1.2,2", "out": "elsewhere"}

#: Values that a parameter's parser rejects, as a flag and in a config file.
BAD = [(experiment, "seed", "-1") for experiment in TINY] + [
    ("cur_accuracy", "ranks", "-5"), ("cur_accuracy", "ranks", "0,4"),
    ("cur_accuracy", "ranks", ","), ("cur_accuracy", "ranks", "4,"),
    ("cur_accuracy", "ranks", "8,4"), ("cur_accuracy", "ranks", "4,4"),
    ("cur_accuracy", "methods", ","), ("cur_accuracy", "methods", "rand-lupp,"),
    ("cur_accuracy", "methods", "does-not-exist"), ("cur_accuracy", "trials", "0"),
    ("timing_pivot", "sizes", ","), ("timing_pivot", "sizes", "0,64"),
    ("timing_pivot", "sizes", "128,64"), ("timing_pivot", "repeats", "0"),
    ("timing_sketch", "n_fixed", "-3"), ("timing_sketch", "ranks", ""),
    ("angles", "qs", ","), ("angles", "qs", "-1"), ("angles", "k", "0"),
    ("angles", "estimate_trials", "0"), ("angles", "max_exact_dim", "0"),
    ("balance", "gaps", ","), ("balance", "gaps", "nan"), ("balance", "alpha", "inf"),
    ("balance", "trials", "x"),
]

#: Matrix specs that ``matrices.parse_spec`` rejects: a value its parser
#: rejects, a missing, misspelt, unknown or repeated key, a bad size, an
#: unknown kind, a file that cannot be opened.
BAD_SPECS = ["gauss:60x50,profile=slow,r=abc", "step:k=5,gap=2", "snn:", "csv:/nonexistent.csv",
             "gauss:60x50,profile=medium", "gauss:60x50,profil=fast",
             "snn:40x40,r=40,implicit=2", "snn:40x40,implicit=1", "gauss:60x50,r=40,r=30",
             "gauss:60x50x2", "snn:40x0", "snn:40x40,", "step:k=5,gap=nan,beta=2",
             "wishart:40x40", "40x40"]
BAD += [(experiment, "matrix", spec) for experiment in ("cur_accuracy", "angles")
        for spec in BAD_SPECS]

#: Flags that a subcommand rejects because its driver reads no such parameter.
REMOVED = [["cur-accuracy", "--q", "0"]] + [
    ["timing", what, flag, value] for what in ("sketch", "pivot")
    for flag, value in (("--matrix", TINY_SNN), ("--methods", "rand-lupp"), ("--trials", "2"),
                        ("--q", "0"))] + [
    ["timing", "pivot", "--n-fixed", "32"], ["angles", "--methods", "rand-lupp"]] + [
    ["balance", flag, value] for flag, value in (("--matrix", TINY_SNN), ("--ranks", "4"),
                                                 ("--methods", "rand-lupp"), ("--q", "0"))]


def config(argv):
    from randskel.bench.cli import build_config, make_parser

    args = make_parser().parse_args(argv)
    return build_config(args.experiment, args)


class TestParameters:
    @pytest.mark.parametrize("experiment", sorted(TINY))
    def test_driver_reads_exactly_its_parameters(self, experiment):
        from randskel.bench import experiments
        from randskel.bench.cli import _DEFAULTS

        cfg = config(TINY[experiment])
        assert set(vars(cfg)) == set(_DEFAULTS[experiment]) | {"out"}
        reads = set()

        class Recording(type(cfg)):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        getattr(experiments, f"run_{experiment}")(Recording(**vars(cfg)))
        assert reads == set(_DEFAULTS[experiment])

    @pytest.mark.parametrize("experiment", sorted(TINY))
    def test_flag_and_file_forms_give_equal_configs(self, experiment, tmp_path):
        from randskel.bench.cli import _DEFAULTS, _PARAMS

        command = COMMANDS[experiment]
        default = vars(config(command))
        for key in [*_DEFAULTS[experiment], "out"]:
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key}={TEXTS[key]}\n")
            by_flag = vars(config(command + [_PARAMS[key][0], TEXTS[key]]))
            by_file = vars(config(command + ["--config", str(path)]))
            assert by_flag == by_file != default, key

    @pytest.mark.parametrize("experiment", sorted(TINY))
    def test_other_experiments_keys_exit_2(self, experiment, tmp_path):
        from randskel.bench.cli import _DEFAULTS, _PARAMS

        for key in set(_PARAMS) - set(_DEFAULTS[experiment]) - {"out"}:
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"{key}={TEXTS[key]}\n")
            out = tmp_path / "o"
            assert run(TINY[experiment] + ["--config", str(path), "--out", str(out)]) == 2, key
            assert not out.exists()

    @pytest.mark.parametrize("argv", REMOVED, ids=" ".join)
    def test_removed_flag_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("experiment,key,text", BAD)
    def test_bad_value_exit_2_before_any_work(self, experiment, key, text, form, tmp_path,
                                              monkeypatch, capsys):
        from randskel.bench import experiments
        from randskel.bench.cli import _PARAMS

        monkeypatch.setattr(experiments, f"run_{experiment}",
                            lambda cfg: pytest.fail("the driver ran"))
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={text}\n")
        out = tmp_path / "o"
        given = [_PARAMS[key][0], text] if form == "flag" else ["--config", str(path)]
        assert run(COMMANDS[experiment] + given + ["--out", str(out)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_readme_and_default_specs_parse(self, tmp_path, monkeypatch):
        from randskel.bench.cli import _DEFAULTS
        from randskel.bench.matrices import parse_spec

        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Matrix specs", 1)[1].split("```")[1]
        specs = [line.split()[0] for line in block.splitlines() if line.strip()]
        assert {spec.split(":")[0] for spec in specs} == {"snn", "gauss", "step", "csv"}
        monkeypatch.chdir(tmp_path)
        for spec in specs:
            if spec.startswith("csv:"):
                pathlib.Path(spec[4:]).write_text("1,2\n3,4\n")
        for spec in specs + [d["matrix"] for d in _DEFAULTS.values() if "matrix" in d]:
            parse_spec(spec)

    def test_spec_defaults(self):
        from randskel.bench.matrices import parse_spec
        from randskel.testmat import SlowDecay

        assert parse_spec("snn:40X30") == ("snn", dict(size=(40, 30), r=30, a=2.0, r1=30,
                                                      density=0.025))
        assert parse_spec("snn:300x200")[1]["r1"] == 100
        assert parse_spec("gauss:40x30") == ("gauss", dict(size=(40, 30), r=30, r1=20,
                                                          profile=SlowDecay))

    def test_step_spec_realizes_its_exact_factors(self):
        from randskel.bench.matrices import realize_matrix

        bundle = realize_matrix("step:k=5,gap=2,beta=3", seed=4)
        U, sigma, V = bundle.exact_factors()
        assert bundle.shape == (20, 20)
        assert np.array_equal(sigma, np.r_[np.full(5, 2.0), np.ones(15)])
        assert np.allclose((U * sigma) @ V.T, bundle.A, rtol=0, atol=1e-13)

    def test_out_is_a_file_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        from randskel.bench import experiments

        monkeypatch.setattr(experiments, "run_cur_accuracy",
                            lambda cfg: pytest.fail("the driver ran"))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(TINY["cur_accuracy"] + ["--out", str(taken)]) == 2
        assert "config error" in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_rank_above_min_dimension_exit_3_before_any_cell(self, tmp_path, monkeypatch,
                                                             capsys):
        from randskel.bench import experiments

        monkeypatch.setattr(experiments, "_sweep", lambda *a: pytest.fail("a cell ran"))
        out = tmp_path / "o"
        code = run(["cur-accuracy", "--matrix", "gauss:40x30,profile=slow", "--ranks", "10,40",
                    "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "BadShape" in err and "l=40 for 40x30" in err
        assert not (out / "cur_accuracy.csv").exists()

    def test_rank_equal_to_min_dimension_runs(self, tmp_path):
        out = tmp_path / "o"
        assert run(["cur-accuracy", "--matrix", "gauss:40x30,profile=slow", "--ranks", "30",
                    "--methods", "rand-lupp", "--trials", "1", "--out", str(out)]) == 0
        _, rows = read_rows(out / "cur_accuracy.csv")
        assert {(r["metric"], float(r["value"])) for r in rows if r["method"] == "baseline"} \
            == {("opt_fro", 0.0), ("opt_spec", 0.0)}


class TestCharts:
    @pytest.mark.parametrize("experiment", sorted(TINY))
    def test_each_series_runs_in_ascending_x(self, experiment, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(TINY[experiment] + ["--out", str(out)]) == 0
        assert "svg rendering skipped" not in capsys.readouterr().err
        chart = ElementTree.parse(out / f"{experiment}.svg").getroot()
        lines = chart.findall("{http://www.w3.org/2000/svg}polyline")
        assert lines
        for line in lines:
            xs = [float(point.split(",")[0]) for point in line.get("points").split()]
            assert all(a < b for a, b in zip(xs, xs[1:])), xs
        if experiment.startswith("timing_"):
            # one series per (scheme, l), named in the legend
            _, rows = read_rows(out / f"{experiment}.csv")
            want = {f"{r['method']} l={r['param_l']}" for r in rows
                    if r["metric"] == "median_time_ns"}
            labels = [t.text for t in chart.findall("{http://www.w3.org/2000/svg}text")]
            assert len(want) == 6 and len(lines) == len(want) and want <= set(labels)


def test_angles_reproducible(tmp_path):
    args = ["angles", "--matrix", "gauss:100x100,profile=fast,r=80",
            "--ranks", "16", "--q", "0", "--k", "8", "--trials", "1",
            "--seed", "3", "--estimate-trials", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    _, rows_a = read_rows(a / "angles.csv")
    _, rows_b = read_rows(b / "angles.csv")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "nanos"} for r in rows]
    assert strip(rows_a) == strip(rows_b)


def test_worker_env_cap(monkeypatch):
    from randskel.bench.experiments import worker_count

    monkeypatch.setenv("RANDSKEL_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("RANDSKEL_THREADS", "3")
    assert worker_count() <= 3
