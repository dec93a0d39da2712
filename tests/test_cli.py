import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from clipbench import cli, theory
from clipbench.cli import ConfigError, main, parse_config
from clipbench.optimizers import Cells
from clipbench.data_ingest import bundled_dataset_path

CONFIG_DIR = Path(cli.__file__).parent / "configs"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


RUN_CFG = """\
mode = run
problem = quadratic
dim = 1
L = 1.0
method = clipped_gd
c = 0.25
eta = 1
T = 2
x0 = 1
seeds = 0
"""

CLIPPED_GD = "method = clipped_gd\nc = 0.25\neta = 1\nT = 2\n"
BERNOULLI = "problem = bernoulli_shift\na = 4\np = 0.25\n"
LOGISTIC = f"problem = logistic\ndata = {bundled_dataset_path()}\n"
STOCH_BOUND = ("theorem = stoch_nonconvex\ntrace = trace.csv\nc = 0.25\neta = 1\nT = 2\n"
               "F0 = 0.5\nL0 = 1\n")


class TestConfigParsing:
    def test_key_value_lists_and_comments(self):
        cfg = parse_config("# hi\na = 1\nlist = 1, 2,3\n\nname = x\n")
        assert cfg == {"a": "1", "list": "1, 2,3", "name": "x"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("justakey\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("a = 1\na = 2\n")

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", RUN_CFG + "bogus_key = 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1

    def test_mode_mismatch(self, tmp_path):
        cfg = write(tmp_path, "m.cfg", RUN_CFG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write(tmp_path, "l.cfg",
                    "mode = run\nproblem = logistic\ndata = missing.libsvm\n"
                    "method = gd\nc = inf\neta = 1\nT = 1\nseeds = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    def test_malformed_dataset_is_data_error(self, tmp_path):
        write(tmp_path, "bad.libsvm", "+1 3:1 2:1\n")
        cfg = write(tmp_path, "l.cfg",
                    "mode = run\nproblem = logistic\ndata = bad.libsvm\n"
                    "method = gd\nc = inf\neta = 1\nT = 1\nseeds = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_index_beyond_int64_is_data_error(self, tmp_path, command, capsys):
        write(tmp_path, "huge.libsvm", "-1 2:1\n+1 1:0.5 99999999999999999999999:1.0\n")
        cfg = write(tmp_path, "l.cfg",
                    f"mode = {command}\nproblem = logistic\ndata = huge.libsvm\n"
                    "method = gd\nc = inf\neta = 1\nT = 1\nseeds = 0\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "line 2: feature index must be < 2**63" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "certify"])
    def test_dataset_too_large_to_densify_is_data_error(self, tmp_path, command, capsys):
        # one row with index 10**12 asks for a 1 x 10**12 dense matrix (8 TB);
        # the parsed CSR arrays hold one value
        write(tmp_path, "wide.libsvm", "+1 1000000000000:1\n")
        cfg = write(tmp_path, "l.cfg",
                    f"mode = {command}\nproblem = logistic\ndata = wide.libsvm\n"
                    + ("" if command == "certify" else
                       "method = gd\nc = inf\neta = 1\nT = 1\nseeds = 0\n"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "wide.libsvm: " in err
        assert "1 x 1000000000000 feature matrix needs 8000000000000 bytes" in err

    @pytest.mark.parametrize("extra, code", [
        ("", 0),
        ("intercept = true\n", 2),
        # 491 x 61 doubles fit in 500 x 60
        ("intercept = true\nsubsample_k = 491\n", 0),
    ], ids=["at_the_limit", "intercept_column_over", "subsampled_under"])
    def test_densify_limit_counts_rows_after_subsampling_and_the_intercept(
            self, tmp_path, monkeypatch, extra, code, capsys):
        # the bundled data is 500 x 60: set the limit to exactly its dense size
        monkeypatch.setattr(cli, "_DENSE_LIMIT", 500 * 60 * 8)
        cfg = write(tmp_path, "l.cfg", "mode = run\n" + LOGISTIC + extra + CLIPPED_GD)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == code
        if code:
            assert "the dense 500 x 61 feature matrix needs 244000 bytes, over the" \
                   " 240000-byte limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("run", "problem = quadratic\ndim = 0\n" + CLIPPED_GD, "need dim >= 1 and L > 0"),
        ("run", "problem = bernoulli_shift\na = -1\np = 0.25\n" + CLIPPED_GD,
         "shift a must be positive"),
        ("run", f"problem = logistic\ndata = {bundled_dataset_path()}\nsubsample_k = 0\n"
         + CLIPPED_GD, "k must be in [1, 500], got 0"),
        ("run", f"problem = logistic\ndata = {bundled_dataset_path()}\nlambda = -1\n"
         + CLIPPED_GD, "ridge weight must be nonnegative"),
        ("run", "problem = quadratic\nL = nan\n" + CLIPPED_GD, "need dim >= 1 and L > 0"),
        ("fixedpoint", "sigma = nan\nc = 4\n", "construction needs sigma > 0"),
        ("fixedpoint", "sigma = inf\nc = 4\n", "construction needs a finite sigma, got sigma=inf"),
        ("fixedpoint", "sigma = 1\nc = 2, inf\n", "construction needs a finite c, got c=inf"),
        ("bound", "theorem = stoch_nonconvex\ntrace = trace.csv\nc = 0.25\neta = 1\nT = 2\n"
         "F0 = 0.5\n", "degenerate smoothness"),
        # a key that nothing reads is rejected by name, not silently ignored
        ("run", BERNOULLI + CLIPPED_GD + "dim = 5\n", "does not read 'dim'"),
        ("run", BERNOULLI + CLIPPED_GD + "lambda = 3\n", "does not read 'lambda'"),
        ("run", BERNOULLI + CLIPPED_GD + "data = nowhere.libsvm\n", "does not read 'data'"),
        ("run", BERNOULLI + CLIPPED_GD + "subsample_seed = 4\n",
         "does not read 'subsample_seed'"),
        ("run", BERNOULLI + CLIPPED_GD + "target_grad_norm = 1\n",
         "unknown key 'target_grad_norm' for mode 'run'"),
        ("run", BERNOULLI + CLIPPED_GD + "B = 64\n", "B = 64 is only valid for the stochastic"),
        ("run", LOGISTIC + CLIPPED_GD + "subsample_seed = 4\n",
         "'subsample_seed' is read only with subsample_k"),
        ("sweep", "problem = quadratic\na = 4\n" + CLIPPED_GD + "seeds = 0\n",
         "problem 'quadratic' does not read 'a'"),
        ("certify", "problem = chi_square\np = 0.25\n", "problem 'chi_square' does not read 'p'"),
        ("bound", STOCH_BOUND + "use_trajectory_L = true\n", "use_trajectory_L = true does not"),
        # and a key the choice needs is named when left out
        ("run", "problem = bernoulli_shift\na = 4\n" + CLIPPED_GD, "missing required keys: p"),
        ("certify", "problem = bernoulli_shift\n", "missing required keys: a, p"),
        ("run", "problem = logistic\n" + CLIPPED_GD, "missing required keys: data"),
        ("bound", "theorem = det_strongly_convex\ntrace = trace.csv\nc = 0.25\neta = 1\n"
         "T = 2\nR0 = 1\nL = 1\nL0 = 1\nf_star = 0\n", "missing required keys: mu, epsilon"),
    ], ids=["dim_0", "a_negative", "subsample_k_0", "lambda_negative", "L_nan",
            "sigma_nan", "sigma_inf", "c_inf", "bound_without_L0_L1", "unread_dim",
            "unread_lambda", "unread_data", "unread_subsample_seed",
            "unread_target_grad_norm", "unread_B", "subsample_seed_without_k",
            "sweep_unread_a", "certify_unread_p", "unread_use_trajectory_L", "missing_p",
            "certify_missing_a_p", "missing_data", "bound_missing_mu_epsilon"])
    def test_out_of_range_value_is_config_error(self, tmp_path, command, text, message, capsys):
        # every rejected value or unread key reaches main as a ValueError:
        # reported, not raised
        assert main(["run", "--config", str(write(tmp_path, "ok.cfg", RUN_CFG)),
                     "--out", str(tmp_path / "trace.csv")]) == 0
        cfg = write(tmp_path, "bad.cfg", f"mode = {command}\n{text}")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("command, text", [
        ("run", LOGISTIC + "subsample_k = 50\nsubsample_seed = 4\n" + CLIPPED_GD),
        ("bound", STOCH_BOUND + "use_trajectory_L = false\n"),
    ], ids=["subsample_seed_with_k", "use_trajectory_L_false"])
    def test_keys_read_pass_the_unread_key_checks(self, tmp_path, command, text):
        assert main(["run", "--config", str(write(tmp_path, "ok.cfg", RUN_CFG)),
                     "--out", str(tmp_path / "trace.csv")]) == 0
        cfg = write(tmp_path, "good.cfg", f"mode = {command}\n{text}")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.txt")]) == 0


class TestFlags:
    """Each subcommand takes only the flags it reads; usage errors exit 1."""

    @pytest.fixture
    def configs(self, tmp_path):
        paths = {
            "run": write(tmp_path, "run.cfg", RUN_CFG),
            "sweep": write(tmp_path, "sweep.cfg", SWEEP_CFG),
            "fixedpoint": write(tmp_path, "fp.cfg", "mode = fixedpoint\nsigma = 1\nc = 4\n"),
            "certify": write(tmp_path, "cert.cfg",
                             "mode = certify\nproblem = quadratic\ndim = 1\nL = 1\n"
                             "n_pairs = 5\nfd_points = 1\n"),
            "bound": write(tmp_path, "bound.cfg",
                           "mode = bound\ntheorem = dp_sgd\ntrace = trace.csv\n"
                           "c = 0.25\neta = 1\nT = 2\nF0 = 0.5\nL0 = 1\n"),
        }
        assert main(["run", "--config", str(paths["run"]),
                     "--out", str(tmp_path / "trace.csv")]) == 0
        return paths

    def invoke(self, configs, command, *flags):
        out = configs[command].with_suffix(".out")
        return main([command, "--config", str(configs[command]), "--out", str(out), *flags])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_run_and_sweep_accept_threads_and_seed_offset(self, configs, command):
        assert self.invoke(configs, command, "--threads", "1", "--seed-offset", "2") == 0

    @pytest.mark.parametrize("flag", [["--threads", "1"], ["--seed-offset", "1"]],
                             ids=["threads", "seed_offset"])
    @pytest.mark.parametrize("command", ["fixedpoint", "certify", "bound"])
    def test_other_commands_reject_run_flags(self, configs, command, flag, capsys):
        assert self.invoke(configs, command) == 0
        capsys.readouterr()
        assert self.invoke(configs, command, *flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "fixedpoint", "certify", "bound"])
    def test_unknown_flag_is_config_error(self, configs, command):
        assert self.invoke(configs, command, "--bogus") == 1

    @pytest.mark.parametrize("argv", [[], ["nope"], ["run", "--out", "o.csv"],
                                      ["run", "--config", "r.cfg", "--out", "o.csv",
                                       "--seed-offset", "x"]],
                             ids=["no_command", "unknown_command", "missing_config",
                                  "bad_int"])
    def test_usage_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: clipbench")

    @pytest.mark.parametrize("command", ["run", "sweep", "fixedpoint", "certify", "bound"])
    def test_help_exits_0_and_lists_only_read_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--config" in text and "--out" in text
        reads_seed = command in ("run", "sweep")
        assert ("--seed-offset" in text) == reads_seed
        assert ("--threads" in text) == reads_seed


class TestCmdRun:
    def test_trace_rows(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", RUN_CFG)
        out = tmp_path / "trace.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,f_val,grad_norm,applied_norm,clipped_fraction"
        grads = [line.split(",")[2] for line in lines[1:]]
        assert grads == ["1.0", "0.75", "0.5"]

    def test_zero_iterations_single_row(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", RUN_CFG.replace("T = 2", "T = 0"))
        out = tmp_path / "t.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", RUN_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_divergence_exit_code_with_partial_trace(self, tmp_path):
        cfg = write(tmp_path, "d.cfg",
                    "mode = run\nproblem = quadratic\ndim = 1\nL = 1.0\n"
                    "method = gd\nc = inf\neta = 3\nT = 500\nx0 = 1\nseeds = 0\n")
        out = tmp_path / "d.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert len(out.read_text().splitlines()) > 1

    def test_bernoulli_value_overflow_is_divergence(self, tmp_path, capsys):
        # (x + a) ** 2 overflows a Python float at x0 = 1e200
        cfg = write(tmp_path, "d.cfg", BERNOULLI_FAR_CFG)
        out = tmp_path / "d.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "divergence at t=0" in capsys.readouterr().err
        assert out.read_text().splitlines() == [",".join(cli.TRACE_HEADER)]

    def test_grid_must_be_single_cell(self, tmp_path):
        cfg = write(tmp_path, "run.cfg", RUN_CFG.replace("c = 0.25", "c = 0.25, 0.5"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1

    def test_logistic_far_start_completes(self, tmp_path):
        # margins beyond ~709.78 overflowed math.exp in the stochastic oracles
        cfg = write(tmp_path, "far.cfg", (
            f"mode = run\nproblem = logistic\ndata = {bundled_dataset_path()}\n"
            "method = clipped_sgd\nc = 1\neta = 1\nT = 5\nx0 = 5000\nseeds = 0\n"))
        out = tmp_path / "far.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 7


BERNOULLI_FAR_CFG = (
    "mode = run\nproblem = bernoulli_shift\na = 4\np = 0.25\n"
    "method = gd\nc = inf\neta = 0.1\nT = 5\nx0 = 1e200\nseeds = 0\n")


SWEEP_CFG = """\
mode = sweep
problem = quadratic
dim = 1
L = 1.0
method = clipped_gd
c = 0.25, 0.5
eta = 0.5, 1
T = 40
x0 = 1
seeds = 1, 2
target_grad_norm = 0.3
"""


QUADRATIC_FAR_CFG = (
    "mode = run\nproblem = quadratic\ndim = 3\n"
    "method = gd\nc = inf\neta = 0.1\nT = 5\nx0 = 1e200\nseeds = 0\n")


class TestOverflowIsQuiet:
    """An iterate that overflows is reported by the divergence guard alone,
    with no numpy RuntimeWarning above it."""

    @pytest.mark.parametrize("text", [BERNOULLI_FAR_CFG, QUADRATIC_FAR_CFG],
                             ids=["bernoulli_shift", "quadratic"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_no_runtime_warning(self, tmp_path, capsys, text, command):
        cfg = write(tmp_path, "far.cfg", text.replace("mode = run", f"mode = {command}"))
        out = tmp_path / "far.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg), "--out", str(out)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        lines = out.read_text().splitlines()
        if command == "run":
            assert code == 3 and "divergence at t=0" in err
            assert lines == [",".join(cli.TRACE_HEADER)]
        else:
            assert code == 0 and err == ""
            row = dict(zip(cli.SWEEP_HEADER, lines[1].split(",")))
            assert row["diverged"] == "1" and row["final_f"] == "nan"

    def test_warning_state_restored_after_a_run(self, tmp_path):
        cfg = write(tmp_path, "far.cfg", QUADRATIC_FAR_CFG)
        before = np.geterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "far.csv")]) == 3
        assert np.geterr() == before


class TestCmdSweep:
    def test_bernoulli_value_overflow_is_a_diverged_row(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", BERNOULLI_FAR_CFG.replace("mode = run", "mode = sweep"))
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        row = dict(zip(cli.SWEEP_HEADER, out.read_text().splitlines()[1].split(",")))
        assert row["diverged"] == "1" and row["final_f"] == "nan"

    def test_one_cell_consistent_with_run(self, tmp_path):
        sweep_cfg = write(tmp_path, "s.cfg", SWEEP_CFG
                          .replace("c = 0.25, 0.5", "c = 0.25")
                          .replace("eta = 0.5, 1", "eta = 1")
                          .replace("T = 40", "T = 2")
                          .replace("seeds = 1, 2", "seeds = 0"))
        run_cfg = write(tmp_path, "r.cfg", RUN_CFG)
        sweep_out, run_out = tmp_path / "s.csv", tmp_path / "r.csv"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep_out)]) == 0
        assert main(["run", "--config", str(run_cfg), "--out", str(run_out)]) == 0
        row = sweep_out.read_text().strip().splitlines()[1].split(",")
        trace_rows = run_out.read_text().strip().splitlines()[1:]
        assert row[0] == "0.25" and row[1] == "1.0"
        assert row[4] == trace_rows[-1].split(",")[1]  # final_f matches trace
        assert row[5] == trace_rows[-1].split(",")[2]  # min grad norm is last here

    def test_deterministic_problem_ignores_seed(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 8  # 2 c x 2 eta x 2 seeds, lexicographic
        for i in range(0, 8, 2):
            assert rows[i][3:] == rows[i + 1][3:]  # same stats across seeds

    def test_rows_sorted_lexicographically(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
        out = tmp_path / "s.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        keys = [(float(r[0]), float(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_trivial_target_reached_at_zero(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP_CFG.replace("target_grad_norm = 0.3",
                                                         "target_grad_norm = 5"))
        out = tmp_path / "s.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert all(r[6] == "0" for r in rows)

    def test_best_eta_flagged_per_c(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
        out = tmp_path / "s.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for c in ("0.25", "0.5"):
            flagged = {r[1] for r in rows if r[0] == c and r[8] == "1"}
            assert len(flagged) == 1  # exactly one best eta per threshold

    def test_diverged_cell_recorded_and_sweep_continues(self, tmp_path):
        cfg = write(tmp_path, "s.cfg",
                    "mode = sweep\nproblem = quadratic\ndim = 1\nL = 1.0\n"
                    "method = gd\nc = inf\neta = 0.5, 3\nT = 400\nx0 = 1\nseeds = 0\n")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [r[7] for r in rows] == ["0", "1"]

    def test_threads_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
        out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_one_lockstep_run_call_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        run = cli.run

        def counting(problem, config):
            calls.append(config)
            return run(problem, config)

        monkeypatch.setattr(cli, "run", counting)
        cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 1
        assert isinstance(calls[0], Cells) and len(calls[0].configs) == 8 and calls[0].T == 40

    def test_seed_offset_shifts_stream(self, tmp_path):
        cfg = write(tmp_path, "s.cfg",
                    "mode = sweep\nproblem = bernoulli_shift\na = 4\np = 0.25\n"
                    "method = clipped_sgd\nc = 2\neta = 0.1\nT = 50\nx0 = 1\nseeds = 5\n")
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["sweep", "--config", str(cfg), "--out", str(out_a)])
        main(["sweep", "--config", str(cfg), "--out", str(out_b), "--seed-offset", "3"])
        cfg8 = write(tmp_path, "s8.cfg", (tmp_path / "s.cfg").read_text()
                     .replace("seeds = 5", "seeds = 8"))
        main(["sweep", "--config", str(cfg8), "--out", str(out_c)])
        assert out_a.read_bytes() != out_b.read_bytes()
        # offset 3 on seed 5 equals seed 8, up to the seed column itself
        b_rows = [r.split(",")[3:] for r in out_b.read_text().splitlines()[1:]]
        c_rows = [r.split(",")[3:] for r in out_c.read_text().splitlines()[1:]]
        assert b_rows == c_rows


class TestCmdFixedpoint:
    def test_grid_report(self, tmp_path):
        cfg = write(tmp_path, "f.cfg", "mode = fixedpoint\nsigma = 0, 1\nc = 2, 4\n")
        out = tmp_path / "f.txt"
        assert main(["fixedpoint", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert "status=skipped" in lines[0] and "status=skipped" in lines[1]
        small = lines[2]
        assert "regime=small_c" in small and "status=pass" in small
        assert "bias=0.124355" in small and "guarantee=0.0833" in small
        large = lines[3]
        assert "regime=large_c" in large and "status=pass" in large
        assert "guarantee=0.041666" in large

    def test_shipped_grid_config(self, tmp_path):
        out = tmp_path / "fp.txt"
        code = main(["fixedpoint", "--config", str(CONFIG_DIR / "fixedpoint_grid.cfg"),
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "status=fail" not in text
        assert text.count("status=pass") == 24


class TestCmdCertify:
    def test_correct_constants_pass(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "mode = certify\nproblem = quadratic\ndim = 2\nL = 1.5\n"
                    "n_pairs = 200\nfd_points = 5\n")
        out = tmp_path / "c.txt"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        assert "violations=0" in out.read_text()

    def test_understated_constant_fails_with_witness(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "mode = certify\nproblem = quadratic\ndim = 2\nL = 1.5\n"
                    "L0 = 0.7\nn_pairs = 200\nfd_points = 2\n")
        out = tmp_path / "c.txt"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 4
        text = out.read_text()
        assert "status=fail" in text and "violation kind=" in text

    def test_bundled_logistic_certifies(self, tmp_path):
        out = tmp_path / "cl.txt"
        code = main(["certify", "--config", str(CONFIG_DIR / "certify_logistic.cfg"),
                     "--out", str(out)])
        assert code == 0
        assert "violations=0" in out.read_text()


class TestCmdBound:
    def make_trace(self, tmp_path, eta=0.5, c=0.25, T=300):
        run_cfg = write(tmp_path, "trace.cfg", (
            f"mode = run\nproblem = quadratic\ndim = 1\nL = 1.0\nmethod = clipped_gd\n"
            f"c = {c}\neta = {eta}\nT = {T}\nx0 = 1\nseeds = 0\n"))
        trace = tmp_path / "trace.csv"
        assert main(["run", "--config", str(run_cfg), "--out", str(trace)]) == 0
        return trace

    def test_det_convex_pass(self, tmp_path):
        trace = self.make_trace(tmp_path)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = det_convex\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.5\nT = 300\nR0 = 1\nL = 1\nL0 = 1\nf_star = 0\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert "violations=0" in out.read_text()

    def test_trajectory_L_is_the_largest_local_smoothness(self, tmp_path):
        trace = self.make_trace(tmp_path, eta=0.4)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = det_convex\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.4\nT = 300\nR0 = 1\nL = 1\nL0 = 1\nL1 = 0.5\nf_star = 0\n"
            "use_trajectory_L = true\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        grad_norms = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=2)
        params = theory.RateParams(c=0.25, eta=0.4, T=300, R0=1.0, L=1.0, L0=1.0, L1=0.5)
        report = theory.bound_det_convex(params, L_override=1.0 + 0.5 * float(grad_norms.max()))
        assert f"predicted_final={cli._fmt(report.predicted)} " in out.read_text()

    def test_stepsize_gate_reports_vacuous(self, tmp_path):
        trace = self.make_trace(tmp_path, eta=0.6)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = det_convex\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.6\nT = 300\nR0 = 1\nL = 1\nL0 = 1\nf_star = 0\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert "status=vacuous" in out.read_text()

    def test_impossible_bound_fails(self, tmp_path):
        # understate R0 so the predicted level is violated
        trace = self.make_trace(tmp_path)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = det_convex\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.5\nT = 300\nR0 = 0.001\nL = 1\nL0 = 1\nf_star = 0\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 4
        assert "status=fail" in out.read_text()

    def test_strongly_convex_pass(self, tmp_path):
        trace = self.make_trace(tmp_path, T=2000)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = det_strongly_convex\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.5\nT = 2000\nR0 = 1\nL = 1\nL0 = 1\nmu = 1\n"
            "epsilon = 0.001\nf_star = 0\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert "status=pass" in out.read_text()

    def test_stoch_bound_on_trace(self, tmp_path):
        run_cfg = write(tmp_path, "r.cfg", (
            "mode = run\nproblem = bernoulli_shift\na = 8\np = 0.0158770817240728\n"
            "method = clipped_sgd\nc = 4\neta = 0.05\nT = 400\nx0 = 0\nseeds = 0\n"))
        trace = tmp_path / "t.csv"
        assert main(["run", "--config", str(run_cfg), "--out", str(trace)]) == 0
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = stoch_nonconvex\ntrace = t.csv\n"
            "c = 4\neta = 0.05\nT = 400\nF0 = 0.01\nL0 = 1\nsigma = 1\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert "regime=large_c" in out.read_text()

    def test_stoch_bound_on_sweep_file(self, tmp_path):
        sweep_cfg = write(tmp_path, "s.cfg", (
            "mode = sweep\nproblem = bernoulli_shift\na = 8\np = 0.0158770817240728\n"
            "method = clipped_sgd\nc = 4\neta = 0.05\nT = 200\nx0 = 0\nseeds = 1, 2, 3\n"))
        sweep_out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep_out)]) == 0
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = stoch_nonconvex\ntrace = s.csv\n"
            "c = 4\neta = 0.05\nT = 200\nF0 = 0.01\nL0 = 1\nsigma = 1\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert "mean_min_grad_norm" in out.read_text()

    def test_stoch_bound_fails_on_nan_statistic(self, tmp_path):
        # a cell that diverges at t = 0 leaves min_grad_norm = nan; a nan
        # mean must fail the bound, not pass every comparison
        sweep_cfg = write(tmp_path, "s.cfg", (
            "mode = sweep\nproblem = quadratic\ndim = 1\nL = 1.0\nmethod = gd\n"
            "c = inf\neta = 0.5\nT = 10\nx0 = 1e300\nseeds = 0\n"))
        sweep_out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep_out)]) == 0
        assert sweep_out.read_text().splitlines()[1].split(",")[5] == "nan"
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = stoch_nonconvex\ntrace = s.csv\n"
            "c = 4\neta = 0.05\nT = 10\nF0 = 0.01\nL0 = 1\nsigma = 1\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 4
        report = out.read_text()
        assert "mean_min_grad_norm=nan" in report and "status=fail" in report

    def test_sweep_file_rejected_for_per_iteration_theorems(self, tmp_path):
        sweep_cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
        sweep_out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep_out)]) == 0
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = det_convex\ntrace = s.csv\n"
            "c = 0.25\neta = 0.5\nT = 40\nR0 = 1\nL = 1\nL0 = 1\nf_star = 0\n"))
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "b.txt")]) == 2

    @pytest.mark.parametrize("text,line", [
        ("iter,f_val,grad_norm,applied_norm,clipped_fraction\n0,1.0,0.5,0,0\n1,x,0.5,0,0\n", 3),
        ("iter,f_val,grad_norm,applied_norm,clipped_fraction\n0,1.0,0.5,0,0\n1,0.9,0.5\n", 3),
        ("iter,f_val,grad_norm,applied_norm,clipped_fraction\n0,1.0,0.5\n1,0.9,0.5\n", 2),
        ("iter,f_val,grad_norm,applied_norm,clipped_fraction\n0,1.0,0.5,0,0\n\n", 3),
        (",".join(cli.SWEEP_HEADER) + "\n4,0.05,1,0.2,0.1,0.3,-1,0,0\n4,0.05,2,0.2\n", 3),
        (",".join(cli.SWEEP_HEADER) + "\n4,0.05,1,0.2,0.1,abc,-1,0,0\n", 2),
    ], ids=["trace_non_numeric", "trace_short_row", "trace_all_short", "trace_blank_row",
            "sweep_short_row", "sweep_non_numeric"])
    def test_malformed_results_csv_is_data_error(self, tmp_path, capsys, text, line):
        write(tmp_path, "t.csv", text)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = stoch_nonconvex\ntrace = t.csv\n"
            "c = 4\neta = 0.05\nT = 400\nF0 = 0.01\nL0 = 1\nsigma = 1\n"))
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "b.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"t.csv: line {line}: " in err

    @pytest.mark.parametrize("body", [
        "0,1.5,0.5,0,0\r\n1,1e400,-nan,inf,4.9e-324\r\n",  # a trace as written, odd values
        " 0 ,\t1.5,0.5 ,0,0\n1,2,3,4,5",  # padded cells, \n ends, none on the last row
        "0,1.5,0.5,0,0\r1,2,3,4,5\r",  # bare \r line ends
        "0,1_5,0.5,0,0\n",  # an underscore, which float reads and numpy does not
        '0,"1.5",0.5,0,0\n',  # a quoted cell
    ], ids=["odd_values", "padded", "cr_line_ends", "underscore", "quoted"])
    def test_results_csv_columns_are_the_per_row_reading(self, tmp_path, body):
        # numpy's parser reads the body, or hands it to the per-row pass; the
        # columns are that pass's, bit for bit
        path = write(tmp_path, "t.csv", ",".join(cli.TRACE_HEADER) + "\r\n" + body)
        columns, kind = cli._read_results_csv(path)
        reference = cli._checked_rows(path, "trace", len(cli.TRACE_HEADER))
        assert kind == "trace" and list(columns) == cli.TRACE_HEADER
        assert np.column_stack(list(columns.values())).tobytes() == reference.tobytes()

    # numpy's loadtxt warns on input with no rows; the reader must not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "iter,f_val\n0,1\n",
                                      "iter,f_val,grad_norm,applied_norm,clipped_fraction\n",
                                      "iter,f_val,grad_norm,applied_norm,clipped_fraction\n\n"],
                             ids=["empty_file", "unknown_header", "no_rows", "blank_row_only"])
    def test_headerless_or_empty_results_csv_is_data_error(self, tmp_path, text):
        write(tmp_path, "t.csv", text)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = stoch_nonconvex\ntrace = t.csv\n"
            "c = 4\neta = 0.05\nT = 400\nF0 = 0.01\nL0 = 1\nsigma = 1\n"))
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "b.txt")]) == 2

    # the inputs each theorem reads beyond c, eta and T, and keys it does not
    @pytest.mark.parametrize("theorem,keys,unread", [
        ("det_convex", "R0 = 1\nL = 1\nL0 = 1\nf_star = 0\n",
         ["F0 = 2", "mu = 2", "sigma = 3", "sigma_dp = 5", "B = 64", "epsilon = 1"]),
        ("det_strongly_convex", "R0 = 1\nL = 1\nL0 = 1\nmu = 1\nepsilon = 0.001\nf_star = 0\n",
         ["F0 = 2", "sigma = 3", "sigma_dp = 5", "B = 64"]),
        ("stoch_nonconvex", "F0 = 0.5\nL0 = 1\nsigma = 1\n",
         ["R0 = 1", "L = 1", "mu = 2", "sigma_dp = 5", "B = 64", "epsilon = 1", "f_star = 0"]),
        ("dp_sgd", "F0 = 0.5\nL0 = 1\nsigma = 0\nsigma_dp = 1\nB = 4\n",
         ["R0 = 1", "L = 1", "mu = 2", "epsilon = 1", "f_star = 0"]),
    ], ids=["det_convex", "det_strongly_convex", "stoch_nonconvex", "dp_sgd"])
    def test_key_the_theorem_does_not_read_is_config_error(self, tmp_path, capsys, theorem,
                                                           keys, unread):
        self.make_trace(tmp_path)
        base = (f"mode = bound\ntheorem = {theorem}\ntrace = trace.csv\n"
                f"c = 0.25\neta = 0.5\nT = 300\n{keys}")
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(write(tmp_path, "b.cfg", base)),
                     "--out", str(out)]) in (0, 4)
        capsys.readouterr()
        for line in unread:
            key = line.split(" = ")[0]
            cfg = write(tmp_path, "b.cfg", base + line + "\n")
            assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == f"config error: theorem {theorem!r} does not read {key!r}\n"
        cfg = write(tmp_path, "b.cfg", base + "".join(line + "\n" for line in unread))
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 1
        given = {line.split(" = ")[0] for line in unread}
        named = [key for key in cli._SCHEMAS["bound"] if key in given]
        assert capsys.readouterr().err.endswith(
            f" does not read {', '.join(map(repr, named))}\n")

    def test_dp_reported_not_asserted(self, tmp_path):
        trace = self.make_trace(tmp_path)
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = dp_sgd\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.5\nT = 300\nF0 = 0.5\nL0 = 1\nsigma = 0\nsigma_dp = 1\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        assert "status=reported" in out.read_text()

    @pytest.mark.parametrize("kind", ["trace", "sweep"])
    def test_dp_names_the_mean_it_reports(self, tmp_path, kind):
        # a sweep file's gradient norms are per-cell minima, so their mean is
        # reported as mean_min_grad_norm, a trace's as mean_grad_norm
        if kind == "trace":
            self.make_trace(tmp_path, T=40)
        else:
            sweep_cfg = write(tmp_path, "s.cfg", SWEEP_CFG)
            assert main(["sweep", "--config", str(sweep_cfg),
                         "--out", str(tmp_path / "trace.csv")]) == 0
        columns, read_kind = cli._read_results_csv(tmp_path / "trace.csv")
        assert read_kind == kind
        cfg = write(tmp_path, "b.cfg", (
            "mode = bound\ntheorem = dp_sgd\ntrace = trace.csv\n"
            "c = 0.25\neta = 0.5\nT = 40\nF0 = 0.5\nL0 = 1\nsigma = 0\nsigma_dp = 1\n"))
        out = tmp_path / "b.txt"
        assert main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
        name = "mean_min_grad_norm" if kind == "sweep" else "mean_grad_norm"
        mean = cli._fmt(float(columns["grad_norm"].mean()))
        assert out.read_text().split()[2:] == [
            f"{name}={mean}", "status=reported", "constants=order_of_magnitude"]

    @pytest.mark.parametrize("theorem,keys,missing", [
        ("det_convex", "R0 = 1\nL = 1\nL0 = 1\n", "f_star"),
        ("det_strongly_convex", "R0 = 1\nL = 1\nL0 = 1\nf_star = 0\n", "mu, epsilon"),
    ], ids=["det_convex", "det_strongly_convex"])
    def test_missing_needed_key_is_named_before_the_trace_is_read(
            self, tmp_path, capsys, theorem, keys, missing):
        # the trace file does not exist: the config is rejected first
        cfg = write(tmp_path, "b.cfg", (
            f"mode = bound\ntheorem = {theorem}\ntrace = absent.csv\n"
            f"c = 0.25\neta = 0.5\nT = 300\n{keys}"))
        assert main(["bound", "--config", str(cfg), "--out", str(tmp_path / "b.txt")]) == 1
        assert capsys.readouterr().err == f"config error: missing required keys: {missing}\n"


class TestShippedConfigs:
    @pytest.mark.parametrize("name", [p.name for p in sorted(CONFIG_DIR.glob("*.cfg"))])
    def test_parse_clean(self, name):
        raw = parse_config((CONFIG_DIR / name).read_text())
        mode = raw["mode"]
        cli._typed_config(raw, mode)

    def test_bundled_dataset_exists(self):
        assert bundled_dataset_path().exists()

    # sha256 of the `clipbench sweep` output of three shipped configs,
    # recorded with the one-cell-at-a-time sweep that preceded the lockstep
    # engine. The logistic digests go through OpenBLAS gemv, whose
    # summation order depends on the CPU kernel it selects (recorded on
    # x86-64 with AVX-512, numpy 2.4.6, OpenBLAS 0.3.31); if they fail on
    # another CPU while tests/test_lockstep.py passes, the platform
    # changed, not the engine.
    @pytest.mark.parametrize("name,digest", [
        ("fig_det_constant_step",
         "8fa2bfb151c418cbb47fea73e8be3ad3db31c11f4c530cc875cd993918e4585b"),
        ("fig_stoch_logistic",
         "0db18bf03f769cb831446640a0e129ae524c48fe8c51e2d03f12530af6b83ad2"),
        ("fig_stoch_quadratic",
         "e4584047a9a74e26cb18be514911d3e421add36d02d5675c8476d2953f3f4192"),
    ])
    def test_frozen_sweep_output(self, tmp_path, name, digest):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_stoch_quadratic_config_runs(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["sweep", "--config", str(CONFIG_DIR / "fig_stoch_quadratic.cfg"),
                     "--out", str(out), "--threads", "2"])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 3 * 3
