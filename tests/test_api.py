"""The public surface: what each module exports, what the benchmark reads
from the package, and the names that are gone."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clipbench
from clipbench.data_ingest import bundled_dataset_path

MODULES = ["core", "problems", "data_ingest", "optimizers", "theory", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"clipbench.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_provides_what_the_benchmark_reads():
    # bench/workloads.py builds and runs its chi-square workload from these
    for name in ("RunConfig", "ChiSquareQuadratic", "run_dp_sgd", "expected_clipped_grad"):
        assert callable(getattr(clipbench, name)), name


@pytest.mark.parametrize("module,name", [
    ("optimizers", "run_gd"),
    ("optimizers", "run_clipped_sgd"),
    ("optimizers", "TraceRecord"),
    ("core", "ClipParams"),
    ("core", "clipped_step"),
    ("problems", "_sigmoid"),
    ("data_ingest", "SparseRow"),
    ("data_ingest", "estimate_L"),
    ("optimizers", "_step_generator"),
    ("theory", "THEOREMS"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(f"clipbench.{module}"), name)
    assert not hasattr(clipbench, name)


def test_trace_has_no_records_view():
    assert not hasattr(clipbench.optimizers.Trace, "records")


def test_dataset_has_no_rows_view():
    assert not hasattr(clipbench.parse_libsvm("+1 1:1\n-1 2:1"), "rows")


def test_problems_have_one_exact_oracle():
    # value_and_grad takes a point or a stack of points; the separate
    # stack oracle value_and_grad_rows is gone
    for name in clipbench.problems.__all__:
        assert not hasattr(getattr(clipbench.problems, name), "value_and_grad_rows"), name


def test_deterministic_sweep_never_imports_numpy_random(tmp_path):
    # numpy imports numpy.random (about 6 MB) on first use, which only the
    # stochastic methods need: a clipped GD sweep on the bundled data, as the
    # CLI runs it, must not pay for it
    config = tmp_path / "sweep.cfg"
    config.write_text(f"mode = sweep\nproblem = logistic\ndata = {bundled_dataset_path()}\n"
                      "method = clipped_gd\nc = 0.01, 10\neta = 1, 100\nT = 20\nx0 = 100\n"
                      "seeds = 0\n")
    code = ("import sys, clipbench, clipbench.cli\n"
            f"code = clipbench.cli.main(['sweep', '--config', {str(config)!r},"
            f" '--out', {str(tmp_path / 'out.csv')!r}])\n"
            "sys.exit(code or 'numpy.random' in sys.modules and 'numpy.random imported')\n")
    src = str(Path(clipbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out.csv").read_text().count("\n") == 5
