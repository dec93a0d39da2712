"""The public surface: what each module exports, what the benchmark reads
from the package, and the names that are gone."""

import importlib

import pytest

import clipbench

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
