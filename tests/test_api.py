"""The public surface: what each module exports, what the benchmark reads
from the package, the names that are gone, and the contract of the
immutable records."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clipbench
from clipbench import theory
from clipbench.cli import SweepRow
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


# ---------------------------------------------------------------------------
# records: name -> (class, fields in order, the required arguments in field
# order, the defaults of the rest, how instances compare)

_CONFIG = clipbench.RunConfig("clipped_sgd", 4.0, 0.5, 3, np.array([1.0]))
_VECTOR = np.array([0.5])
RECORDS = {
    "RunConfig": (clipbench.RunConfig, "method c eta T x0 B sigma_dp seed thin",
                  ("clipped_sgd", 4.0, 0.5, 3, np.array([1.0])),
                  {"B": 1, "sigma_dp": 0.0, "seed": 0, "thin": 1}, "identity"),
    "Trace": (clipbench.Trace, "config iters f_vals grad_norms applied_norms clipped_fracs"
              " final_point max_per_sample_norm",
              (_CONFIG, np.arange(2), _VECTOR, _VECTOR, _VECTOR, _VECTOR, _VECTOR),
              {"max_per_sample_norm": 0.0}, "identity"),
    "ProblemMeta": (clipbench.ProblemMeta, "dim L0 L1 L mu sigma_sq f_star x_star",
                    (1, 1.0, 0.0, 1.0, 1.0, 0.75), {"f_star": None, "x_star": None},
                    "identity"),
    "Dataset": (clipbench.Dataset, "indptr indices values labels dim",
                (np.array([0, 1, 2]), np.array([1, 2]), np.array([1.0, -2.0]),
                 np.array([1, -1]), 2), {}, "arrays"),
    "SweepRow": (SweepRow, "c eta seed final_f min_grad_norm iters_to_target diverged"
                 " best_eta_for_c", (0.25, 1.0, 0, 0.5, 0.1, -1, False),
                 {"best_eta_for_c": False}, "value"),
    "RateParams": (theory.RateParams, "c eta T F0 R0 L0 L1 L mu sigma B sigma_dp",
                   (1.0, 0.1, 10), {"F0": 0.0, "R0": 0.0, "L0": 0.0, "L1": 0.0, "L": 0.0,
                                    "mu": 0.0, "sigma": 0.0, "B": 1, "sigma_dp": 0.0},
                   "value"),
    "BoundReport": (theory.BoundReport, "theorem predicted stepsize_ok regime"
                    " constants_source detail", ("det_convex", 0.5, True),
                    {"regime": "n_a", "constants_source": "derived_appendix", "detail": ""},
                    "value"),
    "LowerBoundInstance": (theory.LowerBoundInstance, "sigma c a p x_fixed bias guarantee",
                           (4.0, 4.0, 8.0, 0.25, 1.0, 1.0, 0.5), {}, "value"),
    "ClippedGradEstimate": (theory.ClippedGradEstimate, "value std_error exact",
                            (_VECTOR, 0.0, True), {}, "value"),
    "SmoothnessViolation": (theory.SmoothnessViolation, "kind x y lhs rhs",
                            ("descent", _VECTOR, None, 2.0, 1.0), {}, "value"),
    "SmoothnessCertificate": (theory.SmoothnessCertificate, "L0 L1 n_pairs violations",
                              (1.0, 0.0, 5), {"violations": ()}, "value"),
    "ClipProbabilityReport": (theory.ClipProbabilityReport,
                              "frequency markov_bound std_error n_samples",
                              (0.01, 0.25, 0.001, 100), {}, "value"),
    "Cells": (clipbench.Cells, "configs", ((_CONFIG,),), {}, "identity"),
}


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _record(name):
    cls, fields, args, defaults, _ = RECORDS[name]
    return cls, fields.split(), args, defaults


def test_every_record_is_listed():
    base = clipbench._record._Record
    classes = [value for module in MODULES
               for value in vars(importlib.import_module(f"clipbench.{module}")).values()
               if inspect.isclass(value) and issubclass(value, base) and value is not base]
    assert {cls.__name__ for cls in classes} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_takes_fields_in_order_with_defaults(name):
    cls, fields, args, defaults = _record(name)
    assert list(fields[len(args):]) == list(defaults)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for record in (by_position, by_keyword):
        assert all(_same(getattr(record, f), a) for f, a in zip(fields, args)), name
        assert all(_same(getattr(record, f), d) for f, d in defaults.items()), name
    # every field, defaults included, may be given by position
    everything = [*args, *defaults.values()]
    assert all(_same(getattr(cls(*everything), f), v) for f, v in zip(fields, everything))


@pytest.mark.parametrize("name", RECORDS)
def test_record_rejects_bad_arguments(name):
    cls, fields, args, defaults = _record(name)
    with pytest.raises(TypeError, match="missing .*argument"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'nonsense'"):
        cls(*args, nonsense=1)
    with pytest.raises(TypeError, match=f"multiple values for argument {fields[0]!r}"):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*args, *defaults.values(), None)


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_read_only(name):
    cls, fields, args, _ = _record(name)
    record = cls(*args)
    for field in (fields[0], fields[-1], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert _same(getattr(record, fields[0]), args[0])


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_names_every_field(name):
    cls, fields, args, _ = _record(name)
    record = cls(*args)
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({shown})"


def test_record_repr_by_example():
    assert repr(theory.BoundReport("det_convex", 0.5, True)) == (
        "BoundReport(theorem='det_convex', predicted=0.5, stepsize_ok=True, regime='n_a',"
        " constants_source='derived_appendix', detail='')")
    assert repr(theory.SmoothnessCertificate(1.0, 0.0, 5)) == (
        "SmoothnessCertificate(L0=1.0, L1=0.0, n_pairs=5, violations=())")


def _check_equality_and_hash(name, args):
    cls, fields, _, _ = _record(name)
    kind = RECORDS[name][4]
    # the twin holds copies of the arrays: the same array object would
    # compare equal by identity, without any array comparison
    one = cls(*args)
    other = cls(*(a.copy() if isinstance(a, np.ndarray) else a for a in args))
    if kind == "identity":
        assert one == one and one != other
        assert hash(one) == object.__hash__(one)
        return
    assert (one == other) is True and (one != other) is False
    # a record never equals a tuple of its fields or another record type
    assert one != tuple(getattr(one, f) for f in fields) and one != object()
    if kind == "arrays":
        changed = cls(*args[:2], args[2] * 2, *args[3:])
        assert one != changed
        with pytest.raises(TypeError):
            hash(one)
        return
    assert one != cls(*args[:-1], not args[-1] if isinstance(args[-1], bool) else args[-1] * 2)
    arrays = [i for i, a in enumerate(args) if isinstance(a, np.ndarray)]
    if not arrays:
        assert hash(one) == hash(other) == hash(tuple(args) + tuple(RECORDS[name][3].values()))
        return
    # a record that holds an array compares it by value and has no hash
    i = arrays[0]
    assert (one == cls(*args[:i], args[i] * 2, *args[i + 1:])) is False
    with pytest.raises(TypeError):
        hash(one)


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_and_hash(name):
    _check_equality_and_hash(name, _record(name)[2])


@pytest.mark.parametrize("name", [name for name, (_, _, args, _, _) in RECORDS.items()
                                  if any(a is _VECTOR for a in args)])
def test_record_equality_with_wide_arrays(name):
    # numpy gives the comparison of one-element arrays a truth value, so
    # only wider arrays show an `==` that does not reduce to a bool
    wide = np.array([0.5, 1.5, 2.5])
    _check_equality_and_hash(name, tuple(wide if a is _VECTOR else a for a in _record(name)[2]))


# the numpy scalar given to each kind of scalar field
_NUMPY_SCALARS = {"int": np.int64, "float": np.float32, "float | None": np.float32}


@pytest.mark.parametrize("name", [name for name, (cls, *_) in RECORDS.items()
                                  if any(p.annotation in _NUMPY_SCALARS
                                         for p in inspect.signature(cls).parameters.values())])
def test_record_stores_numpy_scalars_as_python_numbers(name):
    cls, fields, args, defaults = _record(name)
    values = dict(zip(fields, [*args, *defaults.values()]))
    given = {}
    for field, parameter in inspect.signature(cls).parameters.items():
        if parameter.annotation in _NUMPY_SCALARS:
            value = 0.5 if values[field] is None else values[field]
            given[field] = _NUMPY_SCALARS[parameter.annotation](value)
    record = cls(**{**values, **given})
    for field, value in given.items():
        stored = getattr(record, field)
        assert type(stored) is type(value.item()) and stored == value.item(), (name, field)


@pytest.mark.parametrize("name", RECORDS)
def test_record_signature_lists_fields_and_defaults(name):
    cls, fields, _, defaults = _record(name)
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == fields
    assert {p.name: p.default for p in parameters.values()
            if p.default is not inspect.Parameter.empty} == defaults
    assert cls._fields == cls.__match_args__ == tuple(fields)


def test_trace_copies_and_pickles():
    problem = clipbench.BernoulliShiftQuadratic(a=8.0, p=0.25)
    trace = clipbench.run(problem, clipbench.RunConfig("clipped_sgd", 4.0, 0.5, 20,
                                                       np.array([1.0]), seed=3))
    shallow = copy.copy(trace)
    assert shallow is not trace and shallow.f_vals is trace.f_vals
    for twin in (copy.deepcopy(trace), pickle.loads(pickle.dumps(trace))):
        assert type(twin) is clipbench.Trace and twin is not trace
        for field in clipbench.Trace._fields[1:]:
            assert _same(getattr(twin, field), getattr(trace, field)), field
        assert twin.f_vals is not trace.f_vals
        assert repr(twin.config) == repr(trace.config)
        with pytest.raises(AttributeError):
            twin.final_point = None


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "trace_pickle"])
def test_run_config_x0_stays_read_only_through_copies(how):
    # numpy's deep copy and unpickling give a new, writeable array; the
    # restored config freezes it again, as the constructor did
    config = clipbench.RunConfig("clipped_sgd", 4.0, 0.5, 3, np.array([1.0, 2.0]), seed=7)
    twin = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda c: pickle.loads(pickle.dumps(c)),
        "trace_pickle": lambda c: pickle.loads(pickle.dumps(
            clipbench.Trace(c, *RECORDS["Trace"][2][1:]))).config,
    }[how](config)
    assert twin is not config and repr(twin) == repr(config)
    assert not twin.x0.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        twin.x0[0] = 5.0
    assert config.x0[0] == 1.0


def test_no_module_generates_code_at_import():
    # a record class is built from its annotations: no generated source
    package = Path(clipbench.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), path.name
