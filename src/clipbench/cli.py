"""Configuration-driven experiment runner.

Commands: ``run`` (one trace to CSV), ``sweep`` ((c, eta, seed) grids with
per-cell summaries and best-step-size selection), ``fixedpoint`` (exact
bias-floor constructions over (sigma, c) grids), ``certify`` (smoothness
and gradient checks), ``bound`` (compare a trace against a predictor).

Configs are flat ``key = value`` text; list values are comma-separated;
unknown keys are errors, and so are keys that the chosen problem, method
or theorem does not read. A left-out key that feeds a library parameter
is not passed, so the library's signature owns its default. All outputs
are deterministic functions of the config bytes (plus --seed-offset for
``run`` and ``sweep``) and byte-identical across reruns. Exit codes: 0 ok, 1 config or usage error
(a value the problem, run or theorem rejects or that overflows a double,
and a config file that cannot be read, included), 2 data error, 3 divergence, 4
certification/bound failure, 5 system error (an ``OSError`` or
``MemoryError`` raised while a command runs, such as an ``--out`` that
cannot be written or an array larger than the system will allocate).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from collections import namedtuple
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import _feed, data_ingest, theory
from ._record import _count, _Record
from .data_ingest import ParseError
from .optimizers import Cells, DivergenceError, RunConfig, Trace, _quiet_overflow, run
from .problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    Quadratic,
)

__all__ = ["ConfigError", "DataError", "main", "parse_config", "sweep_cells", "SweepRow"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_CHECK = 4
EXIT_SYSTEM = 5

TRACE_HEADER = ["iter", "f_val", "grad_norm", "applied_norm", "clipped_fraction"]
SWEEP_HEADER = [
    "c", "eta", "seed", "c_eta", "final_f", "min_grad_norm",
    "iters_to_target", "diverged", "best_eta_for_c",
]


class ConfigError(ValueError):
    """Bad configuration: unknown key, missing key, or unparsable value."""


class DataError(ValueError):
    """Dataset missing or malformed."""


# ---------------------------------------------------------------------------
# config parsing

def parse_config(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and '#' comments skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _converter(kind: type, noun: str) -> Callable:
    """A config value read by ``kind``, whose ValueError becomes a
    ConfigError that names ``noun``."""
    def convert(s: str):
        try:
            return kind(s)
        except ValueError:
            raise ConfigError(f"expected {noun}, got {s!r}") from None
    return convert


def _list_of(convert: Callable) -> Callable[[str], list]:
    """A comma-separated list of ``convert``'s values; empty items skipped."""
    return lambda s: [convert(tok.strip()) for tok in s.split(",") if tok.strip()]


_to_float = _converter(float, "a number")
_integer = _converter(int, "an integer")


def _to_int(s: str) -> int:
    # a larger count or seed would overflow the first array or range it sizes
    value = _integer(s)
    if abs(value) >= 2**63:
        raise ConfigError(f"expected an integer of magnitude below 2**63, got {s!r}")
    return value


_to_float_list = _list_of(_to_float)
_to_int_list = _list_of(_to_int)


def _to_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected true/false, got {s!r}")


_PROBLEM_KEYS = {
    "problem": str, "dim": _to_int, "L": _to_float, "a": _to_float, "p": _to_float,
    "data": str, "lambda": _to_float, "intercept": _to_bool, "normalize": _to_bool,
    "subsample_k": _to_int, "subsample_seed": _to_int,
}
_RUN_KEYS = {
    "method": str, "c": _to_float_list, "eta": _to_float_list, "T": _to_int,
    "B": _to_int, "sigma_dp": _to_float, "seeds": _to_int_list,
    "x0": _to_float_list, "thin": _to_int,
}
_SCHEMAS: dict[str, dict[str, Callable]] = {
    "run": {"mode": str, **_PROBLEM_KEYS, **_RUN_KEYS},
    "sweep": {"mode": str, **_PROBLEM_KEYS, **_RUN_KEYS, "target_grad_norm": _to_float},
    "fixedpoint": {"mode": str, "sigma": _to_float_list, "c": _to_float_list},
    "certify": {
        "mode": str, **_PROBLEM_KEYS, "L0": _to_float, "L1": _to_float,
        "n_pairs": _to_int, "radius_scale": _to_float, "certify_seed": _to_int,
        "fd_points": _to_int,
    },
    "bound": {
        "mode": str, "theorem": str, "trace": str,
        "F0": _to_float, "R0": _to_float, "L0": _to_float, "L1": _to_float,
        "L": _to_float, "mu": _to_float, "sigma": _to_float, "sigma_dp": _to_float,
        "c": _to_float, "eta": _to_float, "T": _to_int, "B": _to_int,
        "epsilon": _to_float, "f_star": _to_float, "use_trajectory_L": _to_bool,
    },
}


def _typed_config(raw: dict[str, str], mode: str) -> dict:
    schema = _SCHEMAS[mode]
    cfg = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for mode {mode!r}")
        try:
            cfg[key] = schema[key](value)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if cfg.get("mode") != mode:
        raise ConfigError(f"config mode {cfg.get('mode')!r} does not match command {mode!r}")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")


# the parameter a config key sets, where the two names differ
_PARAMS = {"lambda": "lam", "intercept": "add_intercept", "normalize": "normalize_rows"}


def _given(cfg: dict, keys: Sequence[str]) -> dict:
    """The keyword arguments for those of ``keys`` that the config sets.
    A key it leaves out is not passed, so the callee's signature owns
    every default."""
    return {_PARAMS.get(key, key): cfg[key] for key in keys if key in cfg}


# one value of a choice key (problem or theorem): the keys it needs, the other
# keys it may read and, for a problem, its constructor
_Choice = namedtuple("_Choice", ["needs", "reads", "make"], defaults=((), (), None))


def _choose(cfg: dict, key: str, table: dict[str, _Choice], schema: dict, hint="") -> str:
    """The config's value of ``key``, checked against its table entry: an
    unknown value, a key that another entry reads and this one does not
    (named in ``schema`` order) and a needed key left out are each a
    ConfigError."""
    name = cfg[key]
    if name not in table:
        raise ConfigError(f"unknown {key} {name!r}{hint}")
    choice = table[name]
    # every value reads the keys that no entry names
    others = {k for c in table.values() for k in (*c.needs, *c.reads)}
    others -= {*choice.needs, *choice.reads}
    stray = [k for k in schema if k in cfg and k in others]
    if stray:
        raise ConfigError(f"{key} {name!r} does not read {', '.join(map(repr, stray))}")
    _require(cfg, *choice.needs)
    return name


# ---------------------------------------------------------------------------
# problem construction

# a problem's constructor takes the keys it reads as parameters, except the
# dataset keys data, subsample_k and subsample_seed
_PROBLEMS = {
    "quadratic": _Choice(reads=("dim", "L"), make=Quadratic),
    "bernoulli_shift": _Choice(needs=("a", "p"), make=BernoulliShiftQuadratic),
    "chi_square": _Choice(reads=("dim", "L"), make=ChiSquareQuadratic),
    "logistic": _Choice(needs=("data",), make=LogisticRegressionProblem, reads=(
        "lambda", "intercept", "normalize", "subsample_k", "subsample_seed")),
}


def _input_path(config_dir: Path, name: str, what: str) -> Path:
    """The input file ``name`` read against the config file's directory (an
    absolute ``name`` stays as written); a DataError if it does not exist."""
    path = Path(config_dir, name)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    return path


def build_problem(cfg: dict, config_dir: Path) -> Problem:
    _require(cfg, "problem")
    choice = _PROBLEMS[_choose(cfg, "problem", _PROBLEMS, _PROBLEM_KEYS)]
    if "subsample_seed" in cfg and "subsample_k" not in cfg:
        raise ConfigError("key 'subsample_seed' is read only with subsample_k")
    args = _given(cfg, (*choice.needs, *choice.reads))
    if "data" not in args:
        return choice.make(**args)
    path = _input_path(config_dir, args.pop("data"), "dataset")
    try:
        ds = data_ingest.parse_libsvm(path.read_text())
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        # a directory or a file that is not UTF-8 text is no dataset either
        raise DataError(f"{path}: {exc}") from None
    if "subsample_k" in args:
        ds = data_ingest.subsample(ds, args.pop("subsample_k"), args.pop("subsample_seed", 0))
    try:
        return choice.make(ds, **args)
    except MemoryError as exc:
        raise DataError(f"{path}: {exc}") from None


def _build_x0(cfg: dict, problem: Problem) -> np.ndarray:
    raw = cfg.get("x0", [0.0])
    if len(raw) == 1:
        return np.full(problem.meta.dim, raw[0])
    if len(raw) != problem.meta.dim:
        raise ConfigError(
            f"x0 has {len(raw)} entries, problem dimension is {problem.meta.dim}"
        )
    return np.array(raw)


def _run_config(cfg: dict, problem: Problem, c: float, eta: float, seed: int) -> RunConfig:
    return RunConfig(
        method=cfg["method"], c=c, eta=eta, T=cfg["T"], x0=_build_x0(cfg, problem),
        seed=seed, **_given(cfg, ("B", "sigma_dp", "thin")),
    )


# ---------------------------------------------------------------------------
# run

def _write_trace_csv(trace: Trace, out: Path, writer: _feed.RowWriter | None = None) -> None:
    columns = (trace.f_vals, trace.grad_norms, trace.applied_norms, trace.clipped_fracs)
    with open(out, "w", newline="") as f:
        f.write(",".join(TRACE_HEADER) + "\r\n")
        # the rows from the run's writer, or all of them formatted here
        if writer is None or not writer.copy(f, trace.iters, columns):
            f.writelines(_feed.csv_rows(trace.iters, columns))


def cmd_run(cfg: dict, out: Path, seed_offset: int = 0) -> int:
    _require(cfg, "method", "c", "eta", "T")
    for key in ("c", "eta"):
        if len(cfg[key]) != 1:
            raise ConfigError(f"run mode needs exactly one {key} value, got {cfg[key]}")
    seeds = cfg.get("seeds", [0])
    if len(seeds) != 1:
        raise ConfigError(f"run mode needs exactly one seed, got {seeds}")
    problem = build_problem(cfg, cfg["_dir"])
    config = _run_config(cfg, problem, cfg["c"][0], cfg["eta"][0], seeds[0] + seed_offset)
    with _feed.RowWriter() as writer:
        try:
            trace = run(problem, config, writer=writer)
        except DivergenceError as exc:
            _write_trace_csv(exc.trace, out, writer)
            print(f"divergence: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        _write_trace_csv(trace, out, writer)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

class SweepRow(_Record):
    """Summary of one (c, eta, seed) cell."""

    c: float
    eta: float
    seed: int
    final_f: float
    min_grad_norm: float
    iters_to_target: int
    diverged: bool
    best_eta_for_c: bool = False


def _iters_to_target(iters: np.ndarray, values: np.ndarray, target: float | None) -> int:
    """The first recorded iteration whose value is <= ``target``, else -1."""
    if target is None:
        return -1
    hits = np.nonzero(values <= target)[0]
    return int(iters[hits[0]]) if hits.size else -1


def sweep_cells(
    problem: Problem,
    cfg: dict,
    c_grid: Sequence[float],
    eta_grid: Sequence[float],
    seeds: Sequence[int],
    target: float | None = None,
) -> list[SweepRow]:
    """Run every (c, eta, seed) cell and summarize, in lexicographic order.

    All cells advance in lockstep through one ``run(problem, Cells(...))``
    call; each cell's trace is bit-for-bit its single run's. Diverged
    cells are recorded (diverged=1, stats from the partial trace) while
    the others continue. When a target gradient norm is given, the step
    size reaching it fastest (mean iterations over seeds, every seed must
    reach it) is flagged per c; ties go to the smaller eta.
    """
    keys = sorted((c, eta, seed) for c in c_grid for eta in eta_grid for seed in seeds)
    if not keys:
        return []
    configs = [_run_config(cfg, problem, c, eta, seed) for c, eta, seed in keys]
    # each cell's final_f, min_grad_norm, iters_to_target and diverged. The
    # traces are dropped here, before the rows are built: held to the end,
    # they let malloc trim heap that the next sweep faults back in, which
    # read about 4% on det_logistic_sweep's solve_s
    cells = [(trace.f_vals[-1] if trace.f_vals.size else math.nan, trace.min_grad_norm,
              _iters_to_target(trace.iters, trace.grad_norms, target), diverged)
             for trace, diverged in run(problem, Cells(configs))]

    best_eta: dict[float, float] = {}
    for c in sorted(set(c_grid)):
        scores = []
        for eta in sorted(set(eta_grid)):
            iters = [i for key, (_, _, i, _) in zip(keys, cells) if key[:2] == (c, eta)]
            if iters and all(i >= 0 for i in iters):
                scores.append((sum(iters) / len(iters), eta))
        if scores:
            best_eta[c] = min(scores)[1]
    return [SweepRow(*key, *cell, best_eta_for_c=best_eta.get(key[0]) == key[1])
            for key, cell in zip(keys, cells)]


def cmd_sweep(cfg: dict, out: Path, seed_offset: int = 0) -> int:
    _require(cfg, "method", "c", "eta", "T", "seeds")
    problem = build_problem(cfg, cfg["_dir"])
    seeds = [s + seed_offset for s in cfg["seeds"]]
    rows = sweep_cells(
        problem, cfg, cfg["c"], cfg["eta"], seeds,
        target=cfg.get("target_grad_norm"),
    )
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_HEADER)
        for r in rows:
            writer.writerow(
                [r.c, r.eta, r.seed, r.c * r.eta, r.final_f, r.min_grad_norm, r.iters_to_target,
                 int(r.diverged), int(r.best_eta_for_c)]
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixedpoint

def cmd_fixedpoint(cfg: dict, out: Path) -> int:
    _require(cfg, "sigma", "c")
    lines = []
    failed = False
    for sigma in cfg["sigma"]:
        for c in cfg["c"]:
            cell = f"sigma={sigma!r} c={c!r}"
            skip = "no_noise" if sigma <= 0 else "bad_threshold" if c <= 0 else None
            if skip:
                lines.append(f"{cell} status=skipped reason={skip}")
                continue
            regime = "small_c" if c <= 2.0 * sigma else "large_c"
            inst = getattr(theory, f"build_lower_bound_{regime}")(sigma, c)
            est = theory.expected_clipped_grad(inst.problem(), [inst.x_fixed], c)
            residual = abs(float(est.value[0]))
            ok = inst.bias >= inst.guarantee and residual <= 1e-12
            failed = failed or not ok
            lines.append(
                f"{cell} regime={regime}"
                f" a={inst.a!r} p={inst.p!r} x_fixed={inst.x_fixed!r}"
                f" bias={inst.bias!r} guarantee={inst.guarantee!r}"
                f" residual={residual!r} status={'pass' if ok else 'fail'}"
            )
    out.write_text("\n".join(lines) + "\n")
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------------------
# certify

def _fd_gradient(problem: Problem, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences along each coordinate: the ``2 * dim`` points
    ``x +- step_i e_i``, evaluated as stacks (see ``theory._evaluated``)."""
    steps = h * np.maximum(1.0, np.abs(x))
    # step_i e_i for each i, then x + step_i e_i and x - step_i e_i in turn
    shifts = (np.where(np.arange(x.size) == i, step, 0.0) for i, step in enumerate(steps))
    points = (p for e in shifts for p in (x + e, x - e))
    f = np.array([value for _, value, _ in theory._evaluated(problem, points)])
    return (f[0::2] - f[1::2]) / (2.0 * steps)


def _witness(v: np.ndarray | None) -> str:
    if v is None:
        return "-"
    if v.size <= 10:
        return ",".join(repr(float(t)) for t in v)
    return f"norm:{float(np.linalg.norm(v))!r}"


def cmd_certify(cfg: dict, out: Path) -> int:
    return _certify(build_problem(cfg, cfg["_dir"]), cfg, out)


# the certificate and the gradient checks report the values that overflowed,
# so numpy's warnings would only repeat them
@_quiet_overflow
def _certify(problem: Problem, cfg: dict, out: Path) -> int:
    L0 = cfg.get("L0", problem.meta.L0)
    L1 = cfg.get("L1", problem.meta.L1)
    seed = cfg.get("certify_seed", 0)
    lines = []
    failed = False

    fd_points = _count("fd_points", cfg.get("fd_points", 20), 0)
    scale = cfg.get("radius_scale", 1.0)
    # first, so that its checks of n_pairs and radius_scale run before any work
    cert = theory.certify_smoothness(
        problem, L0, L1, radius_scale=scale, seed=seed, **_given(cfg, ("n_pairs",)),
    )
    rng = np.random.default_rng(seed)
    points = (scale * rng.standard_normal(problem.meta.dim) for _ in range(fd_points))
    for i, (x, _, exact) in enumerate(theory._evaluated(problem, points)):
        approx = _fd_gradient(problem, x)
        rel = float(np.linalg.norm(exact - approx)) / max(float(np.linalg.norm(exact)), 1e-12)
        ok = rel <= 1e-5
        failed = failed or not ok
        lines.append(f"gradient_check point={i} rel_err={rel!r} status={'pass' if ok else 'fail'}")

    lines.append(
        f"smoothness L0={L0!r} L1={L1!r} pairs={cert.n_pairs}"
        f" violations={len(cert.violations)} status={'pass' if cert.ok else 'fail'}"
    )
    for v in cert.violations:
        lines.append(
            f"violation kind={v.kind} lhs={v.lhs!r} rhs={v.rhs!r}"
            f" x={_witness(v.x)} y={_witness(v.y)}"
        )
    failed = failed or not cert.ok
    out.write_text("\n".join(lines) + "\n")
    return EXIT_CHECK if failed else EXIT_OK


# ---------------------------------------------------------------------------
# bound

def _read_results_csv(path: Path) -> tuple[dict[str, np.ndarray], str]:
    """Load a trace or sweep CSV; returns (columns, kind).

    Sweep files reduce to their per-seed min_grad_norm column under the
    grad_norm key. A non-numeric cell or a row of the wrong width is a
    DataError naming the 1-based line, and so is a file that cannot be
    read as text.
    """
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header not in (TRACE_HEADER, SWEEP_HEADER):
                raise DataError(f"{path}: unrecognized header {header}")
            kind = "trace" if header == TRACE_HEADER else "sweep"
            arr = _parse_rows(f, len(header))
        if arr is None:
            arr = _checked_rows(path, kind, len(header))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    if kind == "sweep":
        return {"grad_norm": arr[:, SWEEP_HEADER.index("min_grad_norm")]}, kind
    return {name: arr[:, j] for j, name in enumerate(TRACE_HEADER)}, kind


def _parse_rows(f, width: int) -> np.ndarray | None:
    """The rest of an open CSV file as a ``(rows, width)`` float array,
    parsed by numpy's C parser from the file's lines as they are read.

    Returns None where that parse does not stand for the per-row pass of
    :func:`_checked_rows`: it raised, the first line is blank (loadtxt
    warns on empty input), fewer rows came back than lines went in
    (loadtxt skips blank lines), or the rows have another width. Every
    number loadtxt accepts, ``float`` reads to the same double.
    """
    first = f.readline()
    if not first.strip():
        return None
    n_lines = 1

    def lines():
        nonlocal n_lines
        yield first
        for n_lines, line in enumerate(f, start=2):
            yield line

    try:
        arr = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape == (n_lines, width) else None


def _checked_rows(path: Path, kind: str, width: int) -> np.ndarray:
    """The data rows of a result CSV read one cell at a time, raising a
    DataError that names the first bad line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        try:
            rows = [[float(v) for v in row] for row in reader]
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty {kind}")
    bad = next(((i, r) for i, r in enumerate(rows, start=2) if len(r) != width), None)
    if bad is not None:
        raise DataError(f"{path}: line {bad[0]}: expected {width} columns, got {len(bad[1])}")
    return np.array(rows)


# beyond trace, c, eta, T and use_trajectory_L, which every theorem reads: its
# step-size gate's smoothness constants and the inputs of its bound
_THEOREMS = {
    "det_convex": _Choice(needs=("f_star", "R0"), reads=("L0", "L1", "L")),
    "det_strongly_convex": _Choice(needs=("f_star", "R0", "mu", "epsilon"),
                                   reads=("L0", "L1", "L")),
    "stoch_nonconvex": _Choice(reads=("L0", "L1", "F0", "sigma")),
    "dp_sgd": _Choice(reads=("L0", "L1", "F0", "sigma", "B", "sigma_dp")),
}


def cmd_bound(cfg: dict, out: Path) -> int:
    _require(cfg, "theorem", "trace")
    theorem = _choose(cfg, "theorem", _THEOREMS, _SCHEMAS["bound"],
                      hint=" (det_nonconvex is stoch_nonconvex with sigma = 0)")
    if theorem == "stoch_nonconvex" and cfg.get("use_trajectory_L", False):
        raise ConfigError("use_trajectory_L = true does not apply to theorem"
                          " 'stoch_nonconvex', whose bound takes no smoothness override")
    data, kind = _read_results_csv(_input_path(cfg["_dir"], cfg["trace"], "trace"))
    is_sweep = kind == "sweep"
    if is_sweep and theorem in ("det_convex", "det_strongly_convex"):
        raise DataError(f"theorem {theorem!r} needs per-iteration data; got a sweep file")
    _require(cfg, "c", "eta", "T")
    # f_star is not a RateParams field: a NaN or infinite one would make every
    # gap NaN or -inf, which no check counts as a violation
    if "f_star" in cfg and not math.isfinite(cfg["f_star"]):
        raise ConfigError(f"f_star must be finite, got {cfg['f_star']!r}")
    # every field of RateParams is the bound key of that name
    params = theory.RateParams(**_given(cfg, theory.RateParams._fields))
    # epsilon is read by det_strongly_convex alone, and use_trajectory_L by
    # every theorem but stoch_nonconvex
    kwargs = _given(cfg, ("epsilon",))
    if cfg.get("use_trajectory_L", False):
        kwargs["L_override"] = theory.max_local_smoothness(
            data["grad_norm"], params.L0, params.L1)
    report = getattr(theory, f"bound_{theorem}")(params, **kwargs)

    # a sweep row's gradient norm is its cell's minimum
    mean_name = "mean_min_grad_norm" if is_sweep else "mean_grad_norm"
    predicted = f"predicted={report.predicted!r}"
    if report.constants_source == "order_of_magnitude":
        # reported whatever the step size: only paper_explicit and
        # derived_appendix constants are asserted
        fields = [predicted, f"{mean_name}={float(data['grad_norm'].mean())!r}"]
        status = f"reported constants={report.constants_source}"
    elif not report.stepsize_ok:
        fields, status = [], "vacuous reason=stepsize_above_threshold"
    elif theorem == "det_convex":
        checked = data["iter"] >= 1
        gaps = data["f_val"][checked] - cfg["f_star"]
        bound = theory.det_convex_gap_bound(params, data["iter"][checked],
                                            kwargs.get("L_override"))
        # a NaN gap or prediction is a violation, not a pass of every `>`
        violations = int(np.count_nonzero(~(gaps <= bound)))
        fields = [f"predicted_final={report.predicted!r}", f"checked={int(checked.sum())}",
                  f"violations={violations}"]
        status = "fail" if violations else "pass"
    elif theorem == "stoch_nonconvex":
        # a mean of per-seed minima is below the average-norm bound as well,
        # so on a sweep one check serves both regimes
        if report.regime == "small_c" and not is_sweep:
            stat_name, statistic = "min_grad_norm", float(data["grad_norm"].min())
        else:
            stat_name, statistic = mean_name, float(data["grad_norm"].mean())
        fields = [f"regime={report.regime}", f"{stat_name}={statistic!r}", predicted]
        # a NaN statistic (a cell that diverged before its first record)
        # fails rather than passing every comparison
        status = "pass" if statistic <= report.predicted else "fail"
    else:
        # distance proxy from strong convexity: R_t^2 <= 2 (f_t - f*) / mu
        proxy = 2.0 * (data["f_val"] - cfg["f_star"]) / params.mu
        achieved = _iters_to_target(data["iter"], proxy, cfg["epsilon"])
        if achieved < 0 and data["iter"][-1] < report.predicted:
            fields, status = [predicted], "inconclusive reason=trace_shorter_than_prediction"
        else:
            fields = [predicted, f"achieved={achieved if achieved >= 0 else 'never'}"]
            status = "fail" if achieved < 0 or achieved > report.predicted else "pass"
    out.write_text(" ".join([f"theorem={theorem}", *fields, f"status={status}"]) + "\n")
    return EXIT_CHECK if status == "fail" else EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit 1) where argparse would
    exit 2, the code the exit table gives to data errors."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> _ArgumentParser:
    """The command-line parser, built on first use and kept: building it
    costs about a millisecond, which a process that calls :func:`main`
    many times would pay on every call, and import time on none."""
    parser = _ArgumentParser(
        prog="clipbench",
        description="clipped-gradient experiment runner and theorem checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "fixedpoint", "certify", "bound"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, type=Path)
        sp.add_argument("--out", required=True, type=Path)
        if name in ("run", "sweep"):
            sp.add_argument("--seed-offset", type=int, default=0,
                            help="added to every seed in the config")
            sp.add_argument("--threads", type=int, default=1,
                            help="accepted and ignored; sweep cells run in lockstep,"
                                 " a large batch's odd cells in a forked child")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = _typed_config(parse_config(text), args.command)
        cfg["_dir"] = args.config.resolve().parent
        # only run and sweep take --seed-offset
        extra = (args.seed_offset,) if "seed_offset" in args else ()
        return globals()[f"cmd_{args.command}"](cfg, args.out, *extra)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # a ConfigError, or a value the problem, run or theorem rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        # a float result too large for a double, such as c**2 of a finite c
        print(f"config error: value out of range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError) as exc:
        # an output that cannot be written, or memory the system refuses,
        # say: the unreadable config and data files, and the dense logistic
        # matrix that does not fit, are ConfigErrors and DataErrors by now
        print(f"system error: {exc}", file=sys.stderr)
        return EXIT_SYSTEM


if __name__ == "__main__":
    sys.exit(main())
