"""The three benchmark workloads and their correctness checks.

Each workload has a ``setup`` step (the configs it writes and parses and
the problem it builds) and a ``job`` step that is timed and repeated. A
job runs through clipbench's public entry points, checks every output it
produces and returns one outcome per operation. ``variant`` (the
workload seed modulo ``VARIANTS``) picks the inputs, so every variant's
discrete results and output digests can be recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parent / "configs"
VARIANTS = 16


@dataclass
class JobResult:
    attempted: int
    failures: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    observed: list = field(default_factory=list)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli_main(cli, mark, argv: list[str]) -> int:
    """``cli.main(argv)``, calling ``mark()`` as the CLI first calls the
    optimizer (through the ``run`` binding the CLI looks up)."""
    run = cli.run

    def stamped(*args, **kwargs):
        mark()
        return run(*args, **kwargs)

    cli.run = stamped
    try:
        return cli.main(argv)
    finally:
        cli.run = run


def _parse_cfg(cli, text: str, mode: str, config_dir: Path) -> dict:
    cfg = cli._typed_config(cli.parse_config(text), mode)
    cfg["_dir"] = config_dir
    return cfg


class DetLogisticSweep:
    name = "det_logistic_sweep"

    def __init__(self, reference: dict | None):
        self.reference = reference

    def setup(self, m, work: Path, variant: int) -> None:
        text = (CONFIGS / "det_logistic_sweep.cfg").read_text().format(
            data=m.data_ingest.bundled_dataset_path(), seed=variant,
        )
        self.config = work / "sweep.cfg"
        self.config.write_text(text)
        self.out = work / "summary.csv"
        cfg = _parse_cfg(m.cli, text, "sweep", work)
        # the CLI repeats this inside every job; it is timed here as set-up
        m.cli.build_problem(cfg, work)
        self.ops = len(cfg["c"]) * len(cfg["eta"]) * len(cfg["seeds"])
        self.variant = variant
        self.header = ",".join(m.cli.SWEEP_HEADER)

    def job(self, m, mark, wrap_problem) -> JobResult:
        self.out.unlink(missing_ok=True)
        argv = ["sweep", "--config", str(self.config), "--out", str(self.out), "--threads", "1"]
        code = cli_main(m.cli, mark, argv)
        lines = self.out.read_text().splitlines() if self.out.exists() else []
        result = JobResult(self.ops)
        if code != 0 or not lines or lines[0] != self.header or len(lines) != self.ops + 1:
            result.failures = [f"sweep exit {code}, {len(lines)} lines"] * self.ops
            return result
        expected = self.reference["observed"] if self.reference else None
        for i, line in enumerate(lines[1:]):
            row = line.split(",")
            c, eta, seed = float(row[0]), float(row[1]), int(row[2])
            final_f, iters, diverged, best = float(row[4]), int(row[6]), int(row[7]), int(row[8])
            cell = [c, eta, diverged, best]
            result.observed.append(cell)
            result.digests.append(digest(line.encode()))
            if seed != self.variant:
                result.failures.append(f"cell {i}: seed {seed} != {self.variant}")
            elif not (diverged or math.isfinite(final_f)):
                result.failures.append(f"cell {i}: non-finite final_f without divergence")
            elif best and iters < 0:
                result.failures.append(f"cell {i}: best step size never reached the target")
            elif expected is not None and cell != expected[i]:
                result.failures.append(f"cell {i}: {cell} != reference {expected[i]}")
        return result


class BernoulliFloorTraces:
    name = "bernoulli_floor_traces"
    sigma = 1.0
    c = 4.0
    ops = 4  # seeds per job, each a run + bound pair

    def __init__(self, reference: dict | None):
        self.reference = reference

    def setup(self, m, work: Path, variant: int) -> None:
        inst = m.theory.build_lower_bound_large_c(self.sigma, self.c)
        problem = inst.problem()
        F0 = problem.value(np.zeros(1)) - problem.meta.f_star
        run_text = (CONFIGS / "bernoulli_run.cfg").read_text().format(
            a=repr(inst.a), p=repr(inst.p), c=repr(self.c),
        )
        self.trace = work / "trace.csv"
        bound_text = (CONFIGS / "bernoulli_bound.cfg").read_text().format(
            trace=self.trace.name, c=repr(self.c), F0=repr(F0), sigma=repr(self.sigma),
        )
        self.run_config = work / "run.cfg"
        self.bound_config = work / "bound.cfg"
        self.report = work / "bound.txt"
        self.run_config.write_text(run_text)
        self.bound_config.write_text(bound_text)
        run_cfg = _parse_cfg(m.cli, run_text, "run", work)
        _parse_cfg(m.cli, bound_text, "bound", work)
        m.cli.build_problem(run_cfg, work)
        self.T = run_cfg["T"]
        self.floor = self.sigma**2 / (6.0 * self.c)
        self.variant = variant

    def _final_quarter_mean(self) -> tuple[int, float]:
        with open(self.trace, newline="") as f:
            reader = csv.reader(f)
            col = next(reader).index("grad_norm")
            grad = [float(row[col]) for row in reader]
        tail = grad[len(grad) * 3 // 4:]
        return len(grad), math.fsum(tail) / len(tail) if tail else math.nan

    def job(self, m, mark, wrap_problem) -> JobResult:
        result = JobResult(self.ops)
        expected = self.reference["observed"] if self.reference else None
        tail_means = []
        for i in range(self.ops):
            self.trace.unlink(missing_ok=True)
            self.report.unlink(missing_ok=True)
            offset = self.variant * self.ops + i
            code = cli_main(m.cli, mark, [
                "run", "--config", str(self.run_config), "--out", str(self.trace),
                "--seed-offset", str(offset), "--threads", "1",
            ])
            bound_code = m.cli.main(
                ["bound", "--config", str(self.bound_config), "--out", str(self.report)]
            )
            report = self.report.read_text() if self.report.exists() else ""
            status = re.search(r"status=(\w+)", report)
            outcome = [bound_code, status.group(1) if status else None]
            result.observed.append(outcome)
            if code != 0:
                result.failures.append(f"seed {offset}: run exit {code}")
                continue
            result.digests += [digest(self.trace.read_bytes()), digest(report.encode())]
            rows, tail_mean = self._final_quarter_mean()
            tail_means.append(tail_mean)
            if rows != self.T + 1:
                result.failures.append(f"seed {offset}: {rows} trace rows, expected {self.T + 1}")
            elif outcome[1] is None:
                result.failures.append(f"seed {offset}: bound exit {bound_code}, no status")
            elif expected is not None and outcome != expected[i]:
                result.failures.append(f"seed {offset}: bound {outcome} != reference {expected[i]}")
        # The floor bounds the expected gradient norm, so it is checked on the
        # mean over the job's seeds, as acceptance criterion 3 does: one
        # seed's final quarter spans only a few mixing times of the iterate.
        floor_mean = math.fsum(tail_means) / len(tail_means) if tail_means else math.nan
        if not floor_mean >= self.floor:
            result.failures = [
                f"variant {self.variant}: final-quarter mean grad norm {floor_mean!r} below"
                f" the floor sigma^2/(6c) = {self.floor!r}"
            ] * self.ops
        return result


class ChisqDpMinibatch:
    name = "chisq_dp_minibatch"
    dim = 100
    # near the median per-sample gradient norm, so about half the clip
    # calls rescale and both branches of clip run
    c = 14.0
    mc_samples = 20_000
    ops = 2  # the run and the Monte Carlo estimate

    def __init__(self, reference: dict | None):
        self.reference = reference

    def setup(self, m, work: Path, variant: int) -> None:
        self.problem = m.package.ChiSquareQuadratic(dim=self.dim, L=0.1)
        self.config = m.package.RunConfig(
            method="dp_sgd", c=self.c, eta=1e-2, T=3000, x0=np.zeros(self.dim),
            B=16, sigma_dp=1.0, seed=variant,
        )
        self.variant = variant

    def job(self, m, mark, wrap_problem) -> JobResult:
        problem = wrap_problem(self.problem)
        mark()
        trace = m.package.run_dp_sgd(problem, self.config)
        est = m.package.expected_clipped_grad(
            problem, trace.final_point, self.c, n_samples=self.mc_samples, seed=self.variant,
        )
        result = JobResult(self.ops)
        arrays = (trace.iters, trace.f_vals, trace.grad_norms, trace.applied_norms,
                  trace.clipped_fracs, trace.final_point)
        result.digests = [
            digest(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)),
            digest(est.value.tobytes() + np.float64(est.std_error).tobytes()),
        ]
        if trace.iters.size != self.config.T + 1:
            result.failures.append(f"run recorded {trace.iters.size} iterates")
        elif not trace.max_per_sample_norm <= self.c:
            result.failures.append(
                f"max per-sample norm {trace.max_per_sample_norm!r} exceeds c = {self.c!r}"
            )
        if not (np.isfinite(est.value).all() and math.isfinite(est.std_error)):
            result.failures.append("Monte Carlo estimate is not finite")
        return result


WORKLOADS = {w.name: w for w in (DetLogisticSweep, BernoulliFloorTraces, ChisqDpMinibatch)}
