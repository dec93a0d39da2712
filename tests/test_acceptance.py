"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np
import pytest

from clipbench import cli
from clipbench.core import clip, clip_coefficient
from clipbench.data_ingest import bundled_dataset_path, parse_libsvm
from clipbench.optimizers import (
    Cells, RunConfig, privacy_noise, run,
)
from clipbench.problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Quadratic,
)
from clipbench.theory import (
    build_lower_bound_large_c,
    build_lower_bound_small_c,
    certify_smoothness,
    clip_probability_bound,
    expected_clipped_grad,
)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def bundled_problem():
    return LogisticRegressionProblem(parse_libsvm(bundled_dataset_path().read_text()))


def test_criterion_01_small_radius_lower_bound_exact():
    t0 = time.time()
    details = []
    ok = True
    for c in (0.1, 0.5, 1.0, 2.0):
        inst = build_lower_bound_small_c(1.0, c)
        residual = abs(expected_clipped_grad(inst.problem(), [inst.x_fixed], c).value[0])
        grad = abs(inst.problem().grad(np.array([inst.x_fixed]))[0])
        ok &= residual <= 1e-12 and grad >= 1.0 / 12.0
        details.append(f"c={c}: residual={residual:.1e} bias={grad:.6f}")
    bias_at_2 = build_lower_bound_small_c(1.0, 2.0).bias
    ok &= abs(bias_at_2 - 0.124356) <= 1e-6
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"{'; '.join(details)}; bias(c=2)={bias_at_2:.7f} [{elapsed:.2f}s]")


def test_criterion_02_large_radius_lower_bound_exact():
    t0 = time.time()
    ok = True
    details = []
    for c in (2.0, 4.0, 8.0, 16.0):
        inst = build_lower_bound_large_c(1.0, c)
        ok &= inst.bias >= 1.0 / (6.0 * c)
        details.append(f"c={c}: bias={inst.bias:.6f} floor={1.0 / (6.0 * c):.6f}")
    bias_at_4 = build_lower_bound_large_c(1.0, 4.0).bias
    ok &= abs(bias_at_4 - 0.06249) <= 1e-4
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(2, ok, f"{'; '.join(details)} [{elapsed:.2f}s]")


def _floor_configs(method, c, eta):
    T = int(10.0 / eta)
    return [RunConfig(method=method, c=c, eta=eta, T=T, x0=np.zeros(1), seed=seed)
            for seed in range(20)]


def _final_quarter_mean(traces):
    """Mean over seeds of each trace's mean gradient norm in its final quarter."""
    return float(np.mean([trace.grad_norms[3 * (trace.config.T + 1) // 4:].mean()
                          for trace in traces]))


def _final_quarter_floors(method, c, etas=(1e-2, 1e-3, 1e-4)):
    # the 20 seeds of each step size advance in lockstep as one batch
    prob = build_lower_bound_large_c(1.0, 4.0).problem()
    floors = {}
    for eta in etas:
        results = run(prob, Cells(_floor_configs(method, c, eta)))
        assert not any(diverged for _, diverged in results)
        floors[eta] = _final_quarter_mean(trace for trace, _ in results)
    return floors


@pytest.mark.parametrize("method,c", [("clipped_sgd", 4.0), ("sgd", math.inf)])
def test_final_quarter_floors_match_per_seed_runs(method, c):
    # the batch behind criteria 3 and 4 against one run per seed, bit for bit
    prob = build_lower_bound_large_c(1.0, 4.0).problem()
    per_seed = _final_quarter_mean(
        run(prob, config) for config in _floor_configs(method, c, 1e-2))
    assert _final_quarter_floors(method, c, etas=(1e-2,))[1e-2] == per_seed


def test_criterion_03_bias_floor_unavoidable():
    t0 = time.time()
    floors = _final_quarter_floors("clipped_sgd", 4.0)
    lo, hi = 1.0 / 24.0, 10.0 / 4.0
    ok = all(lo <= f <= hi for f in floors.values())
    ratio = max(floors[1e-2], floors[1e-4]) / min(floors[1e-2], floors[1e-4])
    ok &= ratio < 2.0
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(3, ok, f"floors={ {k: round(v, 5) for k, v in floors.items()} } "
                  f"band=[{lo:.4f},{hi}] 100x-step ratio={ratio:.2f} [{elapsed:.1f}s]")


def test_criterion_04_unclipped_noise_floor_scales():
    t0 = time.time()
    floors = _final_quarter_floors("sgd", math.inf)
    ratio = floors[1e-2] / floors[1e-4]
    ok = ratio >= 3.0
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(4, ok, f"floors={ {k: round(v, 5) for k, v in floors.items()} } "
                  f"ratio={ratio:.2f} >= 3 [{elapsed:.1f}s]")


def test_criterion_05_convex_bound_zero_tolerance():
    t0 = time.time()
    ok = True
    worst = math.inf
    for prob, x0 in ((Quadratic(dim=1, L=1.0), np.array([1.0])),
                     (ChiSquareQuadratic(dim=2, L=1.0), np.zeros(2))):
        f_star = prob.meta.f_star
        r0 = float(np.linalg.norm(x0 - prob.meta.x_star))
        L = prob.meta.L
        for c in (0.01, 0.1, 1.0):
            eta = 1.0 / (2.0 * (prob.meta.L0 + c * prob.meta.L1))
            trace = run(prob, RunConfig(method="clipped_gd", c=c, eta=eta,
                                        T=10_000, x0=x0))
            tp1 = trace.iters + 1.0
            bounds = 2.0 * r0**2 / (eta * tp1) + 4.0 * L * r0**4 / (eta**2 * c**2 * tp1**2)
            gaps = trace.f_vals - f_star
            ok &= bool((gaps <= bounds).all())
            worst = min(worst, float((bounds - gaps).min()))
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(5, ok, f"two quadratics x three thresholds, min slack={worst:.3e} [{elapsed:.1f}s]")


def test_criterion_06_footnote_schedule_exact():
    t0 = time.time()
    trace = run(Quadratic(dim=1, L=1.0),
                RunConfig(method="clipped_gd", c=0.25, eta=1.0, T=2, x0=np.array([1.0])))
    x2 = abs(trace.final_point[0])
    ok = x2 == 0.5 and x2 >= 0.5
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(6, ok, f"|x_2| = {x2} after 1/(2c) = 2 clipped steps [{elapsed:.2f}s]")


def test_criterion_07_tuned_threshold_sweep_on_bundled_dataset():
    t0 = time.time()
    prob = bundled_problem()
    direction = prob.A.T @ prob.y
    direction /= np.linalg.norm(direction)
    x0 = list(12_000.0 * direction)
    etas = [10.0 ** (k / 2.0) for k in range(-2, 9)]  # 1e-1 .. 1e4, half decades
    target = 1e-2

    def best_iters(c, T):
        cfg = {"method": "clipped_gd", "T": T, "x0": x0}
        rows = cli.sweep_cells(prob, cfg, [c], etas, [0], target=target)
        reached = [r.iters_to_target for r in rows if r.iters_to_target >= 0]
        return min(reached) if reached else None, rows

    n10, _ = best_iters(10.0, 9_000)
    n2, _ = best_iters(1e-2, 9_000)
    ok = n10 is not None and n2 is not None
    detail = f"iters: c=10 -> {n10}, c=1e-2 -> {n2}"
    if ok:
        ok &= n2 <= 3 * n10
        cap = 15 * n2 + 2
        _, rows4 = best_iters(1e-4, cap)
        early = [r.iters_to_target for r in rows4 if 0 <= r.iters_to_target < 10 * n2]
        ok &= not early
        detail += (f", c=1e-4 -> none of {len(rows4)} step sizes reaches within "
                   f"{cap} (>= 10x{n2})")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(7, ok, detail + f" [{elapsed:.1f}s]")


def test_criterion_08_dp_sensitivity_and_noise_scale():
    t0 = time.time()
    prob = ChiSquareQuadratic(dim=10, L=0.1)
    trace = run(prob, RunConfig(method="dp_sgd", c=1.0, eta=0.01, T=1000,
                                B=8, sigma_dp=1.0, x0=np.zeros(10), seed=5))
    ok = trace.max_per_sample_norm <= 1.0

    rng = np.random.default_rng(0)
    sq = np.empty(10_000)
    for i in range(sq.size):
        z = privacy_noise(10, 1.0, rng)
        sq[i] = float(z @ z)
    rel = abs(sq.mean() - 1.0)
    ok &= rel <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(8, ok, f"max per-sample clipped norm={trace.max_per_sample_norm:.6f} <= c; "
                  f"mean|z|^2 off by {rel:.3%} [{elapsed:.1f}s]")


def test_criterion_09_property_suites():
    t0 = time.time()
    ok = True

    # clip: norm bound, idempotence, direction preservation, non-expansiveness
    rng = np.random.default_rng(999)
    violations = 0
    for _ in range(100_000):
        d = int(rng.integers(1, 5))
        u = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
        v = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
        c = float(10.0 ** rng.uniform(-2, 2))
        cu = clip(u, c)
        if math.sqrt(float(cu @ cu)) > c:
            violations += 1
        if not np.array_equal(clip(cu, c), cu):
            violations += 1
        alpha = clip_coefficient(u, c)
        if alpha == 1.0:
            if not np.array_equal(cu, u):
                violations += 1
        # the hard norm contract may shave an ulp off the scalar, so the
        # clipped branch checks collinearity at float precision
        elif np.linalg.norm(cu - alpha * u) > 1e-12 * np.linalg.norm(u):
            violations += 1
        cv = clip(v, c)
        if np.linalg.norm(cu - cv) > np.linalg.norm(u - v) * (1 + 1e-12):
            violations += 1
    ok &= violations == 0

    # finite-difference gradient checks on all shipped problems
    problems = [Quadratic(dim=3, L=2.0), BernoulliShiftQuadratic(a=4.0, p=0.25),
                ChiSquareQuadratic(dim=4, L=0.1), bundled_problem()]
    fd_worst = 0.0
    for prob in problems:
        prng = np.random.default_rng(12)
        for _ in range(20):
            x = prng.normal(size=prob.meta.dim)
            exact = prob.grad(x)
            approx = np.empty_like(x)
            for i in range(x.size):
                h = 1e-6 * max(1.0, abs(x[i]))
                e = np.zeros_like(x)
                e[i] = h
                approx[i] = (prob.value(x + e) - prob.value(x - e)) / (2 * h)
            rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
            fd_worst = max(fd_worst, rel)
    ok &= fd_worst <= 1e-5

    # smoothness certificates with declared constants
    cert_ok = True
    for prob, pairs in ((Quadratic(dim=3, L=2.0), 400),
                        (BernoulliShiftQuadratic(a=4.0, p=0.25), 400),
                        (ChiSquareQuadratic(dim=4, L=0.1), 400),
                        (bundled_problem(), 1000)):
        cert = certify_smoothness(prob, prob.meta.L0, prob.meta.L1, n_pairs=pairs, seed=1)
        cert_ok &= cert.ok
    ok &= cert_ok

    # clip-probability Markov bound on the two-outcome problem
    probe = BernoulliShiftQuadratic(a=8.0, p=0.0158770817240728)
    rep = clip_probability_bound(probe, np.zeros(1), c=4.0, n_samples=20_000, seed=2)
    ok &= rep.ok

    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(9, ok, f"clip violations={violations}/100000, fd worst={fd_worst:.2e}, "
                  f"certificates ok={cert_ok}, clip freq {rep.frequency:.4f} <= "
                  f"{rep.markov_bound:.4f}+5se [{elapsed:.1f}s]")


def test_criterion_10_byte_identical_outputs(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "mode = sweep\nproblem = chi_square\ndim = 20\nL = 0.1\n"
        "method = clipped_sgd\nc = 0.5, 1\neta = 0.01, 0.1\nT = 300\nB = 2\n"
        "x0 = 0\nseeds = 1, 2, 3\ntarget_grad_norm = 0.5\n"
    )
    outs = []
    for name, threads in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
        out = tmp_path / name
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]

    fp_cfg = tmp_path / "fp.cfg"
    fp_cfg.write_text("mode = fixedpoint\nsigma = 1\nc = 0.5, 4\n")
    fp_outs = []
    for name in ("f1.txt", "f2.txt"):
        out = tmp_path / name
        assert cli.main(["fixedpoint", "--config", str(fp_cfg), "--out", str(out)]) == 0
        fp_outs.append(out.read_bytes())
    ok &= fp_outs[0] == fp_outs[1]
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(10, ok, f"sweep x3 (threads 1/1/3) and fixedpoint x2 byte-identical "
                   f"[{elapsed:.1f}s]")
