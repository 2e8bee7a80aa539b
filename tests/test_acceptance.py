"""End-to-end acceptance scorecard.

Each test prints one ``CRITERION <id> <label>: PASS/FAIL (<measured>)``
line on the real stdout before asserting, so a full run of this module
reads as a scorecard even under pytest capture.

Two checks are deliberately red and kept that way: 01 and the noiseless
control inside 02 demand a 1e-6 max-norm error from synchronous value
iteration driven by the step sequence a(n) = 1/(n+10) within 2e4 ticks.
With contraction modulus 0.9 the error shrinks per tick by roughly
(1 - 0.1 a(n)), so after N ticks only to about (10/(N+10))^0.1 of its
start: 0.47 at N = 2e4, and about 2e64 ticks would be needed to reach
1e-6.  The checks encode the stated target anyway; their failure is the
honest outcome, not a regression.  See also the step-size scorecard in
test_09, which is where schedules themselves are vetted.
"""
from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from asyncsa import (
    BellmanObjective,
    ComponentUniformErrors,
    FixedBiasErrors,
    GeometricDelays,
    GradientObjective,
    HarmonicSteps,
    NormBallErrors,
    PowerSteps,
    ProjectionSpec,
    QuadraticObjective,
    RademacherNoise,
    RoundRobin,
    RunConfig,
    ScaledIdentityObjective,
    UniformNoise,
    a2pg_stationarity_report,
    bellman_apply,
    build_runtime,
    check_step_size,
    contraction_estimate,
    draw_tick,
    exact_fixed_point,
    gap_report,
    gradient_fidelity,
    load_fixture,
    oscillation,
    reproduce_experiment,
    run,
    run_light,
    run_paired,
)
from asyncsa._rng import DOMAIN_CHECK, DOMAIN_ERROR_ALT, stream
from asyncsa.fields import QuadraticBowl, Rosenbrock, random_pd_matrix

FIXTURES = Path(__file__).parent / "fixtures"
FIVE_STATE = str(FIXTURES / "mdp_5s2a.txt")


def _report(ident: str, label: str, ok: bool, detail: str) -> str:
    line = f"CRITERION {ident} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    return line


def _drawn_ticks(cfg):
    """The drawn sample of every tick of ``cfg``: its inputs that do not
    depend on the iterate, so no iterate is computed."""
    bundle = build_runtime(cfg)
    return (draw_tick(n, bundle) for n in range(cfg.horizon))


@pytest.fixture(scope="module")
def five_state_mdp():
    return load_fixture(FIVE_STATE)


@pytest.fixture(scope="module")
def sync_value_iteration(five_state_mdp):
    """Shared noiseless synchronous run: criterion 01 and the 02 control."""
    jstar = exact_fixed_point(five_state_mdp)
    cfg = RunConfig(
        dimension=5,
        horizon=20_000,
        seed=0,
        objective=BellmanObjective(fixture=FIVE_STATE),
        steps=HarmonicSteps(c=10.0),
        x0=[0.0] * 5,
    )
    t0 = time.perf_counter()
    res = run_light(cfg)
    elapsed = time.perf_counter() - t0
    err = float(np.abs(res.final_x - jstar).max())
    return err, elapsed


def test_01_synchronous_value_iteration_tolerance(sync_value_iteration):
    err, elapsed = sync_value_iteration
    ok = err <= 1e-6 and elapsed < 2.0
    line = _report(
        "01", "synchronous-value-iteration", ok,
        f"sup error {err:.4e} after 2e4 ticks, target 1e-06, "
        f"runtime {elapsed:.2f}s < 2s",
    )
    assert ok, line


def test_02_async_residual_census(five_state_mdp):
    # bound: one unit-weight max-norm error band per state plus noise slack
    bound = 5 * 0.2 + 0.05
    resids = []
    for seed in range(10):
        cfg = RunConfig(
            dimension=5,
            horizon=50_000,
            seed=seed,
            objective=BellmanObjective(fixture=FIVE_STATE),
            steps=HarmonicSteps(c=10.0),
            activation=RoundRobin(k=1),
            delays=GeometricDelays(mean=3.0),
            errors=ComponentUniformErrors(bound=0.2),
            noise=UniformNoise(level=0.05),
        )
        res = run_light(cfg)
        final = np.asarray(res.final_x)
        resids.append(
            float(np.abs(bellman_apply(five_state_mdp, final) - final).max())
        )
    hits = sum(r <= bound for r in resids)
    ok = hits >= 9
    line = _report(
        "02", "async-residual-census", ok,
        f"{hits}/10 seeds within {bound:.2f}, worst residual {max(resids):.4f}",
    )
    assert ok, line


def test_02_control_noiseless_twin(sync_value_iteration):
    err, _ = sync_value_iteration
    ok = err <= 1e-6
    line = _report(
        "02-control", "noiseless-twin", ok,
        f"sup error {err:.4e}, target 1e-06 (same schedule floor as 01)",
    )
    assert ok, line


def test_03_communication_rate_study():
    t0 = time.perf_counter()
    results = {p: reproduce_experiment(p, range(20)) for p in (0.4, 0.8)}
    spearman_hits = {}
    tail_median = {}
    for p_c, res in results.items():
        hits = 0
        for seed in range(5):
            rows = [r for r in res.rows
                    if r["seed"] == seed and r["status"] == "ok"]
            rho, _ = stats.spearmanr(
                [r["epsilon"] for r in rows],
                [r["log_final_norm"] for r in rows],
            )
            hits += rho >= 0.5
        spearman_hits[p_c] = hits
        tail_median[p_c] = float(np.median(
            [r["log_final_norm"] for r in res.rows
             if r["epsilon"] >= 1.0 and r["status"] == "ok"]
        ))
    elapsed = time.perf_counter() - t0
    ok = (
        spearman_hits[0.4] >= 4
        and spearman_hits[0.8] >= 4
        and tail_median[0.8] <= tail_median[0.4]
        and elapsed < 30.0
    )
    line = _report(
        "03", "communication-rate-study", ok,
        f"spearman>=0.5 in {spearman_hits[0.4]}/5 and {spearman_hits[0.8]}/5, "
        f"tail medians {tail_median[0.4]:.5f} (0.4) vs {tail_median[0.8]:.5f} "
        f"(0.8), runtime {elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_04_projective_boundedness():
    worst = 0.0
    violations = 0
    for seed in range(20):
        cfg = RunConfig(
            dimension=2,
            horizon=10_000,
            seed=seed,
            objective=ScaledIdentityObjective(gain=1.0),
            steps=HarmonicSteps(c=10.0),
            projection=ProjectionSpec(r_inner=1.0, r_outer=2.0),
        )
        trace = run(cfg)
        sup = float(np.linalg.norm(trace.x, axis=1).max())
        worst = max(worst, sup)
        violations += sup > 2.0
    ok = violations == 0
    line = _report(
        "04", "projective-boundedness", ok,
        f"worst sup norm {worst!r} <= 2.0, violations {violations}/20",
    )
    assert ok, line


def test_05_coupled_gap_monotone():
    monotone = 0
    sup_gap = 0.0
    for seed in range(10):
        cfg = RunConfig(
            dimension=5,
            horizon=5_000,
            seed=seed,
            objective=BellmanObjective(fixture=FIVE_STATE),
            steps=HarmonicSteps(c=10.0),
            activation=RoundRobin(k=1),
            errors=ComponentUniformErrors(bound=0.2),
            projection=ProjectionSpec(
                r_inner=12.0,
                r_outer=20.0,
                norm={"kind": "weighted-max", "weights": [1.0] * 5},
            ),
            x0=[30.0] * 5,
        )
        rep = gap_report(run_paired(cfg, coupled_errors=True))
        monotone += rep["monotone"]
        sup_gap = max(sup_gap, rep["sup_gap_after"])
    ok = monotone == 10
    line = _report(
        "05", "coupled-gap-monotone", ok,
        f"non-increasing after last projection in {monotone}/10 seeds, "
        f"sup gap {sup_gap:.3f}",
    )
    assert ok, line


def test_06_noise_partial_sums_settle():
    early, late = [], []
    for seed in range(20):
        cfg = RunConfig(
            dimension=2,
            horizon=20_000,
            seed=seed,
            objective=ScaledIdentityObjective(gain=-1.0),
            steps=HarmonicSteps(c=10.0),
            noise=RademacherNoise(level=1.0),
        )
        # xi[n] = sum over m < n of a(nu(m, i)) * noise_m[i] on active agents
        xi = np.zeros((cfg.horizon + 1, 2))
        for n, tick in enumerate(_drawn_ticks(cfg)):
            xi[n + 1] = xi[n] + np.where(tick.active, tick.step * tick.noise, 0.0)
        early.append(oscillation(xi, 1_000, 2_000))
        late.append(oscillation(xi, 10_000, 20_000))
    med_early = float(np.median(early))
    med_late = float(np.median(late))
    ok = med_early >= 2.0 * med_late
    line = _report(
        "06", "noise-partial-sums-settle", ok,
        f"median osc early {med_early:.5f} vs late {med_late:.5f}, "
        f"ratio {med_early / med_late:.2f} >= 2",
    )
    assert ok, line


def test_07_step_delay_product_vanishes():
    prods = []
    for seed in range(10):
        cfg = RunConfig(
            dimension=2,
            horizon=100_000,
            seed=seed,
            objective=QuadraticObjective(matrices="random"),
            steps=HarmonicSteps(c=10.0),
            delays=GeometricDelays(mean=5.0),
        )
        # largest read age times the reader's step size, from tick 90 000 on
        prod = 0.0
        for n, tick in enumerate(_drawn_ticks(cfg)):
            if n >= 90_000:
                scaled = tick.tau * (tick.step * tick.active)[None, :]
                prod = max(prod, float(scaled.max()))
        prods.append(prod)
    worst = max(prods)
    ok = worst < 1e-3
    line = _report(
        "07", "step-delay-product-vanishes", ok,
        f"max step*age over last 10% of 1e5 ticks {worst:.3e} < 1e-3, "
        f"10 seeds",
    )
    assert ok, line


def test_08_biased_gradient_neighborhood():
    ratios = []
    for eps in (0.05, 0.1, 0.2):
        for seed in range(20):
            direction = stream(seed, DOMAIN_ERROR_ALT, 8).standard_normal(2)
            direction *= eps / np.linalg.norm(direction)
            cfg = RunConfig(
                dimension=2,
                horizon=10_000,
                seed=seed,
                objective=GradientObjective(surface="quadratic-bowl"),
                steps=HarmonicSteps(c=10.0),
                activation=RoundRobin(k=1),
                errors=FixedBiasErrors(bias=direction),
            )
            res = run_light(cfg)
            ratios.append(float(np.linalg.norm(res.final_x)) / eps)
    bowl_ok = all(0.5 <= r <= 1.5 for r in ratios)

    # step constant 400 calibrated once against the 0.25 gradient bound;
    # smaller constants sit near the divergence edge of the steep start
    rosen_hits = 0
    worst_grad = 0.0
    for seed in range(20):
        cfg = RunConfig(
            dimension=2,
            horizon=10_000,
            seed=seed,
            objective=GradientObjective(surface="rosenbrock"),
            steps=HarmonicSteps(c=400.0),
            activation=RoundRobin(k=1),
            errors=NormBallErrors(bound=0.1),
        )
        res = run_light(cfg)
        surface = build_runtime(cfg).field.surface
        rep = a2pg_stationarity_report(surface, res.final_x, eps_bound=0.1)
        rosen_hits += rep["ok"]
        worst_grad = max(worst_grad, rep["grad_norm"])
    ok = bowl_ok and rosen_hits >= 18
    line = _report(
        "08", "biased-gradient-neighborhood", ok,
        f"bowl final/eps in [{min(ratios):.3f}, {max(ratios):.3f}] within "
        f"[0.5, 1.5]; rosenbrock {rosen_hits}/20 under gradient bound 0.25 "
        f"(worst {worst_grad:.3f})",
    )
    assert ok, line


def test_09_checker_gate():
    harmonic = check_step_size(HarmonicSteps(c=10.0))
    slow_power = check_step_size(PowerSteps(p=0.4, c=10.0))
    steps_ok = (
        harmonic.verdict == "pass"
        and slow_power.item("square-summable-tail").verdict == "fail"
    )

    contraction_ok = True
    margins = []
    for name in ("mdp_5s2a", "mdp_4s3a"):
        mdp = load_fixture(FIXTURES / f"{name}.txt")
        worst = max(contraction_estimate(mdp, seed=s) for s in range(3))
        margins.append(f"{name} {worst:.3f}<={mdp.discount}")
        contraction_ok &= worst <= mdp.discount

    surfaces = (
        QuadraticBowl(np.eye(2)),
        QuadraticBowl(random_pd_matrix(2, stream(0, DOMAIN_CHECK, 99))),
        Rosenbrock(),
    )
    fidelities = [gradient_fidelity(s) for s in surfaces]
    fidelity_ok = max(fidelities) <= 1e-6

    ok = steps_ok and contraction_ok and fidelity_ok
    line = _report(
        "09", "checker-gate", ok,
        f"harmonic {harmonic.verdict}, slow power square-summable-tail "
        f"{slow_power.item('square-summable-tail').verdict}; contraction "
        f"{', '.join(margins)}; max gradient fidelity {max(fidelities):.2e}",
    )
    assert ok, line
