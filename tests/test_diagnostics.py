import json

import numpy as np
import pytest

from asyncsa import (
    AllActive,
    BernoulliActivation,
    ConfigError,
    ConstantSteps,
    HarmonicSteps,
    PowerSteps,
    QuadraticBowl,
    Rosenbrock,
    RoundRobin,
    a2pg_stationarity_report,
    a2vi_residual_report,
    activation_rates,
    bellman_apply,
    check_activation,
    check_step_size,
    contraction_estimate,
    exact_fixed_point,
    gradient_fidelity,
    oscillation,
    random_mdp,
)


# ---------------------------------------------------------------------------
# step-size checks


def _verdicts(report) -> dict:
    return {item.name: item.verdict for item in report.items}


def test_harmonic_steps_pass_all_items():
    report = check_step_size(HarmonicSteps(c=10.0))
    v = _verdicts(report)
    assert v == {
        "bounded-by-one": "pass",
        "eventually-decreasing": "pass",
        "divergent-sum": "pass",
        "square-summable-tail": "pass",
        "delay-compatible": "pass",
    }
    assert report.verdict == "pass"


def test_slow_power_steps_fail_square_summability():
    report = check_step_size(PowerSteps(p=0.4, c=10.0))
    v = _verdicts(report)
    assert v["divergent-sum"] == "pass"
    assert v["square-summable-tail"] == "fail"
    assert v["delay-compatible"] == "fail"
    assert report.verdict == "fail"


def test_borderline_power_steps_are_inconclusive():
    report = check_step_size(PowerSteps(p=0.6, c=10.0))
    v = _verdicts(report)
    assert v["square-summable-tail"] == "inconclusive"
    assert v["delay-compatible"] == "pass"
    assert report.verdict == "inconclusive"


def test_constant_steps_fail():
    report = check_step_size(ConstantSteps(a0=0.5))
    v = _verdicts(report)
    assert v["bounded-by-one"] == "pass"
    assert v["eventually-decreasing"] == "pass"
    assert v["square-summable-tail"] == "fail"
    assert v["delay-compatible"] == "fail"
    assert report.verdict == "fail"


def test_step_check_needs_a_real_window():
    with pytest.raises(ConfigError):
        check_step_size(HarmonicSteps(c=1.0), horizon=50)


def test_report_json_round_trip():
    report = check_step_size(HarmonicSteps(c=1.0), horizon=1000)
    data = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
    assert data["name"] == "step-size"
    assert data["horizon"] == 1000
    assert data["verdict"] == "pass"
    names = [item["name"] for item in data["items"]]
    assert "divergent-sum" in names
    item = report.item("divergent-sum")
    assert item.statistic > 1.05


# ---------------------------------------------------------------------------
# activation checks


def test_activation_rates_all_active():
    rates = activation_rates(AllActive(), d=3)
    assert rates.tolist() == [1.0, 1.0, 1.0]


def test_activation_rates_round_robin():
    rates = activation_rates(RoundRobin(k=1), d=4, horizon=8000)
    assert rates == pytest.approx([0.25] * 4)


def test_activation_rates_bernoulli():
    rates = activation_rates(BernoulliActivation(q=2 / 3), d=3,
                             horizon=30_000, seed=1)
    # empty ticks are redrawn, conditioning each rate on >= 1 active agent
    conditioned = (2 / 3) / (1 - (1 / 3) ** 3)
    assert rates == pytest.approx([conditioned] * 3, abs=0.01)


def test_activation_checks_reject_a_wrong_length_q():
    policy = BernoulliActivation(q=[0.5, 0.5, 0.5])
    with pytest.raises(ConfigError, match="bernoulli q must be scalar or length 2"):
        activation_rates(policy, d=2)
    with pytest.raises(ConfigError, match="bernoulli q must be scalar or length 2"):
        check_activation(policy, d=2)


def test_check_activation_verdicts():
    assert check_activation(AllActive(), d=5).verdict == "pass"
    assert check_activation(RoundRobin(k=1), d=5).verdict == "pass"
    # a floor above the achievable rate turns the verdict inconclusive
    report = check_activation(RoundRobin(k=1), d=5, min_rate=0.5)
    assert report.verdict == "inconclusive"
    assert report.item("persistently-active").statistic == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# endpoint reports


def test_residual_report_on_exact_values():
    mdp = random_mdp(5, 2, seed=11, discount=0.9)
    js = exact_fixed_point(mdp)
    report = a2vi_residual_report(mdp, js, eps_bound=0.2, slack=0.05,
                                  exact=js)
    assert report["ok"] is True
    assert report["residual"] < 1e-8
    assert report["bound"] == pytest.approx(5 * 0.2 + 0.05)
    assert report["error_to_exact"] == 0.0


def test_residual_report_flags_bad_values():
    mdp = random_mdp(5, 2, seed=11, discount=0.9)
    report = a2vi_residual_report(mdp, np.full(5, 100.0), eps_bound=0.0)
    assert report["ok"] is False
    assert report["residual"] > 1.0


def test_stationarity_report():
    bowl = QuadraticBowl(np.eye(2))
    at_min = a2pg_stationarity_report(bowl, np.zeros(2), eps_bound=0.1)
    assert at_min["ok"] is True and at_min["grad_norm"] == 0.0
    far = a2pg_stationarity_report(bowl, np.array([5.0, 0.0]), eps_bound=0.1)
    assert far["ok"] is False
    assert far["bound"] == pytest.approx(bowl.stationarity_factor * 0.1 + 0.05)


def test_contraction_estimate_respects_discount():
    for seed in (1, 11, 30):
        mdp = random_mdp(5, 2, seed=seed, discount=0.9)
        assert contraction_estimate(mdp, samples=200) <= 0.9 + 1e-12
    loose = random_mdp(4, 3, seed=2, discount=0.5)
    assert contraction_estimate(loose) <= 0.5 + 1e-12


def test_contraction_estimate_needs_a_sample():
    with pytest.raises(ConfigError, match="no usable point pair among 0 samples"):
        contraction_estimate(random_mdp(3, 2, 0), samples=0)


def test_gradient_fidelity_on_smooth_surfaces():
    assert gradient_fidelity(QuadraticBowl(np.eye(2))) < 1e-6
    assert gradient_fidelity(Rosenbrock()) < 1e-6


def test_gradient_fidelity_catches_wrong_gradient():
    class Broken:
        d = 2

        def value(self, x):
            return float(x @ x)

        def grad(self, x):
            return 3.0 * x  # should be 2x

    assert gradient_fidelity(Broken()) > 0.3


# ---------------------------------------------------------------------------
# oscillation


def test_oscillation_hand_values():
    series = np.array([0.0, 1.0, -2.0, 0.5, 0.5])
    assert oscillation(series, 1, 3) == 3.0
    assert oscillation(series, 2) == 2.5  # default window [2, 4]
    rows = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    assert oscillation(rows, 0, 2) == 5.0


def test_oscillation_window_validation():
    with pytest.raises(ValueError):
        oscillation(np.zeros(10), 6)  # default n1 = 12 out of range
    with pytest.raises(ValueError):
        oscillation(np.zeros(10), -1, 5)
