import numpy as np
import pytest

from asyncsa import (
    BellmanResidualField,
    ConfigError,
    FiniteMDP,
    FixedPointError,
    WeightedMaxNorm,
    bellman_apply,
    exact_fixed_point,
    greedy_policy,
    load_fixture,
    policy_value,
    random_mdp,
    save_fixture,
)
from asyncsa.mdp import load_values, save_values


def _single_state() -> FiniteMDP:
    return FiniteMDP(
        transitions=np.ones((1, 1, 1)),
        costs=np.array([[1.0]]),
        discount=0.5,
    )


def test_single_state_geometric_series():
    mdp = _single_state()
    js = exact_fixed_point(mdp)
    # J = 1 + 0.5 J  =>  J = 2
    assert js == pytest.approx([2.0], abs=1e-9)
    assert bellman_apply(mdp, js) == pytest.approx(js, abs=1e-9)


def test_bellman_apply_matches_bruteforce():
    mdp = random_mdp(4, 3, seed=2, discount=0.8)
    values = np.random.default_rng(5).standard_normal(4)
    out = bellman_apply(mdp, values)
    for s in range(4):
        best = min(
            mdp.costs[s, a]
            + mdp.discount * sum(
                mdp.transitions[s, a, t] * values[t] for t in range(4)
            )
            for a in range(3)
        )
        assert out[s] == pytest.approx(best, rel=1e-12)


def test_greedy_policy_value_confirms_fixed_point():
    mdp = random_mdp(5, 2, seed=11, discount=0.9)
    js = exact_fixed_point(mdp)
    policy = greedy_policy(mdp, js)
    jpol = policy_value(mdp, policy)
    assert jpol == pytest.approx(js, abs=1e-8)


def test_discounted_fixture_matches_golden_values(fixtures_dir):
    mdp = load_fixture(fixtures_dir / "mdp_5s2a.txt")
    golden = load_values(fixtures_dir / "mdp_5s2a_values.txt")
    js = exact_fixed_point(mdp)
    assert js == pytest.approx(golden, abs=1e-8)
    assert np.abs(bellman_apply(mdp, js) - js).max() < 1e-9


def test_fixture_file_is_regenerable(fixtures_dir):
    # the checked-in fixture is exactly random_mdp(5, 2, seed=11, 0.9)
    mdp = random_mdp(5, 2, seed=11, discount=0.9)
    disk = load_fixture(fixtures_dir / "mdp_5s2a.txt")
    assert np.array_equal(mdp.transitions, disk.transitions)
    assert np.array_equal(mdp.costs, disk.costs)
    assert disk.discount == 0.9


def test_second_discounted_fixture_pinned(fixtures_dir):
    # the checked-in fixture is exactly random_mdp(4, 3, seed=23, 0.8)
    mdp = random_mdp(4, 3, seed=23, discount=0.8)
    disk = load_fixture(fixtures_dir / "mdp_4s3a.txt")
    assert np.array_equal(mdp.transitions, disk.transitions)
    assert np.array_equal(mdp.costs, disk.costs)
    assert disk.discount == 0.8
    golden = load_values(fixtures_dir / "mdp_4s3a_values.txt")
    js = exact_fixed_point(disk)
    assert js == pytest.approx(golden, abs=1e-8)
    assert np.abs(bellman_apply(disk, js) - js).max() < 1e-9


def test_ssp_chain_hand_solved_values(fixtures_dir):
    mdp = load_fixture(fixtures_dir / "ssp_chain.txt")
    assert mdp.terminal == 3
    assert mdp.discount == 1.0
    js = exact_fixed_point(mdp)
    assert js == pytest.approx([3.75, 2.5, 1.25, 0.0], abs=1e-9)


def test_ssp_terminal_stays_pinned(fixtures_dir):
    mdp = load_fixture(fixtures_dir / "ssp_chain.txt")
    values = np.array([1.0, 2.0, 3.0, 4.0])
    out = bellman_apply(mdp, values)
    assert out[3] == 0.0
    field = BellmanResidualField(mdp)
    # the drive pulls the terminal coordinate straight back to zero
    assert field.vector(values)[3] == pytest.approx(-4.0)


def test_transition_validation():
    bad = np.ones((2, 1, 2))  # rows sum to 2
    with pytest.raises(ConfigError):
        FiniteMDP(transitions=bad, costs=np.zeros((2, 1)), discount=0.9)
    with pytest.raises(ConfigError):
        FiniteMDP(transitions=np.full((1, 1, 1), 1.0),
                  costs=np.array([[np.inf]]), discount=0.9)
    with pytest.raises(ConfigError):
        FiniteMDP(transitions=np.ones((1, 1, 1)), costs=np.zeros((1, 1)),
                  discount=1.5)


def test_terminal_mode_validation():
    P = np.zeros((2, 1, 2))
    P[0, 0, 0] = 1.0  # state 0 never reaches the terminal
    P[1, 0, 1] = 1.0
    costs = np.array([[1.0], [0.0]])
    with pytest.raises(ConfigError, match="0"):
        FiniteMDP(transitions=P, costs=costs, discount=1.0, terminal=1)
    # terminal must be absorbing and cost-free
    P2 = np.zeros((2, 1, 2))
    P2[0, 0, 1] = 1.0
    P2[1, 0, 0] = 1.0
    with pytest.raises(ConfigError):
        FiniteMDP(transitions=P2, costs=costs, discount=1.0, terminal=1)
    # undiscounted problems require a terminal
    with pytest.raises(ConfigError):
        FiniteMDP(transitions=np.ones((1, 1, 1)), costs=np.zeros((1, 1)),
                  discount=1.0)


def test_exact_fixed_point_iteration_cap():
    mdp = _single_state()
    with pytest.raises(FixedPointError):
        exact_fixed_point(mdp, tol=1e-12, max_iter=3)


def test_exact_fixed_point_weighted_norm(fixtures_dir):
    mdp = load_fixture(fixtures_dir / "mdp_5s2a.txt")
    norm = WeightedMaxNorm(weights=[1.0, 1.0, 2.0, 2.0, 1.0])
    js = exact_fixed_point(mdp, norm=norm)
    assert np.abs(bellman_apply(mdp, js) - js).max() < 1e-8


def test_fixture_round_trip(tmp_path):
    mdp = random_mdp(3, 2, seed=7, discount=0.7)
    path = tmp_path / "m.txt"
    save_fixture(mdp, path)
    back = load_fixture(path)
    assert np.array_equal(back.transitions, mdp.transitions)
    assert np.array_equal(back.costs, mdp.costs)
    assert back.discount == mdp.discount


def test_fixture_parser_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("states 2\nactions 1\ndiscount 0.9\nwobble 1 2 3\n")
    with pytest.raises(ConfigError):
        load_fixture(path)
    path.write_text("states 1\nactions 1\ndiscount 0.9\ncost 0 0 1.0\n")
    with pytest.raises(ConfigError):
        load_fixture(path)  # no transition rows at all


def test_values_round_trip(tmp_path):
    vals = np.array([1 / 3, -2.5, 1e-17])
    path = tmp_path / "v.txt"
    save_values(vals, path)
    assert np.array_equal(load_values(path), vals)


def test_random_mdp_is_deterministic():
    a = random_mdp(4, 2, seed=9, discount=0.8)
    b = random_mdp(4, 2, seed=9, discount=0.8)
    assert np.array_equal(a.transitions, b.transitions)
    assert np.array_equal(a.costs, b.costs)
    c = random_mdp(4, 2, seed=10, discount=0.8)
    assert not np.array_equal(a.transitions, c.transitions)
