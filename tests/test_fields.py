from pathlib import Path

import numpy as np
import pytest

from asyncsa import (
    BellmanResidualField,
    ConfigError,
    GradientDescentField,
    QuadraticBowl,
    QuadraticField,
    Rosenbrock,
    ScaledIdentityField,
    load_fixture,
    random_mdp,
    random_pd_matrix,
)

import reference

FIXTURES = Path(__file__).parent / "fixtures"


def _tile_views(x: np.ndarray) -> np.ndarray:
    # every agent sees the current iterate: view column i equals x
    return np.tile(x[:, None], (1, x.shape[0]))


def test_quadratic_field_shared_matrix():
    m = np.array([[2.0, 1.0], [0.5, 3.0]])
    f = QuadraticField(m)
    x = np.array([1.0, -2.0])
    assert f.vector(x) == pytest.approx(-(m @ x))
    assert f.vector_views(_tile_views(x)) == pytest.approx(f.vector(x))


def test_quadratic_field_per_agent_rows():
    a = np.array([[2.0, 0.0], [0.0, 2.0]])
    b = np.array([[4.0, 1.0], [1.0, 4.0]])
    f = QuadraticField(np.stack([a, b]))
    x = np.array([1.0, 1.0])
    # agent 0 answers with its own matrix's row 0, agent 1 with b's row 1
    assert f.vector(x) == pytest.approx([-(a[0] @ x), -(b[1] @ x)])


def test_quadratic_field_stale_views():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    f = QuadraticField(m)
    views = np.array([[1.0, 10.0], [2.0, 20.0]])
    # agent i contracts its matrix row with view column i
    assert f.vector_views(views) == pytest.approx([-3.0, -30.0])


def test_scaled_identity_field():
    f = ScaledIdentityField(-0.5, 3)
    x = np.array([2.0, -4.0, 6.0])
    assert f.vector(x) == pytest.approx([-1.0, 2.0, -3.0])
    views = np.diag(x)  # agent i sees only its own value on the diagonal
    assert f.vector_views(views) == pytest.approx(f.vector(x))


def test_quadratic_bowl_identities():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    bowl = QuadraticBowl(m)
    theta = np.array([1.0, -1.0])
    assert bowl.value(theta) == pytest.approx(0.5 * theta @ m @ theta)
    assert bowl.grad(theta) == pytest.approx(m @ theta)
    assert bowl.stationarity_factor == pytest.approx(
        np.linalg.eigvalsh(m).max()
    )
    assert bowl.grad(np.zeros(2)) == pytest.approx([0.0, 0.0])


def test_quadratic_bowl_rejects_bad_matrices():
    with pytest.raises(ConfigError):
        QuadraticBowl(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ConfigError):
        QuadraticBowl(np.array([[1.0, 0.0], [0.0, -1.0]]))  # not PD


def test_rosenbrock_landmarks():
    surf = Rosenbrock(a=1.0, b=100.0)
    assert surf.value(np.array([1.0, 1.0])) == 0.0
    assert surf.grad(np.array([1.0, 1.0])) == pytest.approx([0.0, 0.0])
    assert surf.grad(np.array([0.0, 0.0])) == pytest.approx([-2.0, 0.0])
    assert surf.value(np.array([0.0, 0.0])) == pytest.approx(1.0)


def test_gradient_descent_field_is_negative_gradient():
    surf = QuadraticBowl(np.eye(2))
    f = GradientDescentField(surf)
    theta = np.array([0.3, -0.7])
    assert f.vector(theta) == pytest.approx(-theta)
    assert f.vector_views(_tile_views(theta)) == pytest.approx(-theta)


def test_descent_decreases_pd_quadratic_energy():
    rng = np.random.default_rng(0)
    m = random_pd_matrix(3, rng)
    f = QuadraticField(m)
    x = rng.standard_normal(3)
    for _ in range(200):
        x = x + 0.1 * f.vector(x)
    assert np.linalg.norm(x) < 1e-3


def test_random_pd_matrix_properties():
    rng = np.random.default_rng(42)
    m = random_pd_matrix(4, rng, eig_range=(0.5, 2.0))
    assert m == pytest.approx(m.T)
    eigs = np.linalg.eigvalsh(m)
    assert eigs.min() >= 0.5 - 1e-9
    assert eigs.max() <= 2.0 + 1e-9
    again = random_pd_matrix(4, np.random.default_rng(42))
    assert np.array_equal(m, again)


def test_quadratic_field_shape_validation():
    with pytest.raises(ConfigError):
        QuadraticField(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        QuadraticField(np.zeros((3, 2, 2)))


def _field_and_reference(kind, d, rng):
    """A field of the given kind at dimension d, and its per-agent reference."""
    if kind == "quadratic-shared":
        m = random_pd_matrix(d, rng)
        return QuadraticField(m), lambda v: reference.quadratic_drive(m, v)
    if kind == "quadratic-per-agent":
        mats = np.stack([random_pd_matrix(d, rng) for _ in range(d)])
        return QuadraticField(mats), lambda v: reference.quadratic_drive(mats, v)
    if kind == "scaled-identity":
        return (ScaledIdentityField(-0.7, d),
                lambda v: reference.scaled_identity_drive(-0.7, v))
    if kind.startswith("bellman"):
        mdp = (random_mdp(d, 3, seed=d) if kind == "bellman-random"
               else load_fixture(FIXTURES / f"{kind[len('bellman-'):]}.txt"))
        return BellmanResidualField(mdp), lambda v: reference.bellman_drive(mdp, v)
    if kind == "bowl":
        m = random_pd_matrix(d, rng)
        return (GradientDescentField(QuadraticBowl(m)),
                lambda v: reference.bowl_drive(m, v))
    surf = Rosenbrock(a=1.5, b=20.0)
    return (GradientDescentField(surf),
            lambda v: reference.rosenbrock_drive(1.5, 20.0, v))


@pytest.mark.parametrize("kind, d", [
    *((kind, d)
      for kind in ("quadratic-shared", "quadratic-per-agent", "scaled-identity",
                   "bellman-random", "bowl")
      for d in (2, 5, 20)),
    ("bellman-mdp_5s2a", 5),
    ("bellman-ssp_chain", 4),
    ("rosenbrock", 2),
])
def test_vector_views_match_per_agent_reference(kind, d):
    rng = np.random.default_rng(d)
    field, drive = _field_and_reference(kind, d, rng)
    assert field.d == d
    for _ in range(5):
        views = rng.standard_normal((d, d))  # stale: every column differs
        np.testing.assert_allclose(field.vector_views(views), drive(views),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind, d", [
    *((kind, d)
      for kind in ("quadratic-shared", "quadratic-per-agent", "scaled-identity",
                   "bellman-random", "bowl")
      for d in (5, 48, 100)),
    ("bellman-mdp_5s2a", 5),
    ("bellman-ssp_chain", 4),
    ("rosenbrock", 2),
])
def test_chosen_agents_drive_has_the_bits_of_the_full_call(kind, d):
    # the drive of chosen agents, from their views alone, equals entry for
    # entry the all-agents call on a C-ordered (d, d) view matrix; the ssp
    # chain's last state is its terminal
    rng = np.random.default_rng(d + 1)
    field, _ = _field_and_reference(kind, d, rng)
    for agents in ([0], [d - 1], [1, d - 1], list(range(0, d, 3)), list(range(d)), []):
        agents = np.array(agents, dtype=np.intp)
        views = rng.standard_normal((d, d))
        full = field.vector_views(views)
        chosen = field.vector_views(views[:, agents], agents)
        assert chosen.tobytes() == full[agents].tobytes(), agents
