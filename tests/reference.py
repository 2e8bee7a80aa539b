"""Test-only reference definitions of the drives, one agent at a time.

In the asynchronous recursion agent i applies component i of the drive at
its own view, column i of ``views``.  Each function here computes that
component straight from the objective's definition, agent by agent, and
shares no evaluation code with ``asyncsa.fields`` or ``asyncsa.mdp``:
the package's batched ``vector_views`` are checked against it.
"""

from __future__ import annotations

import numpy as np


def quadratic_drive(matrices: np.ndarray, views: np.ndarray) -> np.ndarray:
    """-(M_i v_i)_i, with one shared (d, d) matrix or one (d, d) per agent."""
    d = views.shape[0]
    mats = [matrices] * d if matrices.ndim == 2 else list(matrices)
    return np.array([-(mats[i] @ views[:, i])[i] for i in range(d)])


def scaled_identity_drive(gain: float, views: np.ndarray) -> np.ndarray:
    """gain * v_i[i]: each agent reads only its own, always current, entry."""
    return np.array([gain * views[i, i] for i in range(views.shape[0])])


def bellman_drive(mdp, views: np.ndarray) -> np.ndarray:
    """min_a c(s, a) + discount * P(s, a, .) . v_s - v_s[s]; the terminal
    state of a shortest-path problem answers -v_t[t]."""
    states, actions = mdp.costs.shape
    out = []
    for s in range(states):
        v = views[:, s]
        if s == mdp.terminal:
            out.append(-v[s])
            continue
        q = [
            mdp.costs[s, a]
            + mdp.discount * sum(mdp.transitions[s, a, j] * v[j] for j in range(states))
            for a in range(actions)
        ]
        out.append(min(q) - v[s])
    return np.array(out)


def bowl_drive(matrix: np.ndarray, views: np.ndarray) -> np.ndarray:
    """-grad(v_i)_i for pi(theta) = 0.5 theta' M theta, one matvec per agent."""
    d = views.shape[0]
    return np.array([-(matrix @ views[:, i])[i] for i in range(d)])


def rosenbrock_drive(a: float, b: float, views: np.ndarray) -> np.ndarray:
    """-grad(v_i)_i for pi(theta) = (a - t1)^2 + b (t2 - t1^2)^2."""
    out = []
    for i in range(2):
        t1, t2 = float(views[0, i]), float(views[1, i])
        grad = (-2.0 * (a - t1) - 4.0 * b * t1 * (t2 - t1 * t1),
                2.0 * b * (t2 - t1 * t1))
        out.append(-grad[i])
    return np.array(out)
