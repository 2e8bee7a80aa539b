"""Test-only reference definitions of the drives and the activation
schedule, one agent or one tick at a time.

In the asynchronous recursion agent i applies component i of the drive at
its own view, column i of ``views``.  Each drive function here computes
that component straight from the objective's definition, agent by agent,
and shares no evaluation code with ``asyncsa.fields`` or ``asyncsa.mdp``:
the package's batched ``vector_views`` are checked against it.
:class:`ReferenceSchedule` draws activation one tick at a time and shares
no mask, counter or stream-reading code with ``asyncsa.schedules``: the
package's block-drawn masks, step sizes and counters are checked against
it.
"""

from __future__ import annotations

import numpy as np

from asyncsa._rng import DOMAIN_ACTIVATION, stream


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


class ReferenceSchedule:
    """Activation of one tick per :meth:`tick` call, from the policy's
    definition.

    Round-robin tick t activates agents (t k + j) mod d for j < min(k, d).
    Bernoulli draws one coin row per call from the activation stream and
    redraws a row in which no agent is active.  ``counters`` counts each
    agent's active ticks so far; a tick's step sizes are the step policy's
    ``a_of`` of the counts before the tick.
    """

    def __init__(self, policy, d: int, seed: int, steps):
        self.policy = policy
        self.d = d
        self.steps = steps
        self.counters = np.zeros(d, dtype=np.int64)
        self._rng = stream(seed, DOMAIN_ACTIVATION)

    def _mask(self, t: int) -> np.ndarray:
        d, policy = self.d, self.policy
        if policy.kind == "all":
            return np.ones(d, dtype=bool)
        if policy.kind == "round-robin":
            k = min(policy.k, d)
            mask = np.zeros(d, dtype=bool)
            for j in range(k):
                mask[(t * k + j) % d] = True
            return mask
        q = np.broadcast_to(policy.q, (d,))
        while True:
            mask = self._rng.random(d) < q
            if mask.any():
                return mask

    def tick(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Tick t's active mask and step sizes; ticks come in order."""
        mask = self._mask(t)
        step = self.steps.a_of(self.counters)
        self.counters = self.counters + mask
        return mask, step
