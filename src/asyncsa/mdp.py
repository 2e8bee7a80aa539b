"""Finite Markov decision processes and the Bellman operator.

Supports discounted problems (discount in (0, 1)) and shortest-path style
problems (discount 1 with an absorbing, cost-free terminal state whose
value is pinned to 0 by the operator).  The driving field for value
iteration runs is the residual T J - J, whose roots are the fixed points
of T.

Fixture format (one directive per line, '#' starts a comment):

    states 5
    actions 2
    discount 0.9          # or: terminal 3   (shortest-path mode)
    cost  s a value
    trans s a s' prob

Value files carry one float per line in state order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_MDP, stream
from .errors import ConfigError, FixedPointError
from .fields import column_views, own_views
from .norms import Norm, unit_max_norm

__all__ = [
    "FiniteMDP",
    "bellman_apply",
    "BellmanResidualField",
    "greedy_policy",
    "policy_value",
    "exact_fixed_point",
    "random_mdp",
    "save_fixture",
    "load_fixture",
    "save_values",
    "load_values",
]


@dataclass(eq=False)
class FiniteMDP:
    """Transition tensor (S, A, S), cost table (S, A), discount, optional
    terminal state for shortest-path mode."""

    transitions: np.ndarray
    costs: np.ndarray
    discount: float = 1.0
    terminal: int | None = None

    def __post_init__(self):
        p = np.asarray(self.transitions, dtype=float)
        c = np.asarray(self.costs, dtype=float)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ConfigError("transitions must have shape (S, A, S)")
        s, a, _ = p.shape
        if c.shape != (s, a):
            raise ConfigError(f"costs must have shape ({s}, {a})")
        if np.any(p < -1e-12):
            raise ConfigError("transition probabilities must be nonnegative")
        if not np.allclose(p.sum(axis=2), 1.0, atol=1e-9):
            raise ConfigError("transition rows must sum to 1")
        if not np.all(np.isfinite(c)):
            raise ConfigError("costs must be finite")
        self.transitions = p
        self.costs = c
        self.discount = float(self.discount)
        if self.terminal is None:
            if not 0.0 < self.discount < 1.0:
                raise ConfigError("discounted problems need discount in (0, 1)")
        else:
            if self.discount != 1.0:
                raise ConfigError("terminal-state problems run with discount 1")
            t = int(self.terminal)
            if not 0 <= t < s:
                raise ConfigError("terminal state out of range")
            self.terminal = t
            if not np.allclose(p[t, :, t], 1.0):
                raise ConfigError("terminal state must be absorbing")
            if not np.allclose(c[t], 0.0):
                raise ConfigError("terminal state must be cost-free")
            self._check_terminal_reachable()

    def _check_terminal_reachable(self):
        # support-graph reachability: necessary for every stationary policy
        # to terminate, cheap enough to run at load time
        s = self.states
        support = self.transitions.sum(axis=1) > 0
        reached = {self.terminal}
        frontier = [self.terminal]
        while frontier:
            t = frontier.pop()
            for src in range(s):
                if src not in reached and support[src, t]:
                    reached.add(src)
                    frontier.append(src)
        if len(reached) != s:
            missing = sorted(set(range(s)) - reached)
            raise ConfigError(
                f"terminal state unreachable from states {missing}"
            )

    @property
    def states(self) -> int:
        return self.transitions.shape[0]

    @property
    def actions(self) -> int:
        return self.transitions.shape[1]


def bellman_apply(mdp: FiniteMDP, values: np.ndarray) -> np.ndarray:
    """One sweep of T: (TJ)(s) = min_a cost(s,a) + discount * E J(s')."""
    q = mdp.costs + mdp.discount * (mdp.transitions @ values)
    out = q.min(axis=1)
    if mdp.terminal is not None:
        out[mdp.terminal] = 0.0
    return out


def greedy_policy(mdp: FiniteMDP, values: np.ndarray) -> np.ndarray:
    q = mdp.costs + mdp.discount * (mdp.transitions @ values)
    return q.argmin(axis=1)


def policy_value(mdp: FiniteMDP, policy: np.ndarray) -> np.ndarray:
    """Exact value of a stationary policy via its linear system."""
    s = mdp.states
    idx = np.arange(s)
    p_pi = mdp.transitions[idx, policy]
    c_pi = mdp.costs[idx, policy]
    if mdp.terminal is None:
        return np.linalg.solve(np.eye(s) - mdp.discount * p_pi, c_pi)
    keep = [i for i in range(s) if i != mdp.terminal]
    a = np.eye(len(keep)) - p_pi[np.ix_(keep, keep)]
    v = np.zeros(s)
    v[keep] = np.linalg.solve(a, c_pi[keep])
    return v


class BellmanResidualField:
    """f(J) = TJ - J; agent s owns component s of the value vector."""

    def __init__(self, mdp: FiniteMDP):
        self.mdp = mdp
        self.d = mdp.states

    def vector(self, values):
        return bellman_apply(self.mdp, values) - values

    def vector_views(self, views, agents=None):
        mdp = self.mdp
        own = own_views(views, agents)
        transitions, costs, terminal = mdp.transitions, mdp.costs, mdp.terminal
        if agents is not None:
            transitions, costs = transitions[agents], costs[agents]
            views = column_views(views)
            terminal = agents == terminal  # where the terminal agent sits, if chosen
        q = costs + mdp.discount * np.einsum("saj,js->sa", transitions, views)
        out = q.min(axis=1) - own
        if mdp.terminal is not None:
            out[terminal] = -own[terminal]
        return out


def exact_fixed_point(
    mdp: FiniteMDP,
    tol: float = 1e-10,
    norm: Norm | None = None,
    max_iter: int = 1_000_000,
) -> np.ndarray:
    """Fixed point of T to within tol/2 in the given (default max) norm.

    Discounted problems stop once the residual is below
    tol * (1 - discount) / (2 * discount), which bounds the distance to the
    fixed point by tol/2.  Terminal-state problems iterate to a small
    residual and then polish by solving the greedy policy's linear system.
    """
    norm = norm or unit_max_norm(mdp.states)
    values = np.zeros(mdp.states)
    if mdp.terminal is None:
        target = tol * (1.0 - mdp.discount) / (2.0 * mdp.discount)
        for _ in range(max_iter):
            nxt = bellman_apply(mdp, values)
            if norm(nxt - values) <= target:
                return nxt
            values = nxt
        raise FixedPointError(f"no fixed point within {max_iter} sweeps")
    for _ in range(max_iter):
        nxt = bellman_apply(mdp, values)
        if norm(nxt - values) <= max(tol, 1e-13):
            polished = policy_value(mdp, greedy_policy(mdp, nxt))
            if norm(bellman_apply(mdp, polished) - polished) <= max(tol, 1e-13):
                return polished
            return nxt
        values = nxt
    raise FixedPointError(f"no fixed point within {max_iter} sweeps")


def random_mdp(
    states: int,
    actions: int,
    seed: int,
    discount: float = 0.9,
) -> FiniteMDP:
    """Dense random instance: transition rows Dirichlet(1), costs U[0, 1]."""
    rng = stream(seed, DOMAIN_MDP)
    raw = rng.gamma(1.0, 1.0, size=(states, actions, states))
    transitions = raw / raw.sum(axis=2, keepdims=True)
    costs = rng.uniform(0.0, 1.0, size=(states, actions))
    return FiniteMDP(transitions=transitions, costs=costs, discount=discount)


# ---------------------------------------------------------------------------
# fixture I/O


def save_fixture(mdp: FiniteMDP, path) -> None:
    lines = [
        "# finite MDP fixture",
        f"states {mdp.states}",
        f"actions {mdp.actions}",
    ]
    if mdp.terminal is None:
        lines.append(f"discount {mdp.discount!r}")
    else:
        lines.append(f"terminal {mdp.terminal}")
    for s in range(mdp.states):
        for a in range(mdp.actions):
            lines.append(f"cost {s} {a} {float(mdp.costs[s, a])!r}")
    for s in range(mdp.states):
        for a in range(mdp.actions):
            for s2 in range(mdp.states):
                p = float(mdp.transitions[s, a, s2])
                if p != 0.0:
                    lines.append(f"trans {s} {a} {s2} {p!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fixture(path) -> FiniteMDP:
    states = actions = None
    discount: float | None = None
    terminal: int | None = None
    costs: dict[tuple[int, int], float] = {}
    trans: dict[tuple[int, int, int], float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            word, args = tokens[0], tokens[1:]
            try:
                if word == "states":
                    (states,) = (int(args[0]),)
                elif word == "actions":
                    (actions,) = (int(args[0]),)
                elif word == "discount":
                    discount = float(args[0])
                elif word == "terminal":
                    terminal = int(args[0])
                elif word == "cost":
                    costs[(int(args[0]), int(args[1]))] = float(args[2])
                elif word == "trans":
                    trans[(int(args[0]), int(args[1]), int(args[2]))] = float(args[3])
                else:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown directive {word!r}"
                    )
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad line {line!r}") from exc
    if states is None or actions is None:
        raise ConfigError(f"{path}: missing states/actions directives")
    if (discount is None) == (terminal is None):
        raise ConfigError(f"{path}: exactly one of discount/terminal required")
    p = np.zeros((states, actions, states))
    c = np.full((states, actions), np.nan)
    for (s, a), v in costs.items():
        c[s, a] = v
    for (s, a, s2), v in trans.items():
        p[s, a, s2] = v
    if np.isnan(c).any():
        raise ConfigError(f"{path}: missing cost entries")
    return FiniteMDP(
        transitions=p,
        costs=c,
        discount=1.0 if terminal is not None else float(discount),
        terminal=terminal,
    )


def save_values(values: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("# fixed-point values, one per state\n")
        for v in np.asarray(values, dtype=float):
            fh.write(f"{float(v)!r}\n")


def load_values(path) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                vals.append(float(line))
    return np.array(vals)
