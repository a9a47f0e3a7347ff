"""Max-min Hamiltonians of two-player zero-sum games over random costs.

H(x, p) = max over b of min over a of { -cost(x, a, b) - <f(a, b), p> },
with finite action sets so the max-min is exact enumeration.  The module
also certifies the structural constants (growth/Lipschitz bound beta,
orientation margin delta along a direction e), folds momentum shifts into
the cost accessor, and builds the finite-action localization of a generic
Lipschitz Hamiltonian.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


class OrientationError(ValueError):
    """The dynamics is not oriented (delta <= 0); experiments refuse to run."""


@dataclass(frozen=True)
class HamiltonianConstants:
    beta: float
    delta: float
    e: np.ndarray
    f_inf: float
    lip_l: float
    l_inf: float

    @property
    def oriented(self) -> bool:
        return self.delta > 0.0

    def require_oriented(self) -> None:
        if not self.oriented:
            raise OrientationError(
                f"dynamics not oriented: min <f, e> = {self.delta} <= 0"
            )


@dataclass(frozen=True)
class GameHamiltonian:
    """Finite-action game data.

    ``base_cost(points, env) -> (N, n_a, n_b)`` returns the running cost at
    each point for every action pair (broadcastable shapes allowed).  The
    momentum shift <f, theta> is folded into a single additive table so the
    solver inner loop sees one accessor call.
    """

    actions_a: np.ndarray           # (n_a, m)
    actions_b: np.ndarray           # (n_b, m)
    f_table: np.ndarray             # (n_a, n_b, d), broadcastable over b
    base_cost: Callable[[np.ndarray, object], np.ndarray]
    lip_l: float
    l_inf: float                    # bound for the *unshifted* cost
    theta: np.ndarray | None = None
    orientation_hint: np.ndarray | None = None
    shift_table: np.ndarray | None = None   # (n_a, n_b) or broadcastable

    @property
    def dim(self) -> int:
        return self.f_table.shape[-1]

    @property
    def n_a(self) -> int:
        return self.actions_a.shape[0]

    @property
    def n_b(self) -> int:
        return self.actions_b.shape[0]

    @property
    def f_pairs(self) -> np.ndarray:
        """Velocity of every action pair: (n_a * n_b, d)."""
        return np.broadcast_to(self.f_table, (self.n_a, self.n_b, self.dim)).reshape(-1, self.dim)

    @property
    def f_inf(self) -> float:
        return float(np.max(np.linalg.norm(self.f_table, axis=-1)))

    @property
    def theta_vec(self) -> np.ndarray:
        if self.theta is None:
            return np.zeros(self.dim)
        return self.theta

    @property
    def l_inf_shifted(self) -> float:
        """Bound on the cost including the folded momentum shift."""
        return self.l_inf + self.f_inf * float(np.linalg.norm(self.theta_vec))

    def cost(self, pts: np.ndarray, env) -> np.ndarray:
        """Running cost table (N, n_a, n_b), momentum shift included."""
        c = self.base_cost(np.atleast_2d(pts), env)
        if self.shift_table is not None:
            c = c + self.shift_table
        return c


def eval_H(gh: GameHamiltonian, x: np.ndarray, p: np.ndarray, env=None) -> float:
    """Exact max-min Hamiltonian value at a single (x, p)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    p = np.asarray(p, dtype=np.float64).reshape(1, -1)
    # the negated table is this call's own, so it is also the difference buffer
    neg = np.negative(np.broadcast_to(gh.cost(x, env)[0], (gh.n_a, gh.n_b)))
    bufs = (neg.reshape(-1), np.empty(gh.n_b), np.empty(1))
    return float(eval_H_nodes(gh, neg.reshape(gh.n_a, gh.n_b, 1), p, bufs)[0])


def moving_axes(gh: GameHamiltonian) -> tuple[int, ...]:
    """The axes i, in order, along which some action pair moves: max |f_i| > 0."""
    return tuple(np.flatnonzero(np.abs(gh.f_table).reshape(-1, gh.dim).max(axis=0)).tolist())


def drift_size(gh: GameHamiltonian, N: int, axes: tuple[int, ...]) -> int:
    """Entries of ``eval_H_nodes``'s drift buffer at N nodes over ``axes``:
    the drift, (f_table's a and b extents, N), and as much again for the
    later axes' products when two or more axes move."""
    n = gh.f_table.shape[0] * gh.f_table.shape[1] * N
    return 2 * n if len(axes) > 1 else n


def eval_H_nodes(gh: GameHamiltonian, neg_cost: np.ndarray, P: np.ndarray,
                 bufs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                 axes: tuple[int, ...] | None = None,
                 drift_buf: np.ndarray | None = None) -> np.ndarray:
    """H at N nodes: max over b of min over a of { -cost - <f, p> }.

    neg_cost: the negated cost -cost, (n_a, n_b, *nodes) broadcastable over
    the actions, its trailing axes holding the N nodes in C order (a
    strided window of a grid table is read as it is); P: (N, d) gradients,
    of which only the columns of the moving axes are read (a transposed
    (d, N) array of per-axis planes makes each column contiguous).
    Returns (N,).

    Only the moving axes run: ``axes``, or ``moving_axes(gh)`` when not
    given.  The drift <f, p> is f_i p_i summed over them in axis order,
    then + 0.0.  For finite P that is exactly 0 + the sum over every axis,
    signed zeros included: a zero-speed axis adds 0 * p_i = +-0, which
    changes no nonzero sum, and the +0.0 start turns a drift of -0 into
    +0, as a BLAS product does.  So a node's drift has the same bits
    however the nodes are grouped into calls.

    ``bufs`` are flat buffers for -cost - <f, p>, its min over a and H,
    holding at least n_a * n_b * N, n_b * N and N entries, and
    ``drift_buf`` holds ``drift_size(gh, N, axes)`` entries for the drift:
    their leading parts are written, and the returned H is a view of the
    last of ``bufs``.  Without them, each call allocates its own.  The
    drift may share the min's buffer, as it is dead once the difference
    is taken, but not the difference buffer, which ``eval_H`` fills with
    its own negated table.
    """
    if axes is None:
        axes = moving_axes(gh)
    f = gh.f_table
    n_a, n_b = np.broadcast_shapes(neg_cost.shape[:2], f.shape[:2])
    N = len(P)
    if bufs is None:
        bufs = (np.empty(n_a * n_b * N), np.empty(n_b * N), np.empty(N))
    if drift_buf is None:
        drift_buf = np.empty(drift_size(gh, N, axes))
    diff_buf, lo_buf, H_buf = bufs
    n_f = f.shape[0] * f.shape[1] * N
    drift = drift_buf[:n_f].reshape(f.shape[:2] + (N,))
    if axes:
        np.multiply(f[:, :, axes[0], None], P[:, axes[0]], out=drift)
        if len(axes) > 1:
            prod = drift_buf[n_f:2 * n_f].reshape(drift.shape)
            for i in axes[1:]:
                np.add(drift, np.multiply(f[:, :, i, None], P[:, i], out=prod), out=drift)
        np.add(drift, 0.0, out=drift)
    else:
        drift.fill(0.0)
    diff = diff_buf[:n_a * n_b * N].reshape((n_a, n_b) + neg_cost.shape[2:])
    np.subtract(neg_cost, drift.reshape(drift.shape[:2] + neg_cost.shape[2:]), out=diff)
    lo = np.min(diff.reshape(n_a, n_b, N), axis=0, out=lo_buf[:n_b * N].reshape(n_b, N))
    return np.max(lo, axis=0, out=H_buf[:N])


def shift_momentum(gh: GameHamiltonian, theta: np.ndarray) -> GameHamiltonian:
    """Fold the shift cost -> cost + <f(a,b), theta> into the accessor.

    Satisfies eval_H(shifted, x, p) == eval_H(original, x, theta + p).
    """
    theta = np.asarray(theta, dtype=np.float64)
    add = gh.f_table @ theta                       # (n_a, n_b) or (n_a, 1)
    table = add if gh.shift_table is None else gh.shift_table + add
    return replace(gh, theta=gh.theta_vec + theta, shift_table=table)


def certify_constants(gh: GameHamiltonian, e: np.ndarray | None = None) -> HamiltonianConstants:
    """Compute (beta, delta, e, ...) making (H1)-(H3) hold for eval_H.

    The direction is ``e`` or else the game's ``orientation_hint``; the cost
    certificates are the game's own, so a field game must first have them
    bound from its environment.  ``delta`` is the achieved margin
    min <f(a,b), e>, reported as-is; a nonpositive value marks the game as
    not oriented (callers that need orientation must refuse to run).
    """
    if np.isnan(gh.lip_l) or np.isnan(gh.l_inf):
        raise ValueError("the game's cost certificates (lip_l, l_inf) are unset; "
                         "bind them from the environment with families.bind_env_constants")
    if e is None:
        e = gh.orientation_hint
    if e is None:
        raise ValueError("no orientation direction: pass e or set the game's orientation_hint")
    e = np.asarray(e, dtype=np.float64)
    e = e / np.linalg.norm(e)
    delta = float(np.min(gh.f_pairs @ e))
    f_inf, l_inf = gh.f_inf, gh.l_inf_shifted
    return HamiltonianConstants(
        beta=max(l_inf, f_inf, gh.lip_l), delta=delta, e=e, f_inf=f_inf, lip_l=gh.lip_l,
        l_inf=l_inf,
    )


def ball_grid(radius: float, n_per_axis: int, dim: int) -> np.ndarray:
    """Uniform grid on [-radius, radius]^dim restricted to the closed ball."""
    if n_per_axis < 2:
        raise ValueError("need at least 2 grid points per axis")
    axis = np.linspace(-radius, radius, n_per_axis)
    pts = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    keep = np.einsum("ij,ij->i", pts, pts) <= radius**2 * (1 + 1e-12)
    return pts[keep]


def localize(
    G: Callable[[np.ndarray, np.ndarray], np.ndarray],
    beta: float,
    R: float,
    v: np.ndarray,
    pi: np.ndarray,
    n_a: int,
    n_b: int,
) -> GameHamiltonian:
    """Finite-action max-min representation of H(x,p) = G(x, pi p) + <p, v>.

    ``G(points (N, d), Q (K, d))`` returns the table of G(x_n, q_k), shaped
    (N, K) or broadcastable to it; it must satisfy (H1)-(H3) with the
    supplied beta.  The cost reads G over the whole b-grid in one call.
    ``pi`` is a linear map with pi(v) = 0.  The returned game uses
    cost(x, a, b) = -G(x, b) + beta <a, b> on ball grids A = B1, B = B_R and
    drift f(a) = pi^T(-beta a) - v.  The minus sign on v (and orientation
    direction e = -v/|v|) is what makes the enumerated max-min reproduce
    G(x, pi p) + <p, v> on |p| <= R as the grids refine, with margin
    delta = |v| exactly.
    """
    v = np.asarray(v, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    d = v.shape[0]
    if np.all(v == 0.0):
        raise ValueError("v must be nonzero")
    if np.any(pi @ v != 0.0):
        raise ValueError(f"pi(v) must vanish, got {pi @ v} (orientation certificate would fail)")
    A = ball_grid(1.0, n_a, d)
    B = ball_grid(R, n_b, d)
    for name, n, grid in (("n_a", n_a, A), ("n_b", n_b, B)):
        if len(grid) == 0:
            raise ValueError(
                f"{name}={n} leaves the {d}-D action grid empty: none of its {n}^{d} "
                f"points lies in the ball; use {name} >= 3")
    f = (-beta * A) @ pi - v            # row a: pi^T(-beta a) - v
    f_table = f[:, None, :]             # independent of b
    inner = beta * (A @ B.T)            # (n_a, n_b)

    def cost(pts: np.ndarray, env) -> np.ndarray:
        pts = np.atleast_2d(pts)
        gb = np.broadcast_to(np.asarray(G(pts, B), dtype=np.float64), (len(pts), len(B)))
        return -gb[:, None, :] + inner[None, :, :]

    e = -v / np.linalg.norm(v)
    return GameHamiltonian(
        actions_a=A,
        actions_b=B,
        f_table=f_table,
        base_cost=cost,
        lip_l=beta,
        l_inf=beta * (1.0 + R) + beta * R,     # sup|G| <= beta (1 + R) by (H1)
        orientation_hint=e,
    )


def verify_localization(
    gh: GameHamiltonian,
    G: Callable[[np.ndarray, np.ndarray], np.ndarray],
    R: float,
    v: np.ndarray,
    pi: np.ndarray,
    n_probes: int = 40,
) -> dict:
    """Sup over seeded random probes (x in [-1, 1]^d, |p| <= R) of
    |eval_H - (G(x, pi p) + <p, v>)|.

    The probe set always includes a momentum with |p| = R exactly (the
    representation holds on the closed ball).  Each probe is its own
    eval_H call: the game's cost table over all probes at once would hold
    probes x n_a x n_b entries.
    """
    rng = np.random.default_rng(0)
    v = np.asarray(v, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    d = v.shape[0]
    xs = rng.uniform(-1.0, 1.0, size=(n_probes, d))
    ps = rng.normal(size=(n_probes, d))
    ps /= np.linalg.norm(ps, axis=1, keepdims=True)
    ps *= R * rng.uniform(0, 1, size=(n_probes, 1)) ** (1.0 / d)
    ps[0] = ps[0] / max(np.linalg.norm(ps[0]), 1e-300) * R   # boundary probe
    errs = []
    for x, p in zip(xs, ps):
        g = np.broadcast_to(G(x.reshape(1, -1), (pi @ p).reshape(1, -1)), (1, 1))
        target = float(g[0, 0]) + float(p @ v)
        got = eval_H(gh, x, p, env=None)
        errs.append(abs(got - target))
    errs = np.asarray(errs)
    return {
        "max_error": float(errs.max()),
        "mean_error": float(errs.mean()),
        "n_probes": int(n_probes),
        "n_a": int(gh.n_a),
        "n_b": int(gh.n_b),
    }
