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
from typing import Callable, NamedTuple

import numpy as np

from .env import as_points


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
    """Finite-action game data: the velocities, the cost and its certificates.

    ``base_cost(points, env) -> (N, n_a, n_b)`` returns the running cost at
    each point, points (N, d) or an ``env.TensorGrid``'s nodes, for every
    action pair (broadcastable shapes allowed): a
    fresh array, which the solvers may overwrite, or a read-only one.  A
    static pair table, such as a folded momentum shift <f, theta>, is
    ``shift_table``, added to it so the solver inner loop sees one accessor
    call.  The actions are their indices: row a of ``f_table`` is action a.
    """

    f_table: np.ndarray             # (n_a, n_b, d), broadcastable over b
    n_b: int
    base_cost: Callable[[np.ndarray, object], np.ndarray]
    lip_l: float
    l_inf: float                    # bound for base_cost, without shift_table
    orientation_hint: np.ndarray | None = None
    shift_table: np.ndarray | None = None   # (n_a, n_b) or broadcastable

    @property
    def dim(self) -> int:
        return self.f_table.shape[-1]

    @property
    def n_a(self) -> int:
        return self.f_table.shape[0]

    @property
    def f_pairs(self) -> np.ndarray:
        """Velocity of every action pair: (n_a * n_b, d)."""
        return np.broadcast_to(self.f_table, (self.n_a, self.n_b, self.dim)).reshape(-1, self.dim)

    @property
    def f_inf(self) -> float:
        return float(np.max(np.linalg.norm(self.f_table, axis=-1)))

    def cost(self, pts, env) -> np.ndarray:
        """Running cost table (N, n_a, n_b), shift table included, at points
        (N, d) or at the nodes of an ``env.TensorGrid``."""
        c = self.base_cost(pts, env)
        if self.shift_table is not None:
            c = c + self.shift_table
        return c


def eval_H(gh: GameHamiltonian, x: np.ndarray, p: np.ndarray, env=None) -> float:
    """Exact max-min Hamiltonian value at a single (x, p).

    The whole (n_a, n_b) table -cost - <f, p> is built and reduced with
    numpy's reductions, min over a then max over b.  A localized game has
    up to about 10^7 pairs, more than a loop over the pairs can take.  The
    drift is ``eval_H_nodes``'s, so the two agree at every node, but for
    the sign of a zero H reached with both signs: numpy reduces a
    contiguous run of more than 8 entries (the b axis, or the a axis of a
    game with one b) in another order than the pair-by-pair fold.
    """
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    p = np.asarray(p, dtype=np.float64).reshape(1, -1)
    f = gh.f_table
    # the negated table is this call's own, so it also takes the difference
    neg = np.negative(np.broadcast_to(gh.cost(x, env)[0], (gh.n_a, gh.n_b)))
    # one node and many velocities: the gradient is _drift's one row and the
    # velocities its nodes, as a product's bits do not depend on its order
    rows = f.reshape(-1, gh.dim)
    drift = _drift(p, rows, velocities(gh).axes, np.empty((1, len(rows))), np.empty(len(rows)))
    np.subtract(neg, drift.reshape(f.shape[:2]), out=neg)
    return float(neg.min(axis=0).max(axis=0))


class Velocities(NamedTuple):
    """How a game's action pairs move, found once per solve."""

    sigma: np.ndarray           # (d,): max |f_i| over the pairs, per axis
    axes: tuple[int, ...]       # the moving axes, in order: sigma_i > 0
    rows: np.ndarray            # (R, d): the distinct velocities, bit for bit
    row_of: np.ndarray          # (n_a, n_b): the row of each pair's velocity


def velocities(gh: GameHamiltonian) -> Velocities:
    """Each axis's top speed, the moving axes and the distinct velocity rows.

    Pairs with the same velocity share one drift plane: the saddle game's
    four pairs have two velocities, a localized game's do not depend on b.
    The rows are the distinct bit patterns (+0.0 and -0.0 are two) sorted as
    int64, found with a set (np.unique(axis=0) took about 60 us a call).
    """
    f = gh.f_table.reshape(-1, gh.dim)
    sigma = np.abs(f).max(axis=0)
    bits = [tuple(row) for row in f.view(np.int64).tolist()]
    index = {row: i for i, row in enumerate(sorted(set(bits)))}
    row_of = np.reshape([index[row] for row in bits], gh.f_table.shape[:2])
    return Velocities(sigma, tuple(np.flatnonzero(sigma).tolist()),
                      np.array(list(index), dtype=np.int64).view(np.float64),
                      np.broadcast_to(row_of, (gh.n_a, gh.n_b)))


def _drift(f: np.ndarray, P: np.ndarray, axes: tuple[int, ...], out: np.ndarray,
           scratch: np.ndarray) -> np.ndarray:
    """<f, p> of velocities f (R, d) at gradients P (N, d), into out (R, N).

    f_i p_i summed over the moving ``axes`` in axis order, then + 0.0.  For
    finite P that is exactly 0 + the sum over every axis, signed zeros
    included: a zero-speed axis adds 0 * p_i = +-0, which changes no
    nonzero sum, and the +0.0 start turns a drift of -0 into +0, as a BLAS
    product does.  So a node's drift has the same bits however the nodes
    are grouped into calls.  The products of a later axis go through
    scratch (N,), one row at a time, so the call allocates nothing.
    """
    if not axes:
        out.fill(0.0)
        return out
    np.multiply(f[:, axes[0], None], P[:, axes[0]], out=out)
    for i in axes[1:]:
        for row, f_i in zip(out, f[:, i]):
            np.add(row, np.multiply(f_i, P[:, i], out=scratch), out=row)
    return np.add(out, 0.0, out=out)


def _aligned_planes(k: int, n: int) -> np.ndarray:
    """k float64 planes of n values, (k, n), each starting on a 64-byte boundary.

    On an AVX-512 host with numpy 2.4, subtract into an output that starts
    on a cache line takes about 0.19 ns an element, and about 0.39 ns into
    one that does not; the allocator aligns only to 16 bytes.  So the
    planes are the rows of one buffer, padded to a multiple of 8 values,
    over-allocated by 8 and sliced from its first cache line (an empty
    plane still takes 8 values: numpy does not move the pointer of an
    empty slice).
    """
    stride = max(8, -(-n // 8) * 8)
    buf = np.empty(k * stride + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + k * stride].reshape(k, stride)[:, :n]


def eval_H_nodes(gh: GameHamiltonian, neg_cost: np.ndarray, P: np.ndarray,
                 vel: Velocities, planes: np.ndarray) -> np.ndarray:
    """H at N nodes: max over b of min over a of { -cost - <f, p> }.

    neg_cost: the negated cost -cost, (n_a, n_b, *nodes), its trailing axes
    holding the N nodes in C order.  A pair's plane that is one contiguous
    run (as ``solve_lf``'s segment windows are for a game that moves along
    axis 0 alone) runs as one 1-D loop per ufunc, a strided window as one
    short loop per row.  P: (N, d) gradients, of which only the columns of
    the moving axes are read (a transposed (d, N) array of per-axis planes
    makes each column contiguous).  Returns (N,), a view of planes.

    ``vel`` is ``velocities(gh)``.  One drift plane is computed per distinct
    velocity (see ``_drift``).  Then H is folded pair by pair: for each b in
    order, -cost - drift of each a in order is folded into one column with
    np.minimum(column, next), and each column into H with np.maximum(H,
    column).  That is the elementwise order of ``.min(axis=0).max(axis=0)``
    over the (n_a, n_b, N) table, and numpy breaks a tie of +-0 toward the
    second operand in the fold and in the reductions alike, so the bits,
    signed zeros included, are those of the reductions, without the table.

    ``planes`` is the caller's (R + 3, >= N) array from ``_aligned_planes``,
    R = len(vel.rows): the R drift planes, then H, the fold's column and
    its scratch, each starting on a 64-byte boundary, which the fold's
    ufuncs run fastest into.  What it holds on entry is never read; the
    call overwrites it and allocates nothing, so ``solve_lf`` allocates the
    planes once per solve, for its first and largest substep.
    """
    nodes = neg_cost.shape[2:]
    R = len(vel.rows)
    planes = planes[:, :len(P)]
    # the fold's scratch is free until the fold: the drift's scratch too
    drift = _drift(vel.rows, P, vel.axes, planes[:R], planes[R + 2]).reshape((R,) + nodes)
    H, column, tmp = (plane.reshape(nodes) for plane in planes[R:R + 3])
    for b in range(gh.n_b):
        col = column if b else H
        for a in range(gh.n_a):
            diff = np.subtract(neg_cost[a, b], drift[vel.row_of[a, b]], out=tmp if a else col)
            if a:
                np.minimum(col, diff, out=col)
        if b:
            np.maximum(H, col, out=H)
    return H.reshape(-1)


def shift_momentum(gh: GameHamiltonian, theta: np.ndarray) -> GameHamiltonian:
    """Fold the shift cost -> cost + <f(a,b), theta> into the accessor.

    Satisfies eval_H(shifted, x, p) == eval_H(original, x, theta + p).
    """
    add = gh.f_table @ np.asarray(theta, dtype=np.float64)     # (n_a, n_b) or (n_a, 1)
    return replace(gh, shift_table=add if gh.shift_table is None else gh.shift_table + add)


def certify_constants(gh: GameHamiltonian) -> HamiltonianConstants:
    """Compute (beta, delta, e, ...) making (H1)-(H3) hold for eval_H.

    The direction e is the game's ``orientation_hint``; the cost
    certificates are the game's own, so a field game must first have them
    bound from its environment.  The cost bound ``l_inf`` is the game's
    bound on ``base_cost`` plus max|shift_table| when a shift table is set:
    sound for any static table.  ``delta`` is the achieved margin
    min <f(a,b), e>, reported as-is; a nonpositive value marks the game as
    not oriented (callers that need orientation must refuse to run).
    """
    if np.isnan(gh.lip_l) or np.isnan(gh.l_inf):
        raise ValueError("the game's cost certificates (lip_l, l_inf) are unset; "
                         "bind them from the environment with families.bind_env_constants")
    if gh.orientation_hint is None:
        raise ValueError("no orientation direction: set the game's orientation_hint")
    e = np.asarray(gh.orientation_hint, dtype=np.float64)
    e = e / np.linalg.norm(e)
    delta = float(np.min(gh.f_pairs @ e))
    f_inf, l_inf = gh.f_inf, gh.l_inf
    if gh.shift_table is not None:
        l_inf += float(np.max(np.abs(gh.shift_table)))
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

    def cost(pts, env) -> np.ndarray:
        pts = as_points(pts)
        gb = np.broadcast_to(np.asarray(G(pts, B), dtype=np.float64), (len(pts), len(B)))
        return -gb[:, None, :] + inner[None, :, :]

    e = -v / np.linalg.norm(v)
    return GameHamiltonian(
        f_table=f_table,
        n_b=len(B),
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
) -> dict:
    """Sup over 40 seeded random probes (x in [-1, 1]^d, |p| <= R) of
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
    n_probes = 40
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
        "n_probes": n_probes,
        "n_a": int(gh.n_a),
        "n_b": int(gh.n_b),
    }
