"""Monotone solvers for the game Cauchy problem on shrinking domains.

Two independent schemes solve  du/dt + H(x/eps, Du) = 0:

* semi-Lagrangian (the discrete dynamic-programming recursion): one step is
  v'(x) = min over b of max over a of { dt * cost(x/eps, a, b) + I[v](x + dt f(a,b)) }
  with monotone multilinear interpolation I.  The min-b/max-a ordering is
  the one-step collapse of "sup over nonanticipating strategies, inf over
  controls": the maximizing player's strategy sees b, so for each b the
  best a is chosen, and b minimizes over that.  Sign check: expanding I to
  first order gives v' = v - dt * max_b min_a { -cost - <f, Dv> }, i.e.
  v' = v - dt H(x, Dv).

* local Lax-Friedrichs: central differences plus numerical viscosity at
  speed sigma_i >= max |f_i|, monotone under the CFL bound, automatically
  substepped when the requested dt violates it.

Neither scheme applies boundary conditions: the active box shrinks each
step by exactly the domain of dependence (foot-point reach for SL, one
stencil ring per substep for LF), so reported values never read fabricated
data.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .env import DomainError
from .game import GameHamiltonian, eval_H_nodes, shift_momentum


class CFLError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    lo: tuple[float, ...]
    dx: float
    shape: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.shape)

    def axis(self, i: int) -> np.ndarray:
        return self.lo[i] + self.dx * np.arange(self.shape[i])

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(self.dim)]

    def nodes(self) -> np.ndarray:
        """All node coordinates, flattened to (N, d) in C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @classmethod
    def from_box(cls, lo, hi, dx: float) -> "Grid":
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        shape = tuple(int(round((h - l) / dx)) + 1 for l, h in zip(lo, hi))
        if any(n < 2 for n in shape):
            raise ValueError(f"degenerate grid: shape {shape}")
        return cls(lo=lo, dx=float(dx), shape=shape)


@dataclass
class Field:
    """Grid function at one time, valid only on the active index window.

    ``values`` is (*grid.shape) for one realization, or (M, *grid.shape)
    for a batch of realizations solved together.
    """

    grid: Grid
    t: float
    values: np.ndarray
    active: tuple[tuple[int, int], ...]    # per-axis [lo, hi) index bounds

    def active_slices(self) -> tuple[slice, ...]:
        return tuple(slice(lo, hi) for lo, hi in self.active)

    def common_slices(self, other: "Field") -> tuple[slice, ...]:
        """Index slices of the nodes active in both this field and other."""
        return tuple(slice(max(a[0], b[0]), min(a[1], b[1]))
                     for a, b in zip(self.active, other.active))

    def active_values(self) -> np.ndarray:
        return self.values[(Ellipsis,) + self.active_slices()]

    def active_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([self.grid.lo[i] + self.grid.dx * self.active[i][0]
                       for i in range(self.grid.dim)])
        hi = np.array([self.grid.lo[i] + self.grid.dx * (self.active[i][1] - 1)
                       for i in range(self.grid.dim)])
        return lo, hi

    def value_at(self, x):
        """Multilinear interpolation; refuses to read outside the active box.

        ``x`` is one point (d,), giving a float, or points (n, d), giving
        (n,); a batched field puts its realization axis first.  Each value
        is accumulated from 0.0 over the cell corners in order.
        """
        g = self.grid
        x = np.asarray(x, dtype=np.float64)
        pts = x.reshape(-1, g.dim)
        idx = []
        wts = []
        for i in range(g.dim):
            k, w = _cell_and_weight((pts[:, i] - g.lo[i]) / g.dx)
            lo, hi = self.active[i]
            bad = (k < lo) | (k + (w > 0.0) > hi - 1)
            if np.any(bad):
                alo, ahi = self.active_box()
                raise DomainError(
                    f"probe {pts[bad][0]} outside active box [{alo}, {ahi}] at t={self.t}; "
                    f"enlarge the solve box margin"
                )
            idx.append(k)
            wts.append(w)
        # a corner that steps along an axis where the point sits on a node
        # (w = 0) is skipped: it adds +0.0, which leaves the sum unchanged,
        # and reads node k so that its index stays in bounds
        out = 0.0
        for corner in itertools.product((0, 1), repeat=g.dim):
            weight = 1.0
            live = True
            for i, c in enumerate(corner):
                weight = weight * (wts[i] if c else 1.0 - wts[i])
                if c:
                    live = live & (wts[i] > 0.0)
            node = tuple(idx[i] + (corner[i] & live) for i in range(g.dim))
            out = out + np.where(live, weight * self.values[(Ellipsis,) + node], 0.0)
        if x.ndim <= 1:
            out = out[..., 0]
            return float(out) if out.ndim == 0 else out
        return out


def _cell_and_weight(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and in-cell weight of positions s given in cells.

    Positions within 1e-12 of a node snap onto it (weight 0).
    """
    k = np.floor(s)
    w = s - k
    w = np.where(w < 1e-12, 0.0, w)
    top = w > 1 - 1e-12
    return np.where(top, k + 1, k).astype(np.intp), np.where(top, 0.0, w)


def linear_datum(theta) -> Callable[[np.ndarray], np.ndarray]:
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))

    def g(pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(pts) @ theta

    return g


def zero_datum(pts: np.ndarray) -> np.ndarray:
    return np.zeros(np.atleast_2d(pts).shape[0])


@dataclass(frozen=True)
class SolveConfig:
    scheme: str                       # "semi-lagrangian" | "lax-friedrichs"
    dt: float
    dx: float
    T: float
    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    epsilon: float = 1.0
    record_times: tuple[float, ...] = ()
    lf_substep: bool = True           # split dt to satisfy the CFL bound
    cfl_limit: float = 0.9

    def validate(self) -> None:
        if self.scheme not in ("semi-lagrangian", "lax-friedrichs"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name, val in (("dt", self.dt), ("dx", self.dx), ("T", self.T),
                          ("epsilon", self.epsilon)):
            if val <= 0:
                raise ValueError(f"{name} must be positive, got {val}")


@dataclass
class SolveResult:
    final: Field
    snapshots: dict[float, Field] = field(default_factory=dict)
    telemetry: list[dict] = field(default_factory=list)

    def at_time(self, t: float) -> Field:
        for rt, f in self.snapshots.items():
            if abs(rt - t) < 1e-9:
                return f
        raise KeyError(f"no snapshot at t={t}; recorded {sorted(self.snapshots)}")


# ---------------------------------------------------------------------------
# shared plumbing


def _precompute_cost(gh: GameHamiltonian, env, grid: Grid, eps: float) -> np.ndarray:
    """Cost table over all grid nodes, pair-major: (n_a * n_b, *shape).

    A batched environment puts its realization axis after the pairs:
    (n_a * n_b, M, *shape).  A transposed view of the accessor's
    (..., N, n_a, n_b) table, not a copy.
    """
    pts = grid.nodes()
    lead = () if env is None else env.batch_shape
    c = np.broadcast_to(gh.cost(pts / eps, env), lead + (len(pts), gh.n_a, gh.n_b))
    c = c.reshape(lead + (len(pts), -1))
    return np.moveaxis(c, -1, 0).reshape((-1,) + lead + grid.shape)


def _steps_and_records(cfg: SolveConfig) -> tuple[int, dict[int, float]]:
    n_steps = int(round(cfg.T / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ValueError(f"T={cfg.T} is not an integer multiple of dt={cfg.dt}")
    records: dict[int, float] = {}
    for rt in cfg.record_times:
        k = int(round(rt / cfg.dt))
        if abs(k * cfg.dt - rt) > 1e-9 * max(1.0, cfg.T) or not 0 <= k <= n_steps:
            raise ValueError(f"record time {rt} not on the time grid (dt={cfg.dt})")
        records[k] = rt
    return n_steps, records


def reach(f: np.ndarray, scheme: str, dt: float, dx: float,
          cfl_limit: float = SolveConfig.cfl_limit) -> tuple[np.ndarray, np.ndarray]:
    """Cells the active window sheds per step, (below, above) on each axis.

    This is the scheme's discrete domain of dependence for the velocities
    f (pairs, d): an SL step reads its foot points up to ceil(dt f / dx)
    cells away, an LF step one stencil ring per substep.
    """
    if scheme == "semi-lagrangian":
        k, w = _cell_and_weight(dt * f / dx)
        return np.maximum(0, -k).max(axis=0), np.maximum(0, k + (w > 0.0)).max(axis=0)
    rings = np.full(f.shape[1], lf_substeps(np.abs(f).max(axis=0), dt, dx, cfl_limit))
    return rings, rings


@dataclass(frozen=True)
class _Window:
    """The time grid of a solve and how its active window shrinks."""

    cfg: SolveConfig
    scheme: str
    grid: Grid
    n_steps: int
    records: dict[int, float]
    shed_lo: tuple[int, ...]
    shed_hi: tuple[int, ...]


def _plan_window(cfg: SolveConfig, f: np.ndarray, scheme: str) -> _Window:
    """The window of a solve of cfg; refuses a box it would exhaust before T."""
    grid = Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx)
    n_steps, records = _steps_and_records(cfg)
    below, above = reach(f, scheme, cfg.dt, cfg.dx, cfg.cfl_limit)
    for i in range(grid.dim):
        total = n_steps * int(below[i] + above[i])
        if total >= grid.shape[i] - 1:
            need = (total + 2) * cfg.dx
            span = (grid.shape[i] - 1) * cfg.dx
            raise DomainError(
                f"active box exhausted before T={cfg.T} along axis {i}: "
                f"box span {span:.4g} < required {need:.4g} ({below[i]} + {above[i]} "
                f"cells shed per step); add margin >= {need - span:.4g}"
            )
    return _Window(cfg=cfg, scheme=scheme, grid=grid, n_steps=n_steps, records=records,
                   shed_lo=tuple(int(v) for v in below), shed_hi=tuple(int(v) for v in above))


def _march(win: _Window, v: np.ndarray, step, **telemetry) -> SolveResult:
    """Run the time steps of win, shrinking the active window each step.

    v holds the datum on the whole grid, after any leading realization axes.
    step(v, active) maps the values on the current window to those on the
    next one, whose [lo, hi) index bounds are ``active``.
    """
    grid = win.grid
    active = [(0, n) for n in grid.shape]

    def snapshot(k: int) -> Field:
        values = np.full(v.shape[:v.ndim - grid.dim] + grid.shape, np.nan)
        values[(Ellipsis,) + tuple(slice(lo, hi) for lo, hi in active)] = v
        return Field(grid=grid, t=k * win.cfg.dt, values=values, active=tuple(active))

    result = SolveResult(final=None)  # type: ignore[arg-type]
    if 0 in win.records:
        result.snapshots[win.records[0]] = snapshot(0)
    for k in range(1, win.n_steps + 1):
        active = [(lo + s_lo, hi - s_hi) for (lo, hi), s_lo, s_hi
                  in zip(active, win.shed_lo, win.shed_hi)]
        v = step(v, active)
        if k in win.records:
            result.snapshots[win.records[k]] = snapshot(k)
    result.final = snapshot(win.n_steps)
    result.telemetry.append({"scheme": win.scheme, "steps": win.n_steps, **telemetry,
                             "active_cells": [list(a) for a in active]})
    return result


# ---------------------------------------------------------------------------
# semi-Lagrangian


@dataclass(frozen=True)
class SLPlan(_Window):
    """The SL stencil of one game and config, shared by all realizations.

    Foot-point offsets, and so the cells the active box sheds per step,
    depend only on (f, dt, dx) (the scheme's domain of dependence); the
    realizations of a campaign differ only in their cost tables.
    """

    n_a: int
    n_b: int
    # the distinct interpolation stencils, each its corners in order:
    # (weight, offset), the offset in cells from a node of the next window
    # to its source in the current one
    corners: tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]
    # per action pair, the index of its stencil in ``corners``
    stencil: tuple[int, ...]

    @property
    def cost_bytes(self) -> int:
        """Bytes of one realization's cost table."""
        return 8 * len(self.stencil) * math.prod(self.grid.shape)


def sl_plan(gh: GameHamiltonian, cfg: SolveConfig) -> SLPlan:
    """The stencil for cfg; refuses a box the active window would exhaust.

    Pairs with equal velocities share one stencil (saddle games repeat
    velocities, a localized game's do not depend on b).
    """
    cfg.validate()
    win = _plan_window(cfg, gh.f_pairs, "semi-lagrangian")
    d = win.grid.dim
    k, w = _cell_and_weight(cfg.dt * gh.f_pairs / cfg.dx)    # foot-point offsets per pair
    index: dict[tuple, int] = {}
    stencil = []
    for kp, wp in zip(k, w):
        terms = []
        for corner in itertools.product(*[(0, 1) if wp[i] > 0.0 else (0,) for i in range(d)]):
            weight = 1.0
            for i, c in enumerate(corner):
                weight *= wp[i] if c else (1.0 - wp[i]) if wp[i] > 0.0 else 1.0
            terms.append((weight, tuple(int(win.shed_lo[i] + kp[i] + c)
                                        for i, c in enumerate(corner))))
        stencil.append(index.setdefault(tuple(terms), len(index)))
    return SLPlan(**vars(win), n_a=gh.n_a, n_b=gh.n_b, corners=tuple(index),
                  stencil=tuple(stencil))


def sl_step_cost(gh: GameHamiltonian, env, plan: SLPlan) -> np.ndarray:
    """Cost one SL step accrues at each node, dt * cost.

    (pairs, *shape) for one realization, (pairs, M, *shape) for a batched
    environment: the stacked table ``solve_sl_batch`` takes.
    """
    cost = _precompute_cost(gh, env, plan.grid, plan.cfg.epsilon)
    # C order: the view is pair-fastest, but the step loop reads one pair's plane at a time
    return np.multiply(cost, plan.cfg.dt, order="C")


def solve_sl_batch(plan: SLPlan, step_cost: np.ndarray,
                   g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    """The SL recursion for M realizations at once.

    ``step_cost`` is the (pairs, M, *shape) ``sl_step_cost`` table of a
    batched environment; all realizations start from the datum g.  Every
    Field of the result carries the realization axis first.  Each
    realization's numbers are those of its own solve: the recursion is
    elementwise along M.
    """
    grid = plan.grid
    M = step_cost.shape[1]
    users = [[] for _ in plan.corners]              # the pairs that read each stencil
    for j, s in enumerate(plan.stencil):
        users[s].append(j)

    def step(v: np.ndarray, active) -> np.ndarray:
        out_sl = (slice(None),) + tuple(slice(lo, hi) for lo, hi in active)
        size = tuple(hi - lo for lo, hi in active)
        cand = np.empty((len(plan.stencil), M) + size)
        for terms, pairs in zip(plan.corners, users):
            interp = None
            for weight, off in terms:
                src = (slice(None),) + tuple(slice(o, o + n) for o, n in zip(off, size))
                term = v[src] if weight == 1.0 else weight * v[src]
                interp = term if interp is None else interp + term
            for j in pairs:
                np.add(step_cost[j][out_sl], interp, out=cand[j])
        return cand.reshape(plan.n_a, plan.n_b, M, *size).max(axis=0).min(axis=0)

    v = np.broadcast_to(
        np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape),
        (M,) + grid.shape)
    return _march(plan, v, step, stencils=len(plan.corners))


def solve_sl(gh: GameHamiltonian, env, cfg: SolveConfig,
             g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    """One realization: a batch of one."""
    plan = sl_plan(gh, cfg)
    res = solve_sl_batch(plan, sl_step_cost(gh, env, plan)[:, None], g)
    for f in [res.final, *res.snapshots.values()]:
        f.values = f.values[0]
    return res


# ---------------------------------------------------------------------------
# Lax-Friedrichs


def lf_substeps(sigma: np.ndarray, dt: float, dx: float, cfl_limit: float) -> int:
    """Number of substeps needed so dt_sub meets the CFL bound; sigma bounds |f| per axis."""
    speed = float(np.sum(2.0 * sigma))  # |H_p| + viscosity speed
    if speed == 0.0:
        return 1
    return max(1, int(math.ceil(dt * speed / (cfl_limit * dx))))


def solve_lf(gh: GameHamiltonian, env, cfg: SolveConfig,
             g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    cfg.validate()
    sigma = np.abs(gh.f_pairs).max(axis=0)            # per-axis viscosity speed
    if lf_substeps(sigma, cfg.dt, cfg.dx, cfg.cfl_limit) > 1 and not cfg.lf_substep:
        raise CFLError(
            f"CFL violated: dt*({np.sum(2 * sigma)})/dx = "
            f"{cfg.dt * np.sum(2 * sigma) / cfg.dx:.3g} > {cfg.cfl_limit}; "
            f"enable substepping or reduce dt"
        )
    win = _plan_window(cfg, gh.f_pairs, "lax-friedrichs")
    cost = np.ascontiguousarray(_precompute_cost(gh, env, win.grid, cfg.epsilon))
    cost = cost.reshape(gh.n_a, gh.n_b, *win.grid.shape)

    def ham(window: tuple[slice, ...], P: np.ndarray) -> np.ndarray:
        return eval_H_nodes(gh, cost[(slice(None), slice(None)) + window], P)

    return _lf_core(ham, sigma, win, g)


def solve_effective(H_of_p: Callable[[np.ndarray], np.ndarray], speed: float,
                    cfg: SolveConfig,
                    g: Callable[[np.ndarray], np.ndarray]) -> SolveResult:
    """Constant-coefficient solve  du/dt + Hbar(Du) = 0  via Lax-Friedrichs.

    ``speed`` must bound |dHbar/dp| per axis.
    """
    sigma = np.full(len(cfg.box_lo), float(speed))
    win = _plan_window(cfg, sigma[None, :], "lax-friedrichs")

    def ham(window, P):
        return np.asarray(H_of_p(P), dtype=np.float64)

    return _lf_core(ham, sigma, win, g)


def _lf_core(ham, sigma, win: _Window, g) -> SolveResult:
    """The LF steps of win; ham(window, P) gives H at the gradients P (N, d).

    Each substep writes P, the viscosity term and the new values into
    buffers sized for the first substep, whose leading parts shrink with
    the window.
    """
    grid = win.grid
    d = grid.dim
    n_sub = win.shed_lo[0]                 # one stencil ring per substep
    dt_sub = win.cfg.dt / n_sub
    nu = sigma * grid.dx / 2.0    # artificial viscosity coefficient per axis
    inner = (slice(1, -1),) * d
    n_max = math.prod(n - 2 for n in grid.shape)
    P_buf, visc_buf, term_buf = np.empty(n_max * d), np.empty(n_max), np.empty(n_max)
    v_bufs = [np.empty(n_max), np.empty(n_max)]   # a substep reads one and writes the other

    def step(v: np.ndarray, active) -> np.ndarray:
        for rings_left in range(n_sub - 1, -1, -1):
            shape = tuple(n - 2 for n in v.shape)
            size = math.prod(shape)
            P = P_buf[:size * d].reshape(shape + (d,))
            visc = visc_buf[:size].reshape(shape)
            term = term_buf[:size].reshape(shape)
            visc[...] = 0.0
            for i in range(d):
                up = inner[:i] + (slice(2, None),) + inner[i + 1:]
                dn = inner[:i] + (slice(None, -2),) + inner[i + 1:]
                np.subtract(v[up], v[dn], out=P[..., i])
                np.divide(P[..., i], 2.0 * grid.dx, out=P[..., i])
                np.multiply(v[inner], 2.0, out=term)
                np.subtract(v[up], term, out=term)
                np.add(term, v[dn], out=term)
                np.multiply(term, nu[i], out=term)
                np.divide(term, grid.dx**2, out=term)
                np.add(visc, term, out=visc)
            window = tuple(slice(lo - rings_left, hi + rings_left) for lo, hi in active)
            H = ham(window, P.reshape(-1, d)).reshape(shape)
            new = v_bufs[0][:size].reshape(shape)
            np.multiply(H, dt_sub, out=new)
            np.subtract(v[inner], new, out=new)
            np.multiply(visc, dt_sub, out=visc)
            np.add(new, visc, out=new)
            v_bufs.reverse()
            v = new
        return v

    v = np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape)
    return _march(win, v, step, substeps_per_step=n_sub)


def solve(gh: GameHamiltonian, env, cfg: SolveConfig,
          g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    if cfg.scheme == "semi-lagrangian":
        return solve_sl(gh, env, cfg, g)
    return solve_lf(gh, env, cfg, g)


# ---------------------------------------------------------------------------
# deterministic PDE sanity checks


def check_lipschitz(snapshots: list[Field], beta1: float, beta3: float,
                    lip_g: float, tol_factor: float = 10.0) -> dict:
    """Discrete space/time difference quotients against the a-priori bounds.

    Space bound: beta3 * t + Lip(g).  Time bound: beta1 * (1 + Lip(g)).
    Tolerance tol_factor * dx absorbs first-order scheme error.
    """
    snaps = sorted(snapshots, key=lambda f: f.t)
    dx = snaps[0].grid.dx
    tol = tol_factor * dx
    max_space = 0.0
    space_ok = True
    for f in snaps:
        av = f.active_values()
        bound = beta3 * f.t + lip_g
        for axis in range(av.ndim):
            if av.shape[axis] < 2:
                continue
            q = np.abs(np.diff(av, axis=axis)) / dx
            mq = float(q.max()) if q.size else 0.0
            max_space = max(max_space, mq)
            if mq > bound + tol:
                space_ok = False
    max_time = 0.0
    time_ok = True
    tbound = beta1 * (1.0 + lip_g)
    for f0, f1 in zip(snaps, snaps[1:]):
        sl = f0.common_slices(f1)
        q = np.abs(f1.values[sl] - f0.values[sl]) / (f1.t - f0.t)
        mq = float(q.max()) if q.size else 0.0
        max_time = max(max_time, mq)
        if mq > tbound + tol:
            time_ok = False
    return {
        "max_space_quotient": max_space,
        "space_bound_final": beta3 * snaps[-1].t + lip_g,
        "space_ok": space_ok,
        "max_time_quotient": max_time,
        "time_bound": tbound,
        "time_ok": time_ok,
        "tolerance": tol,
    }


def check_comparison(gh: GameHamiltonian, env, cfg: SolveConfig,
                     g_upper, g_lower, tol: float = 1e-10) -> dict:
    """Monotone schemes preserve ordering: max(u - v) never increases."""
    times = tuple(sorted(set(cfg.record_times) | {cfg.T}))
    cfg2 = replace(cfg, record_times=times)
    ru = solve(gh, env, cfg2, g_upper)
    rv = solve(gh, env, cfg2, g_lower)
    grid = ru.final.grid
    g0u = np.asarray(g_upper(grid.nodes()), dtype=np.float64)
    g0l = np.asarray(g_lower(grid.nodes()), dtype=np.float64)
    gap0 = float(np.max(g0u - g0l))
    ok = True
    worst = -np.inf
    for t in times:
        fu, fv = ru.at_time(t), rv.at_time(t)
        sl = fu.common_slices(fv)
        gap = float(np.max(fu.values[sl] - fv.values[sl]))
        worst = max(worst, gap)
        if gap > gap0 + tol:
            ok = False
    return {"initial_gap": gap0, "max_gap": worst, "ok": ok}


def check_scaling(gh: GameHamiltonian, env, theta, eps: float,
                  cfg: SolveConfig,
                  g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> dict:
    """u_eps(eps t, eps x) == eps * u(t, x) on matched grids, for u_theta.

    Both solves run the game shifted by theta (``shift_momentum``).

    The eps-grid is the unit grid scaled by eps, so both runs traverse the
    same discrete recursion; for eps a power of two the identity is exact
    to rounding.
    """
    gh = shift_momentum(gh, theta)
    base = solve(gh, env, replace(cfg, record_times=(cfg.T,)), g)
    cfg_eps = replace(
        cfg,
        dt=cfg.dt * eps,
        dx=cfg.dx * eps,
        T=cfg.T * eps,
        epsilon=cfg.epsilon * eps,
        box_lo=tuple(b * eps for b in cfg.box_lo),
        box_hi=tuple(b * eps for b in cfg.box_hi),
        record_times=(cfg.T * eps,),
    )

    def g_eps(pts):
        return eps * np.asarray(g(np.atleast_2d(pts) / eps), dtype=np.float64)

    scaled = solve(gh, env, cfg_eps, g_eps)
    fb, fs = base.final, scaled.final
    sl = fb.common_slices(fs)
    diff = np.abs(fs.values[sl] - eps * fb.values[sl])
    return {"max_error": float(diff.max()), "nodes_compared": int(diff.size)}
