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
from .game import GameHamiltonian, eval_H_nodes


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
    """Cost table over all grid nodes: (n_a, n_b, *shape)."""
    pts = grid.nodes()
    c = gh.cost(pts / eps, env)                   # (N, n_a, n_b) broadcastable
    c = np.broadcast_to(c, (pts.shape[0], gh.n_a, gh.n_b))
    return np.ascontiguousarray(np.moveaxis(c, 0, -1)).reshape(
        gh.n_a, gh.n_b, *grid.shape)


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


def _snapshot(grid: Grid, t: float, v: np.ndarray, active) -> Field:
    f = Field(grid=grid, t=t, values=v.copy(), active=tuple(active))
    return f


# ---------------------------------------------------------------------------
# semi-Lagrangian


@dataclass(frozen=True)
class SLPlan:
    """The SL stencil of one game and config, shared by all realizations.

    Foot-point offsets, and so the cells the active box sheds per step,
    depend only on (f, dt, dx) (the scheme's domain of dependence); the
    realizations of a campaign differ only in their cost tables.
    """

    cfg: SolveConfig
    grid: Grid
    n_steps: int
    records: dict[int, float]
    n_a: int
    n_b: int
    # per action pair, the interpolation corners in order: (weight, offset),
    # the offset in cells from a node of the next window to its source in
    # the current one
    corners: tuple[tuple[tuple[float, tuple[int, ...]], ...], ...]
    shrink_lo: tuple[int, ...]
    shrink_hi: tuple[int, ...]

    @property
    def cost_bytes(self) -> int:
        """Bytes of one realization's cost table."""
        return 8 * len(self.corners) * math.prod(self.grid.shape)


def sl_plan(gh: GameHamiltonian, cfg: SolveConfig) -> SLPlan:
    """The stencil for cfg; refuses a box the active window would exhaust."""
    cfg.validate()
    grid = Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx)
    d = grid.dim
    n_steps, records = _steps_and_records(cfg)

    f_full = np.broadcast_to(gh.f_table, (gh.n_a, gh.n_b, d)).reshape(-1, d)
    k, w = _cell_and_weight(cfg.dt * f_full / cfg.dx)    # foot-point offsets per pair
    taps = (w > 0.0).astype(int)
    shrink_lo = np.maximum(0, -k).max(axis=0)
    shrink_hi = np.maximum(0, k + taps).max(axis=0)

    total_lo = shrink_lo * n_steps
    total_hi = shrink_hi * n_steps
    for i in range(d):
        if total_lo[i] + total_hi[i] >= grid.shape[i] - 1:
            need = (total_lo[i] + total_hi[i] + 2) * cfg.dx
            span = (grid.shape[i] - 1) * cfg.dx
            raise DomainError(
                f"active box exhausted before T={cfg.T} along axis {i}: "
                f"box span {span:.4g} < required {need:.4g}; add margin "
                f">= {need - span:.4g}"
            )

    corners = []
    for kp, wp, tp in zip(k, w, taps):
        terms = []
        for corner in itertools.product(*[(0, 1) if tp[i] else (0,) for i in range(d)]):
            weight = 1.0
            for i, c in enumerate(corner):
                weight *= wp[i] if c else (1.0 - wp[i]) if tp[i] else 1.0
            terms.append((weight, tuple(int(shrink_lo[i] + kp[i] + c)
                                        for i, c in enumerate(corner))))
        corners.append(tuple(terms))
    return SLPlan(cfg=cfg, grid=grid, n_steps=n_steps, records=records,
                  n_a=gh.n_a, n_b=gh.n_b, corners=tuple(corners),
                  shrink_lo=tuple(int(v) for v in shrink_lo),
                  shrink_hi=tuple(int(v) for v in shrink_hi))


def sl_step_cost(gh: GameHamiltonian, env, plan: SLPlan, out=None) -> np.ndarray:
    """Cost one SL step accrues at each node, dt * cost: (pairs, *shape)."""
    cost = _precompute_cost(gh, env, plan.grid, plan.cfg.epsilon)
    return np.multiply(cost.reshape(-1, *plan.grid.shape), plan.cfg.dt, out=out)


def solve_sl_batch(plan: SLPlan, step_cost: np.ndarray,
                   g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    """The SL recursion for M realizations at once.

    ``step_cost`` stacks the realizations' ``sl_step_cost`` tables as
    (pairs, M, *shape); all start from the datum g.  Every Field of the
    result carries the realization axis first.  Each realization's numbers
    are those of its own solve: the recursion is elementwise along M.
    """
    grid = plan.grid
    M = step_cost.shape[1]
    v = np.broadcast_to(
        np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape),
        (M,) + grid.shape)
    active = [(0, n) for n in grid.shape]       # v holds only the active window

    def snapshot(step: int) -> Field:
        values = np.full((M,) + grid.shape, np.nan)
        values[(slice(None),) + tuple(slice(lo, hi) for lo, hi in active)] = v
        return Field(grid=grid, t=step * plan.cfg.dt, values=values, active=tuple(active))

    result = SolveResult(final=None)  # type: ignore[arg-type]
    if 0 in plan.records:
        result.snapshots[plan.records[0]] = snapshot(0)

    for step in range(1, plan.n_steps + 1):
        active = [(lo + s_lo, hi - s_hi) for (lo, hi), s_lo, s_hi
                  in zip(active, plan.shrink_lo, plan.shrink_hi)]
        out_sl = (slice(None),) + tuple(slice(lo, hi) for lo, hi in active)
        size = tuple(hi - lo for lo, hi in active)
        cand = np.empty((len(plan.corners), M) + size)
        for j, terms in enumerate(plan.corners):
            interp = None
            for weight, off in terms:
                src = (slice(None),) + tuple(slice(o, o + n) for o, n in zip(off, size))
                term = v[src] if weight == 1.0 else weight * v[src]
                interp = term if interp is None else interp + term
            np.add(step_cost[j][out_sl], interp, out=cand[j])
        v = cand.reshape(plan.n_a, plan.n_b, M, *size).max(axis=0).min(axis=0)
        if step in plan.records:
            result.snapshots[plan.records[step]] = snapshot(step)

    result.final = snapshot(plan.n_steps)
    result.telemetry.append({
        "scheme": "semi-lagrangian",
        "steps": plan.n_steps,
        "active_cells": [list(a) for a in active],
    })
    return result


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


def lf_substeps(gh_speed_per_axis: np.ndarray, cfg: SolveConfig) -> int:
    """Number of substeps needed so dt_sub meets the CFL bound."""
    speed = float(np.sum(2.0 * gh_speed_per_axis))  # |H_p| + viscosity speed
    if speed == 0.0:
        return 1
    return max(1, int(math.ceil(cfg.dt * speed / (cfg.cfl_limit * cfg.dx))))


def solve_lf(gh: GameHamiltonian, env, cfg: SolveConfig,
             g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    cfg.validate()
    grid = Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx)
    d = grid.dim
    n_steps, records = _steps_and_records(cfg)

    f_full = np.broadcast_to(gh.f_table, (gh.n_a, gh.n_b, d)).reshape(-1, d)
    sigma = np.abs(f_full).max(axis=0)            # per-axis viscosity speed

    n_sub = lf_substeps(sigma, cfg)
    if n_sub > 1 and not cfg.lf_substep:
        raise CFLError(
            f"CFL violated: dt*({np.sum(2 * sigma)})/dx = "
            f"{cfg.dt * np.sum(2 * sigma) / cfg.dx:.3g} > {cfg.cfl_limit}; "
            f"enable substepping or reduce dt"
        )
    dt_sub = cfg.dt / n_sub

    cost_flat = _precompute_cost(gh, env, grid, cfg.epsilon)   # (n_a, n_b, *shape)

    def ham(active_sl: tuple[slice, ...], P: np.ndarray) -> np.ndarray:
        c = cost_flat[(slice(None), slice(None)) + active_sl]
        c2 = c.reshape(gh.n_a, gh.n_b, -1)
        return eval_H_nodes(gh, np.moveaxis(c2, -1, 0), P)

    return _lf_core(ham, sigma, grid, cfg, g, n_steps, records, n_sub, dt_sub)


def solve_effective(H_of_p: Callable[[np.ndarray], np.ndarray], speed: float,
                    cfg: SolveConfig,
                    g: Callable[[np.ndarray], np.ndarray]) -> SolveResult:
    """Constant-coefficient solve  du/dt + Hbar(Du) = 0  via Lax-Friedrichs.

    ``speed`` must bound |dHbar/dp| per axis.
    """
    grid = Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx)
    d = grid.dim
    n_steps, records = _steps_and_records(cfg)
    sigma = np.full(d, float(speed))
    n_sub = lf_substeps(sigma, cfg)
    dt_sub = cfg.dt / n_sub

    def ham(active_sl, P):
        return np.asarray(H_of_p(P), dtype=np.float64)

    return _lf_core(ham, sigma, grid, cfg, g, n_steps, records, n_sub, dt_sub)


def _lf_core(ham, sigma, grid: Grid, cfg: SolveConfig, g, n_steps, records,
             n_sub: int, dt_sub: float) -> SolveResult:
    d = grid.dim
    total_rings = n_steps * n_sub
    for i in range(d):
        if 2 * total_rings >= grid.shape[i] - 1:
            need = (2 * total_rings + 2) * cfg.dx
            span = (grid.shape[i] - 1) * cfg.dx
            raise DomainError(
                f"active box exhausted before T={cfg.T} along axis {i}: "
                f"box span {span:.4g} < required {need:.4g} (one stencil ring "
                f"per substep, {n_sub} substeps/step); add margin "
                f">= {need - span:.4g}"
            )

    v = np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape)
    active = [(0, grid.shape[i]) for i in range(d)]
    result = SolveResult(final=None)  # type: ignore[arg-type]
    if 0 in records:
        result.snapshots[records[0]] = _snapshot(grid, 0.0, v, active)

    nu = sigma * grid.dx / 2.0    # artificial viscosity coefficient per axis
    for step in range(1, n_steps + 1):
        for _ in range(n_sub):
            new_active = [(lo + 1, hi - 1) for lo, hi in active]
            out_sl = tuple(slice(lo, hi) for lo, hi in new_active)
            P = np.empty(tuple(hi - lo for lo, hi in new_active) + (d,))
            visc = np.zeros(tuple(hi - lo for lo, hi in new_active))
            for i in range(d):
                up = tuple(slice(lo + (2 if j == i else 1), hi - (0 if j == i else 1))
                           for j, (lo, hi) in enumerate(active))
                dn = tuple(slice(lo + (0 if j == i else 1), hi - (2 if j == i else 1))
                           for j, (lo, hi) in enumerate(active))
                P[..., i] = (v[up] - v[dn]) / (2.0 * grid.dx)
                visc += nu[i] * (v[up] - 2.0 * v[out_sl] + v[dn]) / grid.dx**2
            H = ham(out_sl, P.reshape(-1, d)).reshape(P.shape[:-1])
            stepped = v[out_sl] - dt_sub * H + dt_sub * visc
            vn = np.full(grid.shape, np.nan)
            vn[out_sl] = stepped
            v = vn
            active = new_active
        if step in records:
            result.snapshots[records[step]] = _snapshot(grid, step * cfg.dt, v, active)

    result.final = _snapshot(grid, n_steps * cfg.dt, v, active)
    result.telemetry.append({
        "scheme": "lax-friedrichs",
        "steps": n_steps,
        "substeps_per_step": n_sub,
        "active_cells": [list(a) for a in active],
    })
    return result


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
        sl = tuple(slice(max(a0[0], a1[0]), min(a0[1], a1[1]))
                   for a0, a1 in zip(f0.active, f1.active))
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
        sl = tuple(slice(max(a0[0], a1[0]), min(a0[1], a1[1]))
                   for a0, a1 in zip(fu.active, fv.active))
        gap = float(np.max(fu.values[sl] - fv.values[sl]))
        worst = max(worst, gap)
        if gap > gap0 + tol:
            ok = False
    return {"initial_gap": gap0, "max_gap": worst, "ok": ok}


def check_scaling(gh: GameHamiltonian, env, theta, eps: float,
                  cfg: SolveConfig,
                  g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> dict:
    """u_eps(eps t, eps x) == eps * u(t, x) on matched grids.

    The eps-grid is the unit grid scaled by eps, so both runs traverse the
    same discrete recursion; for eps a power of two the identity is exact
    to rounding.
    """
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
    sl = tuple(slice(max(a0[0], a1[0]), min(a0[1], a1[1]))
               for a0, a1 in zip(fb.active, fs.active))
    diff = np.abs(fs.values[sl] - eps * fb.values[sl])
    return {"max_error": float(diff.max()), "nodes_compared": int(diff.size)}
