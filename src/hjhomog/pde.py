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
step by at least the domain of dependence, so reported values never read
fabricated data.  For SL that is the foot-point reach.  LF sheds one
stencil ring per substep on every axis; on an axis that moves that is the
domain of dependence.  An axis that does not move reads no neighbour, so
each column along it evolves on its own, and LF updates there only the
columns the next record reads.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .env import DomainError, TensorGrid
from .game import (GameHamiltonian, Velocities, _aligned_planes, eval_H_nodes, shift_momentum,
                   velocities)


class CFLError(ValueError):
    """A CFL refusal.  LF substeps to meet the bound, so no solver raises it;
    it stays exported for callers that catch it."""


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

    def nodes(self) -> np.ndarray:
        """All node coordinates, flattened to (N, d) in C order."""
        return TensorGrid(self.axis(i) for i in range(self.dim)).nodes()

    @classmethod
    def from_box(cls, lo, hi, dx: float) -> "Grid":
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        shape = tuple(int(round((h - l) / dx)) + 1 for l, h in zip(lo, hi))
        if any(n < 2 for n in shape):
            raise ValueError(f"degenerate grid: shape {shape}")
        return cls(lo=lo, dx=float(dx), shape=shape)

    def box(self, active) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates of the first and last node of the index window ``active``."""
        return (np.array([lo + self.dx * a for lo, (a, _) in zip(self.lo, active)]),
                np.array([lo + self.dx * (b - 1) for lo, (_, b) in zip(self.lo, active)]))

    def window_field(self, v: np.ndarray, active, t: float) -> "Field":
        """v on the index window ``active``, realization axes last, as a NaN-padded Field."""
        values = np.full(self.shape + v.shape[self.dim:], np.nan)
        values[tuple(slice(lo, hi) for lo, hi in active)] = v
        return Field(grid=self, t=t, values=values, active=active)


@dataclass
class Field:
    """Grid function at one time, valid only on the active index window.

    ``values`` is (*grid.shape) for one realization, or (*grid.shape, M)
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
        return self.values[self.active_slices()]

    def value_at(self, x):
        """Multilinear interpolation; refuses to read outside the active box.

        ``x`` is one point (d,), giving a float, or points (n, d), giving
        (n,); a batched field gives (M,) and (n, M).  Each value is
        accumulated from 0.0 over the cell corners in order.
        """
        x = np.asarray(x, dtype=np.float64)
        out = probe_stencil(self.grid, x).read(self.active_values(), self.active, self.t)
        if x.ndim > 1:
            return out
        return float(out[0]) if out.ndim == 1 else out[0]


class ProbeStencil(NamedTuple):
    """How probes are read on one grid, worked out once per probe set."""

    grid: Grid
    pts: np.ndarray                 # (n, d): the probes
    weights: np.ndarray             # (corners, n): each corner's weight
    live: np.ndarray                # (corners, n): the corner adds its term, else +0.0
    nodes: np.ndarray               # (d, corners, n): the node each corner reads
    bounds: tuple                   # per axis, the lowest and highest node read

    def read(self, window: np.ndarray, active, t: float) -> np.ndarray:
        """The probes' values, (n, ...), in ``window``, the values on the index
        bounds ``active`` with any realization axes last; refuses a probe
        outside it.  Each value is accumulated from 0.0 over the corners in order."""
        for (lo, hi), (low, high), node in zip(active, self.bounds, self.nodes):
            if low < lo or high > hi - 1:
                bad = (node.min(axis=0) < lo) | (node.max(axis=0) > hi - 1)
                alo, ahi = self.grid.box(active)
                raise DomainError(
                    f"probe {self.pts[bad][0]} outside active box [{alo}, {ahi}] "
                    f"at t={t}; enlarge the solve box margin"
                )
        shape = self.weights.shape + (1,) * (window.ndim - len(active))
        nodes = tuple(node - lo for node, (lo, _) in zip(self.nodes, active))
        terms = np.where(self.live.reshape(shape), self.weights.reshape(shape) * window[nodes],
                         0.0)
        out = 0.0
        for term in terms:
            out = out + term
        return out


def probe_stencil(grid: Grid, x) -> ProbeStencil:
    """The multilinear read (``_stencil``) of the points x on grid."""
    pts = np.asarray(x, dtype=np.float64).reshape(-1, grid.dim)
    weights, live, nodes = _stencil((pts - np.array(grid.lo)) / grid.dx)
    nodes = nodes.transpose(2, 0, 1)
    bounds = tuple((node.min(), node.max()) if len(pts) else (math.inf, -math.inf)
                   for node in nodes)
    return ProbeStencil(grid, pts, weights, live, nodes, bounds)


def _stencil(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multilinear read of positions s (n, d), given in cells from node 0.

    Returns each cell corner's weight and live flag (corners, n) and nodes
    (corners, n, d), the corners in ``itertools.product`` order.  A weight
    is the product, over the axes in order, of w where the corner steps
    along an axis and 1 - w where it does not.  A corner that steps along
    an axis where the position sits on a node (w = 0) is not live: it adds
    +0.0, which leaves a sum unchanged, and reads node k, which is in bounds.
    """
    k, w = _cell_and_weight(s)
    steps = np.array(list(itertools.product((0, 1), repeat=s.shape[1])), dtype=bool)[:, None]
    factors, ok = np.where(steps, w, 1.0 - w), ~steps | (w > 0.0)
    weights, live = factors[..., 0], ok[..., 0]
    for i in range(1, s.shape[1]):
        weights = weights * factors[..., i]
        live = live & ok[..., i]
    return weights, live, k + (steps & live[..., None])


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
    cfl_limit: ClassVar[float] = 0.9  # Courant number that keeps LF monotone

    def validate(self) -> None:
        if self.scheme not in ("semi-lagrangian", "lax-friedrichs"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for name, val in (("dt", self.dt), ("dx", self.dx), ("T", self.T),
                          ("epsilon", self.epsilon)):
            if val <= 0:
                raise ValueError(f"{name} must be positive, got {val}")
        _steps_and_records(self)


@dataclass
class SolveResult:
    final: Field | np.ndarray                  # what the march's reader returned
    snapshots: dict[float, Field | np.ndarray] = field(default_factory=dict)
    telemetry: list[dict] = field(default_factory=list)

    def at_time(self, t: float) -> Field | np.ndarray:
        for rt, f in self.snapshots.items():
            if abs(rt - t) < 1e-9:
                return f
        raise KeyError(f"no snapshot at t={t}; recorded {sorted(self.snapshots)}")


# ---------------------------------------------------------------------------
# shared plumbing


def _precompute_cost(gh: GameHamiltonian, env, grid: Grid, eps: float) -> np.ndarray:
    """Cost table over all grid nodes, pair-major: (n_a * n_b, *shape).

    A batched environment puts its realization axis last: (n_a * n_b,
    *shape, M).  The table is C-contiguous and the caller's to overwrite,
    never a view of the environment's read-only memo.  A writeable cost is
    the accessor's own fresh array (a momentum-shifted game's sum); for a
    single realization it is channel-major, as the environment's values
    are, so pair-major already, and it is taken as it is.  Any other cost
    is copied.

    The nodes are handed over as a TensorGrid of the axes divided by eps,
    which has the bits of ``grid.nodes() / eps``.
    """
    nodes = TensorGrid(grid.axis(i) / eps for i in range(grid.dim))
    n = len(nodes)
    lead = () if env is None else env.batch_shape
    shape = lead + (n, gh.n_a, gh.n_b)
    c = gh.cost(nodes, env)
    if c.shape != shape:
        c = np.broadcast_to(c, shape)           # read-only, so copied below
    c = np.moveaxis(c.reshape(lead + (n, -1)), (-1, -2), (0, 1))
    return np.require(c.reshape((-1,) + grid.shape + lead), requirements="CW")


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


def reach(f: np.ndarray, scheme: str, dt: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells the active window sheds per step, (below, above) on each axis.

    For SL this is the discrete domain of dependence of the velocities
    f (pairs, d): a step reads the nodes of its foot points' stencils, up
    to ceil(dt f / dx) cells away.  An LF window sheds one stencil ring per
    substep on every axis, which is the domain of dependence on the moving
    axes only: a still axis reads no neighbour (``_Window.runs``).
    """
    if scheme == "semi-lagrangian":
        return _sl_shed(_stencil(dt * f / dx)[2])
    rings = np.full(f.shape[1], lf_substeps(np.abs(f).max(axis=0), dt, dx))
    return rings, rings


def _sl_shed(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells shed, (below, above) per axis, by an SL step reading nodes (corners, pairs, d)."""
    nodes = nodes.reshape(-1, nodes.shape[-1])
    return np.maximum(0, -nodes.min(axis=0)), np.maximum(0, nodes.max(axis=0))


@dataclass(frozen=True)
class _Window:
    """The time grid of a solve and how its active window shrinks.

    A step is ``substeps`` substeps, each shedding 1/substeps of a step's
    cells on each axis that moves.  An axis along which no velocity moves
    is ``still``: neither scheme reads a neighbour along it, so a substep
    need only write there what the next read reports, and an SL march may
    cut its table into slabs there.
    """

    cfg: SolveConfig
    grid: Grid
    n_steps: int
    records: dict[int, float]
    shed_lo: tuple[int, ...]
    shed_hi: tuple[int, ...]
    substeps: int
    still: tuple[int, ...]

    def active(self, k: int) -> tuple[tuple[int, int], ...]:
        """The per-axis [lo, hi) index bounds of the window after k steps."""
        return tuple((k * lo, n - k * hi)
                     for n, lo, hi in zip(self.grid.shape, self.shed_lo, self.shed_hi))

    def runs(self) -> np.ndarray:
        """The window each substep writes, (n_steps * substeps + 1, d, 2) [lo, hi)
        index bounds; row 0 is the datum's whole grid.

        Substep s of the solve sheds s / substeps steps' cells on each moving
        axis.  On a still axis, every substep of step k writes that axis's
        range in ``active(r)``, r the first read step >= k (a record step or
        n_steps).  So at every read the window is ``active`` of its step.
        """
        subs = self.substeps
        s = np.arange(self.n_steps * subs + 1)
        t = np.repeat(s[:, None], self.grid.dim, axis=1)     # substeps' worth of cells shed
        if self.still:
            reads = np.array(sorted({*self.records, self.n_steps}))
            r = reads[np.searchsorted(reads, -(-s[1:] // subs))]   # each substep's next read
            t[1:, list(self.still)] = r[:, None] * subs
        out = np.empty(t.shape + (2,), dtype=t.dtype)
        np.multiply(t, np.floor_divide(self.shed_lo, subs), out=out[..., 0])
        np.subtract(self.grid.shape, t * np.floor_divide(self.shed_hi, subs), out=out[..., 1])
        return out


def _plan_window(cfg: SolveConfig, vel: Velocities, below, above, substeps: int = 1) -> _Window:
    """The window of cfg shedding (below, above) cells a step, whose still
    axes are those the game's motion ``vel`` (``velocities``) does not move
    along; refuses a box spent before T."""
    grid = Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx)
    n_steps, records = _steps_and_records(cfg)
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
    return _Window(cfg=cfg, grid=grid, n_steps=n_steps, records=records,
                   shed_lo=tuple(int(v) for v in below), shed_hi=tuple(int(v) for v in above),
                   substeps=substeps, still=tuple(i for i in range(grid.dim) if i not in vel.axes))


def _march(win: _Window, marches, read, axis: int = 0, per_node: int = 1, probes: int = 0,
           **telemetry) -> SolveResult:
    """Run the time steps of win from the datum, held in slabs along axis.

    ``marches`` holds each slab's (v, step): v the datum on the slab, and
    step(v, k) maps the slab's values on the window after k - 1 steps to
    those on ``win.active(k)``.  ``axis`` is still (``_Window.still``)
    unless there is one slab, so a slab's columns evolve on their own:
    between two reads (a record time, or T), each slab marches alone.  At
    each read, what read(v, active, t) returns of the slabs' values stitched
    along axis is recorded.  Telemetry counts ``per_node`` updates per node
    of each (sub)step's window (``win.runs``) and ``probes`` values per
    read, in closed form, after the solver's own ``telemetry``.
    """
    records, dt, n = win.records, win.cfg.dt, win.n_steps
    values, steps = (list(x) for x in zip(*marches))
    result = SolveResult(final=None)  # type: ignore[arg-type]
    done = 0
    for r in sorted({*records, n}):
        for j, step in enumerate(steps):
            for k in range(done + 1, r + 1):
                values[j] = step(values[j], k)
        done = r
        v = values[0] if len(values) == 1 else np.concatenate(values, axis=axis)
        result.final = read(v, win.active(r), r * dt)
        if r in records:
            result.snapshots[records[r]] = result.final
    runs = win.runs()[1:]
    windows = np.prod(runs[..., 1] - runs[..., 0], axis=1)
    result.telemetry.append({**telemetry, "steps": n,
                             "active_cells": [list(a) for a in win.active(n)],
                             "node_updates": per_node * int(windows.sum()),
                             "probes_read": probes * (len(records) + (n not in records))})
    return result


# ---------------------------------------------------------------------------
# semi-Lagrangian

#: largest cost table one SL march holds: a campaign solves its realizations
#: in batches whose stacked table fits, and a march splits a larger table
#: into slabs along a still axis.  Sized for the cache: on a 2-CPU Intel
#: Xeon host (2 MiB of L2 per core, Python 3.11, numpy 2.4), 1 MiB was the
#: fastest of 0.25, 0.5, 1, 2, 4 and 64 MiB, or tied, on every long saddle
#: campaign tried (1-D and 2-D, M = 128-256, t <= 32-512); 64 MiB took about
#: twice as long
BATCH_COST_BYTES = 2**20


@dataclass(frozen=True)
class SLPlan(_Window):
    """The SL stencil of one game and config, shared by all realizations.

    Foot-point offsets, and so the cells the active box sheds per step,
    depend only on (f, dt, dx) (the scheme's domain of dependence); the
    realizations of a campaign differ only in their cost tables.  Every
    corner offset is 0 along a ``still`` axis.
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

    A foot point is worked out per distinct velocity (``velocities``), and
    velocities whose corners are equal share a stencil, numbered in the order
    of the pairs (C order over (a, b)) first using it.
    """
    cfg.validate()
    vel = velocities(gh)
    weights, live, nodes = _stencil(cfg.dt * vel.rows / cfg.dx)    # per velocity, its foot point
    win = _plan_window(cfg, vel, *_sl_shed(nodes))
    # per velocity, its corners' weights (a march multiplies by np.float64 faster), live, offsets
    rows = zip(weights.T, live.T.tolist(), (nodes + win.shed_lo).swapaxes(0, 1).tolist())
    terms = [tuple((w, tuple(off)) for w, on, off in zip(*row) if on) for row in rows]
    index: dict[tuple, int] = {}
    stencil = tuple(index.setdefault(terms[r], len(index)) for r in vel.row_of.ravel().tolist())
    return SLPlan(**vars(win), n_a=gh.n_a, n_b=gh.n_b, corners=tuple(index), stencil=stencil)


def sl_step_cost(gh: GameHamiltonian, env, plan: SLPlan) -> np.ndarray:
    """Cost one SL step accrues at each node, dt * cost.

    (pairs, *shape) for one realization, (pairs, *shape, M) for a batched
    environment: the stacked table ``solve_sl_batch`` takes, C-ordered with
    the realizations innermost, so that every window the march reads of a
    pair's plane is contiguous.  ``_precompute_cost``'s table, scaled in place.
    """
    cost = _precompute_cost(gh, env, plan.grid, plan.cfg.epsilon)
    return np.multiply(cost, plan.cfg.dt, out=cost)


def solve_sl_batch(plan: SLPlan, step_cost: np.ndarray,
                   g: Callable[[np.ndarray], np.ndarray] = zero_datum,
                   probes: ProbeStencil | None = None) -> SolveResult:
    """The SL recursion for every realization of a ``sl_step_cost`` table at once.

    ``step_cost`` is (pairs, *shape) for one realization or (pairs, *shape,
    M) for a batched environment; all realizations start from the datum g.
    A record time holds a Field with the table's realization axes last
    or, given a ``probes`` stencil, the probes' (n, *M) values read from
    the window.  Each realization's numbers are those of its own solve:
    the recursion is elementwise along M.

    The march keeps the values as (*window, M), realizations innermost, as
    the table is.  The window sheds the same cells every step, so every
    read is a constant slice worked out once: the table is trimmed by one
    slice per step, and a corner at offset o reads ``slice(o, -(shed - o)
    or None)`` of the current values on each axis.  A step interpolates
    once per distinct stencil.  It then takes the max-min as it goes: for
    each b in order, np.maximum over a, in order, into one column, which
    np.minimum folds into the result.  That is the elementwise order of
    ``cand.max(axis=0).min(axis=0)`` over the pairs' candidates, so the
    bits, signed zeros included, are those of the reductions, without the
    (pairs, *window) candidate table.  Each ufunc allocates its own output
    or writes onto an array the same step allocated.

    A table over ``BATCH_COST_BYTES`` is cut into ceil(bytes / budget)
    slabs (at most one a column) along the plan's first still axis, if it
    has one: C-contiguous copies, each marched alone between two reads
    (``_march``), which keeps a step's planes in the cache.  The datum's
    values come from the whole grid.
    """
    grid = plan.grid
    lead = step_cost.shape[1 + grid.dim:]
    trim = (slice(None),) + tuple(slice(lo, -hi or None)
                                  for lo, hi in zip(plan.shed_lo, plan.shed_hi))
    sheds = [lo + hi for lo, hi in zip(plan.shed_lo, plan.shed_hi)]
    stencils = [[(weight, tuple(slice(o, -(shed - o) or None) for o, shed in zip(off, sheds)))
                 for weight, off in terms] for terms in plan.corners]
    # per b in order, its pairs (a in order) and their stencils
    columns = [(range(b, len(plan.stencil), plan.n_b), plan.stencil[b::plan.n_b])
               for b in range(plan.n_b)]

    def slab_step(step_cost: np.ndarray):
        """The step of a slab whose table is step_cost."""
        def step(v: np.ndarray, k: int) -> np.ndarray:
            nonlocal step_cost
            step_cost = step_cost[trim]
            interp = []
            for terms in stencils:
                # the corners summed in order; a weighted corner is a new
                # array, which takes the sum
                total = None
                for weight, read in terms:
                    x = v[read] if weight == 1.0 else np.multiply(v[read], weight)
                    total = x if total is None else np.add(total, x,
                                                           out=None if weight == 1.0 else x)
                interp.append(total)
            new = None
            for pairs, stencil in columns:
                col = None
                for j, s in zip(pairs, stencil):
                    cand = np.add(step_cost[j], interp[s])
                    col = cand if col is None else np.maximum(col, cand, out=col)
                new = col if new is None else np.minimum(new, col, out=new)
            return new
        return step

    datum = np.asarray(g(grid.nodes()), dtype=np.float64)
    v = np.broadcast_to(datum.reshape(grid.shape + (1,) * len(lead)), grid.shape + lead)
    axis = plan.still[0] if plan.still else 0
    width = grid.shape[axis]
    count = min(width, max(1, -(-step_cost.nbytes // BATCH_COST_BYTES))) if plan.still else 1
    edges = [width * j // count for j in range(count + 1)]
    cuts = [(slice(None),) * axis + (slice(lo, hi),) for lo, hi in zip(edges, edges[1:])]
    slabs = [(v[cut], slab_step(np.ascontiguousarray(step_cost[(slice(None),) + cut])))
             for cut in cuts]
    del step_cost                           # the whole table, once the slabs are cut
    M = math.prod(lead)
    read, n = (grid.window_field, 0) if probes is None else (probes.read, len(probes.pts) * M)
    return _march(plan, slabs, read, axis, per_node=len(plan.stencil) * M, probes=n,
                  scheme="semi-lagrangian", stencils=len(plan.corners), slabs=len(slabs))


def solve_sl(gh: GameHamiltonian, env, cfg: SolveConfig,
             g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    """The SL solve of env's cost: its plan, its step-cost table and the recursion."""
    plan = sl_plan(gh, cfg)
    return solve_sl_batch(plan, sl_step_cost(gh, env, plan), g)


# ---------------------------------------------------------------------------
# Lax-Friedrichs


def lf_substeps(sigma: np.ndarray, dt: float, dx: float) -> int:
    """Number of substeps needed so dt_sub meets the CFL bound; sigma bounds |f| per axis."""
    speed = float(np.sum(2.0 * sigma))  # |H_p| + viscosity speed
    if speed == 0.0:
        return 1
    return max(1, int(math.ceil(dt * speed / (SolveConfig.cfl_limit * dx))))


def _divide_by(c: float) -> tuple[np.ufunc, float]:
    """x / c as a ufunc and its operand: x * (1 / c) when c is a power of two.

    Then 1 / c is exact, and x / c and x * (1 / c) round the same real
    number, so their bits agree, signed zeros included.  Into an aligned
    output, dividing takes about three times as long as multiplying.
    """
    if math.frexp(c)[0] == 0.5:
        return np.multiply, 1.0 / c
    return np.divide, c


def solve_lf(gh: GameHamiltonian, env, cfg: SolveConfig,
             g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    """The LF solve of env's cost, one stencil ring shed per substep on each moving axis.

    The game's motion (``velocities``: sigma_i = max |f_i|, the moving axes
    with sigma_i > 0, the distinct velocities) is worked out once per
    solve, and only the moving axes run.  A zero-speed axis has zero
    viscosity and zero drift, and for finite values its gradient plane and
    its viscosity term add exactly nothing, signed zeros included: the
    viscosity starts as 0.0 + the first moving axis's term, so it is never
    -0.0, and each 0 * P_i is +-0, which ``eval_H_nodes``'s +0.0 drift
    start absorbs.  So each column along a still axis evolves on its own,
    and a substep writes only the columns the next read reports
    (``_Window.runs``): every read sees the bits of a solve that updates
    the whole shrinking window.

    Between two reads the window's range on the still axes is constant: a
    segment.  The cost is negated once per segment, up front, into a
    C-contiguous (n_a, n_b, ...) table cut to the segment's range on the
    still axes and whole on the moving axes, and the full-grid table is
    dropped.  A substep hands ``eval_H_nodes`` a window of its segment's
    table that slices the moving axes only; a game that moves along axis 0
    alone (every field family) so reads each pair's plane as one
    contiguous run.  With no still axis the one segment is the whole grid.

    P is held as per-axis planes (a zero-speed axis's plane stays 0) and
    handed over as an (N, d) view; 2 v is computed once per substep.  Each
    substep writes P, the viscosity term and the new values into buffers
    sized for the first substep, whose leading parts shrink with the
    window, and so do the drift and fold planes it hands ``eval_H_nodes``:
    no substep allocates a plane.  Every buffer, and each row of P, starts
    on a 64-byte boundary (``_aligned_planes``).  The divisions by 2 dx and
    dx^2 are multiplications by the reciprocal when that is exact
    (``_divide_by``).
    """
    cfg.validate()
    vel = velocities(gh)
    axes = vel.axes
    n_sub = lf_substeps(vel.sigma, cfg.dt, cfg.dx)
    win = _plan_window(cfg, vel, *reach(gh.f_pairs, "lax-friedrichs", cfg.dt, cfg.dx),
                       substeps=n_sub)
    grid = win.grid
    d = grid.dim
    runs = win.runs().tolist()
    # per substep s >= 1, its window of the negated cost, read from one table
    # per still-axis range (segment) that is whole on the moving axes
    cost = _precompute_cost(gh, env, grid, cfg.epsilon).reshape(gh.n_a, gh.n_b, *grid.shape)
    pairs = (slice(None), slice(None))
    segments: dict[tuple, np.ndarray] = {}
    cost_windows = [None]
    for run in runs[1:]:
        cut = tuple(tuple(r) if i in win.still else (0, n)
                    for i, (n, r) in enumerate(zip(grid.shape, run)))
        if cut not in segments:
            segments[cut] = np.negative(cost[pairs + tuple(slice(*c) for c in cut)], order="C")
        cost_windows.append(segments[cut][pairs + tuple(
            slice(None) if i in win.still else slice(*r) for i, r in enumerate(run))])
    del cost                                # the full-grid table
    dt_sub = cfg.dt / n_sub
    nu = vel.sigma * grid.dx / 2.0    # artificial viscosity coefficient per axis
    grad_op, grad_by = _divide_by(2.0 * grid.dx)
    visc_op, visc_by = _divide_by(grid.dx**2)
    # buffers the solve owns: fresh planes per substep kept the bits, 30 % slower (ROADMAP item 10)
    n_max = math.prod(hi - lo for lo, hi in runs[1])
    P_buf = _aligned_planes(d, n_max)
    P_buf.fill(0.0)
    # the viscosity, 2 v, the values a substep reads and writes, and the later axes' terms
    visc_buf, two_v_buf, *v_bufs = _aligned_planes(4 + (len(axes) > 1), n_max)
    term_buf = v_bufs.pop() if len(axes) > 1 else None
    # eval_H_nodes's drift planes, H and its fold's column and scratch
    fold_planes = _aligned_planes(len(vel.rows) + 3, n_max)

    def step(v: np.ndarray, k: int) -> np.ndarray:
        for s in range((k - 1) * n_sub + 1, k * n_sub + 1):
            # v holds the window runs[s - 1]; this substep writes runs[s]
            inner = tuple(slice(lo - at, hi - at)
                          for (lo, hi), (at, _) in zip(runs[s], runs[s - 1]))
            shape = tuple(hi - lo for lo, hi in runs[s])
            size = math.prod(shape)
            P = P_buf[:, :size]
            visc = visc_buf[:size].reshape(shape)
            if axes:
                two_v = np.multiply(v[inner], 2.0, out=two_v_buf[:size].reshape(shape))
            else:
                visc.fill(0.0)
            for i in axes:
                up = inner[:i] + (slice(inner[i].start + 1, inner[i].stop + 1),) + inner[i + 1:]
                dn = inner[:i] + (slice(inner[i].start - 1, inner[i].stop - 1),) + inner[i + 1:]
                P_i = P[i].reshape(shape)
                np.subtract(v[up], v[dn], out=P_i)
                grad_op(P_i, grad_by, out=P_i)
                term = visc if i == axes[0] else term_buf[:size].reshape(shape)
                np.subtract(v[up], two_v, out=term)
                np.add(term, v[dn], out=term)
                np.multiply(term, nu[i], out=term)
                visc_op(term, visc_by, out=term)
                np.add(visc, 0.0 if i == axes[0] else term, out=visc)
            H = eval_H_nodes(gh, cost_windows[s], P.T, vel, fold_planes).reshape(shape)
            new = v_bufs[0][:size].reshape(shape)
            np.multiply(H, dt_sub, out=new)
            np.subtract(v[inner], new, out=new)
            np.multiply(visc, dt_sub, out=visc)
            np.add(new, visc, out=new)
            v_bufs.reverse()
            v = new
        return v

    v = np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape)
    return _march(win, [(v, step)], grid.window_field, scheme="lax-friedrichs",
                  substeps_per_step=n_sub)


def solve(gh: GameHamiltonian, env, cfg: SolveConfig,
          g: Callable[[np.ndarray], np.ndarray] = zero_datum) -> SolveResult:
    if cfg.scheme == "semi-lagrangian":
        return solve_sl(gh, env, cfg, g)
    return solve_lf(gh, env, cfg, g)


# ---------------------------------------------------------------------------
# deterministic PDE sanity checks


def check_lipschitz(snapshots: list[Field], beta1: float, beta3: float, lip_g: float) -> dict:
    """Discrete space/time difference quotients against the a-priori bounds.

    Space bound: beta3 * t + Lip(g).  Time bound: beta1 * (1 + Lip(g)).
    Tolerance 10 dx absorbs first-order scheme error.
    """
    snaps = sorted(snapshots, key=lambda f: f.t)
    dx = snaps[0].grid.dx
    tol = 10.0 * dx
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
    tbound = beta1 * (1.0 + lip_g)
    for f0, f1 in zip(snaps, snaps[1:]):
        sl = f0.common_slices(f1)
        q = np.abs(f1.values[sl] - f0.values[sl]) / (f1.t - f0.t)
        mq = float(q.max()) if q.size else 0.0
        max_time = max(max_time, mq)
    return {
        "max_space_quotient": max_space,
        "space_bound_final": beta3 * snaps[-1].t + lip_g,
        "space_ok": space_ok,
        "max_time_quotient": max_time,
        "time_bound": tbound,
        "time_ok": max_time <= tbound + tol,
        "tolerance": tol,
    }


def check_comparison(gh: GameHamiltonian, env, cfg: SolveConfig, g_upper, g_lower) -> dict:
    """Monotone schemes preserve ordering: max(u - v) never increases (to 1e-10)."""
    times = tuple(sorted(set(cfg.record_times) | {cfg.T}))
    cfg2 = replace(cfg, record_times=times)
    ru = solve(gh, env, cfg2, g_upper)
    rv = solve(gh, env, cfg2, g_lower)
    grid = ru.final.grid
    g0u = np.asarray(g_upper(grid.nodes()), dtype=np.float64)
    g0l = np.asarray(g_lower(grid.nodes()), dtype=np.float64)
    gap0 = float(np.max(g0u - g0l))
    worst = -np.inf
    for t in times:
        fu, fv = ru.at_time(t), rv.at_time(t)
        sl = fu.common_slices(fv)
        gap = float(np.max(fu.values[sl] - fv.values[sl]))
        worst = max(worst, gap)
    return {"initial_gap": gap0, "max_gap": worst, "ok": worst <= gap0 + 1e-10}


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
