"""Random running-cost environments with a certified finite dependence range.

A field is a sum of fixed C^1 bumps sitting on a lattice of spacing equal to
the bump radius r, each scaled by an i.i.d. uniform amplitude drawn lazily
from a counter-based hash of (seed, cell, channel).  A uniform random offset
(one per realization) makes the law translation invariant, not merely
lattice-periodic.  A point is covered by exactly 2 bumps per axis, and a
bump reaches at most r from its center, so values over regions separated by
more than 2r <= rho consume disjoint cell keys: this is the
finite-range-dependence certificate for the declared range rho.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import uniform01

#: max |d/ds (1 - s^2)^2| on [0, 1], attained at s = 1/sqrt(3)
BUMP_LIP = 8.0 / (3.0 * math.sqrt(3.0))

#: integral of (1 - s^2)^2 over [-1, 1]
BUMP_MASS_1D = 16.0 / 15.0


class DomainError(ValueError):
    """Probe outside the materialized box (never silently extrapolated)."""


@dataclass(frozen=True)
class EnvSpec:
    """Parameters of the random running-cost field."""

    dimension: int
    rho: float                      # certified dependence range
    bump_radius: float              # r in (0, rho/2]; also the lattice spacing
    amp_lo: float
    amp_hi: float
    channels: int                   # |A|*|B| or 1 (shared across actions)
    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    seed: int

    def validate(self) -> None:
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0 < self.bump_radius <= self.rho / 2:
            raise ValueError(
                f"bump_radius must lie in (0, rho/2]: got r={self.bump_radius}, "
                f"rho={self.rho} (r > rho/2 breaks the dependence-range certificate)"
            )
        if self.amp_lo > self.amp_hi:
            raise ValueError(f"amp_lo {self.amp_lo} > amp_hi {self.amp_hi}")
        if self.amp_lo < 0:
            raise ValueError("amplitudes must be nonnegative")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if len(self.box_lo) != self.dimension or len(self.box_hi) != self.dimension:
            raise ValueError("box bounds must match dimension")
        if any(lo >= hi for lo, hi in zip(self.box_lo, self.box_hi)):
            raise ValueError(f"box is empty: lo={self.box_lo}, hi={self.box_hi}")

    @property
    def kernel_overlap(self) -> int:
        """Max number of bumps covering a single point (2 per axis)."""
        return 2 ** self.dimension


#: most probes (realizations x points) one hashing pass takes: a batch is
#: hashed a group of realizations at a time, and a single realization with
#: more points is hashed on its own
HASH_POINTS = 2**16


class Environment:
    """Fixed realizations of the cost field; immutable after construction.

    Values are a pure function of the spec and the seed: the amplitude of
    the bump in lattice cell ``z`` for channel ``c`` is
    ``uniform01(seed, 0, z..., c)`` rescaled to [amp_lo, amp_hi], generated
    on demand.  Given ``seeds``, the object holds one realization per seed
    (``spec.seed`` is then unused) and every value carries a leading
    realization axis; without, it is the single realization ``spec.seed``,
    held as a batch of one.
    """

    def __init__(self, spec: EnvSpec, seeds=None):
        spec.validate()
        self.spec = spec
        self.batch_shape = () if seeds is None else (len(seeds),)
        self.seeds = np.asarray([spec.seed] if seeds is None else seeds, dtype=np.int64)
        # per-realization stationarity offset (M, d), uniform over one lattice
        # cell; the leading tag word keeps this stream disjoint from cell amplitudes
        axes = np.arange(spec.dimension, dtype=np.int64)
        self.offset = uniform01(self.seeds[:, None], 1, axes) * spec.bump_radius

    # -- certified constants ------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @property
    def rho(self) -> float:
        return self.spec.rho

    @property
    def sup_bound(self) -> float:
        return self.spec.amp_hi * self.spec.kernel_overlap

    @property
    def lip_bound(self) -> float:
        return self.spec.kernel_overlap * self.spec.amp_hi * BUMP_LIP / self.spec.bump_radius

    @property
    def mean_value(self) -> float:
        """Exact E[cost(x)] under the uniform offset (any x, any channel).

        With lattice spacing equal to the bump radius the (r/spacing)^d
        factor is 1, leaving mean amplitude times the bump mass.
        """
        s = self.spec
        mass = BUMP_MASS_1D if s.dimension == 1 else _bump_mass_2d()
        return 0.5 * (s.amp_lo + s.amp_hi) * mass

    # -- evaluation ---------------------------------------------------------

    def check_inside(self, pts: np.ndarray) -> None:
        s = self.spec
        r = s.bump_radius
        lo = np.asarray(s.box_lo) - r
        hi = np.asarray(s.box_hi) + r
        if np.any(pts < lo) or np.any(pts > hi):
            bad = pts[np.any((pts < lo) | (pts > hi), axis=-1)][:1]
            raise DomainError(
                f"probe {bad} outside environment box [{s.box_lo}, {s.box_hi}] "
                f"(inflated by r={r})"
            )

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Field values at points ``pts`` (N, d) for all channels.

        (N, C) for a single realization, (M, N, C) for a batch.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        self.check_inside(pts)
        out = self._raw_values(pts)
        return out if self.batch_shape else out[0]

    def _bumps(self, pts: np.ndarray, group: slice):
        """Walk the 2^d bumps covering each point, one lattice corner at a time.

        For the realizations in ``group`` (G of them), yields (cells
        (G, N, d), live (G, N), weights (G, N)): the corner's cell index for
        every point, whether that bump reaches the point, and the bump
        profile there (zero where it does not).
        """
        r = self.spec.bump_radius
        off = self.offset[group, None, :]
        base = np.floor((pts - off) / r).astype(np.int64)
        for corner in itertools.product((0, 1), repeat=pts.shape[1]):
            z = base + np.array(corner, dtype=np.int64)
            centers = z * r + off
            # summed column by column, from the first: the bits of .sum(axis=-1)
            sq = np.square(pts[:, 0] - centers[..., 0])
            for i in range(1, pts.shape[1]):
                sq += np.square(pts[:, i] - centers[..., i])
            s2 = sq / r**2
            w = np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 2, 0.0)
            yield z, w > 0.0, w

    def _raw_values(self, pts: np.ndarray) -> np.ndarray:
        """(M, N, C) values, hashed in groups of at most HASH_POINTS probes."""
        M = len(self.seeds)
        out = np.zeros((M, pts.shape[0], self.spec.channels))
        if len(pts) == 0:
            return out
        per = max(1, HASH_POINTS // len(pts))
        for lo in range(0, M, per):
            self._add_bumps(pts, slice(lo, lo + per), out[lo:lo + per])
        return out

    def _add_bumps(self, pts: np.ndarray, group: slice, out: np.ndarray) -> None:
        """Add the covering bumps of a group's realizations into out (G, N, C).

        The corners' live (realization, cell) pairs are marked over the
        cell bounding box of the points, stacked per realization, and
        hashed in one call, each once.  Every point then adds ``w * amp``
        for every corner, in corner order: a bump that does not reach the
        point has w = 0 and adds +0.0 (amplitudes are finite and
        nonnegative), so each value is the sum over its live bumps.
        """
        bumps = list(self._bumps(pts, group))
        z0 = bumps[0][0]
        G = z0.shape[0]
        lo = z0.min(axis=(0, 1))                        # corner (0, ..., 0) holds the minima
        hi = bumps[-1][0].max(axis=(0, 1))              # corner (1, ..., 1) the maxima
        shape = (G,) + tuple(hi - lo + 1)
        # a corner's cells are the base cells moved by the corner, and the
        # flat index is linear in the cell
        base = np.ravel_multi_index((np.arange(G)[:, None], *np.moveaxis(z0 - lo, -1, 0)), shape)
        flat = [base + np.ravel_multi_index((0, *(z[0, 0] - z0[0, 0])), shape)
                for z, _, _ in bumps]
        marked = np.zeros(math.prod(shape), dtype=bool)
        for f, (_, live, _) in zip(flat, bumps):
            marked[f[live]] = True
        # never empty: a point's nearest corner lies within r sqrt(d) / 2 < r
        m, *z = np.unravel_index(np.flatnonzero(marked), shape)
        amp = self._cell_amplitudes(self.seeds[group][m], np.stack(z, axis=1) + lo,
                                    np.arange(self.spec.channels, dtype=np.int64))
        row = np.cumsum(marked) - 1                     # marked pair -> its row of amp
        term = np.empty_like(out)
        for f, (_, _, w) in zip(flat, bumps):
            np.multiply(w[..., None], np.take(amp, row[f], axis=0), out=term)
            out += term

    def _cell_amplitudes(self, seeds: np.ndarray, z: np.ndarray, chans: np.ndarray) -> np.ndarray:
        """Amplitudes (K, C) of the cells z (K, d) of the realizations seeded ``seeds`` (K,)."""
        s = self.spec
        parts = [z[:, ax, None] for ax in range(z.shape[1])]
        u = uniform01(seeds[:, None], 0, *parts, chans[None, :])
        return s.amp_lo + (s.amp_hi - s.amp_lo) * u

    def cells_touched(self, pts: np.ndarray) -> set[tuple[int, ...]] | list[set[tuple[int, ...]]]:
        """Lattice cells whose amplitude keys the given probes consume.

        Instrumentation for the dependence-range certificate: probe sets at
        Hausdorff distance > rho must return disjoint cell sets.  It walks
        the same bumps as the evaluation, so it names exactly the cells
        ``values`` hashes.  A set of cells per realization: one set, or a
        list of M sets for a batch.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        touched: list[set[tuple[int, ...]]] = [set() for _ in self.seeds]
        for z, live, _ in self._bumps(pts, slice(None)):
            for cells, zm, lm in zip(touched, z, live):
                cells.update(map(tuple, zm[lm].tolist()))
        return touched if self.batch_shape else touched[0]


class EnvironmentView:
    """A base environment read at moved points.

    A point x is read at x - shift: everywhere, or only inside the slab
    { x : <x, e> in [lo, hi] } when ``slab`` = (lo, hi, e) is given, with e
    a unit vector.  Every point is read from the base exactly once.  The
    patched field is discontinuous at the slab faces, which the
    value-function machinery tolerates (costs only need to be measurable
    and bounded).
    """

    def __init__(self, base, shift: np.ndarray, slab: tuple | None = None):
        self.base = base
        self.shift = np.asarray(shift, dtype=np.float64)
        self.slab = slab

    @property
    def dimension(self):
        return self.base.dimension

    @property
    def rho(self):
        return self.base.rho

    @property
    def sup_bound(self):
        return self.base.sup_bound

    @property
    def lip_bound(self):
        return self.base.lip_bound

    @property
    def batch_shape(self):
        return self.base.batch_shape

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.slab is None:
            return self.base.values(pts - self.shift)
        lo, hi, e = self.slab
        proj = pts @ e
        inside = (proj >= lo) & (proj <= hi)
        moved = pts.copy()
        moved[inside] -= self.shift
        return self.base.values(moved)


class ConstantEnvironment:
    """Degenerate environment with a constant cost; handy for exact oracles."""

    def __init__(self, value: float, channels: int = 1, dimension: int = 1):
        self.value = float(value)
        self.channels = channels
        self._dimension = dimension

    @property
    def dimension(self):
        return self._dimension

    @property
    def rho(self):
        return 1.0

    @property
    def sup_bound(self):
        return abs(self.value)

    @property
    def lip_bound(self):
        return 0.0

    @property
    def batch_shape(self):
        return ()

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return np.full((pts.shape[0], self.channels), self.value)


def sample_environment(spec: EnvSpec, seeds=None) -> Environment:
    """Materialize (lazily) the field realization determined by ``spec``.

    With ``seeds``, one environment holds ``len(seeds)`` realizations of
    ``spec``'s law: row m of its values is the realization
    ``with_seed(spec, seeds[m])``, bit for bit.
    """
    return Environment(spec, seeds)


def shift_view(env, y: np.ndarray) -> EnvironmentView:
    """The translated view: values(view, x) == values(env, x + y).

    The view reads x - (-y), which equals x + y exactly in floating point.
    """
    return EnvironmentView(env, -np.asarray(y, dtype=np.float64))


def replace_on_strip(env, lo: float, hi: float, e: np.ndarray, shift: np.ndarray) -> EnvironmentView:
    """Replace the field on a slab orthogonal to ``e`` by its shifted copy.

    Inside the slab { x : <x, e> in [lo, hi] } values are read at
    ``x - shift``; outside it they are the base field's.
    """
    if lo >= hi:
        raise ValueError(f"degenerate strip: lo={lo} >= hi={hi}")
    e = np.asarray(e, dtype=np.float64)
    return EnvironmentView(env, shift, (float(lo), float(hi), e / np.linalg.norm(e)))


def with_seed(spec: EnvSpec, seed: int) -> EnvSpec:
    return replace(spec, seed=seed)


def _bump_mass_2d() -> float:
    # integral of (1 - |s|^2)^2 over the unit disc: 2*pi * int_0^1 (1-u^2)^2 u du
    return math.pi / 3.0
