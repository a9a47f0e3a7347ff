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

#: integral of (1 - |s|^2)^2 over the unit disc: 2 pi int_0^1 (1 - u^2)^2 u du
BUMP_MASS_2D = math.pi / 3.0


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


class TensorGrid:
    """The nodes of a tensor grid, given by the coordinates along each axis.

    Node (j_0, ..., j_{d-1}) is (axes[0][j_0], ..., axes[d-1][j_{d-1}]),
    and the nodes are listed in C order, the last axis fastest; ``len`` is
    their number.  ``Environment.values`` works a grid's lattice geometry
    out on its axes.
    """

    def __init__(self, axes):
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def nodes(self) -> np.ndarray:
        """All node coordinates, flattened to (N, d) in C order.

        Each axis's coordinates are written into one array: no meshgrid
        copies to stack.
        """
        shape = self.shape
        d = len(shape)
        out = np.empty(shape + (d,))
        for i, a in enumerate(self.axes):
            out[..., i] = a.reshape((-1,) + (1,) * (d - 1 - i))
        return out.reshape(-1, d)


def as_points(where) -> np.ndarray:
    """The points (N, d) of ``where``: a TensorGrid's nodes, or points as given."""
    if isinstance(where, TensorGrid):
        return where.nodes()
    return np.atleast_2d(np.asarray(where, dtype=np.float64))


class Environment:
    """Fixed realizations of the cost field; immutable after construction.

    Values are a pure function of the spec and the seed: the amplitude of
    the bump in lattice cell ``z`` for channel ``c`` is
    ``uniform01(seed, 0, z..., c)`` rescaled to [amp_lo, amp_hi], generated
    on demand.  Given ``seeds``, the object holds one realization per seed
    (``spec.seed`` is then unused) and every value carries a leading
    realization axis; without, it is the single realization ``spec.seed``,
    held as a batch of one.

    ``values`` stays a pure function of its points.  The only mutable state
    is a single realization's memo: the last point set or grid asked for
    and its read-only table, so that two solves of one realization on one
    grid hash the field once.  A campaign asks for a batch's grid once: it
    keeps none.
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
        # (the bits as int64 of the last points (N, d), or of the last grid's
        # axes, their read-only values)
        self._memo: tuple[tuple[np.ndarray, ...], np.ndarray] | None = None

    # -- certified constants ------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.spec.dimension

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
        mass = BUMP_MASS_1D if s.dimension == 1 else BUMP_MASS_2D
        return 0.5 * (s.amp_lo + s.amp_hi) * mass

    # -- evaluation ---------------------------------------------------------

    def check_inside(self, where) -> None:
        """Refuses points (N, d), or a TensorGrid's nodes, outside the box
        inflated by r, or not finite.

        Each axis's min and max are compared with the box, a grid's on its
        axes: a NaN among them makes them NaN, which compares false.  One
        column at a time: numpy reduces an (N, d) table along axis 0 several
        times slower.
        """
        s = self.spec
        r = s.bump_radius
        lo = np.asarray(s.box_lo) - r
        hi = np.asarray(s.box_hi) + r
        cols = where.axes if isinstance(where, TensorGrid) else where.T
        if all(len(c) for c in cols) and not all(lo[i] <= c.min() and c.max() <= hi[i]
                                                 for i, c in enumerate(cols)):
            pts = as_points(where)
            bad = pts[~np.all((pts >= lo) & (pts <= hi), axis=-1)][:1]
            raise DomainError(
                f"probe {bad} outside environment box [{s.box_lo}, {s.box_hi}] "
                f"(inflated by r={r})"
            )

    def values(self, where) -> np.ndarray:
        """Field values for all channels at points ``where`` (N, d), or at
        the nodes of a ``TensorGrid`` in its ``nodes()`` order.

        (N, C) for a single realization, (M, N, C) for a batch.  A grid and
        its node table give the same bits.  The table is read-only, and its
        memory is channel-major: each channel's (M, N) values are one
        C-ordered block.  Asked again for points with the same shape and
        bits, or for a grid with the same axes, a single realization returns
        the table it gave last.
        """
        if isinstance(where, TensorGrid):
            key = tuple(a.view(np.int64) for a in where.axes)
        else:
            where = np.atleast_2d(np.asarray(where, dtype=np.float64))
            key = (where.view(np.int64),)
        memo = self._memo               # read once: another thread may replace it
        if (memo is not None and len(memo[0]) == len(key)
                and all(map(np.array_equal, memo[0], key))):
            return memo[1]
        self.check_inside(where)
        out = self._raw_values(where)
        out.flags.writeable = False
        if not self.batch_shape:
            out = out[0]
            self._memo = (tuple(k.copy() for k in key), out)
        return out

    def _raw_values(self, where) -> np.ndarray:
        """(M, N, C) values, every realization hashed in one pass: a view of
        the channel-major (C, M, N) table they are summed into.

        A campaign bounds the pass: its batches hold as many realizations
        as ``pde.BATCH_COST_BYTES`` allows.
        """
        out = np.empty((self.spec.channels, len(self.seeds), len(where)))
        if out.size:
            self._add_bumps(where, out)
        return np.moveaxis(out, 0, -1)

    def _lattice(self, where):
        """Where each point lies on the M realizations' lattices, axis by axis.

        Returns the points' layout, (N,) for points or a grid's shape, and
        per axis the base cell (the lattice cell a point lies in, int64)
        and the squared distances to the centres of the bit-0 and the bit-1
        cell along that axis.  Each is an array that broadcasts to
        (M, *layout): a grid's are worked out on its d axes alone.
        """
        if isinstance(where, TensorGrid):
            shape = where.shape
            coords = [a.reshape((-1,) + (1,) * (len(shape) - 1 - i))
                      for i, a in enumerate(where.axes)]
        else:
            shape = where.shape[:1]
            coords = list(where.T)
        r = self.spec.bump_radius
        cells, near = [], []
        for i, x in enumerate(coords):
            off = self.offset[:, i].reshape((-1,) + (1,) * len(shape))
            cell = np.floor((x - off) / r)
            # an integral float: (cell + bit) * r has the bits of the int cell's
            near.append([np.square(x - ((cell + bit) * r + off)) for bit in (0, 1)])
            cells.append(cell.astype(np.int64))
        return shape, cells, near

    @staticmethod
    def _sq(near, corner, out: np.ndarray) -> np.ndarray:
        """One corner's squared distance from every point to its centre: its
        bits' squared distances summed axis by axis, from the first, as
        .sum(axis=-1) would, in out when there is more than one axis."""
        sq = near[0][corner[0]]
        for i in range(1, len(corner)):
            sq = np.add(sq, near[i][corner[i]], out=out)
        return sq

    def _add_bumps(self, where, out: np.ndarray) -> None:
        """Write the field of every realization into out (C, M, N), channel by channel.

        The live (realization, cell) pairs, those whose bump reaches a
        point, are marked over the cell bounding box of the points, stacked
        per realization, and hashed in one call, each once; their
        amplitudes go into a table over the box, zero at the cells no point
        reaches.  A bump reaches a point, (1 - min(s^2, 1))^2 > 0, where
        s^2 = |x - centre|^2 / r^2 < 1, that is where |x - centre|^2 < r^2:
        the division rounds the double below r^2 to 1 - 2^-53 or less, and
        it is monotone.  Points, and a grid of one axis, mark each corner's
        cells where it reaches.  On a grid of more axes a cell is live when
        the least squared distance from a node to its centre is below r^2,
        and that least distance is the sum of the per-axis least ones: the
        (node, corner) pairs whose corner is the cell are a product over the
        axes, and fl-addition is monotone.

        Then the 2^d corners are streamed one at a time through one weight
        buffer: every point takes ``w * amp`` for every corner, in corner
        order, where w = (1 - min(s^2, 1))^2 is the bump profile; a bump
        that does not reach the point has w = +0.0.  The first corner's term
        is written, not added to zeros: amplitudes are finite and
        nonnegative, so every term is >= +0 and 0.0 + term has the term's
        bits.  So each value is the sum over its live bumps, and out's
        prior contents are never read.
        """
        shape, cells, near = self._lattice(where)
        d, M = len(cells), len(self.seeds)
        r = self.spec.bump_radius
        # the box runs from the least base cell to one past the greatest
        lo = [int(c.min()) for c in cells]
        box = (M,) + tuple(int(c.max()) - c_lo + 2 for c, c_lo in zip(cells, lo))
        index = [c - c_lo for c, c_lo in zip(cells, lo)]
        # a (realization, cell)'s row-major index in the box is linear in the
        # cell, so a corner's cells are the base cells' indices moved by k:
        # entry flat of table[k:]
        stride = [math.prod(box[i + 1:]) for i in range(d + 1)]
        rows = np.arange(M).reshape((M,) + (1,) * len(shape))
        corners = list(itertools.product((0, 1), repeat=d))
        shift = [int(np.dot(corner, stride[1:])) for corner in corners]

        def base_index():
            flat = rows * stride[0]
            for i in range(d):
                flat = flat + index[i] * stride[i + 1]
            return flat.reshape(M, -1), np.empty((M,) + shape)

        if len(shape) > 1:
            # per axis, the least squared distance from a node to the centre
            # of each cell, over the (realization, cell) rows of the box
            flat, least = None, []
            for i in range(d):
                q = np.full(M * box[i + 1], np.inf)
                at = (index[i] + rows * box[i + 1]).ravel()
                for bit in (0, 1):
                    np.minimum.at(q[bit:], at, near[i][bit].ravel())
                least.append(q.reshape((M,) + (1,) * i + (-1,) + (1,) * (d - 1 - i)))
            sq = least[0]
            for q in least[1:]:
                sq = sq + q
            marked = (sq < r**2).ravel()
        else:
            flat, w = base_index()
            marked = np.zeros(math.prod(box), dtype=bool)
            for k, corner in zip(shift, corners):
                marked[k:][flat[self._sq(near, corner, w) < r**2]] = True
        # never empty: a point's nearest corner lies within r sqrt(d) / 2 < r
        live = np.flatnonzero(marked)
        m, *z = np.unravel_index(live, box)
        table = np.zeros((self.spec.channels, len(marked)))
        table[:, live] = self._cell_amplitudes(
            self.seeds[m], np.stack(z, axis=1) + lo,
            np.arange(self.spec.channels, dtype=np.int64)).T
        if flat is None:            # a grid's, built after the hashing's temporaries
            flat, w = base_index()
        term = np.empty(flat.shape)
        weights = w.reshape(flat.shape)
        for j, (k, corner) in enumerate(zip(shift, corners)):
            s2 = np.divide(self._sq(near, corner, w), r**2, out=w)
            np.square(np.subtract(1.0, np.minimum(s2, 1.0, out=s2), out=s2), out=s2)
            for amp, acc in zip(table, out):
                dst = term if j else acc
                # every index is in the box: "clip" reads as "raise" would,
                # without buffering dst
                np.take(amp[k:], flat, out=dst, mode="clip")
                np.multiply(dst, weights, out=dst)
                if j:
                    np.add(acc, term, out=acc)

    def _cell_amplitudes(self, seeds: np.ndarray, z: np.ndarray, chans: np.ndarray) -> np.ndarray:
        """Amplitudes (K, C) of the cells z (K, d) of the realizations seeded ``seeds`` (K,)."""
        s = self.spec
        parts = [z[:, ax, None] for ax in range(z.shape[1])]
        u = uniform01(seeds[:, None], 0, *parts, chans[None, :])
        return s.amp_lo + (s.amp_hi - s.amp_lo) * u


class EnvironmentView:
    """A base environment whose field is moved on a slab.

    A point x inside the slab { x : <x, e> in [lo, hi] }, ``slab`` = (lo,
    hi, e) with e a unit vector, is read at x - shift; any other point is
    read as it is.  Every point is read from the base exactly once.  The
    patched field is discontinuous at the slab faces, which the
    value-function machinery tolerates (costs only need to be measurable
    and bounded).
    """

    def __init__(self, base, shift: np.ndarray, slab: tuple):
        self.base = base
        self.shift = np.asarray(shift, dtype=np.float64)
        self.slab = slab

    @property
    def batch_shape(self):
        return self.base.batch_shape

    def values(self, where) -> np.ndarray:
        """The base's values at ``where``'s points, those in the slab moved.

        A grid's node table is this call's own and is moved in place; the
        caller's points are copied first.
        """
        if isinstance(where, TensorGrid):
            moved = where.nodes()
        else:
            moved = np.array(where, dtype=np.float64, ndmin=2)
        lo, hi, e = self.slab
        proj = moved @ e
        moved[(proj >= lo) & (proj <= hi)] -= self.shift
        return self.base.values(moved)


def sample_environment(spec: EnvSpec, seeds=None) -> Environment:
    """Materialize (lazily) the field realization determined by ``spec``.

    With ``seeds``, one environment holds ``len(seeds)`` realizations of
    ``spec``'s law: row m of its values is the realization
    ``with_seed(spec, seeds[m])``, bit for bit.
    """
    return Environment(spec, seeds)


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
