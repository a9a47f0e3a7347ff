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
    is a single realization's memo: the last point set asked for and its
    read-only table, so that two solves of one realization on one grid hash
    the field once.  A campaign asks for a batch's points once: it keeps none.
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
        # (bits of the last points (N, d) as int64, their read-only values)
        self._memo: tuple[np.ndarray, np.ndarray] | None = None

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

    def check_inside(self, pts: np.ndarray) -> None:
        """Refuses points (N, d) outside the box inflated by r, or not finite.

        Each axis's min and max are compared with the box: a NaN among the
        points makes them NaN, which compares false.  One column at a time:
        numpy reduces an (N, d) table along axis 0 several times slower.
        """
        s = self.spec
        r = s.bump_radius
        lo = np.asarray(s.box_lo) - r
        hi = np.asarray(s.box_hi) + r
        if len(pts) and not all(lo[i] <= pts[:, i].min() and pts[:, i].max() <= hi[i]
                                for i in range(len(lo))):
            bad = pts[~np.all((pts >= lo) & (pts <= hi), axis=-1)][:1]
            raise DomainError(
                f"probe {bad} outside environment box [{s.box_lo}, {s.box_hi}] "
                f"(inflated by r={r})"
            )

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Field values at points ``pts`` (N, d) for all channels.

        (N, C) for a single realization, (M, N, C) for a batch.  The
        table is read-only, and its memory is channel-major: each channel's
        (M, N) values are one C-ordered block.  Asked again for points with
        the same shape and bits, a single realization returns the table it
        gave last.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        bits = pts.view(np.int64)
        memo = self._memo               # read once: another thread may replace it
        if memo is not None and np.array_equal(memo[0], bits):
            return memo[1]
        self.check_inside(pts)
        out = self._raw_values(pts)
        out.flags.writeable = False
        if not self.batch_shape:
            out = out[0]
            self._memo = (bits.copy(), out)
        return out

    def _corners(self, pts: np.ndarray):
        """The 2^d bumps covering each point, one lattice corner at a time.

        For the M realizations, returns the base cells (d, M, N), the
        lattice cell each point lies in, and per corner, in order, (corner,
        live (M, N), weights (M, N)): the corner's cell is the base cell +
        corner, ``live`` says whether its bump reaches the point, and the
        weight is the bump profile there (zero where it does not).  The
        geometry is worked out once per axis: the base cell, and the
        squared distance to the centre of the bit-0 and of the bit-1 cell
        along that axis.  A corner sums its bits' terms axis by axis, from
        the first, as .sum(axis=-1) would.
        """
        r = self.spec.bump_radius
        off = self.offset[:, None, :]
        d = pts.shape[1]
        base = np.empty((d, off.shape[0], len(pts)), dtype=np.int64)
        sq_axis = []
        for i in range(d):
            cell = np.floor((pts[:, i] - off[..., i]) / r)
            base[i] = cell
            # an integral float: (cell + bit) * r has the bits of the int cell's
            sq_axis.append([np.square(pts[:, i] - ((cell + bit) * r + off[..., i]))
                            for bit in (0, 1)])
        bumps = []
        for corner in itertools.product((0, 1), repeat=d):
            sq = sq_axis[0][corner[0]]
            for i in range(1, d):
                sq = sq + sq_axis[i][corner[i]]
            s2 = sq / r**2
            # (1 - min(s2, 1))^2 is +0.0 where the bump does not reach
            w = np.square(np.subtract(1.0, np.minimum(s2, 1.0, out=s2), out=s2), out=s2)
            bumps.append((corner, w > 0.0, w))
        return base, bumps

    def _raw_values(self, pts: np.ndarray) -> np.ndarray:
        """(M, N, C) values, every realization hashed in one pass: a view of
        the channel-major (C, M, N) table they are summed into.

        A campaign bounds the pass: its batches hold as many realizations
        as ``pde.BATCH_COST_BYTES`` allows.
        """
        M = len(self.seeds)
        out = np.empty((self.spec.channels, M, len(pts)))
        if out.size:
            self._add_bumps(pts, out)
        return np.moveaxis(out, 0, -1)

    def _add_bumps(self, pts: np.ndarray, out: np.ndarray) -> None:
        """Write the field of every realization into out (C, M, N), channel by channel.

        The corners' live (realization, cell) pairs are marked over the
        cell bounding box of the points, stacked per realization, and
        hashed in one call, each once; their amplitudes go into a table
        over the box, zero at the cells no point reaches.  Every point then
        takes ``w * amp`` for every corner, in corner order: a bump that
        does not reach the point has w = 0 and adds +0.0.  The first
        corner's term is written, not added to zeros: amplitudes are finite
        and nonnegative, so every term is >= +0 and 0.0 + term has the
        term's bits.  So each value is the sum over its live bumps, and
        out's prior contents are never read.
        """
        base, bumps = self._corners(pts)
        d, M = base.shape[:2]
        # the box runs from the least base cell to one past the greatest
        lo = [int(c.min()) for c in base]
        shape = (M,) + tuple(int(c.max()) - c_lo + 2 for c, c_lo in zip(base, lo))
        # a (realization, cell)'s row-major index in the box is linear in the
        # cell, so a corner's cells are the base cells' indices moved by k:
        # entry flat of table[k:]
        stride = [math.prod(shape[i + 1:]) for i in range(d + 1)]
        flat = np.arange(M)[:, None] * stride[0]
        for i in range(d):
            flat = flat + (base[i] - lo[i]) * stride[i + 1]
        shift = [int(np.dot(corner, stride[1:])) for corner, _, _ in bumps]
        marked = np.zeros(math.prod(shape), dtype=bool)
        for k, (_, live, _) in zip(shift, bumps):
            marked[k:][flat[live]] = True
        # never empty: a point's nearest corner lies within r sqrt(d) / 2 < r
        cells = np.flatnonzero(marked)
        m, *z = np.unravel_index(cells, shape)
        table = np.zeros((self.spec.channels, len(marked)))
        table[:, cells] = self._cell_amplitudes(
            self.seeds[m], np.stack(z, axis=1) + lo,
            np.arange(self.spec.channels, dtype=np.int64)).T
        term = np.empty(flat.shape)
        for amp, acc in zip(table, out):
            for j, (k, (_, _, w)) in enumerate(zip(shift, bumps)):
                dst = term if j else acc
                np.take(amp[k:], flat, out=dst)
                np.multiply(dst, w, out=dst)
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

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        lo, hi, e = self.slab
        proj = pts @ e
        inside = (proj >= lo) & (proj <= hi)
        moved = pts.copy()
        moved[inside] -= self.shift
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
