"""Hypothesis strategies, exact oracles and session fixtures shared by the test modules."""
import itertools
import math
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import stats

from hjhomog import homog
from hjhomog.env import EnvSpec, as_points, sample_environment
from hjhomog.families import FAMILIES, build
from hjhomog.game import shift_momentum


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """Shut the campaign pool down after the last test; no worker may outlive it."""
    yield
    homog._shutdown_pool()
    assert multiprocessing.active_children() == []


SPEEDS = st.floats(0.1, 2.0)
#: (family, params) of an oriented field game
ORIENTED = st.one_of(
    st.tuples(st.just("transport"), st.builds(lambda s, sign: {"speed": sign * s},
                                              SPEEDS, st.sampled_from([1.0, -1.0]))),
    st.tuples(st.just("two-speed-control"),
              st.builds(lambda a, b: {"speeds": (a, b)}, SPEEDS, SPEEDS)),
    st.tuples(st.just("saddle-game"),
              st.builds(lambda base, c: {"base_speed": base, "coupling": c * base},
                        SPEEDS, st.floats(-0.9, 0.9))),
)

SPEED = st.floats(-2.0, 2.0)


@st.composite
def localized_params(draw, dim):
    """v along the first axis and pi onto the others, so that pi(v) = 0 exactly."""
    pi = np.zeros((dim, dim))
    pi[1:, 1:] = draw(st.floats(-1.0, 1.0)) * np.eye(dim - 1)
    v = [draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1.0, -1.0]))] + [0.0] * (dim - 1)
    if draw(st.booleans()):
        g0 = {"g0": "affine", "slope": draw(st.lists(SPEED, min_size=dim, max_size=dim)),
              "offset": draw(SPEED)}
    else:
        g0 = {"g0": "norm", "scale": draw(st.floats(0.0, 2.0))}
    # an axis of n < 3 points puts every 2-D grid point outside the unit ball
    return {"beta": draw(st.floats(0.1, 2.0)), "R": draw(st.floats(0.5, 2.0)), "v": v,
            "pi": pi.tolist(), "n_a": draw(st.integers(3, 6)), "n_b": draw(st.integers(3, 6)),
            **g0}


PARAMS = {
    "transport": lambda dim: st.fixed_dictionaries({"speed": SPEED}),
    "two-speed-control": lambda dim: st.fixed_dictionaries(
        {"speeds": st.lists(SPEED, min_size=1, max_size=3)}),
    "saddle-game": lambda dim: st.fixed_dictionaries(
        {"base_speed": SPEED, "coupling": SPEED}),
    "localized": localized_params,
}


@st.composite
def drawn_games(draw):
    """A game of any registered family, 1-D or 2-D, possibly momentum-shifted, and its field."""
    dim = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(sorted(FAMILIES)))
    gh = build(name, draw(PARAMS[name](dim)), dim)
    if draw(st.booleans()):
        gh = shift_momentum(gh, draw(st.lists(SPEED, min_size=dim, max_size=dim)))
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=draw(st.sampled_from([1, gh.n_a * gh.n_b])),
                   box_lo=(-8.0,) * dim, box_hi=(8.0,) * dim, seed=draw(st.integers(0, 99)))
    return gh, sample_environment(spec)


# ---------------------------------------------------------------------------
# exact oracles


class ConstantEnvironment:
    """Degenerate environment with a constant cost; handy for exact oracles."""

    def __init__(self, value: float, channels: int = 1, dimension: int = 1):
        self.value = float(value)
        self.channels = channels
        self.dimension = dimension
        self.sup_bound = abs(self.value)
        self.lip_bound = 0.0
        self.batch_shape = ()

    def values(self, where) -> np.ndarray:
        return np.full((len(as_points(where)), self.channels), self.value)


def env_bumps(env, pts):
    """The 2^d bumps covering each point, walked point by point from the field's law.

    Realization m centres the bump of lattice cell z at z r + offset[m]; a
    point x lies in the cell floor((x - offset[m]) / r), and the cells
    covering it are that cell + corner, corner in {0, 1}^d in
    ``itertools.product`` order.  A bump weighs (1 - min(s^2, 1))^2 at x,
    s^2 the squared distance to its centre summed axis by axis from the
    first, over r^2.  Yields (m, n, cell, weight) for every realization m,
    point n and corner, in that order; plain floats, none of the library's
    evaluation code.
    """
    r = env.spec.bump_radius
    for m, off in enumerate(env.offset.tolist()):
        for n, x in enumerate(np.atleast_2d(pts).tolist()):
            base = [math.floor((xi - oi) / r) for xi, oi in zip(x, off)]
            for corner in itertools.product((0, 1), repeat=len(x)):
                cell = tuple(b + c for b, c in zip(base, corner))
                sq = 0.0
                for xi, oi, zi in zip(x, off, cell):
                    gap = xi - (float(zi) * r + oi)
                    sq = sq + gap * gap
                t = 1.0 - min(sq / r**2, 1.0)
                yield m, n, cell, t * t


def cells_touched(env, pts):
    """Lattice cells whose amplitude keys the probes pts consume.

    The dependence-range certificate: probe sets at Hausdorff distance >
    rho must give disjoint cell sets.  It walks the covering bumps point by
    point (``env_bumps``), apart from the evaluation, so that the tests can
    check that ``values`` hashes exactly these cells.  A set of cells per
    realization: one set, or a list of M sets for a batch.
    """
    touched = [set() for _ in env.seeds]
    for m, _, cell, w in env_bumps(env, pts):
        if w > 0.0:
            touched[m].add(cell)
    return touched if env.batch_shape else touched[0]


def ref_steps_and_records(cfg):
    """A config's step count to T and its record times by step, as the solvers
    first worked them out; refuses (ValueError) a time off the dt grid."""
    n_steps = int(round(cfg.T / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ValueError(f"T={cfg.T} is not an integer multiple of dt={cfg.dt}")
    records = {}
    for rt in cfg.record_times:
        k = int(round(rt / cfg.dt))
        if abs(k * cfg.dt - rt) > 1e-9 * max(1.0, cfg.T) or not 0 <= k <= n_steps:
            raise ValueError(f"record time {rt} not on the time grid (dt={cfg.dt})")
        records[k] = rt
    return n_steps, records


def ref_grid_from_box(lo, hi, dx):
    """The (lo, dx, shape) of the grid from corner lo to hi at step dx, node
    counts rounded; refuses (ValueError) an axis of fewer than 2 nodes."""
    lo = tuple(float(v) for v in np.atleast_1d(lo))
    hi = tuple(float(v) for v in np.atleast_1d(hi))
    shape = tuple(int(round((h - l) / dx)) + 1 for l, h in zip(lo, hi))
    if any(n < 2 for n in shape):
        raise ValueError(f"degenerate grid: shape {shape}")
    return lo, float(dx), shape


def ref_cell_and_weight(s: np.ndarray):
    """Cell index and in-cell weight of positions s given in cells; positions
    within 1e-12 of a node snap onto it (weight 0)."""
    k = np.floor(s)
    w = s - k
    w = np.where(w < 1e-12, 0.0, w)
    top = w > 1 - 1e-12
    return np.where(top, k + 1, k).astype(np.intp), np.where(top, 0.0, w)


def ref_sl_reach(f: np.ndarray, dt: float, dx: float):
    """Cells an SL step sheds, (below, above) per axis, for the velocities f (pairs, d)."""
    k, w = ref_cell_and_weight(dt * f / dx)
    return np.maximum(0, -k).max(axis=0), np.maximum(0, k + (w > 0.0)).max(axis=0)


def ref_sl_stencils(f: np.ndarray, dt: float, dx: float, shed_lo):
    """An SL plan's (corners, stencil), built pair by pair: a pair's corners
    step only along the axes where its foot point is off a node."""
    k, w = ref_cell_and_weight(dt * f / dx)
    index: dict[tuple, int] = {}
    stencil = []
    for kp, wp in zip(k, w):
        terms = []
        for corner in itertools.product(*[(0, 1) if wi > 0.0 else (0,) for wi in wp]):
            weight = 1.0
            for i, c in enumerate(corner):
                weight *= wp[i] if c else (1.0 - wp[i]) if wp[i] > 0.0 else 1.0
            terms.append((weight, tuple(int(shed_lo[i] + kp[i] + c)
                                        for i, c in enumerate(corner))))
        stencil.append(index.setdefault(tuple(terms), len(index)))
    return tuple(index), tuple(stencil)


def shift_view(env, y) -> SimpleNamespace:
    """The translated view of env: its values at x are env's at x + y."""
    y = np.asarray(y, dtype=np.float64)
    return SimpleNamespace(
        values=lambda where: env.values(as_points(where) + y))


def azuma_bound(increments, M: float) -> float:
    """Two-sided martingale tail bound 2 exp(-M^2 / (2 sum c_m^2))."""
    c = np.asarray(increments, dtype=np.float64)
    if np.any(c < 0):
        raise ValueError("bounded-difference constants must be nonnegative")
    s = float(np.sum(c**2))
    if s == 0.0:
        return 2.0 if M <= 0 else 0.0
    return 2.0 * math.exp(-(M**2) / (2.0 * s))


def additive_surrogate_tails(t: int, n_samples: int, M_grid, seed: int = 0) -> dict:
    """Direct simulation of the i.i.d.-increment surrogate (sums of uniforms),
    its log-tails fitted by scipy's linregress."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(n_samples, int(t))).sum(axis=1)
    M_grid, freqs, xs, ys = homog._tail_fit(np.abs(u - u.mean()), t, M_grid)
    fit = stats.linregress(xs, ys)
    slope, r2 = float(fit.slope), float(fit.rvalue**2)
    return {
        "t": t,
        "M_grid": M_grid,
        "tail_freqs": freqs,
        "slope": slope,
        "r2": r2,
        "c_hat": -slope,
    }


def synthetic_table(times, h: float, noise: float = 0.0, M: int = 1,
                    seed: int = 0, beta: float = 10.0) -> homog.UTable:
    """Planted almost-subadditive sequence U(n) = -n h + sqrt(n ln n)."""
    rng = np.random.default_rng(seed)
    times = sorted(float(t) for t in times)
    rows = []
    for t in times:
        base = -t * h + math.sqrt(t * max(math.log(t), math.log(2.0)))
        rows.append(base + noise * rng.normal(size=M))
    return homog.UTable(theta=np.zeros(1), times=times, samples=np.stack(rows),
                        base_seed=seed, beta=beta)
