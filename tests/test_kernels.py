"""The per-realization kernels equal their straightforward forms, bit for bit.

Each reference below is the plain form of a kernel: field values summed
point by point over the covering bumps (conftest's ``env_bumps``), an SL step
that interpolates every action pair's stencil itself, an LF substep and a
max-min evaluator built from whole-window temporaries, and a rate
experiment that solves each sample bank on its own and bootstraps with one
choice() call per epsilon and round.  The library's kernels do the same
floating-point operations in the same order with fewer array passes, so
every value must match to the last bit, the sign of zero included.
"""
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ORIENTED, PARAMS, ConstantEnvironment, cells_touched, drawn_games, env_bumps,
                      ref_sl_reach, ref_sl_stencils)
from hjhomog import game as game_module
from hjhomog import homog, pde
from hjhomog.env import DomainError, EnvSpec, TensorGrid, sample_environment, with_seed
from hjhomog.families import build
from hjhomog.game import (GameHamiltonian, _aligned_planes, eval_H_nodes, shift_momentum,
                          velocities)
from hjhomog.homog import _slopes, _solve_batches, _sup_errors, rate_experiment, solve_box_for
from hjhomog.pde import (SolveConfig, _march, _plan_window, _precompute_cost, linear_datum,
                         sl_plan, sl_step_cost, solve_lf, solve_sl_batch)
from hjhomog.rng import derive_seed, derive_seeds, uniform01

# ---------------------------------------------------------------------------
# reference kernels


def ref_raw_values(env, pts):
    """(M, N, C) values summed point by point over ``env_bumps``, in corner
    order, each live cell's amplitude drawn from the documented law:
    uniform01(seed, 0, cell..., channel) rescaled to [amp_lo, amp_hi]."""
    s = env.spec
    out = np.zeros((len(env.seeds), len(pts), s.channels))
    bumps = [(m, n, cell, w) for m, n, cell, w in env_bumps(env, pts) if w > 0.0]
    keys = sorted({(m, cell) for m, _, cell, _ in bumps})
    seeds = env.seeds[[m for m, _ in keys]]
    z = np.array([cell for _, cell in keys], dtype=np.int64).reshape(len(keys), -1)
    u = uniform01(seeds[:, None], 0, *(z[:, i, None] for i in range(z.shape[1])),
                  np.arange(s.channels, dtype=np.int64)[None, :])
    amp = dict(zip(keys, s.amp_lo + (s.amp_hi - s.amp_lo) * u))
    for m, n, cell, w in bumps:
        out[m, n] += w * amp[m, cell]
    return out


def ref_sl_step_cost(gh, env, plan, out=None):
    pts = plan.grid.nodes()
    c = np.broadcast_to(gh.cost(pts / plan.cfg.epsilon, env), (len(pts), gh.n_a, gh.n_b))
    cost = c.reshape(len(pts), -1).T.reshape(-1, *plan.grid.shape)
    return np.multiply(cost, plan.cfg.dt, out=out, order="C")


def ref_step_costs(gh, spec, seeds, plan):
    cost = np.empty((len(plan.stencil),) + plan.grid.shape + (len(seeds),))
    for m, seed in enumerate(seeds):
        ref_sl_step_cost(gh, sample_environment(with_seed(spec, seed)), plan, out=cost[..., m])
    return cost


def ref_solve_sl_batch(plan, step_cost, g):
    grid = plan.grid
    M = step_cost.shape[-1]
    step_cost = np.moveaxis(step_cost, -1, 1)
    corners = [plan.corners[s] for s in plan.stencil]    # one stencil per pair

    def step(v, k):
        active = plan.active(k)
        out_sl = (slice(None),) + tuple(slice(lo, hi) for lo, hi in active)
        size = tuple(hi - lo for lo, hi in active)
        cand = np.empty((len(corners), M) + size)
        for j, terms in enumerate(corners):
            interp = None
            for weight, off in terms:
                src = (slice(None),) + tuple(slice(o, o + n) for o, n in zip(off, size))
                term = v[src] if weight == 1.0 else weight * v[src]
                interp = term if interp is None else interp + term
            np.add(step_cost[j][out_sl], interp, out=cand[j])
        return cand.reshape(plan.n_a, plan.n_b, M, *size).max(axis=0).min(axis=0)

    v = np.broadcast_to(
        np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape),
        (M,) + grid.shape)
    return _march(plan, [(v, step)], lambda v, active, t: grid.window_field(
        np.moveaxis(v, 0, -1), active, t))


def ref_eval_H_nodes(gh, cost, P):
    drift = 0.0                                   # 0 + sum of f_i p_i over every axis
    for i in range(gh.dim):
        drift = drift + gh.f_table[..., i, None] * P[:, i]
    return (-cost - drift).min(axis=0).max(axis=0)


def ref_solve_lf(gh, env, cfg, g):
    sigma = np.abs(gh.f_pairs).max(axis=0)
    shed = pde.reach(gh.f_pairs, "lax-friedrichs", cfg.dt, cfg.dx)
    win = _plan_window(cfg, velocities(gh), *shed)
    cost = np.ascontiguousarray(_precompute_cost(gh, env, win.grid, cfg.epsilon))

    def ham(window, P):
        return ref_eval_H_nodes(gh, cost[(slice(None),) + window].reshape(gh.n_a, gh.n_b, -1), P)

    grid = win.grid
    d = grid.dim
    n_sub = win.shed_lo[0]
    dt_sub = win.cfg.dt / n_sub
    nu = sigma * grid.dx / 2.0
    inner = (slice(1, -1),) * d

    def step(v, k):
        for rings_left in range(n_sub - 1, -1, -1):
            P = np.empty(tuple(n - 2 for n in v.shape) + (d,))
            visc = np.zeros(P.shape[:-1])
            for i in range(d):
                up = inner[:i] + (slice(2, None),) + inner[i + 1:]
                dn = inner[:i] + (slice(None, -2),) + inner[i + 1:]
                P[..., i] = (v[up] - v[dn]) / (2.0 * grid.dx)
                visc += nu[i] * (v[up] - 2.0 * v[inner] + v[dn]) / grid.dx**2
            window = tuple(slice(lo - rings_left, hi + rings_left) for lo, hi in win.active(k))
            H = ham(window, P.reshape(-1, d)).reshape(P.shape[:-1])
            v = v[inner] - dt_sub * H + dt_sub * visc
        return v

    v = np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape)
    return _march(win, [(v, step)], grid.window_field, substeps_per_step=n_sub)


def ref_rate_experiment(gh, env_spec, theta, eps_list, R, T, M, H_bar, dx, dt, base_seed,
                        slope_band=(0.35, 0.65)):
    eps_list = sorted(float(e) for e in eps_list)
    if any(e > 0.5 for e in eps_list):
        raise ValueError("epsilon must be <= 1/2 (outside the valid range)")
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))

    def bank(tag: int, count: int) -> dict[float, np.ndarray]:
        per_eps = {}
        for ei, eps in enumerate(eps_list):
            seeds = [derive_seed(base_seed, tag, ei, i) for i in range(count)]
            per_eps[eps] = _sup_errors(gh, env_spec, seeds, theta, eps, R, T, H_bar, dx, dt)
        return per_eps

    cal = bank(1, max(4, M))
    test = bank(2, M)

    ratios = np.concatenate([
        cal[eps] / math.sqrt(-eps * math.log(eps)) for eps in eps_list
    ])
    K_hat = 1.25 * float(ratios.max())

    medians = {eps: float(np.median(test[eps])) for eps in eps_list}
    spread = all(np.std(test[eps]) > 1e-12 or medians[eps] > 1e-12
                 for eps in eps_list)
    degenerate = not spread

    slope = None
    slope_se = None
    conclusive = False
    in_band = False
    if not degenerate and all(medians[eps] > 0 for eps in eps_list):
        xs = np.log(eps_list)
        ys = np.log([medians[e] for e in eps_list])
        slope = float(_slopes(xs, [ys])[0])
        # bootstrap the medians for an honest slope uncertainty
        rng = np.random.default_rng(base_seed)
        boots = []
        for _ in range(200):
            ys_b = []
            for eps in eps_list:
                samp = rng.choice(test[eps], size=len(test[eps]), replace=True)
                med = np.median(samp)
                ys_b.append(math.log(max(med, 1e-300)))
            boots.append(float(_slopes(xs, [ys_b])[0]))
        slope_se = float(np.std(boots))
        in_band = slope_band[0] <= slope <= slope_band[1]
        conclusive = in_band or slope_se < 0.1

    exceedance = {
        eps: float(np.mean(test[eps] > K_hat * math.sqrt(-eps * math.log(eps))))
        for eps in eps_list
    }
    exceedance_ok = all(exceedance[eps] <= 5.0 * eps**2 + 1e-12 for eps in eps_list)
    return {
        "eps_list": eps_list,
        "medians": medians,
        "quantiles": {eps: [float(np.quantile(test[eps], q))
                            for q in (0.1, 0.5, 0.9)] for eps in eps_list},
        "slope": slope,
        "slope_se": slope_se,
        "in_band": in_band,
        "conclusive": conclusive,
        "degenerate": degenerate,
        "K_hat": float(K_hat),
        "exceedance": exceedance,
        "exceedance_ok": exceedance_ok,
    }


# ---------------------------------------------------------------------------
# drawn cases

# a localized 2-D game with a momentum shift: its velocities have two
# nonzero components and its pairs share stencils along b
LOCALIZED_2D = shift_momentum(build("localized", {
    "beta": 1.5, "R": 1.0, "v": [0.75, 0.0], "pi": [[0.0, 0.0], [0.0, 0.8]],
    "n_a": 4, "n_b": 5, "g0": "norm", "scale": 1.0}, 2), [0.3, -0.7])
LOCALIZED_2D_CASE = (LOCALIZED_2D, sample_environment(EnvSpec(
    dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=1,
    box_lo=(-8.0, -8.0), box_hi=(8.0, 8.0), seed=3)))
SADDLE_CASE = (build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 2),
               sample_environment(EnvSpec(
                   dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=4,
                   box_lo=(-8.0, -8.0), box_hi=(8.0, 8.0), seed=5)))
# the benchmark's 2-D field solve: the saddle game shifted by theta = (0.5, 0.25);
# at dt = dx = 0.25 an LF step is three substeps
FIELD2D_CASE = (shift_momentum(SADDLE_CASE[0], [0.5, 0.25]), SADDLE_CASE[1])
# a game that does not move: no axis sheds a cell, so every read is the whole window
STILL_CASE = (build("saddle-game", {"base_speed": 0.0, "coupling": 0.0}, 2), SADDLE_CASE[1])
TRANSPORT_1D_ENV = sample_environment(EnvSpec(
    dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=1,
    box_lo=(-8.0,), box_hi=(8.0,), seed=7))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def covering_env(env, box, margin=1.0):
    spec = replace(env.spec, box_lo=tuple(v - margin for v in box[0]),
                   box_hi=tuple(v + margin for v in box[1]))
    return sample_environment(spec)


# ---------------------------------------------------------------------------
# environment values


@settings(max_examples=60, deadline=None)
@given(game=drawn_games(), data=st.data())
@example(game=LOCALIZED_2D_CASE, data=None)
@example(game=SADDLE_CASE, data=None)
def test_values_hash_each_live_cell_once(game, data):
    _, env = game
    d = env.dimension
    if data is None:
        pts = pde.Grid.from_box((-3.0,) * d, (3.0,) * d, 0.125).nodes()
    else:
        n = data.draw(st.integers(1, 40))
        pts = np.array(data.draw(st.lists(st.lists(st.floats(-8.5, 8.5), min_size=d, max_size=d),
                                          min_size=n, max_size=n)))
    calls = []
    amplitudes = env._cell_amplitudes

    def recording(seeds, z, chans):
        calls.append(z.tolist())
        return amplitudes(seeds, z, chans)

    env._cell_amplitudes = recording
    got = env.values(pts)
    env._cell_amplitudes = amplitudes
    assert same_bits(got, ref_raw_values(env, pts)[0])
    hashed = [tuple(z) for call in calls for z in call]
    assert len(calls) <= 1 and len(hashed) == len(set(hashed))
    assert set(hashed) == cells_touched(env, pts)


BATCH_1D = sample_environment(EnvSpec(
    dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=4,
    box_lo=(-8.0,), box_hi=(8.0,), seed=0), seeds=[3, -11, 2**40])


@pytest.mark.parametrize("env", [LOCALIZED_2D_CASE[1], SADDLE_CASE[1], BATCH_1D],
                         ids=["localized-2d", "saddle-2d", "batch-1d"])
def test_add_bumps_writes_every_value_of_its_buffer(env):
    # the first corner's term is written, not added: a buffer holding NaN
    # from before must come out with the field's bits
    d = env.dimension
    pts = pde.Grid.from_box((-3.0,) * d, (3.0,) * d, 0.125).nodes()
    want = ref_raw_values(env, pts)
    out = np.full((env.spec.channels,) + want.shape[:2], np.nan)
    env._add_bumps(pts, out)
    assert same_bits(np.moveaxis(out, 0, -1), want)


@st.composite
def seed_batches(draw):
    """A field law, M distinct seeds, and points with lattice nodes and bump edges among them."""
    d = draw(st.sampled_from([1, 2]))
    M = draw(st.integers(1, 6))
    seeds = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=M, max_size=M, unique=True))
    spec = EnvSpec(dimension=d, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=draw(st.integers(1, 4)), box_lo=(-4.0,) * d, box_hi=(4.0,) * d,
                   seed=0)
    env = sample_environment(spec, seeds)
    pts = draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d),
                        min_size=1, max_size=20))
    # a realization's lattice node, or that node moved by r along one axis
    for m, z, edge, axis in draw(st.lists(st.tuples(
            st.integers(0, M - 1), st.lists(st.integers(-6, 6), min_size=d, max_size=d),
            st.sampled_from([0.0, 1.0, -1.0]), st.integers(0, d - 1)), max_size=8)):
        p = np.array(z) * spec.bump_radius + env.offset[m]
        p[axis] += edge * spec.bump_radius
        pts.append(p.tolist())
    return spec, seeds, env, np.array(pts)


@settings(max_examples=60, deadline=None)
@given(case=seed_batches())
def test_seed_axis_environment_equals_per_realization_fields(case):
    spec, seeds, env, pts = case
    singles = [sample_environment(with_seed(spec, s)) for s in seeds]
    calls = []
    amplitudes = env._cell_amplitudes

    def recording(seeds, z, chans):
        calls.append(list(zip(seeds.tolist(), map(tuple, z.tolist()))))
        return amplitudes(seeds, z, chans)

    want = ref_raw_values(env, pts)
    env._cell_amplitudes = recording
    got = env.values(pts)
    assert got.shape == (len(seeds), len(pts), spec.channels)
    assert same_bits(got, np.stack([one.values(pts) for one in singles]))
    assert same_bits(got, want)
    # one pass: a single call hashes every live (seed, cell) pair exactly once
    assert len(calls) == 1
    hashed = calls[0]
    assert len(hashed) == len(set(hashed))
    touched = cells_touched(env, pts)
    for m, (seed, one) in enumerate(zip(seeds, singles)):
        assert {z for s, z in hashed if s == seed} == cells_touched(one, pts) == touched[m]


@st.composite
def grid_cases(draw):
    """A field law, a single realization or a seed batch, and a tensor grid's axes.

    An axis is a solve grid's divided by eps, as ``_precompute_cost`` hands
    it over, or coordinates anywhere in the box inflated by r: its edges,
    lattice nodes of the first realization and bump edges among them, in
    any order and with repeats.
    """
    d = draw(st.sampled_from([1, 2]))
    r = draw(st.sampled_from([0.5, 1 / 3]))
    eps = draw(st.sampled_from([1.0, 0.25, 1 / 3]))
    seeds = draw(st.one_of(st.none(), st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                                                max_size=4, unique=True)))
    spec = EnvSpec(dimension=d, rho=2 * r, bump_radius=r, amp_lo=0.0, amp_hi=1.0,
                   channels=draw(st.sampled_from([1, 4])), box_lo=(-4.0,) * d,
                   box_hi=(4.0,) * d, seed=draw(st.integers(-2**63, 2**63 - 1)))
    env = sample_environment(spec, seeds)
    # the inflated box's edges as check_inside computes them
    lo, hi = np.asarray(spec.box_lo) - r, np.asarray(spec.box_hi) + r
    axes = []
    for i in range(d):
        if draw(st.booleans()):
            start = draw(st.sampled_from([-4.0, -3.0, -1.25, 0.0])) * eps
            grid = pde.Grid.from_box([start], [start + draw(st.sampled_from([0.5, 1.0, 3.0])) * eps],
                                     draw(st.sampled_from([0.125, 0.25])) * eps)
            axes.append(grid.axis(0) / eps)
            continue
        inside = st.one_of(
            st.sampled_from([lo[i], hi[i]]), st.floats(lo[i], hi[i]),
            st.builds(lambda z, edge: z * r + env.offset[0, i] + edge * r,
                      st.integers(-7, 7), st.sampled_from([0.0, 1.0, -1.0])
                      ).filter(lambda x: lo[i] <= x <= hi[i]))
        axes.append(np.array(draw(st.lists(inside, min_size=1, max_size=12))))
    return spec, seeds, eps, axes


def recorded(env) -> list:
    """The (seed, cell) pairs of each of env's hashing calls, as they are made."""
    calls = []
    amplitudes = env._cell_amplitudes

    def recording(seeds, z, chans):
        calls.append(list(zip(seeds.tolist(), map(tuple, z.tolist()))))
        return amplitudes(seeds, z, chans)

    env._cell_amplitudes = recording
    return calls


@settings(max_examples=80, deadline=None)
@given(case=grid_cases())
def test_a_grid_gives_the_bits_and_cells_of_its_node_table(case):
    spec, seeds, eps, axes = case
    grid = TensorGrid(axes)
    pts = grid.nodes()
    assert pts.shape == (math.prod(len(a) for a in axes), spec.dimension)
    by_grid, by_points = sample_environment(spec, seeds), sample_environment(spec, seeds)
    grid_calls, point_calls = recorded(by_grid), recorded(by_points)
    got = by_grid.values(grid)
    assert same_bits(got, by_points.values(pts))
    assert same_bits(got, ref_raw_values(by_grid, pts)[0 if seeds is None else slice(None)])
    # one hashing call each, every live (seed, cell) pair once, the same pairs
    assert len(grid_calls) == len(point_calls) == 1
    hashed = grid_calls[0]
    assert len(hashed) == len(set(hashed)) and set(hashed) == set(point_calls[0])
    touched = cells_touched(by_grid, pts)
    for m, seed in enumerate(by_grid.seeds.tolist()):
        assert {z for s, z in hashed if s == seed} == (touched if seeds is None else touched[m])
    # a single realization answers an equal grid from its memo; a batch keeps none
    again = by_grid.values(TensorGrid([a.copy() for a in axes]))
    assert (again is got) == (seeds is None) and same_bits(again, got)
    assert len(grid_calls) == (1 if seeds is None else 2)


@pytest.mark.parametrize("seeds", [None, [11, -4]])
def test_a_node_on_a_lattice_node_hashes_only_its_own_cell(seeds):
    # the bumps one radius away have s^2 = 1 exactly and weigh +0.0: a least
    # squared distance of r^2 is not live, on a grid as among points.  Node
    # (2, 2) of the first realization and its neighbours' centres lie in one
    # binade, [1, 2), so their distances are exact
    spec = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=1,
                   box_lo=(-4.0, -4.0), box_hi=(4.0, 4.0), seed=11)
    env = sample_environment(spec, seeds)
    grid = TensorGrid([2 * 0.5 + env.offset[0, i]] for i in range(2))
    calls = recorded(env)
    got = env.values(grid)
    assert [pair for pair in calls[0] if pair[0] == 11] == [(11, (2, 2))]
    assert same_bits(got, sample_environment(spec, seeds).values(grid.nodes()))


def test_a_squared_distance_below_r_squared_divides_below_one():
    # values marks a cell live where |x - centre|^2 < r^2 and weighs it by
    # s^2 = |x - centre|^2 / r^2: the two agree because the double below r^2
    # divides to below 1 and the division is monotone
    for r in (0.5, 1 / 3, 0.3, 0.7, 1e-3, 2.0, 2**0.5):
        r2 = r**2
        assert math.nextafter(r2, 0.0) / r2 < 1.0 == r2 / r2


def test_values_on_the_field2d_grid_hold_less_than_three_tables():
    # at 225^2 nodes and 4 channels the (N, C) table is 1.6 MB; the grid's
    # geometry is worked out on its axes and its corners streamed through one
    # weight and one term buffer, so no node-sized temporary outlives its corner
    spec = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=4,
                   box_lo=(-28.0, -28.0), box_hi=(28.0, 28.0), seed=5)
    grid = pde.Grid.from_box((-28.0, -28.0), (28.0, 28.0), 0.25)
    axes = TensorGrid(grid.axis(i) for i in range(2))
    sample_environment(spec).values(axes)           # first-call allocations aside
    env = sample_environment(spec)
    tracemalloc.start()
    try:
        table = env.values(axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (225 * 225, 4)
    assert peak < 3 * table.nbytes


# ---------------------------------------------------------------------------
# cost table


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), M=st.integers(1, 4), dt=st.sampled_from([0.125, 0.25]),
       seed=st.integers(-2**62, 2**62))
@example(game=LOCALIZED_2D_CASE, M=3, dt=0.25, seed=1)
@example(game=SADDLE_CASE, M=2, dt=0.125, seed=-7)
def test_batched_cost_table_equals_per_realization_build(game, M, dt, seed):
    gh, env = game
    dx = 0.25
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", 2 * dt, dt, dx, report_radius=0.5)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=2 * dt,
                                   box_lo=box[0], box_hi=box[1]))
    spec = covering_env(env, box).spec
    seeds = [seed + 3 * m for m in range(M)]
    got = sl_step_cost(gh, sample_environment(spec, seeds), plan)
    # one C-ordered copy, realizations innermost
    assert got.shape == (len(plan.stencil),) + plan.grid.shape + (M,) and got.flags.c_contiguous
    assert same_bits(got, ref_step_costs(gh, spec, seeds, plan))
    # one realization: the table without the realization axis
    single = sample_environment(with_seed(spec, seeds[0]))
    assert same_bits(sl_step_cost(gh, single, plan), ref_sl_step_cost(gh, single, plan))
    # the table is the caller's, scaled in place: never a view of the memo
    memo = single.values(plan.grid.nodes())
    kept = memo.copy()
    assert not np.shares_memory(sl_step_cost(gh, single, plan), memo)
    assert same_bits(single.values(plan.grid.nodes()), kept)


# ---------------------------------------------------------------------------
# SL step


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), M=st.integers(1, 3), dt=st.sampled_from([0.125, 0.25]),
       steps=st.integers(1, 3), theta=st.floats(-1.0, 1.0))
@example(game=LOCALIZED_2D_CASE, M=2, dt=0.25, steps=3, theta=0.5)
@example(game=SADDLE_CASE, M=3, dt=0.25, steps=2, theta=-0.25)
@example(game=STILL_CASE, M=2, dt=0.25, steps=3, theta=0.5)
# at dt = dx every foot point is the node one cell away: a plain read of the
# values, one cell shed below (speed -1) or above (speed 1, read at offset 1)
@example(game=(build("transport", {"speed": -1.0}, 1), TRANSPORT_1D_ENV),
         M=2, dt=0.25, steps=3, theta=0.5)
@example(game=(build("transport", {"speed": 1.0}, 1), TRANSPORT_1D_ENV),
         M=2, dt=0.25, steps=3, theta=-0.5)
def test_sl_step_equals_pair_by_pair_step(game, M, dt, steps, theta):
    gh, env = game
    dx = 0.25
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", steps * dt, dt, dx, report_radius=0.5)
    cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=steps * dt,
                      box_lo=box[0], box_hi=box[1], record_times=(dt,))
    plan = sl_plan(gh, cfg)
    base = covering_env(env, box)
    cost = sl_step_cost(gh, sample_environment(base.spec, base.spec.seed + np.arange(M)), plan)
    g = linear_datum(np.full(gh.dim, theta))
    got, want = solve_sl_batch(plan, cost, g), ref_solve_sl_batch(plan, cost, g)
    assert same_bits(got.final.values, want.final.values)
    assert same_bits(got.at_time(dt).values, want.at_time(dt).values)
    # one realization: a table without the realization axis, no axis in the result
    one = sl_step_cost(gh, base, plan)
    got, want = solve_sl_batch(plan, one, g), ref_solve_sl_batch(plan, one[..., None], g)
    assert same_bits(got.final.values, want.final.values[..., 0])
    assert same_bits(got.at_time(dt).values, want.at_time(dt).values[..., 0])
    assert got.telemetry[-1]["stencils"] == len(plan.corners) == len(set(plan.corners))
    assert sorted(set(plan.stencil)) == list(range(len(plan.corners)))


def negative_zero_datum(pts):
    return -pde.zero_datum(pts)


def signed_zero_datum(pts):
    """Zero of either sign: -0.0 at every other node along the first axis."""
    return np.where(np.round(np.atleast_2d(pts)[:, 0] * 4.0) % 2 == 0, 0.0, -0.0)


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), M=st.integers(1, 3), dt=st.sampled_from([0.125, 0.25]),
       steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       g=st.sampled_from([pde.zero_datum, negative_zero_datum, signed_zero_datum]))
@example(game=LOCALIZED_2D_CASE, M=2, dt=0.25, steps=3, seed=0, g=signed_zero_datum)
@example(game=SADDLE_CASE, M=3, dt=0.25, steps=2, seed=1, g=negative_zero_datum)
def test_sl_step_breaks_signed_zero_ties_as_the_reductions(game, M, dt, steps, seed, g):
    # every pair's cost is +0.0 or -0.0, so the max over a and the min over b
    # meet ties between zeros of opposite sign, which only the order of the
    # elementwise comparisons decides
    gh, _ = game
    dx = 0.25
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", steps * dt, dt, dx, report_radius=0.5)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=steps * dt,
                                   box_lo=box[0], box_hi=box[1], record_times=(dt,)))
    rng = np.random.default_rng(seed)
    cost = np.where(rng.integers(0, 2, size=(len(plan.stencil),) + plan.grid.shape + (M,)) == 0,
                    0.0, -0.0)
    got, want = solve_sl_batch(plan, cost, g), ref_solve_sl_batch(plan, cost, g)
    assert same_bits(got.final.values, want.final.values)
    assert same_bits(got.at_time(dt).values, want.at_time(dt).values)
    assert not np.any(got.final.active_values())        # zeros only
    one = solve_sl_batch(plan, cost[..., 0], g)
    assert same_bits(one.final.values, want.final.values[..., 0])


def march_peak(plan, cost, **kwargs) -> int:
    """Peak bytes traced while solve_sl_batch marches cost."""
    tracemalloc.start()
    try:
        solve_sl_batch(plan, cost, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def march_bound(plan, M) -> int:
    """v and the new values, the column, the scratch, one per stencil, the
    final snapshot and the datum, in realization-batched grids."""
    return (6 + len(plan.corners)) * 8 * M * math.prod(plan.grid.shape)


@pytest.mark.parametrize("n_b", [9, 13])
def test_sl_march_holds_no_per_pair_table(n_b):
    """The march holds a few grid-sized arrays and one per stencil, none per pair."""
    gh = build("localized", {"beta": 1.5, "R": 1.0, "v": [0.75, 0.0],
                             "pi": [[0.0, 0.0], [0.0, 0.8]], "n_a": 3, "n_b": n_b,
                             "g0": "norm", "scale": 1.0}, 2)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=0.75,
                                   box_lo=(-5.0, -5.0), box_hi=(5.0, 5.0)))
    seeds = [1, 2]
    M = len(seeds)
    spec = replace(LOCALIZED_2D_CASE[1].spec, box_lo=(-6.0, -6.0), box_hi=(6.0, 6.0))
    cost = sl_step_cost(gh, sample_environment(spec, seeds), plan)
    bound = march_bound(plan, M)
    first = math.prod(n - lo - hi
                      for n, lo, hi in zip(plan.grid.shape, plan.shed_lo, plan.shed_hi))
    assert len(plan.stencil) * 8 * M * first > 2 * bound     # a candidate table would not fit
    assert march_peak(plan, cost) < bound


def test_sl_march_holds_no_per_pair_table_in_1d():
    """The same bound on the benchmark's 1-D campaign solve: the saddle game
    at M = 32 on mc1d's grid, where each step allocates its own arrays."""
    gh = build("saddle-game", {}, 1)
    box = ((-2.0,), (66.0,))
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=32.0,
                                   box_lo=box[0], box_hi=box[1]))
    M = 32
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=4,
                   box_lo=box[0], box_hi=box[1], seed=2026)
    cost = sl_step_cost(gh, sample_environment(spec, list(range(M))), plan)
    assert march_peak(plan, cost) < march_bound(plan, M)


# ---------------------------------------------------------------------------
# the campaign's probe reads

# a 1-D game whose foot points fall between nodes, and the 2-D saddle game,
# with probes on nodes and between them inside the final window [-0.5, 0.5]^d
READ_CASES = {
    1: (build("transport", {"speed": 1.25}, 1), TRANSPORT_1D_ENV,
        np.array([[0.0], [0.25], [0.1], [-0.4], [0.5], [-0.5]])),
    2: (SADDLE_CASE[0], SADDLE_CASE[1],
        np.array([[0.0, 0.0], [0.25, -0.5], [0.1, 0.3], [-0.4, 0.05], [0.5, 0.5]])),
}


def read_case(dim, steps=3, dt=0.25):
    """A READ_CASES game, its config recorded at 0, dt and T, a field law
    covering the box, and the probes."""
    gh, env, probes = READ_CASES[dim]
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", steps * dt, dt, 0.25, report_radius=0.5)
    cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=0.25, T=steps * dt,
                      box_lo=box[0], box_hi=box[1], record_times=(0.0, dt, steps * dt))
    return gh, cfg, covering_env(env, box).spec, probes


def field_reads(res, probes, times) -> np.ndarray:
    """The probes read from each record time's Field: (n_times, n, *M)."""
    return np.stack([res.at_time(t).value_at(probes) for t in times])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("M", [1, 5])
@pytest.mark.parametrize("g", [pde.zero_datum, negative_zero_datum, signed_zero_datum,
                               "linear"])
def test_probe_reads_equal_field_reads(dim, M, g):
    gh, cfg, spec, probes = read_case(dim)
    plan = sl_plan(gh, cfg)
    g = linear_datum(np.linspace(0.5, -0.25, dim)) if g == "linear" else g
    stencil = pde.probe_stencil(plan.grid, probes)
    field_cost = sl_step_cost(gh, sample_environment(spec, spec.seed + np.arange(M)), plan)
    zero_cost = np.where(np.random.default_rng(M).integers(0, 2, size=field_cost.shape) == 0,
                         0.0, -0.0)
    # a batch of M, ties between zeros of either sign, and a table without
    # the realization axis
    for cost, lead in ((field_cost, M), (zero_cost, M), (field_cost[..., 0], 1)):
        got = solve_sl_batch(plan, cost, g, probes=stencil)
        reads = np.stack([got.at_time(t) for t in cfg.record_times])
        assert same_bits(reads, field_reads(solve_sl_batch(plan, cost, g), probes,
                                            cfg.record_times))
        assert same_bits(got.final, reads[-1])
        assert got.telemetry[-1]["probes_read"] == 3 * len(probes) * lead
    # T not among the record times: the final values are one read more
    short = sl_plan(gh, replace(cfg, record_times=(cfg.dt,)))
    got = solve_sl_batch(short, field_cost, g, probes=stencil)
    want = solve_sl_batch(short, field_cost, g).final.value_at(probes)
    assert same_bits(got.final, want)
    assert got.telemetry[-1]["probes_read"] == 2 * len(probes) * M


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("M", [1, 5])
def test_campaign_reads_equal_field_reads(dim, M):
    gh, cfg, spec, probes = read_case(dim)
    theta = np.linspace(0.3, -0.2, dim)
    seeds = derive_seeds(11, np.arange(M))
    plan = sl_plan(gh, cfg)
    res = solve_sl_batch(plan, sl_step_cost(shift_momentum(gh, theta),
                                            sample_environment(spec, seeds), plan))
    want = field_reads(res, probes, cfg.record_times)
    with mock.patch.object(pde.Grid, "window_field", side_effect=AssertionError("a Field")):
        got = _solve_batches(gh, spec, seeds, theta, cfg, probes)
        assert same_bits(got, want)
        # in batches of two
        with mock.patch.object(pde, "BATCH_COST_BYTES", 2 * plan.cost_bytes):
            got = _solve_batches(gh, spec, seeds, theta, cfg, probes)
        assert same_bits(got, want)


def test_campaign_refuses_a_probe_outside_the_window_as_a_field_read_does():
    gh, cfg, spec, probes = read_case(1)
    seeds = derive_seeds(11, np.arange(2))
    outside = np.concatenate([probes, [[1.9]]])    # in the window until 2 dt, not at T
    plan = sl_plan(gh, cfg)
    res = solve_sl_batch(plan, sl_step_cost(gh, sample_environment(spec, seeds), plan))
    with pytest.raises(DomainError, match="outside active box") as field_read:
        field_reads(res, outside, cfg.record_times)
    with pytest.raises(DomainError) as campaign_read:
        _solve_batches(gh, spec, seeds, np.zeros(1), cfg, outside)
    assert str(campaign_read.value) == str(field_read.value)
    assert f"at t={cfg.T}" in str(campaign_read.value)


def test_campaign_march_allocates_no_grid_per_record_time():
    """The 1-D bound of the march, recorded at every step: a Field per record
    time would not fit it, the probe reads do."""
    gh = build("saddle-game", {}, 1)
    box = ((-2.0,), (66.0,))
    cfg = SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=32.0, box_lo=box[0],
                      box_hi=box[1], record_times=tuple(0.25 * k for k in range(129)))
    plan = sl_plan(gh, cfg)
    M = 32
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=4,
                   box_lo=box[0], box_hi=box[1], seed=2026)
    cost = sl_step_cost(gh, sample_environment(spec, list(range(M))), plan)
    stencil = pde.probe_stencil(plan.grid, np.array([[0.0], [0.3]]))
    assert march_peak(plan, cost) > 2 * march_bound(plan, M)
    assert march_peak(plan, cost, probes=stencil) < march_bound(plan, M)


# ---------------------------------------------------------------------------
# slabs along a still axis

#: 2-D field games that move along axis 0 only, so that axis 1 is still
SLAB_GAMES = {
    "saddle-game": {"base_speed": 1.0, "coupling": 0.25},
    "two-speed-control": {"speeds": (0.5, 1.25)},
    "transport": {"speed": -0.75},
}


def slab_case(name, steps, record_steps, dt=0.25, dx=0.25):
    """A SLAB_GAMES game in 2-D, its plan recording at record_steps, and a field law covering it."""
    gh = build(name, SLAB_GAMES[name], 2)
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", steps * dt, dt, dx, report_radius=0.75)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=steps * dt,
                                   box_lo=box[0], box_hi=box[1],
                                   record_times=tuple(k * dt for k in sorted(record_steps))))
    spec = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=gh.n_a * gh.n_b, box_lo=tuple(v - 1.0 for v in box[0]),
                   box_hi=tuple(v + 1.0 for v in box[1]), seed=2026)
    return gh, plan, spec


def slab_budget(table: np.ndarray, slabs: int) -> int:
    """A budget that cuts table into ``slabs`` slabs."""
    return -(-table.nbytes // slabs)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SLAB_GAMES)), M=st.integers(1, 2), steps=st.integers(1, 4),
       record_steps=st.sets(st.integers(0, 4)), slabs=st.integers(1, 40),
       theta=st.one_of(st.none(), st.floats(-1.0, 1.0)))
@example(name="saddle-game", M=1, steps=3, record_steps=set(), slabs=3, theta=0.5)
@example(name="two-speed-control", M=2, steps=2, record_steps={0, 1}, slabs=40, theta=None)
def test_slab_march_equals_the_one_slab_march(name, M, steps, record_steps, slabs, theta):
    # record layouts: none, t = 0, several, and T left out; slabs past the
    # still axis's width are one column each
    gh, plan, spec = slab_case(name, steps, {k for k in record_steps if k <= steps})
    assert plan.still == (1,)
    count = min(slabs, plan.grid.shape[1])
    g = pde.zero_datum if theta is None else linear_datum([theta, -0.5 * theta])
    cost = sl_step_cost(gh, sample_environment(spec, derive_seeds(5, np.arange(M))), plan)
    whole = solve_sl_batch(plan, cost, g)
    with mock.patch.object(pde, "BATCH_COST_BYTES", slab_budget(cost, count)):
        got = solve_sl_batch(plan, cost, g)
    tel, want = got.telemetry[-1], whole.telemetry[-1]
    assert (tel["slabs"], want["slabs"]) == (count, 1)
    for key in ("steps", "active_cells", "node_updates"):
        assert tel[key] == want[key]
    assert list(got.snapshots) == list(whole.snapshots)
    for a, b in zip([got.final, *got.snapshots.values()], [whole.final, *whole.snapshots.values()]):
        assert a.active == b.active and a.t == b.t
        assert same_bits(a.values, b.values)


@pytest.mark.parametrize("name", sorted(SLAB_GAMES))
def test_campaign_over_the_budget_reads_the_same_probes_in_slabs(name):
    gh, plan, spec = slab_case(name, 3, (1, 3))
    seeds = derive_seeds(8, np.arange(3))
    probes = np.array([[0.0, 0.0], [0.25, -0.5], [0.1, 0.3], [-0.4, 0.7]])
    theta = np.array([0.3, -0.2])
    marched = []

    def spy(*args, **kwargs):
        marched.append(solve_sl_batch(*args, **kwargs))
        return marched[-1]

    with mock.patch.object(homog, "solve_sl_batch", side_effect=spy):
        want = _solve_batches(gh, spec, seeds, theta, plan.cfg, probes)
        # one realization is over the budget: a batch each, in 3 slabs
        with mock.patch.object(pde, "BATCH_COST_BYTES", plan.cost_bytes // 3 + 1):
            got = _solve_batches(gh, spec, seeds, theta, plan.cfg, probes)
    assert [r.telemetry[-1]["slabs"] for r in marched] == [1] + [3] * len(seeds)
    assert same_bits(got, want)


#: the 2-D saddle game moving along e2 too, at 1e-13 dx / dt: SL snaps its
#: foot points onto nodes there, so no step sheds a cell along e2
CREEP_2D = replace(SADDLE_CASE[0], f_table=SADDLE_CASE[0].f_table + [0.0, 1e-13])


@pytest.mark.parametrize("game", [
    LOCALIZED_2D_CASE[0],
    build("saddle-game", {}, 1), build("two-speed-control", {}, 1),
    build("transport", {"speed": -1.0}, 1), build("localized", {"beta": 1.5, "v": [0.75],
                                                               "pi": [[0.0]]}, 1),
    CREEP_2D])
def test_a_plan_without_a_still_axis_marches_one_slab(game):
    dt = dx = 0.25
    box = solve_box_for(game.f_pairs, "semi-lagrangian", 2 * dt, dt, dx, report_radius=0.5)
    plan = sl_plan(game, SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=2 * dt,
                                     box_lo=box[0], box_hi=box[1]))
    assert plan.still == ()
    cost = np.random.default_rng(0).random((len(plan.stencil),) + plan.grid.shape)
    whole = solve_sl_batch(plan, cost)
    with mock.patch.object(pde, "BATCH_COST_BYTES", 8):
        got = solve_sl_batch(plan, cost)
    assert got.telemetry[-1]["slabs"] == 1
    assert same_bits(got.final.values, whole.final.values)


@pytest.mark.parametrize("game, still", [
    (SADDLE_CASE[0], (1,)), (LOCALIZED_2D_CASE[0], ()), (CREEP_2D, ()), (STILL_CASE[0], (0, 1)),
    (build("saddle-game", {}, 1), ()), (build("two-speed-control", {}, 1), ()),
    (build("transport", {"speed": -1.0}, 1), ()),
    (build("localized", {"beta": 1.5, "v": [0.75], "pi": [[0.0]]}, 1), ())],
    ids=["saddle-2d", "localized-2d", "creep-2d", "still-2d", "saddle-1d", "two-speed-1d",
         "transport-1d", "localized-1d"])
def test_both_schemes_plan_the_same_still_axes(game, still):
    # a still axis is one no velocity moves along, for SL's slabs and LF's
    # segments alike
    dt = dx = 0.25
    box = solve_box_for(game.f_pairs, "lax-friedrichs", 2 * dt, dt, dx, report_radius=0.5)
    cfg = SolveConfig(scheme="lax-friedrichs", dt=dt, dx=dx, T=2 * dt,
                      box_lo=box[0], box_hi=box[1])
    windows = []

    def spy(*args, **kwargs):
        windows.append(_plan_window(*args, **kwargs))
        return windows[-1]

    env = ConstantEnvironment(0.5, channels=game.n_a * game.n_b, dimension=game.dim)
    with mock.patch.object(pde, "_plan_window", side_effect=spy):
        pde.solve_lf(game, env, cfg)
    assert [w.still for w in windows] == [still]
    assert sl_plan(game, replace(cfg, scheme="semi-lagrangian")).still == still


def test_saddle_game_pairs_share_two_stencils():
    gh = build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 1)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=1.0,
                                   box_lo=(-1.0,), box_hi=(4.0,)))
    # f(a, b) = 1 + 0.25 a b: pairs (-,-) and (+,+) move at 1.25, the others at 0.75
    assert plan.stencil == (0, 1, 1, 0)
    assert len(plan.corners) == 2


#: a speed that at dt = dx is a whole number of cells per step, within 1e-12 of
#: one, or any number
CELL_SPEEDS = st.one_of(
    st.integers(-3, 3).map(float),
    st.builds(lambda k, eps: k + eps, st.integers(-3, 3), st.sampled_from([-1e-13, 1e-13])),
    st.floats(-3.0, 3.0))


@st.composite
def velocity_tables(draw):
    """A 1-D or 2-D velocity table (n_a, n_b, d)."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])))
    speeds = draw(st.lists(CELL_SPEEDS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.reshape(speeds, shape)


def stencil_bits(corners):
    return tuple(tuple((float(w).hex(), off) for w, off in terms) for terms in corners)


@settings(max_examples=80, deadline=None)
@given(f=velocity_tables(), dt=st.sampled_from([0.25, 0.1]), dx=st.sampled_from([0.25, 0.2]))
@example(f=np.array([[[1.0]], [[-2.0]]]), dt=0.25, dx=0.25)                # w exactly 0
@example(f=np.array([[[1.0 + 1e-13]], [[1.0 - 1e-13]]]), dt=0.25, dx=0.25)  # snapped
@example(f=np.array([[[-0.5], [-1.25]]]), dt=0.25, dx=0.25)                 # negative speeds
@example(f=np.array([[[0.5, 0.0], [-1.25, 0.0]]]), dt=0.25, dx=0.25)        # a still axis
@example(f=build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 1).f_pairs.reshape(2, 2, 1),
         dt=0.25, dx=0.25)                                                  # 4 pairs, 2 stencils
@example(f=np.array([[[0.5], [1.25], [0.5]], [[1.25], [0.5], [0.5]], [[0.5], [0.5], [1.25]]]),
         dt=0.25, dx=0.25)                                                  # 9 pairs, 2 velocities
@example(f=np.array([[[0.5, 0.0], [0.5, -0.0]]]), dt=0.25, dx=0.25)         # 2 velocities, 1 stencil
def test_sl_plan_and_reach_equal_the_per_pair_construction(f, dt, dx):
    n_a, n_b, d = f.shape
    gh = GameHamiltonian(f_table=f, n_b=n_b, base_cost=None, lip_l=0.0, l_inf=0.0)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=dt,
                                   box_lo=(0.0,) * d, box_hi=(16 * dx,) * d))
    below, above = ref_sl_reach(gh.f_pairs, dt, dx)
    for got, want in zip(pde.reach(gh.f_pairs, "semi-lagrangian", dt, dx), (below, above)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (plan.shed_lo, plan.shed_hi) == (tuple(below.tolist()), tuple(above.tolist()))
    corners, stencil = ref_sl_stencils(gh.f_pairs, dt, dx, below)
    assert plan.stencil == stencil
    assert stencil_bits(plan.corners) == stencil_bits(corners)


def test_sl_plan_works_out_one_foot_point_per_distinct_velocity():
    # the localized game's velocities do not depend on b, and its actions share two
    gh = LOCALIZED_2D_CASE[0]
    dt = dx = 0.25
    rows = len(velocities(gh).rows)
    assert rows < gh.n_a * gh.n_b
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", dt, dt, dx, report_radius=0.5)
    with mock.patch.object(pde, "_stencil", wraps=pde._stencil) as spy:
        plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=dt,
                                       box_lo=box[0], box_hi=box[1]))
    assert [call.args[0].shape for call in spy.call_args_list] == [(rows, gh.dim)]
    corners, stencil = ref_sl_stencils(gh.f_pairs, dt, dx, ref_sl_reach(gh.f_pairs, dt, dx)[0])
    assert plan.stencil == stencil
    assert stencil_bits(plan.corners) == stencil_bits(corners)


# ---------------------------------------------------------------------------
# LF step and the max-min evaluator


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), dt=st.sampled_from([0.0625, 0.125]), dx=st.sampled_from([0.2, 0.25]),
       steps=st.integers(1, 3), theta=st.floats(-1.0, 1.0), records=st.sets(st.integers(0, 3)))
@example(game=LOCALIZED_2D_CASE, dt=0.125, dx=0.2, steps=2, theta=0.5, records={1})
@example(game=SADDLE_CASE, dt=0.125, dx=0.2, steps=2, theta=-0.25, records={1})
@example(game=FIELD2D_CASE, dt=0.25, dx=0.25, steps=3, theta=0.5, records={1})
@example(game=FIELD2D_CASE, dt=0.25, dx=0.25, steps=3, theta=0.5, records={0, 1, 3})
@example(game=SADDLE_CASE, dt=0.125, dx=0.25, steps=3, theta=0.75, records={0, 2})
@example(game=STILL_CASE, dt=0.125, dx=0.25, steps=3, theta=-0.5, records=set())
@example(game=STILL_CASE, dt=0.125, dx=0.25, steps=3, theta=0.25, records={1, 2})
# 2 dx = 0.4 and dx^2 = 0.04 are not powers of two, so these divide
@example(game=FIELD2D_CASE, dt=0.2, dx=0.2, steps=3, theta=0.5, records={1})
@example(game=STILL_CASE, dt=0.125, dx=0.2, steps=3, theta=-0.25, records={0, 2})
def test_lf_step_equals_whole_window_step(game, dt, dx, steps, theta, records):
    # the library writes, on an axis that does not move, only what the next
    # record reads, from one negated cost table per still-axis range; the
    # reference updates the whole shrinking window from one full-grid table
    gh, env = game
    box = solve_box_for(gh.f_pairs, "lax-friedrichs", steps * dt, dt, dx, report_radius=0.5)
    cfg = SolveConfig(scheme="lax-friedrichs", dt=dt, dx=dx, T=steps * dt,
                      box_lo=box[0], box_hi=box[1],
                      record_times=tuple(k * dt for k in sorted(records) if k <= steps))
    env = covering_env(env, box)
    g = linear_datum(np.full(gh.dim, theta))
    nodes = []

    def counted(gh, neg_cost, P, *args):
        nodes.append(len(P))
        # each row of the gradient planes starts on a cache line, and a game
        # that moves along axis 0 at most reads each pair's cost as one run
        assert all(P[:, i].ctypes.data % 64 == 0 for i in range(gh.dim))
        if set(velocities(gh).axes) <= {0}:
            assert all(plane.flags.c_contiguous for row in neg_cost for plane in row)
        return eval_H_nodes(gh, neg_cost, P, *args)

    with mock.patch.object(pde, "eval_H_nodes", counted):
        got = solve_lf(gh, env, cfg, g)
    want = ref_solve_lf(gh, env, cfg, g)
    assert list(got.snapshots) == list(want.snapshots) == list(cfg.record_times)
    for f, w in zip([got.final, *got.snapshots.values()], [want.final, *want.snapshots.values()]):
        assert f.active == w.active and same_bits(f.values, w.values)
    assert got.telemetry[-1]["node_updates"] == sum(nodes)
    if game is FIELD2D_CASE:
        assert got.telemetry[-1]["substeps_per_step"] == 3


@settings(max_examples=60, deadline=None)
@given(game=drawn_games(), data=st.data())
@example(game=LOCALIZED_2D_CASE, data=None)
@example(game=SADDLE_CASE, data=None)
@example(game=FIELD2D_CASE, data=None)
def test_eval_H_nodes_equals_whole_table_form(game, data):
    gh, env = game
    d = gh.dim
    rng = np.random.default_rng(0 if data is None else data.draw(st.integers(0, 2**32 - 1)))
    shape = (7,) if d == 1 else (5, 6)
    X = rng.uniform(-6.0, 6.0, size=shape + (d,)).reshape(-1, d)
    P = rng.uniform(-3.0, 3.0, size=(len(X), d))
    table = np.moveaxis(np.broadcast_to(gh.cost(X, env), (len(X), gh.n_a, gh.n_b)), 0, -1)
    vel = velocities(gh)
    # eval_H_nodes reads the whole negated table, or a strided grid window
    assert same_bits(eval_H_nodes(gh, -table, P, vel, planes_for(vel, len(P))),
                     ref_eval_H_nodes(gh, table, P))
    grid = np.zeros((gh.n_a, gh.n_b) + tuple(n + 2 for n in shape))
    window = (slice(None), slice(None)) + (slice(1, -1),) * len(shape)
    grid[window] = table.reshape((gh.n_a, gh.n_b) + shape)
    want = ref_eval_H_nodes(gh, grid[window].reshape(gh.n_a, gh.n_b, -1), P)
    neg_grid = -grid
    assert same_bits(eval_H_nodes(gh, neg_grid[window], P, vel, planes_for(vel, len(P))), want)
    # one node at a time
    one = table[..., :1]
    assert same_bits(eval_H_nodes(gh, -one, P[:1], vel, planes_for(vel, 1)),
                     ref_eval_H_nodes(gh, one, P[:1]))
    # the planes' contents on entry are never read: planes of NaN, planes
    # holding another call's values and planes wider than the nodes give
    # the same bits, and H is a view of them
    want = ref_eval_H_nodes(gh, table, P)
    nan = planes_for(vel, len(P))
    nan.fill(np.nan)
    used = planes_for(vel, len(P))
    eval_H_nodes(gh, -table[..., ::-1], P[::-1] + 1.0, vel, used)
    wide = planes_for(vel, len(P) + 5)
    wide.fill(np.nan)
    for planes in (nan, used, wide):
        got = eval_H_nodes(gh, -table, P, vel, planes)
        assert same_bits(got, want) and np.shares_memory(got, planes)


def test_aligned_planes_start_every_row_on_a_cache_line():
    # the (d, n) gradient planes of an LF solve are rows of one padded buffer
    for k in (1, 2, 3):
        for n in range(66):
            planes = _aligned_planes(k, n)
            assert planes.shape == (k, n) and planes.dtype == np.float64
            assert planes.flags.writeable
            assert all(row.ctypes.data % 64 == 0 and row.flags.c_contiguous for row in planes)
            planes[...] = np.arange(k)[:, None]
            assert np.array_equal(planes, np.broadcast_to(np.arange(k)[:, None], (k, n)))


def planes_for(vel, n):
    """Fresh planes for ``eval_H_nodes`` at n nodes, as ``solve_lf`` allocates them."""
    return _aligned_planes(len(vel.rows) + 3, n)


def misaligned_planes(vel, n, shift):
    """``planes_for``'s layout with every row ``shift`` doubles past a cache line."""
    return planes_for(vel, n + shift)[:, shift:]


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), data=st.data())
@example(game=FIELD2D_CASE, data=None)
def test_eval_H_nodes_bits_do_not_depend_on_layout(game, data):
    # a strided window of a larger table and its contiguous copy, into
    # aligned and into misaligned planes, give the same bits
    gh, env = game
    if data is None:
        (lo0, lo1), (rows, cols), pad, shift, seed = (1, 2), (5, 9), 3, 1, 0
    else:
        lo0, lo1 = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 11))
        pad, shift = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 7))
        seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (lo0 + rows + pad, lo1 + cols + pad)
    X = rng.uniform(-6.0, 6.0, size=(math.prod(shape), gh.dim))
    table = np.broadcast_to(gh.cost(X, env), (len(X), gh.n_a, gh.n_b))
    neg = np.negative(np.moveaxis(table, 0, -1).reshape((gh.n_a, gh.n_b) + shape))
    window = neg[:, :, lo0:lo0 + rows, lo1:lo1 + cols]
    P = rng.uniform(-3.0, 3.0, size=(rows * cols, gh.dim))
    want = ref_eval_H_nodes(gh, -window.reshape(gh.n_a, gh.n_b, -1), P)
    copy = np.ascontiguousarray(window)
    vel = velocities(gh)
    misaligned = misaligned_planes(vel, len(P), shift)
    assert misaligned[1].ctypes.data % 64 == 8 * shift
    for planes in (planes_for(vel, len(P)), misaligned):
        assert same_bits(eval_H_nodes(gh, window, P, vel, planes), want)
        assert same_bits(eval_H_nodes(gh, copy, P, vel, planes), want)


#: a float that is often a signed zero
SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


def test_eval_H_nodes_breaks_signed_zero_ties_as_the_reductions():
    # at P = 0 every drift is +0.0, so -cost - drift is -cost: node j's four
    # pairs hold +-0.0 by the bits of j, and both folds meet ties of both signs
    gh = build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 1)
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
    field = SimpleNamespace(values=lambda pts: np.where(bits == 1, -0.0, 0.0))
    cost = np.moveaxis(gh.cost(np.zeros((16, 1)), field), 0, -1)
    P = np.zeros((16, 1))
    vel = velocities(gh)
    got = eval_H_nodes(gh, np.negative(cost), P, vel, planes_for(vel, len(P)))
    assert same_bits(got, ref_eval_H_nodes(gh, cost, P))
    assert np.all(got == 0.0) and 0 < np.signbit(got).sum() < 16


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["transport", "two-speed-control", "saddle-game"]),
       dim=st.sampled_from([1, 2]), shift=st.booleans(), data=st.data())
def test_eval_H_nodes_keeps_the_blas_bits_of_axis_aligned_games(name, dim, shift, data):
    # an axis-aligned game moves along axis 0 only, so its drift is one
    # product per pair, which BLAS started from +0.0 as the fixed-order sum does
    gh = build(name, data.draw(PARAMS[name](dim)), dim)
    if shift:
        gh = shift_momentum(gh, data.draw(st.lists(SIGNED, min_size=dim, max_size=dim)))
    n = data.draw(st.integers(1, 6))
    channels = data.draw(st.sampled_from([1, gh.n_a * gh.n_b]))
    vals = np.array(data.draw(st.lists(SIGNED, min_size=n * channels, max_size=n * channels)))
    P = np.array(data.draw(st.lists(SIGNED, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    field = SimpleNamespace(values=lambda pts: vals.reshape(n, channels))
    cost = np.broadcast_to(gh.cost(np.zeros((n, dim)), field), (n, gh.n_a, gh.n_b))
    neg = np.negative(np.moveaxis(cost, 0, -1))
    blas = (neg - gh.f_table @ P.T).min(axis=0).max(axis=0)
    vel = velocities(gh)
    assert same_bits(eval_H_nodes(gh, neg, P, vel, planes_for(vel, n)), blas)
    assert same_bits(eval_H_nodes(gh, neg, np.ascontiguousarray(P.T).T, vel, planes_for(vel, n)),
                     blas)


def signed_zeros_and_a_subnormal(x):
    """-0.0, -5e-324 and +0.0 in turn along axis 0 of a 0.25 grid.

    At a -0.0 node below a -5e-324 one, the viscosity term underflows to
    -0.0 and H * dt to +0.0, so the new value -0.0 + visc * dt carries the
    viscosity's sign, which a +0.0 start makes +0.
    """
    return np.choose(np.round(x[:, 0] / 0.25).astype(int) % 3, [-0.0, -5e-324, 0.0])


@pytest.mark.parametrize("gh, g", [
    # a +0.0 cost negates to -0.0 and the drift -1 * (+0) is -0.0: with the
    # drift's +0.0 start, H = -0 - (+0) = -0
    (build("transport", {"speed": -1.0}, 2), pde.zero_datum),
    # a viscosity term of -0.0 on the moving axis, and a second axis that
    # does not move
    (build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 2), signed_zeros_and_a_subnormal),
], ids=["transport-negative-speed", "saddle-signed-zero-datum"])
def test_lf_keeps_signed_zeros_on_the_moving_axes(gh, g):
    env = ConstantEnvironment(0.0, dimension=2)
    box = solve_box_for(gh.f_pairs, "lax-friedrichs", 0.5, 0.25, 0.25, report_radius=0.5)
    cfg = SolveConfig(scheme="lax-friedrichs", dt=0.25, dx=0.25, T=0.5,
                      box_lo=box[0], box_hi=box[1], record_times=(0.25,))
    Hs = []

    def recorded(gh, neg_cost, P, *args):
        # an H of -0 against a value of +0 leaves no sign in the new value,
        # so each H is checked as the solve makes it
        H = eval_H_nodes(gh, neg_cost, P, *args)
        cost = np.negative(neg_cost).reshape(gh.n_a, gh.n_b, -1)
        Hs.append((H.copy(), ref_eval_H_nodes(gh, cost, P)))
        return H

    with mock.patch.object(pde, "eval_H_nodes", recorded):
        got = solve_lf(gh, env, cfg, g)
    want = ref_solve_lf(gh, env, cfg, g)
    assert all(same_bits(H, ref) for H, ref in Hs)
    assert any((np.signbit(H) & (H == 0)).any() for H, _ in Hs)
    assert same_bits(got.at_time(0.25).values, want.at_time(0.25).values)
    assert same_bits(got.final.values, want.final.values)


def test_lf_evaluates_H_once_per_substep_at_every_updated_node():
    gh, env = FIELD2D_CASE
    box = solve_box_for(gh.f_pairs, "lax-friedrichs", 0.5, 0.25, 0.25, report_radius=0.5)
    cfg = SolveConfig(scheme="lax-friedrichs", dt=0.25, dx=0.25, T=0.5,
                      box_lo=box[0], box_hi=box[1], record_times=(0.25,))
    env = covering_env(env, box)
    calls = []

    def counted(gh, neg_cost, P, *args):
        calls.append(P.shape)
        return eval_H_nodes(gh, neg_cost, P, *args)

    with mock.patch.object(pde, "eval_H_nodes", counted):
        res = solve_lf(gh, env, cfg)
    tel = res.telemetry[-1]
    subs = tel["steps"] * tel["substeps_per_step"]
    n0, n1 = pde.Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx).shape
    # axis 0 sheds a ring a substep; axis 1 does not move, so step k writes
    # only its range at the next record, k itself: 3 substeps shed a step
    node_updates = sum((n0 - 2 * j) * (n1 - 6 * math.ceil(j / 3)) for j in range(1, subs + 1))
    assert subs == 6 and len(calls) == subs
    assert all(len(s) == 2 and s[1] == 2 for s in calls)
    assert sum(s[0] for s in calls) == node_updates == tel["node_updates"] == 1782


def test_an_lf_solve_allocates_its_planes_up_front_and_a_substep_none():
    # the same game solved to T = 2 and to T = 8 allocates the same planes,
    # and eval_H_nodes allocates none of them
    gh, env = FIELD2D_CASE
    real = game_module._aligned_planes
    calls, inside = [], []

    def counted(k, n):
        calls.append((k, n))
        return real(k, n)

    def evaluated(gh, neg_cost, P, *args):
        before = len(calls)
        H = eval_H_nodes(gh, neg_cost, P, *args)
        inside.append(len(calls) - before)
        return H

    per_solve = []
    for T in (2.0, 8.0):
        box = solve_box_for(gh.f_pairs, "lax-friedrichs", T, 0.5, 0.5, report_radius=0.5)
        cfg = SolveConfig(scheme="lax-friedrichs", dt=0.5, dx=0.5, T=T,
                          box_lo=box[0], box_hi=box[1])
        calls.clear()
        with mock.patch.object(game_module, "_aligned_planes", counted), \
                mock.patch.object(pde, "_aligned_planes", counted), \
                mock.patch.object(pde, "eval_H_nodes", evaluated):
            res = solve_lf(gh, covering_env(env, box), cfg)
        per_solve.append(len(calls))
    assert res.telemetry[-1]["steps"] == 16 and len(inside) > 16
    assert per_solve[0] == per_solve[1] > 0
    assert not any(inside)


def test_eval_H_nodes_allocates_no_array_on_a_game_moving_along_both_axes():
    # the products of the second axis go through the fold's scratch plane:
    # a temporary (R, N) product would hold R planes
    gh, env = LOCALIZED_2D_CASE
    vel = velocities(gh)
    assert vel.axes == (0, 1) and len(vel.rows) > 1
    n = 4096
    rng = np.random.default_rng(1)
    P = rng.uniform(-3.0, 3.0, size=(n, 2))
    cost = np.moveaxis(np.broadcast_to(
        gh.cost(rng.uniform(-6.0, 6.0, size=(n, 2)), env), (n, gh.n_a, gh.n_b)), 0, -1)
    neg, planes = np.negative(cost), planes_for(vel, n)
    want = ref_eval_H_nodes(gh, cost, P)
    tracemalloc.start()
    try:
        got = eval_H_nodes(gh, neg, P, vel, planes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(got, want)
    assert peak < 8 * n


# ---------------------------------------------------------------------------
# rate experiment


@settings(max_examples=25, deadline=None)
@given(game=ORIENTED, M=st.integers(1, 7),
       eps_list=st.sampled_from([[0.5, 0.25], [0.25, 0.125], [0.5, 0.25, 0.125]]),
       base_seed=st.integers(0, 2**31 - 1))
@example(game=("saddle-game", {"base_speed": 1.0, "coupling": 0.25}), M=6,
         eps_list=[0.5, 0.25, 0.125], base_seed=11)
def test_rate_experiment_equals_bank_by_bank_form(game, M, eps_list, base_seed):
    # M < 4 gives a calibration bank larger than the test bank
    gh = build(*game, 1)
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=1,
                   box_lo=(-48.0,), box_hi=(48.0,), seed=0)
    args = (gh, spec, [0.2], eps_list)
    kw = dict(R=1.0, T=1.0, M=M, H_bar=-0.5, dx=0.25, dt=0.25, base_seed=base_seed)
    assert repr(rate_experiment(*args, **kw)) == repr(ref_rate_experiment(*args, **kw))


@pytest.mark.parametrize("n", range(1, 18))
def test_one_integers_call_draws_the_sequential_choices(n):
    # the rate bootstrap relies on this identity of numpy's Generator
    bank = np.arange(n)
    batched, sequential = np.random.default_rng(n), np.random.default_rng(n)
    idx = batched.integers(0, n, size=(5, 3, n))
    drawn = [[sequential.choice(bank, size=n, replace=True) for _ in range(3)]
             for _ in range(5)]
    assert np.array_equal(idx, np.array(drawn))
    assert batched.bit_generator.state == sequential.bit_generator.state
