"""The per-realization kernels equal their straightforward forms, bit for bit.

Each reference below is the plain form of a kernel: field values summed
through boolean masks with one hash call per lattice corner, an SL step
that interpolates every action pair's stencil itself, an LF substep and a
max-min evaluator built from whole-window temporaries, and a rate
experiment that solves each sample bank on its own and bootstraps with one
choice() call per epsilon and round.  The library's kernels do the same
floating-point operations in the same order with fewer array passes, so
every value must match to the last bit, the sign of zero included.
"""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ORIENTED, drawn_games
from hjhomog import env as env_module
from hjhomog import pde
from hjhomog.env import EnvSpec, sample_environment, with_seed
from hjhomog.families import build
from hjhomog.game import eval_H_nodes, shift_momentum
from hjhomog.homog import _ols, _sup_errors, rate_experiment, solve_box_for
from hjhomog.pde import (SolveConfig, _march, _plan_window, _precompute_cost, linear_datum,
                         sl_plan, sl_step_cost, solve_lf, solve_sl_batch)
from hjhomog.rng import derive_seed

# ---------------------------------------------------------------------------
# reference kernels


def ref_raw_values(env, pts):
    out = np.zeros((len(env.seeds), pts.shape[0], env.spec.channels))
    chans = np.arange(env.spec.channels, dtype=np.int64)
    for z, live, w in env._bumps(pts, slice(None)):
        for m, seed in enumerate(env.seeds):
            if not np.any(live[m]):
                continue
            amp = env._cell_amplitudes(np.full(live[m].sum(), seed), z[m][live[m]], chans)
            out[m][live[m]] += w[m][live[m], None] * amp
    return out


def ref_sl_step_cost(gh, env, plan, out=None):
    pts = plan.grid.nodes()
    c = np.broadcast_to(gh.cost(pts / plan.cfg.epsilon, env), (len(pts), gh.n_a, gh.n_b))
    cost = c.reshape(len(pts), -1).T.reshape(-1, *plan.grid.shape)
    return np.multiply(cost, plan.cfg.dt, out=out, order="C")


def ref_step_costs(gh, spec, seeds, plan):
    cost = np.empty((len(plan.stencil), len(seeds)) + plan.grid.shape)
    for m, seed in enumerate(seeds):
        ref_sl_step_cost(gh, sample_environment(with_seed(spec, seed)), plan, out=cost[:, m])
    return cost


def ref_solve_sl_batch(plan, step_cost, g):
    grid = plan.grid
    M = step_cost.shape[1]
    corners = [plan.corners[s] for s in plan.stencil]    # one stencil per pair

    def step(v, active):
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
    return _march(plan, v, step)


def ref_eval_H_nodes(gh, cost, P):
    drift = gh.f_table @ P.T
    return (-cost - drift).min(axis=0).max(axis=0)


def ref_solve_lf(gh, env, cfg, g):
    sigma = np.abs(gh.f_pairs).max(axis=0)
    win = _plan_window(cfg, gh.f_pairs, "lax-friedrichs")
    cost = np.ascontiguousarray(_precompute_cost(gh, env, win.grid, cfg.epsilon))

    def ham(window, P):
        return ref_eval_H_nodes(gh, cost[(slice(None),) + window].reshape(gh.n_a, gh.n_b, -1), P)

    grid = win.grid
    d = grid.dim
    n_sub = win.shed_lo[0]
    dt_sub = win.cfg.dt / n_sub
    nu = sigma * grid.dx / 2.0
    inner = (slice(1, -1),) * d

    def step(v, active):
        for rings_left in range(n_sub - 1, -1, -1):
            P = np.empty(tuple(n - 2 for n in v.shape) + (d,))
            visc = np.zeros(P.shape[:-1])
            for i in range(d):
                up = inner[:i] + (slice(2, None),) + inner[i + 1:]
                dn = inner[:i] + (slice(None, -2),) + inner[i + 1:]
                P[..., i] = (v[up] - v[dn]) / (2.0 * grid.dx)
                visc += nu[i] * (v[up] - 2.0 * v[inner] + v[dn]) / grid.dx**2
            window = tuple(slice(lo - rings_left, hi + rings_left) for lo, hi in active)
            H = ham(window, P.reshape(-1, d)).reshape(P.shape[:-1])
            v = v[inner] - dt_sub * H + dt_sub * visc
        return v

    v = np.asarray(g(grid.nodes()), dtype=np.float64).reshape(grid.shape)
    return _march(win, v, step, substeps_per_step=n_sub)


def ref_rate_experiment(gh, env_spec, theta, eps_list, R, T, M, H_bar, dx, dt, base_seed,
                        K_hat=None, calibration_fraction=1.0, slope_band=(0.35, 0.65)):
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

    m_cal = max(4, int(M * calibration_fraction))
    cal = bank(1, m_cal) if K_hat is None else None
    test = bank(2, M)

    if K_hat is None:
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
        slope, stderr, _ = _ols(xs, ys)
        slope_se = stderr if not math.isnan(stderr) else None
        # bootstrap the medians for an honest slope uncertainty
        rng = np.random.default_rng(base_seed)
        boots = []
        for _ in range(200):
            ys_b = []
            for eps in eps_list:
                samp = rng.choice(test[eps], size=len(test[eps]), replace=True)
                med = np.median(samp)
                ys_b.append(math.log(max(med, 1e-300)))
            boots.append(_ols(xs, ys_b)[0])
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
    assert set(hashed) == env.cells_touched(pts)


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
@given(case=seed_batches(), cap=st.integers(1, 80))
def test_seed_axis_environment_equals_per_realization_fields(case, cap):
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
    # every live (seed, cell) pair is hashed exactly once
    hashed = [pair for call in calls for pair in call]
    assert len(hashed) == len(set(hashed))
    touched = env.cells_touched(pts)
    for m, (seed, one) in enumerate(zip(seeds, singles)):
        assert {z for s, z in hashed if s == seed} == one.cells_touched(pts) == touched[m]
    # hashing groups: under the cap, or one realization
    calls.clear()
    with mock.patch.object(env_module, "HASH_POINTS", cap):
        assert same_bits(env.values(pts), got)
    assert sum(len(call) for call in calls) == len(hashed)
    for call in calls:
        covered = len({s for s, _ in call})
        assert covered * len(pts) <= cap or covered == 1


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
    assert got.shape == (len(plan.stencil), M) + plan.grid.shape
    assert same_bits(got, ref_step_costs(gh, spec, seeds, plan))
    # one realization: the table without the realization axis
    single = sample_environment(with_seed(spec, seeds[0]))
    assert same_bits(sl_step_cost(gh, single, plan), ref_sl_step_cost(gh, single, plan))


# ---------------------------------------------------------------------------
# SL step


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), M=st.integers(1, 3), dt=st.sampled_from([0.125, 0.25]),
       steps=st.integers(1, 3), theta=st.floats(-1.0, 1.0))
@example(game=LOCALIZED_2D_CASE, M=2, dt=0.25, steps=3, theta=0.5)
@example(game=SADDLE_CASE, M=3, dt=0.25, steps=2, theta=-0.25)
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
    assert got.telemetry[-1]["stencils"] == len(plan.corners) == len(set(plan.corners))
    assert sorted(set(plan.stencil)) == list(range(len(plan.corners)))


def test_saddle_game_pairs_share_two_stencils():
    gh = build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 1)
    plan = sl_plan(gh, SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=1.0,
                                   box_lo=(-1.0,), box_hi=(4.0,)))
    # f(a, b) = 1 + 0.25 a b: pairs (-,-) and (+,+) move at 1.25, the others at 0.75
    assert plan.stencil == (0, 1, 1, 0)
    assert len(plan.corners) == 2


# ---------------------------------------------------------------------------
# LF step and the max-min evaluator


@settings(max_examples=40, deadline=None)
@given(game=drawn_games(), dt=st.sampled_from([0.0625, 0.125]), dx=st.sampled_from([0.2, 0.25]),
       steps=st.integers(1, 2), theta=st.floats(-1.0, 1.0))
@example(game=LOCALIZED_2D_CASE, dt=0.125, dx=0.2, steps=2, theta=0.5)
@example(game=SADDLE_CASE, dt=0.125, dx=0.2, steps=2, theta=-0.25)
def test_lf_step_equals_whole_window_step(game, dt, dx, steps, theta):
    gh, env = game
    box = solve_box_for(gh.f_pairs, "lax-friedrichs", steps * dt, dt, dx, report_radius=0.5)
    cfg = SolveConfig(scheme="lax-friedrichs", dt=dt, dx=dx, T=steps * dt,
                      box_lo=box[0], box_hi=box[1], record_times=(dt,))
    env = covering_env(env, box)
    g = linear_datum(np.full(gh.dim, theta))
    got, want = solve_lf(gh, env, cfg, g), ref_solve_lf(gh, env, cfg, g)
    assert same_bits(got.final.values, want.final.values)
    assert same_bits(got.at_time(dt).values, want.at_time(dt).values)


@settings(max_examples=60, deadline=None)
@given(game=drawn_games(), data=st.data())
@example(game=LOCALIZED_2D_CASE, data=None)
def test_eval_H_nodes_equals_whole_table_form(game, data):
    gh, env = game
    d = gh.dim
    rng = np.random.default_rng(0 if data is None else data.draw(st.integers(0, 2**32 - 1)))
    shape = (7,) if d == 1 else (5, 6)
    X = rng.uniform(-6.0, 6.0, size=shape + (d,)).reshape(-1, d)
    P = rng.uniform(-3.0, 3.0, size=(len(X), d))
    table = np.moveaxis(np.broadcast_to(gh.cost(X, env), (len(X), gh.n_a, gh.n_b)), 0, -1)
    # a contiguous table, a broadcast one and a strided grid window
    assert same_bits(eval_H_nodes(gh, table, P), ref_eval_H_nodes(gh, table, P))
    own = np.moveaxis(gh.cost(X, env), 0, -1)
    assert same_bits(eval_H_nodes(gh, own, P), ref_eval_H_nodes(gh, own, P))
    grid = np.zeros((gh.n_a, gh.n_b) + tuple(n + 2 for n in shape))
    window = (slice(None), slice(None)) + (slice(1, -1),) * len(shape)
    grid[window] = table.reshape((gh.n_a, gh.n_b) + shape)
    assert same_bits(eval_H_nodes(gh, grid[window], P),
                     ref_eval_H_nodes(gh, grid[window].reshape(gh.n_a, gh.n_b, -1), P))
    # one node at a time, as eval_H calls it
    one = gh.cost(X[:1], env)[0][..., None]
    assert same_bits(eval_H_nodes(gh, one, P[:1]), ref_eval_H_nodes(gh, one, P[:1]))


# ---------------------------------------------------------------------------
# rate experiment


@settings(max_examples=25, deadline=None)
@given(game=ORIENTED, M=st.integers(1, 7), fraction=st.sampled_from([0.25, 0.5, 1.0]),
       K_hat=st.sampled_from([None, 0.5]),
       eps_list=st.sampled_from([[0.5, 0.25], [0.25, 0.125], [0.5, 0.25, 0.125]]),
       base_seed=st.integers(0, 2**31 - 1))
@example(game=("saddle-game", {"base_speed": 1.0, "coupling": 0.25}), M=6, fraction=0.5,
         K_hat=None, eps_list=[0.5, 0.25, 0.125], base_seed=11)
def test_rate_experiment_equals_bank_by_bank_form(game, M, fraction, K_hat, eps_list, base_seed):
    # M < 4 gives a calibration bank larger than the test bank
    gh = build(*game, 1)
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=1,
                   box_lo=(-48.0,), box_hi=(48.0,), seed=0)
    args = (gh, spec, [0.2], eps_list)
    kw = dict(R=1.0, T=1.0, M=M, H_bar=-0.5, dx=0.25, dt=0.25, base_seed=base_seed,
              K_hat=K_hat, calibration_fraction=fraction)
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
