"""The per-realization kernels equal their straightforward forms, bit for bit.

Each reference below is the plain form of a kernel: field values summed
through boolean masks with one hash call per lattice corner, an SL step
that interpolates every action pair's stencil itself, and an LF substep and
max-min evaluator built from whole-window temporaries.  The library's
kernels do the same floating-point operations in the same order with fewer
array passes, so every value must match to the last bit, the sign of zero
included.
"""
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import drawn_games
from hjhomog import pde
from hjhomog.env import EnvSpec, sample_environment, with_seed
from hjhomog.families import build
from hjhomog.game import eval_H_nodes, shift_momentum
from hjhomog.homog import solve_box_for
from hjhomog.pde import (SolveConfig, _march, _plan_window, _precompute_cost, linear_datum,
                         sl_plan, sl_step_cost, solve_lf, solve_sl_batch)

# ---------------------------------------------------------------------------
# reference kernels


def ref_raw_values(env, pts):
    out = np.zeros((pts.shape[0], env.spec.channels))
    chans = np.arange(env.spec.channels, dtype=np.int64)
    for z, live, w in env._bumps(pts):
        if not np.any(live):
            continue
        amp = env._cell_amplitudes(z[live], chans)
        out[live] += w[live, None] * amp
    return out


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

    def recording(z, chans):
        calls.append(z.tolist())
        return amplitudes(z, chans)

    env._cell_amplitudes = recording
    got = env.values(pts)
    env._cell_amplitudes = amplitudes
    assert same_bits(got, ref_raw_values(env, pts))
    hashed = [tuple(z) for call in calls for z in call]
    assert len(calls) <= 1 and len(hashed) == len(set(hashed))
    assert set(hashed) == env.cells_touched(pts)


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
    cost = np.empty((len(plan.stencil), M) + plan.grid.shape)
    for m in range(M):
        sl_step_cost(gh, sample_environment(with_seed(base.spec, base.spec.seed + m)), plan,
                     out=cost[:, m])
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
