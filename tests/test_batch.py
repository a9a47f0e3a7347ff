"""Batched-realization SL solves equal per-realization solves, bit for bit.

A campaign runs one SL recursion over a stack of cost tables.  Every
realization must come out exactly as its own ``solve_sl`` + ``value_at``
would give it, whatever the batch split or the worker count.
"""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hjhomog import homog
from hjhomog.env import (DomainError, EnvSpec, replace_on_strip, sample_environment,
                         with_seed)
from hjhomog.families import bind_env_constants, build
from hjhomog.game import shift_momentum
from hjhomog.pde import Field, Grid, SolveConfig, sl_plan, solve_sl
from hjhomog.rng import derive_seed

SNAP = 1e-12          # the SL solver's foot-point snapping tolerance

FAMILIES = {
    "transport": st.fixed_dictionaries({"speed": st.sampled_from([0.6, 1.0, 1.25, -1.5])}),
    "two-speed-control": st.fixed_dictionaries(
        {"speeds": st.sampled_from([(0.5, 1.5), (0.75, 1.0), (0.3, 0.9)])}),
    "saddle-game": st.fixed_dictionaries({
        "base_speed": st.sampled_from([1.0, 1.2]),
        "coupling": st.sampled_from([0.25, 0.5, -0.3]),
    }),
}


@st.composite
def campaigns(draw, max_M=5):
    """A game, an environment law, theta, a time schedule, M and a base seed."""
    dim = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(sorted(FAMILIES)))
    params = draw(FAMILIES[name])
    game = build(name, params, dim)
    dx = 0.25
    dt = draw(st.sampled_from([0.125, 0.25]))
    times = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=3)))
    box = sl_box(game, max(times), dt, dx, margin=2 * dx)
    channels = draw(st.sampled_from([1, game.n_a * game.n_b]))
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=channels, box_lo=box[0], box_hi=box[1], seed=0)
    theta = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    M = draw(st.integers(1, max_M))
    base_seed = draw(st.integers(0, 2**31 - 1))
    return {"game": game, "family_desc": (name, params), "spec": spec, "theta": theta,
            "times": times, "M": M, "base_seed": base_seed, "dx": dx, "dt": dt, "box": box}


def sl_box(game, T, dt, dx, margin):
    """Box the SL active window never exhausts: it sheds ceil(dt f / dx) cells per step."""
    f = np.broadcast_to(game.f_table, (game.n_a, game.n_b, game.dim)).reshape(-1, game.dim)
    s = dt * f / dx
    above = np.ceil(np.maximum(s, 0.0).max(axis=0) - SNAP)
    below = np.ceil(np.maximum(-s, 0.0).max(axis=0) - SNAP)
    steps = round(T / dt)
    return (tuple(float(-(steps * b * dx + margin)) for b in below),
            tuple(float(steps * a * dx + margin) for a in above))


def per_realization(c) -> np.ndarray:
    """The campaign's table built one realization at a time."""
    game, spec, theta = c["game"], c["spec"], np.asarray(c["theta"])
    cfg = SolveConfig(scheme="semi-lagrangian", dt=c["dt"], dx=c["dx"], T=max(c["times"]),
                      box_lo=c["box"][0], box_hi=c["box"][1], record_times=tuple(c["times"]))
    rows = []
    for i in range(c["M"]):
        env = sample_environment(with_seed(spec, derive_seed(c["base_seed"], i)))
        gh = bind_env_constants(game, env) if np.isnan(game.lip_l) else game
        res = solve_sl(shift_momentum(gh, theta), env, cfg)
        rows.append([res.at_time(t).value_at(np.zeros(game.dim)) for t in c["times"]])
    return np.array(rows).T


def batched(c, workers=1) -> np.ndarray:
    return homog.estimate_U(c["game"], c["spec"], c["theta"], c["times"], c["M"],
                            c["base_seed"], dx=c["dx"], dt=c["dt"], workers=workers,
                            family_desc=c["family_desc"], box=c["box"]).samples


# ---------------------------------------------------------------------------
# estimate_U


@settings(max_examples=40, deadline=None)
@given(c=campaigns(), split=st.integers(1, 5))
def test_batched_campaign_equals_per_realization_solves(c, split):
    # cap the stacked cost table at `split` realizations to force sub-batches
    cfg = SolveConfig(scheme="semi-lagrangian", dt=c["dt"], dx=c["dx"], T=max(c["times"]),
                      box_lo=c["box"][0], box_hi=c["box"][1])
    cap = split * sl_plan(c["game"], cfg).cost_bytes
    with mock.patch.object(homog, "BATCH_COST_BYTES", cap):
        got = batched(c)
    want = per_realization(c)
    assert got.shape == (len(c["times"]), c["M"])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(c=campaigns(max_M=6))
def test_pool_campaign_equals_per_realization_solves(c):
    assert batched(c, workers=2).tobytes() == per_realization(c).tobytes()


def test_pool_without_family_desc_is_refused():
    game = build("transport", {"speed": 1.0}, 1)
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=1, box_lo=(-2.0,), box_hi=(4.0,), seed=0)
    with pytest.raises(ValueError, match="family_desc"):
        homog.estimate_U(game, spec, [0.0], [1.0], M=4, base_seed=1, dx=0.25, dt=0.25,
                         workers=2)


@pytest.mark.parametrize("game", [shift_momentum(build("transport", {"speed": 1.0}, 1), [0.5]),
                                  build("transport", {"speed": 1.25}, 1)])
def test_pool_with_mismatched_family_desc_is_refused(game):
    # pool workers rebuild the game by name; a name that does not rebuild
    # `game` would make the worker count change the numbers
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=1, box_lo=(-2.0,), box_hi=(20.0,), seed=0)
    kw = dict(M=4, base_seed=1, dx=0.25, dt=0.25)
    homog.estimate_U(game, spec, [0.0], [8.0], **kw)
    with pytest.raises(ValueError, match="family_desc"):
        homog.estimate_U(game, spec, [0.0], [8.0], workers=2,
                         family_desc=("transport", {"speed": 1.0}), **kw)


# ---------------------------------------------------------------------------
# the other batched callers


def test_strip_experiment_matches_two_separate_solves():
    game = build("saddle-game", {}, 1)
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=4, box_lo=(-4.0,), box_hi=(12.0,), seed=5)
    env = sample_environment(spec)
    gh = bind_env_constants(game, env)
    box = ((-3.0,), (11.0,))
    rep = homog.strip_experiment(gh, env, 2.0, 4.0, shift=[0.8], theta=[0.3], t=2.0,
                                 dx=0.25, dt=0.25, box=box)
    cfg = SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=2.0,
                      box_lo=box[0], box_hi=box[1])
    gh_th = shift_momentum(gh, np.array([0.3]))
    u = solve_sl(gh_th, env, cfg).final
    u_hat = solve_sl(gh_th, replace_on_strip(env, 2.0, 4.0, np.array([1.0]),
                                             np.array([0.8])), cfg).final
    assert rep["observed"] == float(np.max(np.abs(u.active_values() - u_hat.active_values())))


@settings(max_examples=10, deadline=None)
@given(speed=st.sampled_from([1.0, 1.25, 2.0]), eps=st.sampled_from([0.5, 0.25]),
       dt=st.sampled_from([0.0625, 0.125, 0.25]),
       count=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
# the SL box sheds ceil(dt f / dx) = 2 cells per step here, more than the
# physical reach dt f of 1.25 cells; a box sized from the latter runs out
@example(speed=1.25, eps=0.5, dt=0.125, count=1, seed=0)
def test_rate_sup_errors_match_pointwise_probes(speed, eps, dt, count, seed):
    game = build("transport", {"speed": speed}, 1)
    R, T, H_bar, dx = 0.5, 1.0, -0.6, 0.125
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=1, box_lo=(-8.0,), box_hi=(12.0,), seed=0)
    seeds = [derive_seed(seed, i) for i in range(count)]
    got = homog._sup_errors(game, spec, seeds, np.zeros(1), eps, R, T, H_bar, dx, dt)

    t_top = T / eps
    box = homog.solve_box_for(game.f_pairs, "semi-lagrangian", t_top, dt, dx, R / eps)
    times = [t_top * j / 8 for j in range(1, 9)]
    cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=t_top,
                      box_lo=box[0], box_hi=box[1], record_times=tuple(times))
    want = []
    for env in (sample_environment(with_seed(spec, s)) for s in seeds):
        res = solve_sl(shift_momentum(bind_env_constants(game, env), np.zeros(1)), env, cfg)
        worst = 0.0
        for tj, t_un in zip([T * j / 8 for j in range(1, 9)], times):
            for x in np.linspace(-R, R, 9):
                worst = max(worst, abs(eps * res.at_time(t_un).value_at([x / eps]) + tj * H_bar))
        want.append(worst)
    assert got.tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# vectorized value_at


def scalar_value_at(fld: Field, x) -> float:
    """Multilinear read-out of one point, one corner at a time (the reference)."""
    g = fld.grid
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    idx, wts = [], []
    for i in range(g.dim):
        s = (x[i] - g.lo[i]) / g.dx
        k = int(math.floor(s))
        w = s - k
        if w < 1e-12:
            w = 0.0
        elif w > 1 - 1e-12:
            k += 1
            w = 0.0
        idx.append(k)
        wts.append(w)
    out = 0.0
    for corner in itertools.product(*[(0, 1) if w > 0 else (0,) for w in wts]):
        weight = 1.0
        for i, c in enumerate(corner):
            weight *= wts[i] if c else (1.0 - wts[i])
        out += weight * float(fld.values[tuple(idx[i] + corner[i] for i in range(g.dim))])
    return out


@st.composite
def fields_and_probes(draw):
    """A solved field and probes inside its active box: nodes, near-nodes and random points."""
    dim = draw(st.sampled_from([1, 2]))
    game = build("saddle-game", {}, dim)
    box = sl_box(game, 1.0, 0.25, 0.25, margin=1.0)
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=4, box_lo=box[0], box_hi=box[1], seed=draw(st.integers(0, 1000)))
    env = sample_environment(spec)
    theta = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    cfg = SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=1.0,
                      box_lo=box[0], box_hi=box[1])
    fld = solve_sl(shift_momentum(bind_env_constants(game, env), theta), env, cfg).final
    lo, hi = fld.active_box()
    n = draw(st.integers(1, 12))
    unit = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
                         min_size=n, max_size=n))
    pts = lo + np.array(unit) * (hi - lo)
    nodes = draw(st.lists(st.tuples(*[st.integers(a, b - 1) for a, b in fld.active]),
                          min_size=1, max_size=4))
    node_pts = np.array([[fld.grid.lo[i] + fld.grid.dx * j for i, j in enumerate(nd)]
                         for nd in nodes])
    jitter = draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    near = np.clip(node_pts + jitter, lo, hi)
    return fld, np.concatenate([pts, node_pts, near])


@settings(max_examples=40, deadline=None)
@given(fp=fields_and_probes())
def test_vectorized_value_at_equals_scalar_reads(fp):
    fld, pts = fp
    got = fld.value_at(pts)
    want = np.array([scalar_value_at(fld, p) for p in pts])
    assert got.shape == (len(pts),)
    assert got.tobytes() == want.tobytes()
    assert np.array([fld.value_at(p) for p in pts]).tobytes() == want.tobytes()
    assert all(isinstance(fld.value_at(p), float) for p in pts[:2])


@settings(max_examples=20, deadline=None)
@given(fp=fields_and_probes())
def test_batched_field_reads_each_realization(fp):
    fld, pts = fp
    other = Field(grid=fld.grid, t=fld.t, values=2.0 * fld.values - 1.0, active=fld.active)
    both = Field(grid=fld.grid, t=fld.t, values=np.stack([fld.values, other.values]),
                 active=fld.active)
    got = both.value_at(pts)
    assert got.shape == (2, len(pts))
    assert got[0].tobytes() == fld.value_at(pts).tobytes()
    assert got[1].tobytes() == other.value_at(pts).tobytes()
    assert both.value_at(pts[0]).tobytes() == got[:, 0].tobytes()


@settings(max_examples=20, deadline=None)
@given(fp=fields_and_probes(), side=st.sampled_from([-1.0, 1.0]),
       reach=st.floats(0.3, 3.0), axis=st.integers(0, 1))
def test_value_at_refuses_points_outside_active_box(fp, side, reach, axis):
    fld, pts = fp
    lo, hi = fld.active_box()
    axis = min(axis, fld.grid.dim - 1)
    bad = pts[:1].copy()
    bad[0, axis] = (hi if side > 0 else lo)[axis] + side * reach
    with pytest.raises(DomainError, match="active box"):
        fld.value_at(bad[0])
    with pytest.raises(DomainError, match="active box"):
        fld.value_at(np.concatenate([pts, bad]))


def test_value_at_maps_negative_zero_to_zero():
    fld = Field(grid=Grid.from_box([0.0], [1.0], 0.25), t=0.0, values=np.full(5, -0.0),
                active=((0, 5),))
    for v in (fld.value_at([0.5]), *fld.value_at(np.array([[0.25], [0.6]]))):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
