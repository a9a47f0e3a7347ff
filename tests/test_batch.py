"""Batched-realization SL solves equal per-realization solves, bit for bit.

A campaign runs one SL recursion over a stack of cost tables.  Every
realization must come out exactly as its own ``solve_sl`` + ``value_at``
would give it, whatever the batch split or the worker count.
"""
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hjhomog import homog, pde
from hjhomog.env import (DomainError, EnvSpec, replace_on_strip, sample_environment,
                         with_seed)
from hjhomog.families import bind_env_constants, build
from hjhomog.game import shift_momentum
from hjhomog.pde import (Field, Grid, SolveConfig, probe_stencil, sl_plan, sl_step_cost,
                         solve_sl, solve_sl_batch)
from hjhomog.rng import derive_seed, derive_seeds

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
    """A game, an environment law, theta, a time schedule, M, a base seed, a
    worker count, and the origin followed by n > 1 probes off the nodes,
    some of them near the edge of the final active window."""
    dim = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(sorted(FAMILIES)))
    params = draw(FAMILIES[name])
    game = build(name, params, dim)
    dx = 0.25
    dt = draw(st.sampled_from([0.125, 0.25]))
    times = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=1, max_size=3)))
    margin = 2 * dx
    box = sl_box(game, max(times), dt, dx, margin=margin)
    channels = draw(st.sampled_from([1, game.n_a * game.n_b]))
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=channels, box_lo=box[0], box_hi=box[1], seed=0)
    theta = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    M = draw(st.integers(1, max_M))
    base_seed = draw(st.integers(0, 2**31 - 1))
    # the active window ends as [-margin, margin]^d; an inset of 1e-13 snaps
    # onto the edge node, the others stay between nodes
    inset = st.sampled_from([1e-13, 0.01, 0.1])
    coord = st.one_of(st.floats(-margin, margin).filter(lambda x: x % dx != 0.0),
                      st.builds(lambda side, i: side * (margin - i), st.sampled_from([-1, 1]),
                                inset))
    probes = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=2,
                           max_size=5))
    return {"game": game, "family_desc": (name, params), "spec": spec, "theta": theta,
            "times": times, "M": M, "base_seed": base_seed, "dx": dx, "dt": dt, "box": box,
            "workers": draw(st.sampled_from([1, 2])),
            "probes": np.concatenate([np.zeros((1, dim)), probes])}


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
    """u_theta at the campaign's probes, one realization and one point at a
    time: (n_times, n_probes, M)."""
    game, spec, theta = c["game"], c["spec"], np.asarray(c["theta"])
    cfg = SolveConfig(scheme="semi-lagrangian", dt=c["dt"], dx=c["dx"], T=max(c["times"]),
                      box_lo=c["box"][0], box_hi=c["box"][1], record_times=tuple(c["times"]))
    rows = []
    for i in range(c["M"]):
        env = sample_environment(with_seed(spec, derive_seed(c["base_seed"], i)))
        gh = bind_env_constants(game, env) if np.isnan(game.lip_l) else game
        res = solve_sl(shift_momentum(gh, theta), env, cfg)
        rows.append([[res.at_time(t).value_at(x) for x in c["probes"]] for t in c["times"]])
    return np.moveaxis(np.array(rows), 0, -1)


def batched(c, workers=1) -> np.ndarray:
    return homog.estimate_U(c["game"], c["spec"], c["theta"], c["times"], c["M"],
                            c["base_seed"], dx=c["dx"], dt=c["dt"], workers=workers,
                            family_desc=c["family_desc"], box=c["box"]).samples


# ---------------------------------------------------------------------------
# estimate_U


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(c=campaigns(), split=st.integers(1, 5))
def test_batched_campaign_equals_per_realization_solves(c, split):
    # cap the stacked cost table at `split` realizations to force sub-batches
    # in this process; pool workers batch by their own cap, which changes no bit
    cfg = SolveConfig(scheme="semi-lagrangian", dt=c["dt"], dx=c["dx"], T=max(c["times"]),
                      box_lo=c["box"][0], box_hi=c["box"][1], record_times=tuple(c["times"]))
    cap = split * sl_plan(c["game"], cfg).cost_bytes
    seeds = derive_seeds(c["base_seed"], np.arange(c["M"]))
    game = c["family_desc"] if c["workers"] > 1 else c["game"]
    with mock.patch.object(pde, "BATCH_COST_BYTES", cap):
        table = batched(c, c["workers"])
        got = homog._solve_batches(game, c["spec"], seeds, np.asarray(c["theta"]), cfg,
                                   c["probes"], c["workers"])
    want = per_realization(c)
    assert got.shape == (len(c["times"]), len(c["probes"]), c["M"])
    assert got.tobytes() == want.tobytes()
    assert table.shape == (len(c["times"]), c["M"])
    assert table.tobytes() == want[:, 0].tobytes()


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(c=campaigns(max_M=6))
def test_pool_campaign_equals_per_realization_solves(c):
    assert batched(c, workers=2).tobytes() == per_realization(c)[:, 0].tobytes()


def test_batch_environment_is_freed_before_its_march():
    game = build("saddle-game", {}, 1)
    box = sl_box(game, 1.0, 0.25, 0.25, margin=0.5)
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=4, box_lo=box[0], box_hi=box[1], seed=0)
    cfg = SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=1.0,
                      box_lo=box[0], box_hi=box[1], record_times=(1.0,))
    seeds = derive_seeds(7, np.arange(5))
    args = (game, spec, seeds, np.array([0.2]), cfg, np.zeros((1, 1)))
    cap = 2 * sl_plan(game, cfg).cost_bytes
    envs, alive = [], []
    sample, march = homog.sample_environment, homog.solve_sl_batch

    def sampling(*a):
        env = sample(*a)
        envs.append(weakref.ref(env))
        return env

    def marching(*a, **k):
        alive.append([ref() is not None for ref in envs])
        return march(*a, **k)

    with mock.patch.object(pde, "BATCH_COST_BYTES", cap):
        with mock.patch.object(homog, "sample_environment", sampling), \
                mock.patch.object(homog, "solve_sl_batch", marching):
            got = homog._solve_batches(*args)
        assert got.tobytes() == homog._solve_batches(*args).tobytes()
    assert alive == [[False], [False, False], [False, False, False]]


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
    box = homog.solve_box_for(game, "semi-lagrangian", t_top, dt, dx, R / eps)
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
    lo, hi = fld.grid.box(fld.active)
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
    both = Field(grid=fld.grid, t=fld.t, values=np.stack([fld.values, other.values], axis=-1),
                 active=fld.active)
    got = both.value_at(pts)
    assert got.shape == (len(pts), 2)
    assert got[:, 0].tobytes() == fld.value_at(pts).tobytes()
    assert got[:, 1].tobytes() == other.value_at(pts).tobytes()
    assert both.value_at(pts[0]).tobytes() == got[0].tobytes()


@settings(max_examples=20, deadline=None)
@given(fp=fields_and_probes(), side=st.sampled_from([-1.0, 1.0]),
       reach=st.floats(0.3, 3.0), axis=st.integers(0, 1))
def test_value_at_refuses_points_outside_active_box(fp, side, reach, axis):
    fld, pts = fp
    lo, hi = fld.grid.box(fld.active)
    axis = min(axis, fld.grid.dim - 1)
    bad = pts[:1].copy()
    bad[0, axis] = (hi if side > 0 else lo)[axis] + side * reach
    further = bad.copy()
    further[0, axis] += side
    for probes in (bad[0], np.concatenate([pts, bad, further])):
        with pytest.raises(DomainError, match="active box") as plain:
            fld.value_at(probes)
        assert f"probe {bad[0]} outside active box" in str(plain.value)


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([1, 2]), M=st.integers(1, 3), seed=st.integers(0, 1000),
       unit=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
def test_one_stencil_reads_every_record_time(dim, M, seed, unit):
    # a campaign works the stencil out once and the batched solve reads each
    # record time through it; probes inside the last window are read at every
    # time as a Field read gives them, probes outside it are refused at the
    # first time that loses them, as a Field read refuses them
    game = build("saddle-game", {}, dim)
    box = sl_box(game, 1.0, 0.25, 0.25, margin=1.0)
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=4, box_lo=box[0], box_hi=box[1], seed=0)
    times = (0.25, 0.5, 0.75, 1.0)
    plan = sl_plan(game, SolveConfig(scheme="semi-lagrangian", dt=0.25, dx=0.25, T=1.0,
                                     box_lo=box[0], box_hi=box[1], record_times=times))
    cost = sl_step_cost(game, sample_environment(spec, list(range(M))), plan)
    res = solve_sl_batch(plan, cost)
    lo, hi = res.final.grid.box(res.final.active)
    eighths = np.round(np.array(unit[:len(unit) // dim * dim]).reshape(-1, dim) * 8.0) / 8.0
    inside = lo + eighths * (hi - lo)
    wide = np.concatenate([inside, [hi + 0.125 + 0.25 * (seed % 3)]])
    for pts in (inside, wide):
        want, refusal = [], None
        for t in times:
            try:
                want.append(res.at_time(t).value_at(pts))
            except DomainError as plain:
                refusal = str(plain)
                break
        if refusal is None:
            got = solve_sl_batch(plan, cost, probes=probe_stencil(plan.cfg.grid, pts))
            assert np.stack([got.at_time(t) for t in times]).tobytes() \
                == np.stack(want).tobytes()
        else:
            with pytest.raises(DomainError) as stenciled:
                solve_sl_batch(plan, cost, probes=probe_stencil(plan.cfg.grid, pts))
            assert str(stenciled.value) == refusal
    with pytest.raises(DomainError):
        res.final.value_at(wide)


def test_value_at_maps_negative_zero_to_zero():
    fld = Field(grid=Grid.from_box([0.0], [1.0], 0.25), t=0.0, values=np.full(5, -0.0),
                active=((0, 5),))
    for v in (fld.value_at([0.5]), *fld.value_at(np.array([[0.25], [0.6]]))):
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
