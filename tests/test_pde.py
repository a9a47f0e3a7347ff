import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ORIENTED, ConstantEnvironment, ref_grid_from_box, ref_steps_and_records
from hjhomog.env import DomainError, EnvSpec, TensorGrid, as_points, sample_environment
from hjhomog.game import GameHamiltonian
from hjhomog.families import bind_env_constants, build, saddle_game, transport
from hjhomog import pde
from hjhomog.homog import solve_box_for
from hjhomog.pde import (Grid, SolveConfig, check_comparison,
                         check_lipschitz, check_scaling, linear_datum, solve,
                         solve_lf, solve_sl, zero_datum)


def field_spec(seed=0, lo=-8.0, hi=8.0):
    return EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0,
                   amp_hi=1.0, channels=1, box_lo=(lo,), box_hi=(hi,),
                   seed=seed)


def singleton_game(cost_fn, speed=1.0):
    f = np.zeros((1, 1, 1))
    f[0, 0, 0] = speed
    return GameHamiltonian(f_table=f, n_b=1,
                           base_cost=cost_fn, lip_l=1.0, l_inf=1.0,
                           orientation_hint=np.array([1.0]))


def cfg(scheme, dt, dx, T, lo, hi, **kw):
    return SolveConfig(scheme=scheme, dt=dt, dx=dx, T=T, box_lo=(lo,),
                       box_hi=(hi,), **kw)


# ---------------------------------------------------------------------------
# exact solutions


@pytest.mark.parametrize("scheme", ["semi-lagrangian", "lax-friedrichs"])
def test_constant_cost_is_exact(scheme):
    env = ConstantEnvironment(0.3)
    gh = bind_env_constants(transport(1.0), env)
    res = solve(gh, env, cfg(scheme, 0.1, 0.1, 2.0, -5.0, 9.0))
    av = res.final.active_values()
    assert np.max(np.abs(av - 0.6)) < 1e-12


@pytest.mark.parametrize("scheme", ["semi-lagrangian", "lax-friedrichs"])
def test_linear_datum_invariant(scheme):
    # u(t, x) = theta x + t (c + f theta) is preserved to rounding by both
    # schemes: interpolation and central differences are exact on affine data
    c0, f0, theta = 0.45, 1.0, 0.7
    env = ConstantEnvironment(c0)
    gh = bind_env_constants(transport(f0), env)
    res = solve(gh, env, cfg(scheme, 0.1, 0.1, 1.0, -4.0, 8.0),
                linear_datum([theta]))
    fld = res.final
    lo, hi = fld.grid.box(fld.active)
    xs = np.linspace(lo[0], hi[0], 30)
    want = theta * xs + 1.0 * (c0 + f0 * theta)
    got = np.array([fld.value_at([x]) for x in xs])
    assert np.max(np.abs(got - want)) < 1e-12


def test_sl_matches_brute_force_dp():
    # A = {-1, +1}, f(a) = a, cost = |x|: with dt = dx the feet are exact
    # lattice nodes, so the scheme must reproduce the raw DP recursion
    def cost(pts, env):
        ax = np.abs(as_points(pts)[:, 0])
        return np.broadcast_to(ax[:, None, None], (ax.shape[0], 2, 1))

    f = np.zeros((2, 1, 1))
    f[0, 0, 0], f[1, 0, 0] = -1.0, 1.0
    gh = GameHamiltonian(f_table=f, n_b=1,
                         base_cost=cost, lip_l=1.0, l_inf=3.0)
    dt = dx = 0.25
    res = solve_sl(gh, None, cfg("semi-lagrangian", dt, dx, 1.0, -3.0, 3.0))

    xs = np.arange(-3.0, 3.0 + dx / 2, dx)
    v = np.zeros_like(xs)
    lo, hi = 0, len(xs)
    for _ in range(4):
        lo, hi = lo + 1, hi - 1
        up = dt * np.abs(xs[lo:hi]) + v[lo + 1:hi + 1]
        dn = dt * np.abs(xs[lo:hi]) + v[lo - 1:hi - 1]
        vn = np.full_like(v, np.nan)
        vn[lo:hi] = np.maximum(up, dn)
        v = vn
    assert res.final.active == ((lo, hi),)
    assert np.max(np.abs(res.final.active_values() - v[lo:hi])) < 1e-12


def test_sin_cost_consistency():
    # transport at speed 1 over cost sin(x): u(t, x) = cos(x) - cos(x + t);
    # first-order scheme, so error halves (roughly) with the mesh
    def cost(pts, env):
        return np.sin(as_points(pts)[:, 0])[:, None, None]

    gh = singleton_game(cost)
    errs = []
    for h in (0.04, 0.02):
        res = solve_sl(gh, None, cfg("semi-lagrangian", h, h, 1.0, -3.0, 3.0))
        fld = res.final
        xs = np.linspace(-1.0, 1.0, 41)
        want = np.cos(xs) - np.cos(xs + 1.0)
        got = np.array([fld.value_at([x]) for x in xs])
        errs.append(np.max(np.abs(got - want)))
    assert errs[1] < 0.05
    assert errs[1] < 0.8 * errs[0]


# ---------------------------------------------------------------------------
# structural properties of the schemes


def test_cross_solver_agreement():
    env = sample_environment(field_spec(seed=6))
    gh = bind_env_constants(transport(1.0), env)
    h = 0.05
    r1 = solve_sl(gh, env, cfg("semi-lagrangian", h, h, 1.0, -5.0, 7.0))
    r2 = solve_lf(gh, env, cfg("lax-friedrichs", h, h, 1.0, -5.0, 7.0))
    sl = r1.final.common_slices(r2.final)
    diff = np.max(np.abs(r1.final.values[sl] - r2.final.values[sl]))
    assert diff <= 5 * np.sqrt(h)


SCHEME_CASE = dict(family=ORIENTED, dim=st.sampled_from([1, 2]),
                   dt=st.sampled_from([0.1, 0.125, 0.25]), dx=st.sampled_from([0.1, 0.125, 0.25]),
                   steps=st.integers(1, 3), seed=st.integers(0, 99),
                   theta=st.floats(-1.0, 1.0))
# always checked as well: the saddle game at dt = dx = 0.1 over ten steps
SADDLE_CASE = dict(family=("saddle-game", {"base_speed": 1.0, "coupling": 0.25}), dim=1,
                   dt=0.1, dx=0.1, steps=10, theta=0.0)


def scheme_case(scheme, family, dim, dt, dx, steps, seed):
    """A drawn oriented game on a field, and a config whose box covers B(1) at T."""
    game = build(*family, dim)
    T = steps * dt
    lo, hi = solve_box_for(game, scheme, T, dt, dx, report_radius=1.0)
    env = sample_environment(EnvSpec(
        dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0, channels=1,
        box_lo=tuple(v - 1.0 for v in lo), box_hi=tuple(v + 1.0 for v in hi), seed=seed))
    c = SolveConfig(scheme=scheme, dt=dt, dx=dx, T=T, box_lo=lo, box_hi=hi)
    return game, env, c


@pytest.mark.parametrize("scheme", ["semi-lagrangian", "lax-friedrichs"])
@settings(max_examples=40, deadline=None)
@given(**SCHEME_CASE)
@example(**SADDLE_CASE, seed=2)
def test_monotone_in_datum(scheme, family, dim, dt, dx, steps, seed, theta):
    gh, env, c = scheme_case(scheme, family, dim, dt, dx, steps, seed)
    g0 = linear_datum(np.full(dim, theta))

    def g1(pts):
        pts = np.atleast_2d(pts)
        return g0(pts) + np.maximum(0.0, 1.0 - np.sum(pts**2, axis=1))

    r0 = solve(gh, env, c, g0)
    r1 = solve(gh, env, c, g1)
    sl = r0.final.active_slices()
    assert np.all(r1.final.values[sl] >= r0.final.values[sl] - 1e-12)


@pytest.mark.parametrize("scheme", ["semi-lagrangian", "lax-friedrichs"])
@settings(max_examples=40, deadline=None)
@given(**SCHEME_CASE, shift=st.floats(-5.0, 5.0))
@example(**SADDLE_CASE, seed=5, shift=5.0)
def test_constant_shift_commutes(scheme, family, dim, dt, dx, steps, seed, theta, shift):
    gh, env, c = scheme_case(scheme, family, dim, dt, dx, steps, seed)
    g0 = linear_datum(np.full(dim, theta))
    r0 = solve(gh, env, c, g0)
    r1 = solve(gh, env, c, lambda pts: g0(pts) + shift)
    sl = r0.final.active_slices()
    assert np.max(np.abs(r1.final.values[sl] - r0.final.values[sl] - shift)) < 1e-12


def test_comparison_preserved():
    env = sample_environment(field_spec(seed=4))
    gh = bind_env_constants(transport(1.0), env)
    c = cfg("semi-lagrangian", 0.1, 0.1, 1.0, -5.0, 7.0,
            record_times=(0.5, 1.0))
    rep = check_comparison(gh, env, c,
                           g_upper=lambda pts: np.ones(np.atleast_2d(pts).shape[0]),
                           g_lower=zero_datum)
    assert rep["ok"]
    assert rep["initial_gap"] == pytest.approx(1.0)


def test_scaling_identity():
    env = sample_environment(field_spec(seed=3, lo=-8.0, hi=16.0))
    gh = bind_env_constants(transport(1.0), env)
    c = cfg("semi-lagrangian", 0.25, 0.25, 2.0, -2.0, 8.0)
    assert check_scaling(gh, env, [0.0], 1.0, c)["max_error"] == 0.0
    assert check_scaling(gh, env, [0.0], 0.5, c)["max_error"] <= 1e-12
    gh2 = bind_env_constants(saddle_game(1.0, 0.25), env)
    assert check_scaling(gh2, env, [0.0], 0.125, c)["max_error"] <= 1e-9


@pytest.mark.parametrize("scheme", ["semi-lagrangian", "lax-friedrichs"])
@settings(max_examples=30, deadline=None)
@given(**SCHEME_CASE, eps=st.sampled_from([0.5, 0.25, 0.125]))
@example(**SADDLE_CASE, seed=3, eps=0.125)
def test_scaling_identity_drawn(scheme, family, dim, dt, dx, steps, seed, theta, eps):
    # the eps-grid is the unit grid scaled by a power of two, so both runs
    # take the same steps; verify holds the identity to the same 1e-9
    gh, env, c = scheme_case(scheme, family, dim, dt, dx, steps, seed)
    rep = check_scaling(gh, env, np.zeros(dim), eps, c, linear_datum(np.full(dim, theta)))
    assert rep["nodes_compared"] > 0
    assert rep["max_error"] <= 1e-9


def test_lipschitz_bounds_hold():
    env = sample_environment(field_spec(seed=7))
    gh = bind_env_constants(transport(1.0), env)
    c = cfg("semi-lagrangian", 0.1, 0.1, 1.0, -5.0, 7.0,
            record_times=(0.5, 1.0))
    res = solve(gh, env, c, zero_datum)
    beta = max(gh.l_inf, gh.lip_l, float(np.abs(gh.f_table).max()))
    rep = check_lipschitz(list(res.snapshots.values()),
                          beta1=beta, beta3=beta * (1 + beta), lip_g=0.0)
    assert rep["space_ok"] and rep["time_ok"]


# ---------------------------------------------------------------------------
# refusals and validation


def test_box_exhaustion_raises_with_margin_hint():
    env = ConstantEnvironment(0.0)
    gh = bind_env_constants(transport(1.0), env)
    with pytest.raises(DomainError, match="add margin"):
        solve_sl(gh, env, cfg("semi-lagrangian", 0.1, 0.1, 5.0, 0.0, 1.0))
    with pytest.raises(DomainError, match="add margin"):
        solve_lf(gh, env, cfg("lax-friedrichs", 0.1, 0.1, 5.0, 0.0, 1.0))


def test_time_grid_validation():
    env = ConstantEnvironment(0.0)
    gh = bind_env_constants(transport(1.0), env)
    with pytest.raises(ValueError, match="integer multiple"):
        solve_sl(gh, env, cfg("semi-lagrangian", 0.3, 0.1, 1.0, -4.0, 6.0))
    with pytest.raises(ValueError, match="record time"):
        solve_sl(gh, env, cfg("semi-lagrangian", 0.1, 0.1, 1.0, -4.0, 6.0,
                              record_times=(0.15,)))
    # the config applies the same rule when it is built, before any solve
    with pytest.raises(ValueError, match="integer multiple"):
        cfg("semi-lagrangian", 0.3, 0.1, 1.0, -4.0, 6.0)
    with pytest.raises(ValueError, match="record time"):
        cfg("semi-lagrangian", 0.1, 0.1, 1.0, -4.0, 6.0, record_times=(0.15,))
    with pytest.raises(ValueError):
        cfg("semi-lagrangian", -0.1, 0.1, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cfg("upwind", 0.1, 0.1, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("changes, message", [
    ({"scheme": "upwind"}, "unknown scheme 'upwind'"),
    ({"dt": 0.0}, "dt must be positive, got 0.0"),
    ({"dx": -0.1}, "dx must be positive, got -0.1"),
    ({"T": -1.0}, "T must be positive, got -1.0"),
    ({"epsilon": 0.0}, "epsilon must be positive, got 0.0"),
    ({"T": 1.05}, "T=1.05 is not an integer multiple of dt=0.1"),
    ({"record_times": (0.5, 0.15)}, "record time 0.15 not on the time grid (dt=0.1)"),
    ({"record_times": (1.1,)}, "record time 1.1 not on the time grid (dt=0.1)"),
    ({"box_hi": (-3.95,)}, "degenerate grid: shape (1,)"),
    ({"box_hi": (6.0, 6.0)}, "box corners of different lengths: lo (-4.0,), hi (6.0, 6.0)"),
])
def test_a_config_refuses_itself_when_built(changes, message):
    good = dict(scheme="semi-lagrangian", dt=0.1, dx=0.1, T=1.0, box_lo=(-4.0,), box_hi=(6.0,))
    with pytest.raises(ValueError) as built:
        SolveConfig(**{**good, **changes})
    with pytest.raises(ValueError) as replaced:       # replace() checks anew
        replace(SolveConfig(**good), **changes)
    assert str(built.value) == str(replaced.value) == message


def test_a_config_holds_its_grid_and_time_grid():
    c = cfg("lax-friedrichs", 0.1, 0.25, 1.0, -1.0, 1.0, record_times=(0.5, 0.0))
    assert (c.grid, c.n_steps, c.records) == (Grid((-1.0,), 0.25, (9,)), 10, {5: 0.5, 0: 0.0})
    moved = replace(c, T=2.0, box_hi=(2.0,))
    assert (moved.grid.shape, moved.n_steps, moved.records) == ((13,), 20, c.records)
    # derived, so left out of the hash (a dict has none), the repr and the arguments
    assert hash(moved) == hash(replace(c, T=2.0, box_hi=(2.0,))) and "grid" not in repr(c)
    with pytest.raises(TypeError):
        SolveConfig(scheme="semi-lagrangian", dt=0.1, dx=0.1, T=1.0, box_lo=(0.0,),
                    box_hi=(1.0,), n_steps=10)


@settings(max_examples=300, deadline=None)
@given(dt=st.sampled_from([0.1, 0.25, 0.0625, 1 / 3, 0.2, 0.3]), steps=st.integers(1, 40),
       off=st.sampled_from([0.0, 0.0, 0.0, 1e-12, 1e-7, 0.5]),
       recs=st.lists(st.tuples(st.integers(-1, 41), st.sampled_from([0.0, 0.0, 1e-12, 1e-3])),
                     max_size=3),
       dx=st.sampled_from([0.1, 0.25, 0.2, 1 / 3]),
       lo=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
       span=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3))
@example(dt=0.1, steps=3, off=0.0, recs=[(1, 0.0), (3, 0.0), (1, 0.0)], dx=0.1, lo=[-0.0],
         span=[0.3])
def test_a_config_works_out_the_solvers_time_grid_and_grid(dt, steps, off, recs, dx, lo, span):
    # bit for bit what the solvers worked out from a config before it held them
    d = min(len(lo), len(span))
    lo, hi = tuple(lo[:d]), tuple(l + s for l, s in zip(lo, span))
    kw = dict(scheme="semi-lagrangian", dt=dt, dx=dx, T=steps * dt + off, box_lo=lo,
              box_hi=hi, record_times=tuple(k * dt + e for k, e in recs))
    try:
        want = ref_steps_and_records(SimpleNamespace(**kw)), ref_grid_from_box(lo, hi, dx)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            SolveConfig(**kw)
        return
    got = SolveConfig(**kw)
    (n_steps, records), (g_lo, g_dx, shape) = want
    assert got.n_steps == n_steps and type(got.n_steps) is int
    assert list(got.records.items()) == list(records.items())
    assert all(float(a).hex() == float(b).hex() for a, b in zip(got.records.values(),
                                                                records.values()))
    assert [v.hex() for v in got.grid.lo + (got.grid.dx,)] == [v.hex() for v in g_lo + (g_dx,)]
    assert got.grid.shape == shape


def test_value_at_refuses_outside_active_box():
    env = ConstantEnvironment(0.0)
    gh = bind_env_constants(transport(1.0), env)
    res = solve_sl(gh, env, cfg("semi-lagrangian", 0.1, 0.1, 1.0, -2.0, 2.0))
    lo, hi = res.final.grid.box(res.final.active)
    assert res.final.value_at([lo[0]]) == pytest.approx(0.0)
    with pytest.raises(DomainError, match="active box"):
        res.final.value_at([hi[0] + 0.5])


def test_snapshot_lookup():
    env = ConstantEnvironment(0.1)
    gh = bind_env_constants(transport(1.0), env)
    res = solve_sl(gh, env, cfg("semi-lagrangian", 0.1, 0.1, 1.0, -2.0, 3.0,
                                record_times=(0.0, 0.5)))
    assert res.at_time(0.5).t == pytest.approx(0.5)
    with pytest.raises(KeyError):
        res.at_time(0.7)
    assert res.final.t == pytest.approx(1.0)
    assert all(f is not res.final for f in res.snapshots.values())
    # a recorded T is the final field itself, not a second copy of it
    rec = solve_sl(gh, env, cfg("semi-lagrangian", 0.1, 0.1, 1.0, -2.0, 3.0,
                                record_times=(0.5, 1.0)))
    assert rec.final is rec.at_time(1.0)
    assert np.array_equal(rec.final.values, res.final.values, equal_nan=True)


def test_grid_from_box():
    g = Grid.from_box([-1.0], [1.0], 0.5)
    assert g.shape == (5,)
    assert np.allclose(g.axis(0), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="degenerate"):
        Grid.from_box([0.0], [0.1], 1.0)
    # corners of different lengths are refused, not cut to the shorter one
    with pytest.raises(ValueError, match="different lengths"):
        Grid.from_box((-1.0,), (10.0, 10.0), 0.25)


@pytest.mark.parametrize("lo, hi, dx", [([-1.0], [1.0], 0.5), ([-3.25, 0.5], [2.0, 4.0], 0.25),
                                        ([0.1, -0.3, 2.0], [0.7, 0.6, 2.3], 0.1)])
def test_grid_nodes_are_the_meshgrid_in_c_order(lo, hi, dx):
    g = Grid.from_box(lo, hi, dx)
    mesh = np.meshgrid(*map(g.axis, range(g.dim)), indexing="ij")
    want = np.stack([m.ravel() for m in mesh], axis=1)
    got = g.nodes()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.flags.writeable and g.nodes() is not got     # a fresh table per call


def test_cost_at_eps_one_reads_the_nodes_themselves():
    # the accessor gets the grid as its axes over eps: at eps = 1 the grid's
    # own axes, and at any eps the bits of nodes() / eps
    grid = Grid.from_box([-2.0], [2.0], 0.125)
    for eps in (1.0, 0.25, 1 / 3):
        seen = []

        def cost(pts, env):
            seen.append(pts)
            return np.sin(pts.nodes()[:, 0])[:, None, None]

        table = pde._precompute_cost(singleton_game(cost), None, grid, eps)
        (got,) = seen
        assert isinstance(got, TensorGrid)
        assert got.nodes().tobytes() == (grid.nodes() / eps).tobytes()
        if eps == 1.0:
            assert got.axes[0].tobytes() == grid.axis(0).tobytes()
        want = np.sin(grid.nodes()[:, 0] / eps)
        assert table.shape == (1,) + grid.shape and table[0].tobytes() == want.tobytes()
