import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import cells_touched, shift_view
from hjhomog.env import (BUMP_LIP, BUMP_MASS_1D, DomainError, EnvSpec, TensorGrid,
                         replace_on_strip, sample_environment, with_seed)
from hjhomog.families import saddle_game
from hjhomog.game import shift_momentum
from hjhomog.pde import SolveConfig, solve
from hjhomog.rng import derive_seed, derive_seeds


def spec1d(seed=0, **kw):
    base = dict(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                channels=1, box_lo=(-6.0,), box_hi=(6.0,), seed=seed)
    base.update(kw)
    return EnvSpec(**base)


def seed_bank(spec, base_seed, idx, pts, shift=None):
    """Channel-0 values at pts of the realizations derive_seed(base_seed, i), i in idx: (n, N)."""
    env = sample_environment(spec, derive_seeds(base_seed, idx))
    return (env if shift is None else shift_view(env, shift)).values(pts)[..., 0]


def brute_force_field(env, pts):
    """Independent oracle: direct sum of bumps over a wide cell range."""
    s = env.spec
    pts = np.atleast_2d(pts)
    out = np.zeros(pts.shape[0])
    cells = range(-30, 31)
    for z in itertools.product(cells, repeat=s.dimension):
        center = np.array(z) * s.bump_radius + env.offset
        amp = env._cell_amplitudes(env.seeds, np.array([z]), np.array([0]))[0, 0]
        s2 = ((pts - center) ** 2).sum(axis=1) / s.bump_radius**2
        out += np.where(s2 < 1, (1 - np.minimum(s2, 1)) ** 2, 0.0) * amp
    return out


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        spec1d(bump_radius=0.6).validate()          # r > rho/2
    with pytest.raises(ValueError):
        spec1d(rho=-1.0).validate()
    with pytest.raises(ValueError):
        spec1d(amp_lo=2.0, amp_hi=1.0).validate()
    with pytest.raises(ValueError):
        spec1d(box_lo=(1.0,), box_hi=(1.0,)).validate()
    spec1d().validate()


def test_determinism_across_instances():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(1000, 1))
    a = sample_environment(spec1d(seed=77)).values(pts)
    b = sample_environment(spec1d(seed=77)).values(pts)
    assert np.array_equal(a, b)


def test_matches_brute_force_oracle():
    env = sample_environment(spec1d(seed=3))
    pts = np.linspace(-5, 5, 200).reshape(-1, 1)
    got = env.values(pts)[:, 0]
    want = brute_force_field(env, pts)
    assert np.max(np.abs(got - want)) < 1e-12


def test_constant_amplitude_degenerate_case():
    # amp_lo == amp_hi == c: field is c * sum of bump profiles
    env = sample_environment(spec1d(seed=9, amp_lo=0.7, amp_hi=0.7))
    pts = np.linspace(-4, 4, 300).reshape(-1, 1)
    vals = env.values(pts)[:, 0]
    want = brute_force_field(env, pts)
    assert np.max(np.abs(vals - want)) < 1e-12
    assert np.all(vals >= 0.0)
    assert np.all(vals <= env.sup_bound + 1e-12)


def test_bounds_and_lipschitz_probe():
    env = sample_environment(spec1d(seed=21))
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, size=(1000, 1))
    h = rng.uniform(-0.05, 0.05, size=(1000, 1))
    y = np.clip(x + h, -6.5, 6.5)
    vx = env.values(x)[:, 0]
    vy = env.values(y)[:, 0]
    assert np.all(vx >= 0)
    assert np.all(vx <= env.sup_bound)
    quot = np.abs(vx - vy) / np.maximum(np.abs(x - y)[:, 0], 1e-300)
    assert np.max(quot) <= env.lip_bound + 1e-9


def test_lip_constant_formula():
    s = spec1d()
    env = sample_environment(s)
    assert env.lip_bound == s.kernel_overlap * s.amp_hi * BUMP_LIP / s.bump_radius
    assert abs(BUMP_LIP - 8 / (3 * np.sqrt(3))) < 1e-15


def test_decorrelation_beyond_range():
    # cov(l(0), l(1.5)) over seeds should vanish (1.5 > rho = 1)
    n = 4000
    pts = np.array([[0.0], [1.5]])
    vals = seed_bank(spec1d(), 1234, np.arange(n), pts)
    c = np.cov(vals[:, 0], vals[:, 1])
    mc_std = np.sqrt(c[0, 0] * c[1, 1] / n)
    assert abs(c[0, 1]) < 3 * mc_std


def test_frd_certificate_disjoint_cells():
    env = sample_environment(spec1d(seed=5))
    left = np.linspace(-4, -2, 50).reshape(-1, 1)
    right = np.linspace(-0.9, 1.0, 50).reshape(-1, 1)   # gap 1.1 > rho
    assert cells_touched(env, left).isdisjoint(cells_touched(env, right))
    near = np.linspace(-2.5, -1.5, 50).reshape(-1, 1)   # gap < rho
    assert not cells_touched(env, left).isdisjoint(cells_touched(env, near))


@st.composite
def frd_cases(draw):
    """A 1-D or 2-D field law with r <= rho/2, and two probe sets more than rho apart."""
    d = draw(st.sampled_from([1, 2]))
    rho = draw(st.sampled_from([0.5, 1.0, 2.0]))
    r = rho * draw(st.floats(0.05, 0.5))
    spec = EnvSpec(dimension=d, rho=rho, bump_radius=r, amp_lo=0.0, amp_hi=1.0,
                   channels=draw(st.sampled_from([1, 4])), box_lo=(-12.0,) * d,
                   box_hi=(12.0,) * d, seed=draw(st.integers(0, 2**31 - 1)))
    coords = st.floats(-4.0, 4.0, allow_nan=False)
    probes = st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=12)
    left = np.array(draw(probes))
    right = np.array(draw(probes))
    right = right[np.min(np.linalg.norm(right[:, None] - left[None], axis=-1), axis=1) > rho]
    # one point guaranteed past rho along the first axis
    far = left[0].copy()
    far[0] = left[:, 0].max() + rho * (1.0 + draw(st.floats(1e-6, 1.0)))
    return spec, left, np.vstack([right, far])


@settings(max_examples=60, deadline=None)
@given(case=frd_cases())
def test_frd_certificate_property(case):
    spec, left, right = case
    env = sample_environment(spec)
    assert cells_touched(env, left).isdisjoint(cells_touched(env, right))
    # the certificate names exactly the cells whose amplitudes values() hashes
    pts = np.vstack([left, right])
    hashed = set()
    amplitudes = env._cell_amplitudes

    def recording(seeds, z, chans):
        hashed.update(map(tuple, z.tolist()))
        return amplitudes(seeds, z, chans)

    env._cell_amplitudes = recording
    env.values(pts)
    assert hashed == cells_touched(env, pts)


def test_domain_error_outside_box():
    env = sample_environment(spec1d())
    with pytest.raises(DomainError):
        env.values(np.array([[6.0 + 2 * 0.5]]))
    # inflated-by-r boundary itself is fine
    env.values(np.array([[6.4]]))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("among", [False, True])
def test_non_finite_points_are_refused(dim, bad, among):
    # a NaN point used to read NaN alone, and raise an OverflowError after a
    # RuntimeWarning among good points
    box = (-6.0,) * dim, (6.0,) * dim
    env = sample_environment(EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0,
                                     amp_hi=1.0, channels=1, box_lo=box[0], box_hi=box[1],
                                     seed=3))
    point = np.zeros(dim)
    point[-1] = bad                  # a good coordinate beside it in 2-D
    pts = np.vstack([np.full((2, dim), 0.5), point, -point]) if among else point[None]
    with pytest.raises(DomainError,
                       match=f"^probe {re.escape(str(point[None]))} outside environment box"):
        env.values(pts)                 # named: the first bad point
    for i in range(dim):                        # on any axis, not finite alone
        alone = np.zeros((1, dim))
        alone[0, i] = bad
        with pytest.raises(DomainError):
            env.values(alone)


def test_eval_cost_channels():
    # a per-pair environment feeds channel a * n_b + b to action pair (a, b)
    env = sample_environment(spec1d(channels=4, seed=8))
    x = np.array([[0.3]])
    vals = env.values(x)[0]
    cost = saddle_game().cost(x, env)
    for a in range(2):
        for b in range(2):
            assert cost[0, a, b] == vals[a * 2 + b]
    with pytest.raises(ValueError, match="3 channels, game needs 4"):
        saddle_game().cost(x, sample_environment(spec1d(channels=3, seed=8)))


def test_shift_view_identity_and_group_law():
    env = sample_environment(spec1d(seed=2))
    pts = np.random.default_rng(0).uniform(-3, 3, size=(100, 1))
    assert np.array_equal(shift_view(env, [0.0]).values(pts), env.values(pts))
    v12 = shift_view(shift_view(env, [0.7]), [0.4]).values(pts)
    v3 = shift_view(env, [1.1]).values(pts)
    assert np.max(np.abs(v12 - v3)) < 1e-12
    assert np.array_equal(shift_view(env, [0.5]).values(pts),
                          env.values(pts + 0.5))


def test_stationarity_in_law_under_shift():
    # distribution of l(0) matches distribution of l(0) of the shifted view
    n = 2000
    base = seed_bank(spec1d(), 7, np.arange(n), [[0.0]])[:, 0]
    shifted = seed_bank(spec1d(), 7, n + np.arange(n), [[0.0]], shift=[0.37])[:, 0]
    assert stats.ks_2samp(base, shifted).pvalue > 0.01


def test_replace_on_strip_contract():
    env = sample_environment(spec1d(seed=13))
    patched = replace_on_strip(env, -1.0, 1.0, e=[1.0], shift=[0.8])
    outside = np.array([[2.5], [-3.0]])
    assert np.array_equal(patched.values(outside), env.values(outside))
    inside = np.array([[0.2], [-0.7]])
    assert np.array_equal(patched.values(inside), env.values(inside - 0.8))
    zero = replace_on_strip(env, -1.0, 1.0, e=[1.0], shift=[0.0])
    pts = np.linspace(-3, 3, 101).reshape(-1, 1)
    assert np.array_equal(zero.values(pts), env.values(pts))
    with pytest.raises(ValueError):
        replace_on_strip(env, 1.0, 1.0, e=[1.0], shift=[0.1])


def test_strip_reads_each_point_once():
    # the field is defined on [-6.5, 6.5] (box inflated by r = 0.5)
    env = sample_environment(spec1d(seed=13))
    reads = []
    base_values = env.values
    env.values = lambda pts: reads.append(len(pts)) or base_values(pts)
    patched = replace_on_strip(env, 6.0, 7.0, e=[1.0], shift=[1.0])
    pts = np.array([[-2.0], [6.2], [6.8]])
    got = patched.values(pts)
    assert reads == [3]
    # 6.8 lies outside the box, but only its moved position 5.8 is read
    assert np.array_equal(got, base_values(np.array([[-2.0], [5.2], [5.8]])))
    with pytest.raises(DomainError):
        replace_on_strip(env, 6.0, 7.0, e=[1.0], shift=[-0.4]).values([[6.2]])


def test_strip_leaves_the_callers_points_as_they_were():
    env = sample_environment(spec1d(seed=13))
    patched = replace_on_strip(env, -1.0, 1.0, e=[1.0], shift=[0.8])
    pts = np.linspace(-3.0, 3.0, 41).reshape(-1, 1)
    before = pts.copy()
    got = patched.values(pts)
    assert np.array_equal(pts, before)
    moved = np.where(np.abs(before) <= 1.0, before - 0.8, before)
    assert got.tobytes() == env.values(moved).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_strip_on_a_grid_gives_the_bits_of_its_node_table(dim):
    spec = spec1d(seed=13, dimension=dim, box_lo=(-6.0,) * dim, box_hi=(6.0,) * dim, channels=2)
    e, shift = np.ones(dim) / np.sqrt(dim), np.full(dim, 0.3)
    grid = TensorGrid([np.linspace(-4.0, 4.0, 17 + i) for i in range(dim)])
    nodes = grid.nodes()
    inside = np.abs(nodes @ e) <= 1.5
    moved = np.where(inside[:, None], nodes - shift, nodes)
    want = sample_environment(spec).values(moved)
    patched = replace_on_strip(sample_environment(spec), -1.5, 1.5, e=e, shift=shift)
    assert patched.values(grid).tobytes() == want.tobytes()
    assert patched.values(nodes).tobytes() == want.tobytes()


def test_strip_on_a_grid_holds_one_node_table():
    # the grid's node table is the call's own, moved in place: a copy of it
    # would hold a second table beside the one the base reads and its result
    grid = TensorGrid([np.linspace(-4.0, 4.0, 301)] * 2)
    base = SimpleNamespace(batch_shape=(), values=np.negative)
    patched = replace_on_strip(base, -1.0, 1.0, e=[1.0, 0.0], shift=[0.5, 0.0])
    patched.values(grid)                             # first-call allocations aside
    tracemalloc.start()
    try:
        got = patched.values(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = grid.nodes()
    assert got.shape == table.shape
    assert peak < 2 * table.nbytes + got.nbytes


def test_mean_value_1d():
    s = spec1d()
    env = sample_environment(s)
    assert abs(env.mean_value - 0.5 * 1.0 * BUMP_MASS_1D) < 1e-15
    n = 3000
    samples = seed_bank(s, 55, np.arange(n), [[0.0]])[:, 0]
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - env.mean_value) < 3 * se


def test_mean_value_2d():
    s = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.2, amp_hi=0.8,
                channels=1, box_lo=(-3.0, -3.0), box_hi=(3.0, 3.0), seed=0)
    env = sample_environment(s)
    want = 0.5 * (0.2 + 0.8) * (np.pi / 3.0)
    assert abs(env.mean_value - want) < 1e-14
    n = 2000
    samples = seed_bank(s, 56, np.arange(n), [[0.1, -0.2]])[:, 0]
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - env.mean_value) < 3 * se


def test_seed_banks_equal_the_per_seed_loop():
    # the Monte-Carlo tests above draw their banks in one seed-batched call
    s2 = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.2, amp_hi=0.8,
                 channels=1, box_lo=(-3.0, -3.0), box_hi=(3.0, 3.0), seed=0)
    idx = np.arange(1900, 2100)
    for spec, base_seed, pts, shift in ((spec1d(), 1234, [[0.0], [1.5]], None),
                                        (spec1d(), 7, [[0.0]], [0.37]),
                                        (s2, 56, [[0.1, -0.2]], None)):
        loop = []
        for i in idx:
            env = sample_environment(with_seed(spec, derive_seed(base_seed, i)))
            loop.append((env if shift is None else shift_view(env, shift)).values(pts)[:, 0])
        assert np.array_equal(seed_bank(spec, base_seed, idx, pts, shift), np.array(loop))


# ---------------------------------------------------------------------------
# the one-entry memo of Environment.values


def hash_calls(env) -> list[int]:
    """Record env's amplitude hashing: the number of cells of each call."""
    calls = []
    amplitudes = env._cell_amplitudes

    def recording(seeds, z, chans):
        calls.append(len(z))
        return amplitudes(seeds, z, chans)

    env._cell_amplitudes = recording
    return calls


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seeds", [None, [4, -9, 2**40]])
def test_repeated_points_are_answered_from_the_memo(seeds):
    spec = spec1d(seed=31, channels=2)
    env = sample_environment(spec, seeds)
    calls = hash_calls(env)
    pts = np.linspace(-5.0, 5.0, 40).reshape(-1, 1)
    first = env.values(pts)
    assert len(calls) == 1
    again = env.values(pts.copy())              # the same shape and bits in another array
    if seeds is None:
        assert len(calls) == 1 and again is first
    else:                                       # a batch keeps no memo
        assert len(calls) == 2 and again is not first and same_bits(again, first)
    assert same_bits(first, sample_environment(spec, seeds).values(pts))
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[..., 0, 0] = 1.0


def test_other_points_are_evaluated_afresh():
    spec = spec1d(seed=32)
    env = sample_environment(spec)
    calls = hash_calls(env)
    pts = np.linspace(-5.0, 5.0, 40).reshape(-1, 1)
    zero = np.zeros((1, 1))
    env.values(pts)
    others = [pts[:20],                          # a prefix: same leading bytes, other shape
              pts[::-1],                         # the same points in another order
              pts, zero, -zero]                  # equal as numbers, not as bits
    for k, other in enumerate(others, start=2):
        assert same_bits(env.values(other), sample_environment(spec).values(other))
        assert len(calls) == k
    # the caller's array, mutated in place after it was answered
    env.values(pts)
    pts[3] += 0.1
    assert same_bits(env.values(pts), sample_environment(spec).values(pts))
    assert len(calls) == len(others) + 3


def test_probe_outside_box_is_refused_after_an_entry():
    env = sample_environment(spec1d(seed=33))
    calls = hash_calls(env)
    pts = np.linspace(-5.0, 5.0, 40).reshape(-1, 1)
    first = env.values(pts)
    with pytest.raises(DomainError):
        env.values(np.array([[6.0 + 2 * 0.5]]))
    with pytest.raises(DomainError):
        env.values(np.vstack([pts, [[-7.0]]]))
    # a refused probe leaves the entry as it was
    assert env.values(pts) is first and len(calls) == 1


def test_view_over_a_memoized_base_reads_its_own_points():
    spec = spec1d(seed=34)
    env = sample_environment(spec)
    pts = np.linspace(-3.0, 3.0, 61).reshape(-1, 1)
    base = env.values(pts)
    plain = sample_environment(spec)
    for view, moved in ((shift_view(env, [0.0]), pts),
                        (shift_view(env, [0.5]), pts + 0.5),
                        (replace_on_strip(env, -1.0, 1.0, e=[1.0], shift=[0.8]),
                         np.where(np.abs(pts) <= 1.0, pts - 0.8, pts))):
        assert same_bits(view.values(pts), plain.values(moved))
    assert same_bits(env.values(pts), base)


def test_sl_and_lf_solves_of_one_environment_evaluate_its_field_once():
    spec = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=4, box_lo=(-4.0, -4.0), box_hi=(4.0, 4.0), seed=35)
    gh = shift_momentum(saddle_game(dim=2), [0.5, 0.25])
    cfgs = [SolveConfig(scheme=scheme, dt=0.25, dx=0.25, T=1.0, box_lo=(-4.0, -4.0),
                        box_hi=(4.0, 4.0), record_times=(0.5,))
            for scheme in ("semi-lagrangian", "lax-friedrichs")]
    env = sample_environment(spec)
    calls = hash_calls(env)
    results = [solve(gh, env, cfg) for cfg in cfgs]
    assert len(calls) == 1
    for cfg, res in zip(cfgs, results):
        alone = solve(gh, sample_environment(spec), cfg)
        assert same_bits(res.final.values, alone.final.values)
        assert same_bits(res.at_time(0.5).values, alone.at_time(0.5).values)
