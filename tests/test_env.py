import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hjhomog.env import (BUMP_LIP, BUMP_MASS_1D, DomainError, EnvSpec,
                         replace_on_strip, sample_environment, shift_view,
                         with_seed)
from hjhomog.families import saddle_game
from hjhomog.rng import derive_seed


def spec1d(seed=0, **kw):
    base = dict(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                channels=1, box_lo=(-6.0,), box_hi=(6.0,), seed=seed)
    base.update(kw)
    return EnvSpec(**base)


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
    vals = np.array([
        sample_environment(spec1d(seed=derive_seed(1234, i))).values(pts)[:, 0]
        for i in range(n)
    ])
    c = np.cov(vals[:, 0], vals[:, 1])
    mc_std = np.sqrt(c[0, 0] * c[1, 1] / n)
    assert abs(c[0, 1]) < 3 * mc_std


def test_frd_certificate_disjoint_cells():
    env = sample_environment(spec1d(seed=5))
    left = np.linspace(-4, -2, 50).reshape(-1, 1)
    right = np.linspace(-0.9, 1.0, 50).reshape(-1, 1)   # gap 1.1 > rho
    assert env.cells_touched(left).isdisjoint(env.cells_touched(right))
    near = np.linspace(-2.5, -1.5, 50).reshape(-1, 1)   # gap < rho
    assert not env.cells_touched(left).isdisjoint(env.cells_touched(near))


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
    assert env.cells_touched(left).isdisjoint(env.cells_touched(right))
    # the certificate names exactly the cells whose amplitudes values() hashes
    pts = np.vstack([left, right])
    hashed = set()
    amplitudes = env._cell_amplitudes

    def recording(seeds, z, chans):
        hashed.update(map(tuple, z.tolist()))
        return amplitudes(seeds, z, chans)

    env._cell_amplitudes = recording
    env.values(pts)
    assert hashed == env.cells_touched(pts)


def test_domain_error_outside_box():
    env = sample_environment(spec1d())
    with pytest.raises(DomainError):
        env.values(np.array([[6.0 + 2 * 0.5]]))
    # inflated-by-r boundary itself is fine
    env.values(np.array([[6.4]]))


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
    base = np.array([
        sample_environment(spec1d(seed=derive_seed(7, i))).values([[0.0]])[0, 0]
        for i in range(n)
    ])
    shifted = np.array([
        shift_view(sample_environment(spec1d(seed=derive_seed(7, n + i))),
                   [0.37]).values([[0.0]])[0, 0]
        for i in range(n)
    ])
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


def test_mean_value_1d():
    s = spec1d()
    env = sample_environment(s)
    assert abs(env.mean_value - 0.5 * 1.0 * BUMP_MASS_1D) < 1e-15
    n = 3000
    samples = np.array([
        sample_environment(with_seed(s, derive_seed(55, i))).values([[0.0]])[0, 0]
        for i in range(n)
    ])
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - env.mean_value) < 3 * se


def test_mean_value_2d():
    s = EnvSpec(dimension=2, rho=1.0, bump_radius=0.5, amp_lo=0.2, amp_hi=0.8,
                channels=1, box_lo=(-3.0, -3.0), box_hi=(3.0, 3.0), seed=0)
    env = sample_environment(s)
    want = 0.5 * (0.2 + 0.8) * (np.pi / 3.0)
    assert abs(env.mean_value - want) < 1e-14
    n = 2000
    samples = np.array([
        sample_environment(with_seed(s, derive_seed(56, i))).values([[0.1, -0.2]])[0, 0]
        for i in range(n)
    ])
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(samples.mean() - env.mean_value) < 3 * se
