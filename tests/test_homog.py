import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (ORIENTED, ConstantEnvironment, additive_surrogate_tails, azuma_bound,
                      synthetic_table)
from hjhomog import homog
from hjhomog.env import DomainError, EnvSpec, sample_environment
from hjhomog.families import bind_env_constants, build, saddle_game, transport
from hjhomog.game import OrientationError, shift_momentum
from hjhomog.homog import (A_OVER_KHAT, UTable, check_concentration,
                           check_subadditivity, effective_H_properties,
                           estimate_U, extract_effective_H, rate_experiment,
                           solve_box_for, strip_experiment, subadditivity_defects)
from hjhomog.pde import SolveConfig, solve, solve_sl

DX = DT = 0.25


def spec(seed=0, lo=-4.0, hi=12.0, amp=(0.0, 1.0)):
    return EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=amp[0],
                   amp_hi=amp[1], channels=1, box_lo=(lo,), box_hi=(hi,),
                   seed=seed)


@pytest.fixture(scope="module")
def table():
    return estimate_U(transport(1.0), spec(), theta=[0.0], times=[2.0, 4.0, 8.0],
                      M=48, base_seed=101, dx=DX, dt=DT)


# ---------------------------------------------------------------------------
# sampling


def test_zero_amplitude_field_gives_zero_table():
    t = estimate_U(transport(1.0), spec(amp=(0.0, 0.0)), theta=[0.0],
                   times=[2.0, 4.0], M=6, base_seed=1, dx=DX, dt=DT)
    assert np.all(t.samples == 0.0)
    assert np.all(t.variances() == 0.0)


def test_momentum_shift_is_additive_per_sample():
    # singleton actions: u_theta(t, 0) = u_0(t, 0) + t * f * theta exactly
    theta = 0.7
    t0 = estimate_U(transport(1.0), spec(), theta=[0.0], times=[2.0, 4.0],
                    M=8, base_seed=33, dx=DX, dt=DT)
    t1 = estimate_U(transport(1.0), spec(), theta=[theta], times=[2.0, 4.0],
                    M=8, base_seed=33, dx=DX, dt=DT)
    for k, t in enumerate(t0.times):
        assert np.max(np.abs(t1.samples[k] - t0.samples[k] - t * theta)) < 1e-12


def test_a_priori_bound_check_refuses_a_non_finite_sample(monkeypatch):
    # NaN compares False with the bound, so it must not pass the check unseen
    def nan_batches(*args):
        out = np.zeros((2, 1, 4))
        out[1, 0, 2] = np.nan
        return out

    monkeypatch.setattr(homog, "_solve_batches", nan_batches)
    with pytest.raises(AssertionError, match=r"a-priori bound .* at t=4\.0"):
        estimate_U(transport(1.0), spec(), theta=[0.0], times=[2.0, 4.0], M=4,
                   base_seed=3, dx=DX, dt=DT)


def test_a_huge_theta_keeps_a_finite_bound():
    # |theta|^2 overflows at 1e200, |theta| does not: the check still runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = estimate_U(transport(1.0), spec(lo=-8.0, hi=48.0), theta=[1e200],
                       times=[4.0, 32.0], M=2, base_seed=5, dx=DX, dt=DT)
    assert np.isfinite(t.samples).all() and np.all(t.samples[1] > 3e201)


def test_worker_pool_matches_serial_bitwise():
    kw = dict(theta=[0.0], times=[2.0, 4.0], M=8, base_seed=7, dx=DX, dt=DT)
    serial = estimate_U(transport(1.0), spec(), **kw)
    pooled = estimate_U(transport(1.0), spec(), workers=2,
                        family_desc=("transport", {"speed": 1.0}), **kw)
    assert np.array_equal(serial.samples, pooled.samples)
    assert np.array_equal(serial.means(), pooled.means())


def test_mean_matches_field_mean_oracle(table):
    # singleton transport: E[u(t, 0)] = t * mean cost, so -U(t)/t = -mean
    env = sample_environment(spec())
    mu = env.mean_value
    k = table.times.index(8.0)
    se = table.stderr()[k]
    assert abs(table.means()[k] - 8.0 * mu) < 4 * 8.0 * se / math.sqrt(1)


def test_time_lipschitz_of_means(table):
    bound = table.beta
    m = table.means()
    se = table.stderr()
    for (t1, m1, s1), (t2, m2, s2) in zip(
            zip(table.times, m, se), list(zip(table.times, m, se))[1:]):
        assert abs(m2 - m1) <= bound * (t2 - t1) + 3 * (s1 + s2)


def test_env_box_must_cover_solve_box():
    with pytest.raises(DomainError, match="does not cover"):
        estimate_U(transport(1.0), spec(lo=-1.0, hi=4.0), theta=[0.0],
                   times=[8.0], M=2, base_seed=0, dx=DX, dt=DT)


def test_env_box_must_cover_a_given_solve_box():
    with pytest.raises(DomainError, match=r"required solve box \[\(-1.0,\), \(6.0,\)\]"):
        estimate_U(transport(1.0), spec(lo=-1.0, hi=4.0), theta=[0.0],
                   times=[2.0], M=2, base_seed=0, dx=DX, dt=DT, box=((-1.0,), (6.0,)))


def test_ci_halfwidth_covers_the_exact_transport_H_bar():
    # 1-D transport homogenizes exactly: H_bar(theta) = -E[c] - f theta.  The
    # base seeds are fixed up front; the times are the CLI's default schedule
    s = spec(lo=-8.0, hi=48.0)
    mean = sample_environment(s).mean_value
    ratios = []
    for base_seed in range(32):
        for theta in (-0.5, 0.0, 0.5):
            est = extract_effective_H(estimate_U(
                transport(1.0), s, theta=[theta], times=[4.0, 8.0, 12.0, 16.0, 24.0, 32.0],
                M=16, base_seed=base_seed, dx=DX, dt=DT))
            ratios.append(abs(est.H_hat - (-mean - theta)) / est.ci_halfwidth)
    print(f"worst |H_hat - H_bar| / ci_halfwidth over {len(ratios)} campaigns: "
          f"{max(ratios):.3f}")
    assert max(ratios) <= 1.0


def test_solve_box_for_covers_drift():
    # an SL step at dt f / dx = 1.5 sheds 2 cells, so 16 steps shed 8.0
    lo, hi = solve_box_for(transport(1.5), "semi-lagrangian",
                           T=4.0, dt=0.25, dx=0.25, report_radius=1.0)
    assert lo[0] <= -1.0
    assert hi[0] >= 1.0 + 16 * 2 * 0.25


@settings(max_examples=40, deadline=None)
@given(family=ORIENTED, dim=st.sampled_from([1, 2]),
       scheme=st.sampled_from(["semi-lagrangian", "lax-friedrichs"]),
       dt=st.sampled_from([0.1, 0.125, 0.25]), dx=st.sampled_from([0.1, 0.125, 0.25]),
       steps=st.integers(1, 4), R=st.sampled_from([0.0, 0.3, 1.0]))
def test_reach_box_never_runs_out_and_covers_radius(family, dim, scheme, dt, dx, steps, R):
    env = ConstantEnvironment(0.5)
    game = bind_env_constants(build(*family, dim), env)
    T = steps * dt
    box = solve_box_for(game, scheme, T, dt, dx, R)
    res = solve(game, env, SolveConfig(scheme=scheme, dt=dt, dx=dx, T=T,
                                       box_lo=box[0], box_hi=box[1]))
    lo, hi = res.final.grid.box(res.final.active)
    assert np.all(lo <= -R) and np.all(hi >= R)


# ---------------------------------------------------------------------------
# concentration


def test_azuma_bound_values():
    assert azuma_bound(np.ones(4), 2.0) == pytest.approx(2.0 * math.exp(-0.5))
    assert azuma_bound(np.ones(4), 0.0) == 2.0
    assert azuma_bound(np.zeros(3), 1.0) == 0.0
    assert azuma_bound(np.zeros(3), -1.0) == 2.0
    # doubling every increment quarters the exponent's rate
    b1 = azuma_bound(np.ones(4), 2.0)
    b2 = azuma_bound(2 * np.ones(4), 2.0)
    assert b2 == pytest.approx(2.0 * (b1 / 2.0) ** 0.25)
    with pytest.raises(ValueError):
        azuma_bound([-1.0, 1.0], 1.0)


def test_concentration_tails_qualitative(table):
    rep = check_concentration(table, t=8.0, M_grid=[0.0, 0.2, 0.4, 0.8])
    assert rep["tail_freqs"][0] == 1.0
    assert rep["monotone"]
    assert rep["log_tail_concave"]


def test_concentration_degenerate_and_order_invariance(table):
    const = UTable(theta=np.zeros(1), times=[1.0],
                   samples=np.full((1, 20), 3.0), base_seed=0, beta=1.0)
    rep = check_concentration(const, t=1.0, M_grid=[0.0, 0.5])
    assert rep["tail_freqs"] == [1.0, 0.0]
    assert rep["monotone"]
    fwd = check_concentration(table, t=8.0, M_grid=[0.2, 0.6])
    rev = check_concentration(table, t=8.0, M_grid=[0.6, 0.2])
    assert fwd["tail_freqs"] == rev["tail_freqs"]


def test_additive_surrogate_is_subgaussian():
    rep = additive_surrogate_tails(t=16, n_samples=20000,
                                   M_grid=[0.25, 0.5, 0.75, 1.0], seed=3)
    assert rep["slope"] < 0
    assert rep["r2"] > 0.95
    # the fitted rate actually dominates the observed far tail
    far = rep["tail_freqs"][-1]
    assert far <= 3.0 * math.exp(-rep["c_hat"] * 1.0**2)


# ---------------------------------------------------------------------------
# strip perturbation


def test_strip_zero_shift_is_inert():
    env = sample_environment(spec(seed=2))
    rep = strip_experiment(transport(1.0), env, lo=1.0, hi=2.5, shift=[0.0],
                           theta=[0.0], t=4.0, dx=DX, dt=DT,
                           box=((-1.0,), (6.0,)))
    assert rep["observed"] == 0.0
    assert rep["bound"] == 0.0


def test_strip_observed_within_crossing_bound():
    env = sample_environment(spec(seed=5))
    rep = strip_experiment(transport(1.0), env, lo=1.0, hi=2.5, shift=[0.8],
                           theta=[0.0], t=4.0, dx=DX, dt=DT,
                           box=((-1.0,), (6.0,)))
    assert rep["delta"] == 1.0
    assert rep["strip_width"] == pytest.approx(1.5)
    assert rep["bound"] == pytest.approx(1.5 * rep["cost_gap_sup"])
    # crossing-time estimate plus first-order scheme error on both solves
    assert rep["observed"] <= rep["bound"] + 10 * DX


def test_strip_rejects_degenerate():
    env = sample_environment(spec(seed=1))
    with pytest.raises(ValueError, match="strip"):
        strip_experiment(transport(1.0), env, lo=2.0, hi=2.0, shift=[0.5],
                         theta=[0.0], t=2.0, dx=DX, dt=DT,
                         box=((-1.0,), (4.0,)))


# ---------------------------------------------------------------------------
# subadditivity and extraction


def test_purely_additive_sequence_has_zero_defects():
    # U = -2 k at step k, on a dyadic schedule and on a dt = 0.1 one, where
    # 0.1 + 0.2 and 0.2 + 0.4 hit 0.3 and 0.6 only to within rounding
    for times, steps, pairs in (([4.0, 8.0, 16.0, 32.0], [4, 8, 16, 32], 3),
                                ([0.1, 0.2, 0.3, 0.4, 0.6, 1.2], [1, 2, 3, 4, 6, 12], 7)):
        samples = np.array([[-2.0 * k] * 5 for k in steps])
        t = UTable(theta=np.zeros(1), times=times, samples=samples,
                   base_seed=0, beta=10.0)
        rows = subadditivity_defects(t)
        assert len(rows) == pairs
        assert all(r["defect"] == 0.0 for r in rows)
        rep = check_subadditivity(t)
        assert rep["stable"]
        assert rep["K_hat_implied"] == 0.0


def test_planted_defect_normalization():
    t = synthetic_table([4.0, 8.0, 12.0, 16.0, 24.0, 32.0], h=1.0)
    rep = check_subadditivity(t)
    assert 0.0 < rep["K_hat_implied"] <= 2.5
    assert all(r["defect"] > 0 for r in rep["defects"])


@pytest.mark.parametrize("h", [-1.0, 0.0, 2.0])
def test_extract_recovers_planted_value(h):
    t = synthetic_table([4.0, 8.0, 12.0, 16.0, 24.0, 32.0], h=h)
    est = extract_effective_H(t)
    assert abs(est.H_hat - h) <= est.ci_halfwidth
    assert est.bias_band > 0


def test_extract_requires_three_times():
    t = synthetic_table([4.0, 8.0], h=1.0)
    with pytest.raises(ValueError, match="at least 3"):
        extract_effective_H(t)


def test_extract_is_odd_under_sample_negation():
    t = synthetic_table([4.0, 8.0, 16.0, 32.0], h=1.5)
    neg = UTable(theta=t.theta, times=t.times, samples=-t.samples,
                 base_seed=t.base_seed, beta=t.beta)
    # negating every sample flips the estimate; the band is sign-blind
    assert extract_effective_H(neg).H_hat == pytest.approx(-extract_effective_H(t).H_hat)


def test_extract_on_real_table_matches_mean_oracle(table):
    est = extract_effective_H(table)
    mu = sample_environment(spec()).mean_value
    assert abs(est.H_hat - (-mu)) <= est.ci_halfwidth
    assert est.ci_halfwidth < 1.0


def test_effective_H_properties_flags_violation():
    good = extract_effective_H(synthetic_table(
        [4.0, 8.0, 16.0, 32.0], h=0.5, beta=2.0))
    rep = effective_H_properties([good], beta=2.0)
    assert rep["growth_ok"]
    bad = extract_effective_H(synthetic_table(
        [4.0, 8.0, 16.0, 32.0], h=50.0, beta=2.0))
    bad.ci_halfwidth = 0.0
    rep2 = effective_H_properties([bad], beta=2.0)
    assert not rep2["growth_ok"]


def test_bias_band_constant():
    # sum over k >= 1 of 2^(-k/2) sqrt(k+1), evaluated independently
    want = sum(2.0 ** (-k / 2.0) * math.sqrt(k + 1.0) for k in range(1, 2000))
    assert A_OVER_KHAT == pytest.approx(want, abs=1e-9)
    assert 4.5 < A_OVER_KHAT < 5.0


@st.composite
def regression_points(draw):
    """n in 2..17 points with distinct x: scattered y, a constant y or an exact line.

    Values are rounded to 6 decimals, like the logs of times and errors the
    rate fits read: spreads near 1e-140 make ssxm * ssym underflow, and
    both fits then divide by zero.
    """
    n = draw(st.integers(2, 17))
    coords = st.floats(-1e3, 1e3).map(lambda v: round(v, 6))
    x = draw(st.lists(coords, min_size=n, max_size=n).filter(lambda v: min(v) < max(v)))
    kind = draw(st.sampled_from(["scattered", "constant", "line"]))
    if kind == "scattered":
        y = draw(st.lists(coords, min_size=n, max_size=n))
    elif kind == "constant":
        y = [draw(coords)] * n
    else:
        a, b = (draw(st.floats(-10.0, 10.0).map(lambda v: round(v, 6))) for _ in range(2))
        y = [a + b * v for v in x]
    return x, y


@settings(max_examples=300, deadline=None)
@given(points=regression_points())
@example(points=([0.0, 1.0], [2.0, 2.0]))
@example(points=([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]))
@example(points=([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0]))
def test_slope_is_linregress_to_the_bit(points):
    x, y = points
    want = stats.linregress(x, y).slope
    got = homog._slopes(x, [y])[0]
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), R=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       x=st.lists(st.floats(-12.0, 2.0).map(lambda v: round(v, 6)), min_size=8, max_size=8),
       constant=st.floats(0.0, 1.0))
@example(n=2, R=200, seed=0, x=[math.log(0.25), math.log(0.125)] + [0.0] * 6, constant=0.0)
@example(n=5, R=1, seed=1, x=[-1.0, 0.5, 0.25, 2.0, -3.0, 0, 0, 0], constant=1.0)
def test_slopes_are_each_rows_ols_slope_to_the_bit(n, R, seed, x, constant):
    # the bootstrap's fit: one stacked product for all rows must reach the
    # same bits as the per-row fit, whatever kernel the shape selects
    x = x[:n]
    assume(min(x) < max(x))
    rng = np.random.default_rng(seed)
    Y = rng.normal(-2.0, 1.5, size=(R, n)) * rng.uniform(0.0, 2.0, size=(R, 1))
    flat = rng.uniform(size=R) < constant
    Y[flat] = Y[flat, :1]
    got = homog._slopes(x, Y)
    want = np.array([homog._slopes(x, [y])[0] for y in Y])
    assert got.shape == (R,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [2, 5, 8])
def test_slopes_refuse_identical_x(n):
    with pytest.raises(ValueError, match="all x values are identical"):
        homog._slopes([0.5] * n, np.ones((3, n)))


# ---------------------------------------------------------------------------
# epsilon-rate


def test_rate_rejects_large_epsilon():
    with pytest.raises(ValueError, match="1/2"):
        rate_experiment(transport(1.0), spec(), theta=[0.0], eps_list=[0.75],
                        R=1.0, T=2.0, M=2, H_bar=-0.5, dx=DX, dt=DT,
                        base_seed=0)


@pytest.mark.parametrize("eps_list", [[0.0, 0.25], [-0.25, 0.25]])
def test_rate_refuses_an_epsilon_outside_the_half_interval(eps_list):
    # 0 used to divide by zero, and -0.25 to fail as a negative solve horizon
    with mock.patch.object(homog, "_solve_batches") as run:
        with pytest.raises(ValueError, match=r"every epsilon must lie in \(0, 1/2\]"):
            rate_experiment(transport(1.0), spec(), theta=[0.0], eps_list=eps_list,
                            R=1.0, T=2.0, M=2, H_bar=-0.5, dx=DX, dt=DT,
                            base_seed=0)
    run.assert_not_called()


@pytest.mark.parametrize("eps_list", [[], [0.25], [0.25, 0.25]])
def test_rate_needs_two_distinct_epsilons(eps_list):
    with pytest.raises(ValueError, match="eps_list"):
        rate_experiment(transport(1.0), spec(), theta=[0.0], eps_list=eps_list,
                        R=1.0, T=2.0, M=2, H_bar=-0.5, dx=DX, dt=DT,
                        base_seed=0)


def test_rate_refuses_a_field_box_that_misses_its_widest_solve():
    # at eps = 1/16 the solve runs to T/eps = 32 and reads B(R/eps = 16), so it
    # needs [-17, 49]; the field's [-12, 28] covers only eps = 1/4's [-5, 13]
    with mock.patch.object(homog, "_solve_batches") as run:
        with pytest.raises(DomainError, match="does not cover"):
            rate_experiment(transport(1.0), spec(lo=-12.0, hi=28.0), theta=[0.0],
                            eps_list=[0.25, 0.0625], R=1.0, T=2.0, M=2, H_bar=-0.5,
                            dx=DX, dt=DT, base_seed=0)
    run.assert_not_called()


def test_rate_degenerate_on_constant_field():
    s = spec(lo=-12.0, hi=28.0, amp=(0.0, 0.0))
    rep = rate_experiment(transport(1.0), s, theta=[0.0],
                          eps_list=[0.25, 0.125], R=1.0, T=2.0, M=3,
                          H_bar=0.0, dx=DX, dt=DT, base_seed=4)
    assert rep["degenerate"]
    assert rep["slope"] is None


def test_rate_small_run_shape():
    s = spec(lo=-12.0, hi=28.0)
    mu = sample_environment(s).mean_value
    rep = rate_experiment(transport(1.0), s, theta=[0.0],
                          eps_list=[0.25, 0.125], R=1.0, T=2.0, M=6,
                          H_bar=-mu, dx=DX, dt=DT, base_seed=11)
    assert set(rep["medians"]) == {0.25, 0.125}
    assert rep["medians"][0.125] < rep["medians"][0.25]
    assert rep["K_hat"] > 0
    assert rep["exceedance_ok"]


# ---------------------------------------------------------------------------
# general initial data


def test_general_datum_distance_shrinks():
    # transport at speed 1 has Hbar(p) = -mu - p, so from the datum g the
    # homogenized solution is exactly g(x + T) + mu T.  The scaled solves
    # read the field at x / eps, so its box covers the solve box divided by
    # the smallest epsilon
    env = sample_environment(spec(seed=13, lo=-50.0, hi=50.0))
    game = bind_env_constants(transport(1.0), env)
    T, R = 1.0, 1.0

    def g(pts):
        x = np.atleast_2d(pts)[:, 0]
        return np.maximum(0.0, 1.0 - np.abs(x))

    xs = np.linspace(-R, R, 17)[:, None]
    exact = g(xs + T) + env.mean_value * T
    dists = []
    for eps in (0.25, 0.0625):
        dx = dt = DX * eps
        box = solve_box_for(game, "semi-lagrangian", T, dt, dx, R)
        cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=T, box_lo=box[0],
                          box_hi=box[1], epsilon=eps)
        u = solve_sl(game, env, cfg, g).final.value_at(xs)
        dists.append(float(np.max(np.abs(u - exact))))
    assert dists[1] < dists[0]


# ---------------------------------------------------------------------------
# refusals


NOT_ORIENTED = saddle_game(base_speed=0.5, coupling=1.0)      # f in {-0.5, 1.5}: delta = -0.5
SADDLE_SPEC = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                      channels=4, box_lo=(-16.0,), box_hi=(24.0,), seed=3)


@pytest.mark.parametrize("experiment", [
    lambda gh: estimate_U(gh, SADDLE_SPEC, theta=[0.0], times=[2.0, 4.0], M=4,
                          base_seed=1, dx=DX, dt=DT),
    lambda gh: rate_experiment(gh, SADDLE_SPEC, theta=[0.0], eps_list=[0.25, 0.125],
                               R=0.5, T=1.0, M=4, H_bar=-0.5, dx=DX, dt=DT, base_seed=1),
    lambda gh: strip_experiment(gh, sample_environment(SADDLE_SPEC), lo=1.0, hi=2.5,
                                shift=[0.8], theta=[0.0], t=2.0, dx=DX, dt=DT,
                                box=((-1.0,), (6.0,))),
], ids=["estimate_U", "rate_experiment", "strip_experiment"])
def test_every_experiment_refuses_a_non_oriented_game(experiment):
    # the theory covers oriented games only; an experiment must refuse the
    # game before it solves anything, not report numbers for it
    solved = AssertionError("a solve ran before the orientation check")
    with mock.patch.object(homog, "solve_sl_batch", side_effect=solved), \
            mock.patch.object(homog, "solve_sl", side_effect=solved):
        with pytest.raises(OrientationError, match="not oriented"):
            experiment(NOT_ORIENTED)
