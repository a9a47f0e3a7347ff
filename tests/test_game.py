import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import drawn_games
from hjhomog.env import EnvSpec, as_points, sample_environment
from hjhomog.game import (GameHamiltonian, OrientationError, _aligned_planes, ball_grid,
                          certify_constants, eval_H, eval_H_nodes, localize,
                          shift_momentum, velocities, verify_localization)
from hjhomog.families import (bind_env_constants, build, saddle_game, transport,
                              two_speed_control)


def random_field_spec(seed):
    return EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0,
                   amp_hi=1.0, channels=1, box_lo=(-8.0,), box_hi=(8.0,),
                   seed=seed)


def const_cost_game(c, f, dim=1):
    ft = np.zeros((1, 1, dim))
    ft[0, 0, 0] = f
    return GameHamiltonian(
        f_table=ft, n_b=1,
        base_cost=lambda pts, env: np.full((len(as_points(pts)), 1, 1), c),
        lip_l=0.0, l_inf=abs(c), orientation_hint=np.eye(dim)[0] * np.sign(f))


def test_eval_H_singleton():
    gh = const_cost_game(0.3, 1.0)
    assert eval_H(gh, [0.0], [2.0]) == pytest.approx(-2.3, abs=1e-15)


def test_eval_H_saddle_enumeration():
    # l(a,b) = a*b over A=B={-1,+1}, f=1, p=0.7: max_b min_a {-ab - 0.7}
    acts = np.array([[-1.0], [1.0]])

    def cost(pts, env):
        n = len(as_points(pts))
        ab = acts[:, 0][:, None] * acts[:, 0][None, :]
        return np.broadcast_to(ab, (n, 2, 2))

    gh = GameHamiltonian(f_table=np.ones((2, 2, 1)), n_b=2, base_cost=cost,
                         lip_l=0.0, l_inf=1.0, orientation_hint=np.array([1.0]))
    assert eval_H(gh, [0.0], [0.7]) == pytest.approx(-1.7, abs=1e-15)


def brute_force_H(gh, x, p, env):
    """max over b of min over a, one action pair at a time."""
    cost = np.broadcast_to(gh.cost(x, env)[0], (gh.n_a, gh.n_b))
    f = np.broadcast_to(gh.f_table, (gh.n_a, gh.n_b, gh.dim))
    return max(min(-cost[a, b] - sum(f[a, b, i] * p[i] for i in range(gh.dim))
                   for a in range(gh.n_a))
               for b in range(gh.n_b))


@st.composite
def games_and_nodes(draw):
    """A drawn game and its field, with 1 to 6 nodes X and gradients P."""
    gh, env = draw(drawn_games())
    n = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.lists(st.floats(-6.0, 6.0), min_size=gh.dim,
                                        max_size=gh.dim), min_size=n, max_size=n)))
    P = np.array(draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=gh.dim,
                                        max_size=gh.dim), min_size=n, max_size=n)))
    return gh, env, X, P


#: the saddle game at 16 nodes x = j and p = 0, where every drift is +0.0 and
#: pair k's cost is -0.0 or +0.0 by bit k of j: H meets ties of both signs
SIGNED_ZERO_CASE = (
    build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 1),
    SimpleNamespace(values=lambda pts: np.where(
        (np.atleast_2d(pts)[:, :1].astype(int) >> np.arange(4)) & 1 == 1, -0.0, 0.0)),
    np.arange(16.0)[:, None], np.zeros((16, 1)))


@settings(max_examples=80, deadline=None)
@given(case=games_and_nodes())
@example(case=SIGNED_ZERO_CASE)
def test_eval_H_nodes_is_eval_H_at_each_node(case):
    gh, env, X, P = case
    cost = np.broadcast_to(gh.cost(X, env), (len(X), gh.n_a, gh.n_b))
    vel = velocities(gh)
    nodes = eval_H_nodes(gh, np.moveaxis(-cost, 0, -1), P, vel,
                         _aligned_planes(len(vel.rows) + 3, len(X)))
    single = np.array([eval_H(gh, x, p, env) for x, p in zip(X, P)])
    brute = np.array([brute_force_H(gh, x, p, env) for x, p in zip(X, P)])
    assert nodes.shape == (len(X),)
    # the drift is a fixed-order sum over the axes: the same bits for one
    # node as for n, in 1-D and 2-D alike.  eval_H's reductions pair +-0
    # ties as the fold does while each contiguous row it reduces (the b
    # axis, or the a axis of a game with one b) has at most 8 entries
    if max(gh.n_b, gh.n_a if gh.n_b == 1 else 1) <= 8:
        assert np.array_equal(nodes.view(np.int64), single.view(np.int64))
    else:
        assert np.array_equal(nodes, single)
    # Python's min and max keep the first of a tie, numpy's the second
    assert np.array_equal(nodes, brute)


@settings(max_examples=80, deadline=None)
@given(game=drawn_games())
# a 2-D game that moves along axis 0 only, and one that does not move
@example(game=(build("saddle-game", {"base_speed": 1.0, "coupling": 0.25}, 2), None))
@example(game=(build("saddle-game", {"base_speed": 0.0, "coupling": 0.0}, 2), None))
def test_velocities_equal_the_per_pair_summary(game):
    gh, _ = game
    f = np.broadcast_to(gh.f_table, (gh.n_a, gh.n_b, gh.dim))
    pairs = list(np.ndindex(gh.n_a, gh.n_b))
    sigma = np.array([max(abs(float(f[ab][i])) for ab in pairs) for i in range(gh.dim)])
    bits = {ab: tuple(f[ab].view(np.int64).tolist()) for ab in pairs}
    rows = sorted(set(bits.values()))          # np.unique's order: the bits as int64
    vel = velocities(gh)
    assert vel.sigma.tobytes() == sigma.tobytes()
    assert vel.axes == tuple(i for i in range(gh.dim) if sigma[i] > 0)
    assert vel.rows.tobytes() == np.array(rows, dtype=np.int64).tobytes()
    assert vel.row_of.shape == (gh.n_a, gh.n_b)
    assert [vel.row_of[ab] for ab in pairs] == [rows.index(bits[ab]) for ab in pairs]


def test_non_coercivity_direction():
    env = sample_environment(random_field_spec(4))
    gh = bind_env_constants(saddle_game(1.0, 0.25), env)
    c = certify_constants(gh)
    c.require_oriented()
    lam = 10.0
    x = np.array([0.3])
    h_plus = eval_H(gh, x, lam * c.e, env)
    h_minus = eval_H(gh, x, -lam * c.e, env)
    assert h_plus <= c.l_inf - lam * c.delta + 1e-12
    assert h_minus >= -c.l_inf + lam * c.delta - 1e-12


def test_certify_examples():
    gh = two_speed_control((1.0,), dim=2)
    c = certify_constants(replace(gh, lip_l=0.0, l_inf=0.0, orientation_hint=[1.0, 0.0]))
    assert c.delta == 1.0

    f = np.array([[[1.0, 0.5]], [[1.0, -0.5]]])
    gh2 = GameHamiltonian(f_table=f, n_b=1, base_cost=lambda pts, env: np.zeros(
                              (len(as_points(pts)), 2, 1)),
                          lip_l=0.0, l_inf=0.0, orientation_hint=[1.0, 0.0])
    c2 = certify_constants(gh2)
    assert c2.delta == 1.0
    assert c2.f_inf == pytest.approx(np.sqrt(1.25), abs=1e-15)

    c3 = certify_constants(const_cost_game(0.4, 2.0))
    assert c3.beta == max(0.4, 2.0)


def test_certified_delta_is_exact_min():
    env = sample_environment(random_field_spec(11))
    gh = bind_env_constants(saddle_game(1.0, 0.3), env)
    c = certify_constants(gh)
    f_full = np.broadcast_to(gh.f_table, (gh.n_a, gh.n_b, gh.dim)).reshape(-1, gh.dim)
    assert c.delta == np.min(f_full @ c.e)


def test_orientation_refusal():
    # a-controlled sign makes the drift straddle zero: never oriented
    gh = two_speed_control((-1.0, 1.0))
    c = certify_constants(replace(gh, lip_l=0.0, l_inf=0.0, orientation_hint=[1.0]))
    assert not c.oriented
    with pytest.raises(OrientationError):
        c.require_oriented()


def test_shift_momentum_identity():
    env = sample_environment(random_field_spec(8))
    gh = bind_env_constants(saddle_game(1.0, 0.25), env)
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(-6, 6, size=1)
        p = rng.normal(size=1)
        th = rng.normal(size=1)
        lhs = eval_H(shift_momentum(gh, th), x, p, env)
        rhs = eval_H(gh, x, th + p, env)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    # theta = 0 is the identity
    gh0 = shift_momentum(gh, np.zeros(1))
    x = np.array([0.5])
    assert eval_H(gh0, x, [0.3], env) == pytest.approx(
        eval_H(gh, x, [0.3], env), abs=1e-15)


def test_shift_folds_not_wraps():
    gh = transport(1.0, 1)
    g1 = shift_momentum(shift_momentum(gh, [0.5]), [0.25])
    g2 = shift_momentum(gh, [0.75])
    assert np.allclose(g1.shift_table, g2.shift_table)


def test_l_inf_shifted():
    gh = const_cost_game(0.3, 2.0)
    gs = shift_momentum(gh, [1.5])
    assert certify_constants(gs).l_inf == pytest.approx(0.3 + 2.0 * 1.5)


def test_l_inf_counts_a_static_shift_table():
    # a pair table set directly, not by shift_momentum, is part of the cost too
    env = sample_environment(random_field_spec(4))
    gh = replace(bind_env_constants(transport(1.0), env), shift_table=np.array([[2.0]]))
    pts = np.linspace(-8.0, 8.0, 4001)[:, None]
    sampled = float(np.max(np.abs(gh.cost(pts, env))))
    assert sampled > gh.l_inf                   # the base bound alone does not cover it
    assert sampled <= certify_constants(gh).l_inf == gh.l_inf + 2.0


def test_l_inf_of_a_2d_shift_is_the_pair_table_bound():
    gh = replace(saddle_game(1.0, 0.25, dim=2), lip_l=0.5, l_inf=1.0)
    theta = np.array([0.5, -1.0])
    c = certify_constants(shift_momentum(gh, theta))
    assert c.l_inf == gh.l_inf + float(np.max(np.abs(gh.f_pairs @ theta))) == 1.0 + 1.25 * 0.5
    assert c.l_inf < gh.l_inf + gh.f_inf * float(np.linalg.norm(theta))


def test_structural_inequalities_random_probes():
    env = sample_environment(random_field_spec(17))
    gh = bind_env_constants(two_speed_control((0.5, 1.5)), env)
    c = certify_constants(gh)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x, y = rng.uniform(-6, 6, size=(2, 1))
        p, q = rng.normal(size=(2, 1)) * 2
        hxp = eval_H(gh, x, p, env)
        assert abs(hxp) <= c.beta * (1 + abs(p[0])) + 1e-12
        assert abs(hxp - eval_H(gh, x, q, env)) <= c.beta * abs(p - q)[0] + 1e-12
        assert abs(hxp - eval_H(gh, y, p, env)) <= c.beta * abs(x - y)[0] + 1e-12


def test_ball_grid():
    g = ball_grid(1.0, 5, 2)
    assert np.all(np.linalg.norm(g, axis=1) <= 1 + 1e-12)
    assert any(np.array_equal(row, [1.0, 0.0]) for row in g)
    g1 = ball_grid(2.0, 7, 1)
    assert len(g1) == 7


# ---------------------------------------------------------------------------
# localization


def test_localize_constant_G_1d():
    # pi = 0, v = 1: H(x, p) = c + p exactly once 0 is in the b-grid
    # G fills the whole (N, K) table, read once per cost call
    c0 = 0.37
    calls = []

    def G(pts, Q):
        calls.append((pts.shape, Q.shape))
        return np.full((len(pts), len(Q)), c0)

    gh = localize(G, beta=1.0, R=2.0, v=np.array([1.0]),
                  pi=np.zeros((1, 1)), n_a=9, n_b=9)
    for p in (-1.5, 0.0, 0.3, 2.0):
        assert eval_H(gh, [0.0], [p]) == pytest.approx(c0 + p, abs=1e-12)
    assert calls == [((1, 1), (9, 1))] * 4
    assert gh.cost(np.zeros((5, 1)), None).shape == (5, 9, 9)
    assert len(calls) == 5


def test_inner_representation_surrogate():
    # max over |b|<=2 min over |a|<=1 of {|b| - ab + ap} = |p| at p=1.5
    A = np.linspace(-1, 1, 801)
    B = np.linspace(-2, 2, 1601)
    p = 1.5
    vals = np.abs(B)[None, :] - A[:, None] * B[None, :] + A[:, None] * p
    assert vals.min(axis=0).max() == pytest.approx(1.5, abs=2e-3)


def test_localize_rejects_bad_inputs():
    def G(pts, Q):
        return np.zeros((len(pts), len(Q)))

    with pytest.raises(ValueError):
        localize(G, 1.0, 1.0, v=np.zeros(2), pi=np.zeros((2, 2)), n_a=4, n_b=4)
    pi = np.eye(2)   # pi(v) != 0
    with pytest.raises(ValueError):
        localize(G, 1.0, 1.0, v=np.array([1.0, 0.0]), pi=pi, n_a=4, n_b=4)
    # a 2-point axis keeps none of the 2-D grid's corners inside the ball
    pi = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="n_b=2"):
        localize(G, 1.0, 1.0, v=np.array([1.0, 0.0]), pi=pi, n_a=4, n_b=2)


def test_localize_delta_equals_v_norm_exactly():
    # v = (0.8, 0), pi = projection onto axis 2
    v = np.array([0.8, 0.0])
    pi = np.array([[0.0, 0.0], [0.0, 1.0]])

    def G(pts, Q):
        return 0.5 * np.linalg.norm(Q, axis=1)

    gh = localize(G, beta=0.5, R=1.0, v=v, pi=pi, n_a=8, n_b=8)
    c = certify_constants(gh)
    assert c.delta == float(np.linalg.norm(v))


def test_verify_localization_refinement():
    beta = 0.012
    v = np.array([0.75, 0.0])
    pi = np.array([[0.0, 0.0], [0.0, 1.0]])

    def G(pts, Q):
        return beta * np.linalg.norm(Q, axis=1)

    errs = []
    for n in (16, 32):
        gh = localize(G, beta=beta, R=1.0, v=v, pi=pi, n_a=n, n_b=n)
        rep = verify_localization(gh, G, R=1.0, v=v, pi=pi)
        errs.append(rep["max_error"])
    assert errs[1] < errs[0]
    assert 1 / 3 <= errs[1] / errs[0] <= 1.0


def test_verify_includes_boundary_probe():
    # affine G is represented exactly but for the b grid's gaps: the error is
    # at most the cost's Lipschitz constant in b, beta + |q0|, times the grid's
    # covering radius of the ball, which is largest on the rim (inside, a node
    # lies within h / sqrt(2)); the |p| = R probe points almost along pi's
    # image (0, 1), where the rim's gap is widest
    q0 = np.array([0.0, 0.4])

    def G(pts, Q):
        return 0.1 + Q @ q0

    v = np.array([0.75, 0.0])
    pi = np.array([[0.0, 0.0], [0.0, 1.0]])
    gh = localize(G, beta=1.0, R=1.0, v=v, pi=pi, n_a=48, n_b=48)
    rep = verify_localization(gh, G, R=1.0, v=v, pi=pi)
    B = ball_grid(1.0, 48, 2)
    angle = np.radians(np.arange(360))
    rim = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    cover = math.sqrt(np.max(np.min(1.0 + (B**2).sum(axis=1) - 2.0 * rim @ B.T, axis=1)))
    assert rep["max_error"] <= (1.0 + np.linalg.norm(q0)) * cover
