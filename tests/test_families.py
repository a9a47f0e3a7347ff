"""The game layer's single paths: the field-game constructor, the momentum
shift and the certificate step."""
import inspect
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drawn_games
from hjhomog.env import EnvSpec, sample_environment
from hjhomog.families import (FAMILIES, _env_cost, bind_env_constants, build, localized,
                              saddle_game, transport, two_speed_control)
from hjhomog.game import GameHamiltonian, certify_constants, shift_momentum


# -- the three field-game constructors as they were written out by hand ------

def ref_transport(speed: float = 1.0, dim: int = 1) -> GameHamiltonian:
    f = np.zeros((1, 1, dim))
    f[0, 0, 0] = speed
    return GameHamiltonian(
        f_table=f,
        n_b=1,
        base_cost=_env_cost(1, 1),
        lip_l=np.nan,
        l_inf=np.nan,
        orientation_hint=_axis_dir(dim, np.sign(speed) or 1.0),
    )


def ref_two_speed_control(speeds=(0.5, 1.5), dim: int = 1) -> GameHamiltonian:
    speeds = list(speeds)
    f = np.zeros((len(speeds), 1, dim))
    for i, s in enumerate(speeds):
        f[i, 0, 0] = s
    return GameHamiltonian(
        f_table=f,
        n_b=1,
        base_cost=_env_cost(len(speeds), 1),
        lip_l=np.nan,
        l_inf=np.nan,
        orientation_hint=_axis_dir(dim, 1.0),
    )


def ref_saddle_game(base_speed: float = 1.0, coupling: float = 0.25,
                    dim: int = 1) -> GameHamiltonian:
    f = np.zeros((2, 2, dim))
    for i, a in enumerate((-1.0, 1.0)):
        for j, b in enumerate((-1.0, 1.0)):
            f[i, j, 0] = base_speed + coupling * a * b
    return GameHamiltonian(
        f_table=f,
        n_b=2,
        base_cost=_env_cost(2, 2),
        lip_l=np.nan,
        l_inf=np.nan,
        orientation_hint=_axis_dir(dim, 1.0),
    )


def _axis_dir(dim: int, sign: float) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = sign
    return e


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


SPEED = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3))


@st.composite
def constructor_cases(draw):
    """(constructor, reference, kwargs, dim), integer and negative speeds included."""
    dim = draw(st.sampled_from([1, 2]))
    return draw(st.sampled_from([
        (transport, ref_transport, {"speed": draw(SPEED)}),
        (two_speed_control, ref_two_speed_control,
         {"speeds": draw(st.lists(SPEED, min_size=1, max_size=3))}),
        (saddle_game, ref_saddle_game,
         {"base_speed": draw(SPEED), "coupling": draw(SPEED)}),
    ])) + (dim,)


@settings(max_examples=120, deadline=None)
@given(constructor_cases(), st.booleans(), st.integers(0, 99))
def test_field_games_equal_the_hand_written_constructors(case, per_pair, seed):
    build, ref, kwargs, dim = case
    got, want = build(dim=dim, **kwargs), ref(dim=dim, **kwargs)
    for fld in fields(GameHamiltonian):
        if fld.name == "base_cost":
            continue
        a, b = getattr(got, fld.name), getattr(want, fld.name)
        assert (a is None and b is None) or same_bits(a, b), fld.name
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=want.n_a * want.n_b if per_pair else 1,
                   box_lo=(-4.0,) * dim, box_hi=(4.0,) * dim, seed=seed)
    env = sample_environment(spec)
    pts = np.random.default_rng(seed).uniform(-4.0, 4.0, size=(17, dim))
    assert same_bits(got.cost(pts, env), want.cost(pts, env))


@settings(max_examples=40, deadline=None)
@given(drawn_games(), st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_shift_momentum_keeps_every_other_field(game_env, theta):
    gh, _ = game_env
    theta = np.asarray(theta[:gh.dim])
    shifted = shift_momentum(gh, theta)
    for fld in fields(GameHamiltonian):
        if fld.name != "shift_table":
            assert getattr(shifted, fld.name) is getattr(gh, fld.name), fld.name
    add = gh.f_table @ theta
    assert same_bits(shifted.shift_table,
                     add if gh.shift_table is None else gh.shift_table + add)


def test_certify_refuses_unset_cost_certificates():
    gh = saddle_game(1.0, 0.25)
    for unbound in (gh, replace(gh, lip_l=0.0), replace(gh, l_inf=0.0)):
        with pytest.raises(ValueError, match="bind_env_constants"):
            certify_constants(unbound)
    spec = EnvSpec(dimension=1, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=1, box_lo=(-4.0,), box_hi=(4.0,), seed=0)
    c = certify_constants(bind_env_constants(gh, sample_environment(spec)))
    assert np.isfinite(c.beta) and c.oriented


def test_certify_refuses_a_game_without_a_direction():
    gh = replace(transport(-1.0), lip_l=0.0, l_inf=0.0, orientation_hint=None)
    with pytest.raises(ValueError, match="set the game's orientation_hint"):
        certify_constants(gh)
    assert certify_constants(replace(gh, orientation_hint=[-2.0])).delta == 1.0


CONSTRUCTORS = {"transport": transport, "two-speed-control": two_speed_control,
                "saddle-game": saddle_game, "localized": localized}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_reads_its_constructors_keywords(name):
    # a family's params are declared once, as its constructor's keywords
    assert sorted(CONSTRUCTORS) == sorted(FAMILIES)
    params = [p for p in inspect.signature(CONSTRUCTORS[name]).parameters.values()
              if p.name != "dim"]
    assert FAMILIES[name].accepts == tuple(p.name for p in params)
    assert FAMILIES[name].requires == tuple(p.name for p in params
                                            if p.default is inspect.Parameter.empty)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_refuses_a_key_it_does_not_read(name):
    with pytest.raises(ValueError, match=f"unknown key 'sped' for {name} \\(accepts: "):
        build(name, {"sped": 2.0}, 1)


def test_a_missing_key_is_named():
    with pytest.raises(ValueError, match=r"missing key 'v' for localized \(requires: beta, v, pi\)"):
        build("localized", {"beta": 1.0, "pi": [[0.0]]}, 1)


#: per family, params it builds from and, per numeric key, how a number goes
#: into the value it reads and the path of that number in the value
NUMERIC_KEYS = {
    "transport": ({}, {"speed": (lambda x: x, "")}),
    "two-speed-control": ({}, {"speeds": (lambda x: [0.5, x], "[1]")}),
    "saddle-game": ({}, {"base_speed": (lambda x: x, ""), "coupling": (lambda x: x, "")}),
    "localized": ({"beta": 1.5, "v": [0.75], "pi": [[0.0]], "n_a": 3, "n_b": 3},
                  {"beta": (lambda x: x, ""), "v": (lambda x: [x], "[0]"),
                   "pi": (lambda x: [[x]], "[0][0]"), "R": (lambda x: x, ""),
                   "n_a": (lambda x: x, ""), "n_b": (lambda x: x, ""),
                   "slope": (lambda x: [x], "[0]"), "offset": (lambda x: x, ""),
                   "scale": (lambda x: x, "")}),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, key", [(name, key) for name, (_, keys) in NUMERIC_KEYS.items()
                                       for key in keys])
def test_every_numeric_param_refuses_a_non_finite_number(name, key, bad):
    # these used to end in an orientation or domain error that named no key,
    # or in a broadcast error after RuntimeWarnings
    base, keys = NUMERIC_KEYS[name]
    assert set(keys) == set(FAMILIES[name].accepts) - {"g0"}     # every numeric key
    build(name, base, 1)
    value, where = keys[key]
    message = f"{key}{where}: must be a finite number, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(name, {**base, key: value(bad)}, 1)
    # an int beyond the float range, as the config's float fields refuse it
    with pytest.raises(ValueError, match=f"^{re.escape(key + where)}: must be a finite number"):
        build(name, {**base, key: value(10**400)}, 1)


LOCALIZED_1D = {"beta": 0.5, "v": [0.75], "pi": [[0.0]], "n_a": 4, "n_b": 4}


@pytest.mark.parametrize("key, value, dim, message", [
    ("slope", [1.0, 2.0], 1, "slope: must have shape [1] in dimension 1, got [1.0, 2.0]"),
    ("v", [[0.75]], 1, "v: must have shape [1] in dimension 1, got [[0.75]]"),
    ("v", [0.75, [0.0]], 1, "v: must have shape [1] in dimension 1, got [0.75, [0.0]]"),
    ("pi", [[0.0, 0.0]], 1, "pi: must have shape [1, 1] in dimension 1, got [[0.0, 0.0]]"),
    ("pi", [[0.0]], 2, "pi: must have shape [2, 2] in dimension 2, got [[0.0]]"),
    ("R", -1.0, 1, "R: must be >= 0, got -1.0"),
    ("beta", -0.5, 1, "beta: must be >= 0, got -0.5"),
    ("n_a", 4.5, 1, "n_a: must be an integer, got 4.5"),
    ("n_b", True, 1, "n_b: must be an integer, got True"),
    ("n_b", "4", 1, "n_b: must be an integer, got '4'"),
], ids=["long-slope", "nested-v", "ragged-v", "wide-pi", "small-pi", "negative-R",
        "negative-beta", "fractional-n_a", "bool-n_b", "string-n_b"])
def test_localized_refuses_a_misfit_param_by_name(key, value, dim, message):
    # these used to escape as a numpy ValueError or TypeError, run with a
    # negative certified cost bound, truncate n_a to 4, or fail their checks
    params = {**LOCALIZED_1D, "v": [0.75] + [0.0] * (dim - 1), "pi": np.zeros((dim, dim)).tolist()}
    build("localized", params, dim)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build("localized", {**params, key: value}, dim)


def test_localized_takes_an_integral_float_count():
    whole = build("localized", LOCALIZED_1D, 1)
    got = build("localized", {**LOCALIZED_1D, "n_a": 4.0, "n_b": 4.0}, 1)
    assert (got.n_a, got.n_b) == (whole.n_a, whole.n_b) == (4, 4)
    assert np.array_equal(got.f_table, whole.f_table)
