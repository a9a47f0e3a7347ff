"""Hypothesis strategies and session fixtures shared by the test modules."""
import multiprocessing

import numpy as np
import pytest
from hypothesis import strategies as st

from hjhomog import homog
from hjhomog.env import EnvSpec, sample_environment
from hjhomog.families import FAMILIES, build
from hjhomog.game import shift_momentum


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """Shut the campaign pool down after the last test; no worker may outlive it."""
    yield
    homog._shutdown_pool()
    assert multiprocessing.active_children() == []


SPEEDS = st.floats(0.1, 2.0)
#: (family, params) of an oriented field game
ORIENTED = st.one_of(
    st.tuples(st.just("transport"), st.builds(lambda s, sign: {"speed": sign * s},
                                              SPEEDS, st.sampled_from([1.0, -1.0]))),
    st.tuples(st.just("two-speed-control"),
              st.builds(lambda a, b: {"speeds": (a, b)}, SPEEDS, SPEEDS)),
    st.tuples(st.just("saddle-game"),
              st.builds(lambda base, c: {"base_speed": base, "coupling": c * base},
                        SPEEDS, st.floats(-0.9, 0.9))),
)

SPEED = st.floats(-2.0, 2.0)


@st.composite
def localized_params(draw, dim):
    """v along the first axis and pi onto the others, so that pi(v) = 0 exactly."""
    pi = np.zeros((dim, dim))
    pi[1:, 1:] = draw(st.floats(-1.0, 1.0)) * np.eye(dim - 1)
    v = [draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1.0, -1.0]))] + [0.0] * (dim - 1)
    if draw(st.booleans()):
        g0 = {"g0": "affine", "slope": draw(st.lists(SPEED, min_size=dim, max_size=dim)),
              "offset": draw(SPEED)}
    else:
        g0 = {"g0": "norm", "scale": draw(st.floats(0.0, 2.0))}
    # an axis of n < 3 points puts every 2-D grid point outside the unit ball
    return {"beta": draw(st.floats(0.1, 2.0)), "R": draw(st.floats(0.5, 2.0)), "v": v,
            "pi": pi.tolist(), "n_a": draw(st.integers(3, 6)), "n_b": draw(st.integers(3, 6)),
            **g0}


PARAMS = {
    "transport": lambda dim: st.fixed_dictionaries({"speed": SPEED}),
    "two-speed-control": lambda dim: st.fixed_dictionaries(
        {"speeds": st.lists(SPEED, min_size=1, max_size=3)}),
    "saddle-game": lambda dim: st.fixed_dictionaries(
        {"base_speed": SPEED, "coupling": SPEED}),
    "localized": localized_params,
}


@st.composite
def drawn_games(draw):
    """A game of any registered family, 1-D or 2-D, possibly momentum-shifted, and its field."""
    dim = draw(st.sampled_from([1, 2]))
    name = draw(st.sampled_from(sorted(FAMILIES)))
    gh = build(name, draw(PARAMS[name](dim)), dim)
    if draw(st.booleans()):
        gh = shift_momentum(gh, draw(st.lists(SPEED, min_size=dim, max_size=dim)))
    spec = EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=draw(st.sampled_from([1, gh.n_a * gh.n_b])),
                   box_lo=(-8.0,) * dim, box_hi=(8.0,) * dim, seed=draw(st.integers(0, 99)))
    return gh, sample_environment(spec)
