"""Every config near the defaults ends in a result or a refusal that names its field.

A derandomized Hypothesis search whose strategy is read off ``cli.DEFAULTS``,
the one config schema.  An example lifts the defaults to one or two
dimensions, moves one to three fields to a typed value near its default,
runs one command in process and checks ``cli.main``'s exit contract: 0 or 2,
or 1 with a refusal that carries its label (and, for a config error, the
config path it refuses).  Any other exception escapes ``main`` and fails the
test.
"""
import contextlib
import io
import itertools
import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hjhomog import families
from hjhomog.cli import COMMANDS, DEFAULTS, FREE_KEYS, main

# sizes stay small: the schedule is the default's scaled by 1/4, and a draw
# keeps M <= 8, every time and solver.T <= 8, boxes within +-64 and the
# localized action counts <= 16
CAPPED = {"campaign.M": 8, "campaign.times": [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]}
CAPS = {"campaign.M": 8, "campaign.times": 8.0, "solver.T": 8.0, "solver.record_times": 8.0,
        "environment.box_lo": 64.0, "environment.box_hi": 64.0, "solver.box_lo": 64.0,
        "solver.box_hi": 64.0, "n_a": 16, "n_b": 16}
PER_AXIS = ("environment.box_lo", "environment.box_hi", "solver.box_lo", "solver.box_hi")
# campaign.workers stays 1 (and --workers and $HJHOMOG_WORKERS unset): no pool starts
FIXED = ("campaign.workers",)
#: the seeds are hashed as int64 words: the least one, and two past the greatest
BOUNDARY_SEEDS = {"environment.seed": [-2**63, 2**63, 2**64],
                  "campaign.base_seed": [-2**63, 2**63, 2**64]}
NAMES = {"hamiltonian.family": sorted(families.FAMILIES) + ["no-such-family"],
         "solver.scheme": ["semi-lagrangian", "lax-friedrichs", "upwind"]}
# each family's keywords at or near their defaults, the ones localized requires included
PARAMS = {
    "transport": lambda d: {"speed": 1.0},
    "two-speed-control": lambda d: {"speeds": [0.5, 1.5]},
    "saddle-game": lambda d: {"base_speed": 1.0, "coupling": 0.25},
    # 4 x 4 actions, not the default 16 x 16: a 2-D solve of those takes about a minute
    "localized": lambda d: {"beta": 0.5, "v": [0.75] + [0.0] * (d - 1),
                            "pi": [[0.0] * d for _ in range(d)], "R": 1.0, "n_a": 4,
                            "n_b": 4, "g0": "affine"},
}
assert sorted(PARAMS) == sorted(families.FAMILIES)
_RUN = itertools.count()     # one --out directory per example
LABELLED = re.compile(rf"config error: ({'|'.join(DEFAULTS)})(\.\w+)*(\[\d+\])*: "
                      r"|domain error: |orientation error: ")


def _leaves(block: dict, path: str = "") -> dict:
    """Every field of block by its dotted path; FREE_KEYS is one field."""
    out = {}
    for key, value in block.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict) and here != FREE_KEYS:
            out.update(_leaves(value, here))
        else:
            out[here] = value
    return out


LEAVES = {path: value for path, value in _leaves(DEFAULTS).items() if path not in FIXED}


def _lifted(d: int) -> dict:
    """The capped defaults in d dimensions: each per-axis list repeated."""
    base = {**LEAVES, **CAPPED, "environment.dimension": d, "campaign.thetas": [[0.0] * d]}
    base.update({path: LEAVES[path] * d for path in PER_AXIS})
    return base


def _allowed(value, cap) -> bool:
    if isinstance(value, list):
        return all(_allowed(v, cap) for v in value)
    return cap is None or not isinstance(value, (int, float)) or abs(value) <= cap


def _near(default, cap=None, name=None):
    """A typed value near default: zero, negative, halved or doubled numbers, the
    seeds' int64 bounds, empty, shortened, doubled or one-entry-moved lists, and
    the known names."""
    if name in NAMES:
        return st.sampled_from(NAMES[name])
    if isinstance(default, str):
        return st.sampled_from(["", "other"])
    if isinstance(default, int):
        near = {0, -1, default // 2, default + 1, 2 * default, *BOUNDARY_SEEDS.get(name, [])}
        return st.sampled_from([v for v in sorted(near) if v != default and _allowed(v, cap)])
    if isinstance(default, float):
        moved = {0.0, -1.0, 0.5, 1.0} if default == 0 else {0.0, -default, default / 2, 2 * default}
        return st.sampled_from([v for v in sorted(moved) if v != default and _allowed(v, cap)])
    if not default:
        return st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0, 8.0]), min_size=1, max_size=3)
    whole = [v for v in ([], default[:1], default + default) if v != default and _allowed(v, cap)]
    return st.one_of(st.sampled_from(whole), *[
        _near(item, cap).map(lambda v, i=i: default[:i] + [v] + default[i + 1:])
        for i, item in enumerate(default)])


@st.composite
def _runs(draw):
    """A command and its --set overrides: the lifted defaults, one to three fields moved."""
    d = draw(st.sampled_from([1, 2]))
    cfg = _lifted(d)
    for path in draw(st.lists(st.sampled_from(sorted(LEAVES)), min_size=1, max_size=3,
                              unique=True)):
        if path == FREE_KEYS:       # a family's params are drawn with the family
            family = draw(st.sampled_from(sorted(PARAMS)))
            params = PARAMS[family](d)
            key = draw(st.sampled_from([None] + sorted(params)))
            if key is not None:
                params[key] = draw(_near(params[key], CAPS.get(key)))
            cfg.update({"hamiltonian.family": family, FREE_KEYS: params})
        else:
            cfg[path] = draw(_near(cfg[path], CAPS.get(path), path))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return [command] + [arg for path, value in cfg.items()
                        for arg in ("--set", f"{path}={json.dumps(value)}")]


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_runs())
def test_every_config_near_the_defaults_ends_in_a_result_or_a_named_refusal(
        tmp_path, monkeypatch, argv):
    monkeypatch.delenv("HJHOMOG_WORKERS", raising=False)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(tmp_path / str(next(_RUN)))])
    assert code in (0, 1, 2)
    assert code != 1 or LABELLED.match(err.getvalue()), err.getvalue()

