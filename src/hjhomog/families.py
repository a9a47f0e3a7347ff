"""Named game-Hamiltonian families used by configs and experiments."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .game import GameHamiltonian, localize


def _env_cost(n_a: int, n_b: int):
    """Cost accessor reading environment channels (shared or per-pair).

    Any leading realization axes of the environment's values are kept.
    """

    def cost(pts: np.ndarray, env) -> np.ndarray:
        vals = env.values(pts)                    # (..., N, C)
        if vals.shape[-1] == 1:
            return vals[..., None]                # broadcasts over (a, b)
        if vals.shape[-1] != n_a * n_b:
            raise ValueError(
                f"environment has {vals.shape[-1]} channels, game needs {n_a * n_b}"
            )
        return vals.reshape(vals.shape[:-1] + (n_a, n_b))

    return cost


def _axis_game(speeds, dim: int, sign: float = 1.0) -> GameHamiltonian:
    """A field game driven along axis 0 at ``speeds[a, b]`` (n_a, n_b), oriented by ``sign``.

    Its cost certificates are NaN until ``bind_env_constants`` fills them
    from the environment.
    """
    speeds = np.asarray(speeds)
    if speeds.size == 0:
        raise ValueError(f"the game needs at least one action pair; got speeds of "
                         f"shape {speeds.shape}")
    f = np.zeros(speeds.shape + (dim,))
    f[..., 0] = speeds
    hint = np.zeros(dim)
    hint[0] = sign
    return GameHamiltonian(
        f_table=f,
        n_b=speeds.shape[1],
        base_cost=_env_cost(*speeds.shape),
        lip_l=np.nan,
        l_inf=np.nan,
        orientation_hint=hint,
    )


def transport(speed: float = 1.0, dim: int = 1) -> GameHamiltonian:
    """Singleton actions: pure transport at constant velocity over the field."""
    return _axis_game([[speed]], dim, np.sign(speed) or 1.0)


def two_speed_control(speeds=(0.5, 1.5), dim: int = 1) -> GameHamiltonian:
    """One controller (player 1) choosing among forward speeds; no adversary."""
    return _axis_game(np.reshape(speeds, (-1, 1)), dim)


def saddle_game(base_speed: float = 1.0, coupling: float = 0.25,
                dim: int = 1) -> GameHamiltonian:
    """Two-action saddle: f(a,b) = base + coupling * a * b along axis 1, a, b = -1, 1.

    Oriented as long as |coupling| < base_speed.
    """
    return _axis_game(base_speed + coupling * np.array([[1.0, -1.0], [-1.0, 1.0]]), dim)


def bind_env_constants(gh: GameHamiltonian, env) -> GameHamiltonian:
    """The game with its cost certificates (Lip, sup) taken from the environment's.

    A game that carries its own certificates (its ``lip_l`` is not NaN) is
    returned as it is.
    """
    if not np.isnan(gh.lip_l):
        return gh
    return replace(gh, lip_l=float(env.lip_bound), l_inf=float(env.sup_bound))


def _require_finite(path: str, value) -> None:
    """Refuses a number in value, or in its nested lists, that is not finite, naming its path."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _require_finite(f"{path}[{i}]", item)
    elif isinstance(value, numbers.Real):
        try:
            finite = math.isfinite(value)
        except OverflowError:       # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{path}: must be a finite number, got {value!r}")


def build(name: str, params: dict, dim: int) -> GameHamiltonian:
    """Construct a family by config name; refuses a key it does not read or lacks one it
    needs, and a number in any param, or in a param's lists, that is not finite."""
    if name not in FAMILIES:
        raise ValueError(f"unknown hamiltonian family {name!r}")
    family = FAMILIES[name]
    for key in params:
        if key not in family.accepts:
            raise ValueError(f"unknown key {key!r} for {name} "
                             f"(accepts: {', '.join(family.accepts)})")
    for key in family.requires:
        if key not in params:
            raise ValueError(f"missing key {key!r} for {name} "
                             f"(requires: {', '.join(family.requires)})")
    for key, value in params.items():
        _require_finite(key, value)
    return family.build(params, dim)


def _shaped(key: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float array of shape; refuses another shape, naming key."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):         # ragged, or not numbers
        arr = None
    if arr is None or arr.shape != shape:
        raise ValueError(f"{key}: must have shape {list(shape)} in dimension {shape[0]}, "
                         f"got {value!r}")
    return arr


def _count(key: str, value) -> int:
    """value as an int; refuses anything but an integral number, naming key."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{key}: must be an integer, got {value!r}")
    return int(value)


def localized(beta, v, pi, R=1.0, n_a: int = 16, n_b: int = 16, g0: str = "affine",
              slope=None, offset=0.0, scale=None, dim: int = 1) -> GameHamiltonian:
    """The max-min localization of a Lipschitz G that has none of its own:
    g0 = "affine", G = offset + <slope, Q> (slope zeros by default), or
    g0 = "norm", G = scale |Q| (scale beta by default).

    Refuses, naming its key, a v, slope (dim,) or pi (dim, dim) of another
    shape, a negative beta or R, and an n_a or n_b that is not an integer.
    """
    beta, R = float(beta), float(R)
    for key, value in (("beta", beta), ("R", R)):
        if value < 0.0:
            raise ValueError(f"{key}: must be >= 0, got {value!r}")
    v, pi = _shaped("v", v, (dim,)), _shaped("pi", pi, (dim, dim))
    if g0 == "affine":
        q = _shaped("slope", [0.0] * dim if slope is None else slope, (dim,))
        c = float(offset)

        def G(pts, Q):
            return c + Q @ q

    elif g0 == "norm":
        scale = float(beta if scale is None else scale)

        def G(pts, Q):
            return scale * np.linalg.norm(Q, axis=1)

    else:
        raise ValueError(f"unknown localized base hamiltonian {g0!r}")
    return localize(G, beta=beta, R=R, v=v, pi=pi, n_a=_count("n_a", n_a), n_b=_count("n_b", n_b))


@dataclass(frozen=True)
class Family:
    """A named game family: its builder, the params keys it reads and those it needs."""

    build: Callable[[dict, int], GameHamiltonian]       # (params, dim) -> game
    accepts: tuple[str, ...]
    requires: tuple[str, ...] = ()


#: config name -> family; a family's params are its constructor's keywords but dim
FAMILIES = {
    "transport": Family(lambda params, dim: transport(dim=dim, **params), ("speed",)),
    "two-speed-control": Family(lambda params, dim: two_speed_control(dim=dim, **params),
                                ("speeds",)),
    "saddle-game": Family(lambda params, dim: saddle_game(dim=dim, **params),
                          ("base_speed", "coupling")),
    "localized": Family(
        lambda params, dim: localized(dim=dim, **params),
        ("beta", "v", "pi", "R", "n_a", "n_b", "g0", "slope", "offset", "scale"),
        requires=("beta", "v", "pi")),
}
