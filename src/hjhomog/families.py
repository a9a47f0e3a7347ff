"""Named game-Hamiltonian families used by configs and experiments."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .game import GameHamiltonian, localize


def _env_cost(n_a: int, n_b: int):
    """Cost accessor reading environment channels (shared or per-pair)."""

    def cost(pts: np.ndarray, env) -> np.ndarray:
        vals = env.values(pts)                    # (N, C)
        n = vals.shape[0]
        if vals.shape[1] == 1:
            return vals[:, :, None]               # broadcasts over (a, b)
        if vals.shape[1] != n_a * n_b:
            raise ValueError(
                f"environment has {vals.shape[1]} channels, game needs {n_a * n_b}"
            )
        return vals.reshape(n, n_a, n_b)

    return cost


def transport(speed: float = 1.0, dim: int = 1) -> GameHamiltonian:
    """Singleton actions: pure transport at constant velocity over the field."""
    f = np.zeros((1, 1, dim))
    f[0, 0, 0] = speed
    return GameHamiltonian(
        actions_a=np.zeros((1, 1)),
        actions_b=np.zeros((1, 1)),
        f_table=f,
        base_cost=_env_cost(1, 1),
        lip_l=np.nan,       # filled from the environment by bind_env_constants
        l_inf=np.nan,
        orientation_hint=_axis_dir(dim, np.sign(speed) or 1.0),
    )


def two_speed_control(speeds=(0.5, 1.5), dim: int = 1) -> GameHamiltonian:
    """One controller (player 1) choosing among forward speeds; no adversary."""
    speeds = list(speeds)
    f = np.zeros((len(speeds), 1, dim))
    for i, s in enumerate(speeds):
        f[i, 0, 0] = s
    return GameHamiltonian(
        actions_a=np.array([[s] for s in speeds]),
        actions_b=np.zeros((1, 1)),
        f_table=f,
        base_cost=_env_cost(len(speeds), 1),
        lip_l=np.nan,
        l_inf=np.nan,
        orientation_hint=_axis_dir(dim, 1.0),
    )


def saddle_game(base_speed: float = 1.0, coupling: float = 0.25,
                dim: int = 1) -> GameHamiltonian:
    """Two-action saddle: f(a,b) = base + coupling * a * b along axis 1.

    Oriented as long as |coupling| < base_speed.
    """
    acts = np.array([[-1.0], [1.0]])
    f = np.zeros((2, 2, dim))
    for i, a in enumerate((-1.0, 1.0)):
        for j, b in enumerate((-1.0, 1.0)):
            f[i, j, 0] = base_speed + coupling * a * b
    return GameHamiltonian(
        actions_a=acts,
        actions_b=acts,
        f_table=f,
        base_cost=_env_cost(2, 2),
        lip_l=np.nan,
        l_inf=np.nan,
        orientation_hint=_axis_dir(dim, 1.0),
    )


def bind_env_constants(gh: GameHamiltonian, env) -> GameHamiltonian:
    """The game with its cost certificates (Lip, sup) taken from the environment's.

    A game that carries its own certificates (its ``lip_l`` is not NaN) is
    returned as it is.
    """
    if not np.isnan(gh.lip_l):
        return gh
    return replace(gh, lip_l=float(env.lip_bound), l_inf=float(env.sup_bound))


def _axis_dir(dim: int, sign: float) -> np.ndarray:
    e = np.zeros(dim)
    e[0] = sign
    return e


def build(name: str, params: dict, dim: int) -> GameHamiltonian:
    """Construct a family by config name."""
    if name not in FAMILIES:
        raise ValueError(f"unknown hamiltonian family {name!r}")
    return FAMILIES[name](params, dim)


def _build_localized(params: dict, dim: int) -> GameHamiltonian:
    kind = params.get("g0", "affine")
    beta = float(params["beta"])
    if kind == "affine":
        q = np.asarray(params.get("slope", [0.0] * dim), dtype=np.float64)
        c = float(params.get("offset", 0.0))

        def G(pts, Q):
            return c + Q @ q

    elif kind == "norm":
        scale = float(params.get("scale", beta))

        def G(pts, Q):
            return scale * np.linalg.norm(Q, axis=1)

    else:
        raise ValueError(f"unknown localized base hamiltonian {kind!r}")
    return localize(
        G,
        beta=beta,
        R=float(params.get("R", 1.0)),
        v=np.asarray(params["v"], dtype=np.float64),
        pi=np.asarray(params["pi"], dtype=np.float64),
        n_a=int(params.get("n_a", 16)),
        n_b=int(params.get("n_b", 16)),
    )


#: config name -> builder(params, dim)
FAMILIES = {
    "transport": lambda params, dim: transport(speed=params.get("speed", 1.0), dim=dim),
    "two-speed-control": lambda params, dim: two_speed_control(
        speeds=params.get("speeds", (0.5, 1.5)), dim=dim),
    "saddle-game": lambda params, dim: saddle_game(
        base_speed=params.get("base_speed", 1.0), coupling=params.get("coupling", 0.25),
        dim=dim),
    "localized": _build_localized,
}
