"""The benchmark's workloads: inputs generated from the seed, one iteration
as a user runs it, and the checks on its outputs.

Every input comes from here: environment specs, games and explicit solve
boxes.  Boxes are sized from the discrete reach of each scheme (SL sheds
ceil(dt*f/dx) cells per step, LF one ring per substep), never from the
library's own box sizing, so every solve stays inside its box.

Per-iteration sizes are smaller than a full campaign so that a run of a few
seconds holds enough iterations for a median and a tail; `realizations`
states the work of one iteration.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from hjhomog import families, homog, pde
from hjhomog.env import EnvSpec, sample_environment, with_seed
from hjhomog.game import certify_constants, shift_momentum
from hjhomog.rng import derive_seed

#: |SL - LF| allowed at the origin in field2d-saddle: one cell width, about
#: three times the largest gap seen over seeds 0..11 at dx = dt = 0.25, T <= 8
SCHEME_TOL = 0.25

#: relative tolerance on derived statistics at the default seed
STATS_RTOL = 1e-9

_CFL = pde.SolveConfig.cfl_limit   # the solver's default CFL limit
_SNAP = 1e-12                      # the SL solver's foot-point snapping tolerance


@dataclass
class Output:
    raw: dict[str, np.ndarray]     # sample tables and field values: compared bitwise
    stats: dict[str, float]        # derived statistics: compared to a tolerance

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.raw):
            a = np.ascontiguousarray(self.raw[name])
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
        return h.hexdigest()

    def fingerprint(self) -> str:
        """Raw digest plus the exact bits of every statistic."""
        stats = ",".join(f"{k}={float(v).hex()}" for k, v in sorted(self.stats.items()))
        return hashlib.sha256(f"{self.digest()}|{stats}".encode()).hexdigest()


@dataclass
class Workload:
    name: str
    realizations: int                   # field realizations solved per iteration
    spec: EnvSpec                       # the environment every realization is drawn from
    family: tuple[str, dict]            # game, rebuilt by name in the set-up probe
    iterate: Callable[[], Output]       # one closed-loop iteration
    check: Callable[[Output], list[str]]
    workers: int = 1
    notes: dict = field(default_factory=dict)

    def setup_code(self) -> str:
        """What a fresh interpreter runs before the workload can start."""
        name, params = self.family
        return (
            "import hjhomog.cli\n"
            "from hjhomog import families\n"
            "from hjhomog.env import EnvSpec\n"
            f"spec = EnvSpec(**{asdict(self.spec)!r})\n"
            "spec.validate()\n"
            f"game = families.build({name!r}, {params!r}, {self.spec.dimension})\n"
        )


# ---------------------------------------------------------------------------
# discrete reach and box sizing


def _f_pairs(game) -> np.ndarray:
    return np.broadcast_to(game.f_table, (game.n_a, game.n_b, game.dim)).reshape(-1, game.dim)


def sl_reach(game, dt: float, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells the SL active box sheds per step, (below, above) on each axis."""
    s = dt * _f_pairs(game) / dx
    above = np.ceil(np.maximum(s, 0.0).max(axis=0) - _SNAP)
    below = np.ceil(np.maximum(-s, 0.0).max(axis=0) - _SNAP)
    return below.astype(int), above.astype(int)


def lf_substeps(game, dt: float, dx: float) -> int:
    """LF substeps per step; the LF active box sheds one ring per substep."""
    speed = float(np.sum(2.0 * np.abs(_f_pairs(game)).max(axis=0)))
    return max(1, math.ceil(dt * speed / (_CFL * dx))) if speed else 1


def sl_box(game, T: float, dt: float, dx: float, margin: float):
    steps = round(T / dt)
    below, above = sl_reach(game, dt, dx)
    return (tuple(float(-(steps * b * dx + margin)) for b in below),
            tuple(float(steps * a * dx + margin) for a in above))


def lf_box(game, T: float, dt: float, dx: float, margin: float):
    half = round(T / dt) * lf_substeps(game, dt, dx) * dx + margin
    return (-half,) * game.dim, (half,) * game.dim


def _union(*boxes):
    return (tuple(min(v) for v in zip(*(b[0] for b in boxes))),
            tuple(max(v) for v in zip(*(b[1] for b in boxes))))


def _spec(dim: int, channels: int, box, seed: int) -> EnvSpec:
    # the CLI's default field: rho = 1, bumps of radius 1/2, amplitudes in [0, 1]
    return EnvSpec(dimension=dim, rho=1.0, bump_radius=0.5, amp_lo=0.0, amp_hi=1.0,
                   channels=channels, box_lo=box[0], box_hi=box[1], seed=seed)


def _base_seed(seed: int) -> int:
    return seed % (1 << 31)        # hjhomog hashes seeds as int64


def _finite(stats: dict[str, float]) -> list[str]:
    return [f"{k} is not finite ({v})" for k, v in stats.items() if not math.isfinite(v)]


# ---------------------------------------------------------------------------
# mc1d-saddle and mc1d-pool


SADDLE = ("saddle-game", {})           # base speed 1, coupling 1/4: f in {0.75, 1.25}
MC1D_TIMES = (4.0, 8.0, 16.0, 32.0)
MC1D_M = 32
MC1D_DX = MC1D_DT = 0.25
MC1D_TAIL_GRID = (0.05, 0.1, 0.2)


def _mc1d(name: str, seed: int, workers: int) -> Workload:
    base = _base_seed(seed)
    game = families.build(*SADDLE, 1)
    box = sl_box(game, max(MC1D_TIMES), MC1D_DT, MC1D_DX, margin=2.0)
    spec = _spec(1, 4, box, base)
    family_desc = SADDLE if workers > 1 else None

    def campaign(n_workers: int, desc) -> Output:
        table = homog.estimate_U(game, spec, 0.0, MC1D_TIMES, MC1D_M, base,
                                 dx=MC1D_DX, dt=MC1D_DT, workers=n_workers,
                                 family_desc=desc, box=box)
        est = homog.extract_effective_H(table)
        conc = homog.check_concentration(table, max(MC1D_TIMES), MC1D_TAIL_GRID)
        stats = {"H_hat": est.H_hat, "K_hat": est.K_hat_implied,
                 "ci_halfwidth": est.ci_halfwidth,
                 "concentration_monotone": float(conc["monotone"])}
        stats.update({f"tail_freq_{m}": f for m, f in zip(conc["M_grid"], conc["tail_freqs"])})
        return Output(raw={"samples": table.samples}, stats=stats)

    def iterate() -> Output:
        return campaign(workers, family_desc)

    reference = campaign(1, None) if workers > 1 else None

    def check(out: Output) -> list[str]:
        bad = _finite(out.stats)
        if out.raw["samples"].shape != (len(MC1D_TIMES), MC1D_M):
            bad.append(f"sample table has shape {out.raw['samples'].shape}")
        if not out.stats["concentration_monotone"]:
            bad.append("concentration tail frequencies are not monotone")
        if reference is not None and out.fingerprint() != reference.fingerprint():
            bad.append(f"{workers}-worker campaign differs from the serial campaign")
        return bad

    return Workload(name, MC1D_M, spec, SADDLE, iterate, check, workers,
                    notes={"box": box, "M": MC1D_M, "times": MC1D_TIMES})


def mc1d_saddle(seed: int) -> Workload:
    return _mc1d("mc1d-saddle", seed, workers=1)


def mc1d_pool(seed: int) -> Workload:
    # at least two workers, so the process-pool path runs on one CPU too
    return _mc1d("mc1d-pool", seed, workers=max(2, len(os.sched_getaffinity(0))))


# ---------------------------------------------------------------------------
# field2d-saddle


FIELD2D_THETA = (0.5, 0.25)
FIELD2D_T = 8.0
FIELD2D_RECORD = (4.0, 8.0)
FIELD2D_DX = FIELD2D_DT = 0.25


def field2d_saddle(seed: int) -> Workload:
    base = _base_seed(seed)
    game = families.build(*SADDLE, 2)
    box = _union(sl_box(game, FIELD2D_T, FIELD2D_DT, FIELD2D_DX, margin=4.0),
                 lf_box(game, FIELD2D_T, FIELD2D_DT, FIELD2D_DX, margin=4.0))
    spec = with_seed(_spec(2, 4, box, base), derive_seed(base, 0))
    theta = np.array(FIELD2D_THETA)
    origin = np.zeros(2)
    cfgs = {tag: pde.SolveConfig(scheme=scheme, dt=FIELD2D_DT, dx=FIELD2D_DX, T=FIELD2D_T,
                                 box_lo=box[0], box_hi=box[1], record_times=FIELD2D_RECORD)
            for tag, scheme in (("sl", "semi-lagrangian"), ("lf", "lax-friedrichs"))}
    # the certified constants depend on the field's law, not on its seed
    beta = certify_constants(families.bind_env_constants(game, sample_environment(spec))).beta
    a_priori = beta * (1.0 + float(np.linalg.norm(theta)))

    def iterate() -> Output:
        env = sample_environment(spec)
        shifted = shift_momentum(families.bind_env_constants(game, env), theta)
        raw, stats = {}, {}
        for tag, cfg in cfgs.items():
            res = pde.solve(shifted, env, cfg)
            for t in FIELD2D_RECORD:
                snap = res.at_time(t)
                raw[f"{tag}_t{t:g}"] = snap.values
                stats[f"{tag}_origin_t{t:g}"] = snap.value_at(origin)
        return Output(raw=raw, stats=stats)

    def check(out: Output) -> list[str]:
        bad = _finite(out.stats)
        for t in FIELD2D_RECORD:
            sl, lf = out.stats[f"sl_origin_t{t:g}"], out.stats[f"lf_origin_t{t:g}"]
            if abs(sl - lf) > SCHEME_TOL:
                bad.append(f"|SL - LF| at the origin, t={t:g}: {abs(sl - lf):.4g} > {SCHEME_TOL}")
            if max(abs(sl), abs(lf)) > a_priori * t + 1e-9:
                bad.append(f"a-priori bound violated at t={t:g}")
        return bad

    return Workload("field2d-saddle", 1, spec, SADDLE, iterate, check,
                    notes={"box": box, "nodes_per_axis": round((box[1][0] - box[0][0]) / FIELD2D_DX) + 1,
                           "lf_substeps": lf_substeps(game, FIELD2D_DT, FIELD2D_DX)})


# ---------------------------------------------------------------------------
# rate1d-transport


TRANSPORT = ("transport", {"speed": 1.0})
RATE_TIMES = (4.0, 8.0, 16.0, 32.0)
RATE_M_EST = 16
RATE_EST_DX = RATE_EST_DT = 0.25       # the CLI's default solver steps
RATE_EPS = (1 / 4, 1 / 8, 1 / 16, 1 / 32)
RATE_R, RATE_T, RATE_M = 0.5, 1.0, 4
RATE_DX = RATE_DT = 1 / 16


def rate1d_transport(seed: int) -> Workload:
    base = _base_seed(seed)
    game = families.build(*TRANSPORT, 1)
    est_box = sl_box(game, max(RATE_TIMES), RATE_EST_DT, RATE_EST_DX, margin=2.0)
    # rate_experiment sizes its own boxes; the field must cover the widest one,
    # which reaches R/eps around the origin plus T/eps downstream
    e = min(RATE_EPS)
    lo, hi = sl_box(game, RATE_T / e, RATE_DT, RATE_DX, margin=1.0)
    rate_box = ((lo[0] - RATE_R / e,), (hi[0] + RATE_R / e,))
    spec = _spec(1, 1, _union(est_box, rate_box), base)

    def iterate() -> Output:
        table = homog.estimate_U(game, spec, 0.0, RATE_TIMES, RATE_M_EST, base,
                                 dx=RATE_EST_DX, dt=RATE_EST_DT, box=est_box)
        est = homog.extract_effective_H(table)
        rep = homog.rate_experiment(game, spec, 0.0, RATE_EPS, R=RATE_R, T=RATE_T,
                                    M=RATE_M, H_bar=est.H_hat, dx=RATE_DX, dt=RATE_DT,
                                    base_seed=base)
        stats = {"H_hat": est.H_hat, "K_hat": rep["K_hat"],
                 "slope": rep["slope"] if rep["slope"] is not None else math.nan,
                 "slope_se": rep["slope_se"] if rep["slope_se"] is not None else math.nan,
                 "degenerate": float(rep["degenerate"])}
        stats.update({f"median_eps_{eps:g}": m for eps, m in rep["medians"].items()})
        return Output(raw={"samples": table.samples}, stats=stats)

    def check(out: Output) -> list[str]:
        bad = _finite(out.stats)
        if out.stats["degenerate"]:
            bad.append("rate experiment is degenerate")
        if any(out.stats[f"median_eps_{eps:g}"] <= 0 for eps in RATE_EPS):
            bad.append("a rate median is not positive")
        return bad

    # M_EST realizations for H-bar, then a calibration and a test bank of M per epsilon
    realizations = RATE_M_EST + 2 * RATE_M * len(RATE_EPS)
    return Workload("rate1d-transport", realizations, spec, TRANSPORT, iterate, check,
                    notes={"estimate_box": est_box, "rate_box": rate_box,
                           "solves_per_iteration": 2 * RATE_M * len(RATE_EPS)})


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "mc1d-saddle": mc1d_saddle,
    "mc1d-pool": mc1d_pool,
    "field2d-saddle": field2d_saddle,
    "rate1d-transport": rate1d_transport,
}
