"""Monte-Carlo homogenization experiments.

Estimates U(t) = E[u_theta(t, 0, .)] over independent field realizations,
extracts the effective Hamiltonian with an honest bias band from the
almost-subadditive structure, and runs the empirical checks: concentration
tails, strip perturbation, subadditivity defects, and the epsilon-rate of
convergence to the homogenized limit.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import families
from .env import DomainError, replace_on_strip, sample_environment, with_seed
from .game import GameHamiltonian, ball_grid, certify_constants, shift_momentum
from .pde import (SolveConfig, reach, sl_plan, sl_step_cost, solve_effective, solve_sl,
                  solve_sl_batch)
from .rng import derive_seeds

#: sum_{k>=1} 2^{-k/2} sqrt(k+1); converts the per-pair defect constant into
#: the bias-band constant of the doubling argument
A_OVER_KHAT = float(sum(2.0 ** (-k / 2.0) * math.sqrt(k + 1.0)
                        for k in range(1, 200)))


@dataclass
class UTable:
    theta: np.ndarray
    times: list[float]
    samples: np.ndarray            # (n_times, M)
    base_seed: int
    beta: float                    # certified beta of the unshifted game

    @property
    def M(self) -> int:
        return self.samples.shape[1]

    def means(self) -> np.ndarray:
        # fsum in sample-index order: independent of worker scheduling
        return np.array([math.fsum(row) / len(row) for row in self.samples])

    def variances(self) -> np.ndarray:
        mu = self.means()
        return np.array([
            math.fsum((x - m) ** 2 for x in row) / max(len(row) - 1, 1)
            for row, m in zip(self.samples, mu)
        ])

    def stderr(self) -> np.ndarray:
        return np.sqrt(self.variances() / self.M)

    def to_dict(self) -> dict:
        return {
            "theta": list(np.atleast_1d(self.theta)),
            "times": list(self.times),
            "M": self.M,
            "base_seed": self.base_seed,
            "beta": self.beta,
            "means": list(self.means()),
            "variances": list(self.variances()),
            "samples": [list(row) for row in self.samples],
        }


@dataclass
class EffectiveEstimate:
    theta: np.ndarray
    H_hat: float
    ci_halfwidth: float
    bias_band: float
    mc_stderr: float
    times: list[float]
    ratio_sequence: list[float]          # -U(t)/t along the schedule
    rate_slope: float | None
    log_correction: bool
    K_hat_implied: float
    defects: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "theta": list(np.atleast_1d(self.theta)),
            "H_hat": self.H_hat,
            "ci_halfwidth": self.ci_halfwidth,
            "bias_band": self.bias_band,
            "mc_stderr": self.mc_stderr,
            "times": list(self.times),
            "ratio_sequence": self.ratio_sequence,
            "rate_slope": self.rate_slope,
            "log_correction": self.log_correction,
            "K_hat_implied": self.K_hat_implied,
            "defects": self.defects,
        }


# ---------------------------------------------------------------------------
# sampling

#: largest stacked cost table one batched solve may hold; more realizations
#: than fit are solved in several batches
BATCH_COST_BYTES = 64 * 2**20


def solve_box_for(f: np.ndarray, scheme: str, T: float, dt: float, dx: float,
                  report_radius: float = 0.0):
    """Box whose active window still covers B(report_radius) at time T.

    The window sheds ``pde.reach`` cells per step for the velocities f
    (pairs, d); the box keeps 4 dx to spare on each side.
    """
    steps = round(T / dt)
    below, above = reach(f, scheme, dt, dx)
    return (tuple(float(-report_radius - steps * b * dx - 4 * dx) for b in below),
            tuple(float(report_radius + steps * a * dx + 4 * dx) for a in above))


def _solve_batches(gh: GameHamiltonian, env_spec, seeds, theta, cfg: SolveConfig,
                   read) -> np.ndarray:
    """read(result) of batched SL solves of u_theta, one per seed of env_spec's law.

    The realizations share the stencil, so they are solved together, in
    batches whose stacked cost table fits BATCH_COST_BYTES; each batch is
    one seed-batched environment and one cost-table call.  read() maps a
    batch's result to an array whose last axis runs over the batch; the
    batches are joined along it.
    """
    plan = sl_plan(gh, cfg)
    shifted = shift_momentum(gh, theta)
    per = max(1, BATCH_COST_BYTES // plan.cost_bytes)
    parts = []
    for lo in range(0, len(seeds), per):
        env = sample_environment(env_spec, seeds[lo:lo + per])
        parts.append(read(solve_sl_batch(plan, sl_step_cost(shifted, env, plan))))
    return np.concatenate(parts, axis=-1)


def _campaign_chunk(args) -> np.ndarray:
    """u_theta(t, 0) at each recorded time for the given seeds: (n_times, seeds).

    ``game`` is a GameHamiltonian, or (family, params) to rebuild it by name
    in a pool worker.
    """
    game, env_spec, theta, cfg, seeds = args
    if not isinstance(game, GameHamiltonian):
        game = families.build(game[0], game[1], env_spec.dimension)
    origin = np.zeros(game.dim)
    return _solve_batches(game, env_spec, seeds, theta, cfg, lambda res: np.stack(
        [res.at_time(t).value_at(origin) for t in cfg.record_times]))


def estimate_U(gh: GameHamiltonian, env_spec, theta, times, M: int,
               base_seed: int, dx: float, dt: float,
               workers: int = 1, family_desc: tuple[str, dict] | None = None,
               box=None) -> UTable:
    """Monte-Carlo table of u_theta(t, 0, .) over M independent realizations.

    Sample i uses the derived seed mix(base_seed, i).  The realizations are
    solved as batches; with workers > 1 each pool worker takes one
    contiguous chunk and rebuilds the game from ``family_desc`` = (family,
    params), which must rebuild ``gh`` itself.  Every sample is its own
    realization's number, so the table does not depend on the worker count.
    """
    if workers > 1 and family_desc is None:
        raise ValueError(
            f"workers={workers} needs family_desc=(family, params) so that pool "
            f"workers can rebuild the game; pass it, or use workers=1"
        )
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    times = sorted(float(t) for t in times)
    seeds = derive_seeds(base_seed, np.arange(M))
    probe_env = sample_environment(with_seed(env_spec, int(seeds[0])))
    gh_b = families.bind_env_constants(gh, probe_env)
    consts = certify_constants(gh_b)
    consts.require_oriented()
    if box is None:
        box = solve_box_for(gh_b.f_pairs, "semi-lagrangian", max(times), dt, dx)
    _check_env_covers(env_spec, box)
    cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=max(times),
                      box_lo=box[0], box_hi=box[1], record_times=tuple(times))

    if workers > 1:
        _check_rebuilds(gh, family_desc, probe_env)
        chunks = [c for c in np.array_split(np.arange(M), workers) if len(c)]
        tasks = [(family_desc, env_spec, theta, cfg, seeds[c]) for c in chunks]
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            samples = np.concatenate(list(pool.map(_campaign_chunk, tasks)), axis=1)
    else:
        samples = _campaign_chunk((gh, env_spec, theta, cfg, seeds))

    bound = consts.beta * (1.0 + np.linalg.norm(theta))
    for k, t in enumerate(times):
        bad = np.abs(samples[k]) > bound * t + 1e-9
        if np.any(bad):
            raise AssertionError(
                f"a-priori bound violated at t={t}: |u|={np.abs(samples[k][bad]).max()} "
                f"> beta(1+|theta|)t={bound * t}"
            )
    return UTable(theta=theta, times=times, samples=samples,
                  base_seed=base_seed, beta=consts.beta)


def _check_rebuilds(gh: GameHamiltonian, family_desc, env) -> None:
    """Refuse a family_desc whose game is not gh, bit for bit, on env."""
    game = families.build(family_desc[0], family_desc[1], env.dimension)
    origin = np.zeros((1, gh.dim))

    def bits(g):
        arrays = (g.f_table, g.actions_a, g.actions_b, g.shift_table, g.cost(origin, env))
        return [None if a is None else (np.shape(a), np.asarray(a).tobytes()) for a in arrays]

    if bits(game) != bits(gh):
        raise ValueError(
            f"family_desc={family_desc!r} does not rebuild the given game (dynamics, "
            f"actions, momentum shift or cost at the origin differ), so pool workers "
            f"would solve another game; pass the matching family_desc, or use workers=1"
        )


def _check_env_covers(spec, box) -> None:
    lo, hi = (tuple(float(v) for v in b) for b in box)
    if np.any(np.subtract(spec.box_lo, lo) > 1e-9) or np.any(np.subtract(hi, spec.box_hi) > 1e-9):
        raise DomainError(
            f"environment box [{spec.box_lo}, {spec.box_hi}] does not cover the "
            f"required solve box [{lo}, {hi}]; enlarge it"
        )


def _ols(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, its standard error, r^2).

    The arithmetic is that of scipy.stats.linregress, so the results match
    it to the bit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) > 1 and np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a line when all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    df = len(x) - 2
    stderr = 0.0 if df == 0 else np.sqrt((1 - r**2) * ssym / ssxm / df)
    return float(ssxym / ssxm), float(stderr), float(r**2)


# ---------------------------------------------------------------------------
# concentration


def azuma_bound(increments, M: float) -> float:
    """Two-sided martingale tail bound 2 exp(-M^2 / (2 sum c_m^2))."""
    c = np.asarray(increments, dtype=np.float64)
    if np.any(c < 0):
        raise ValueError("bounded-difference constants must be nonnegative")
    s = float(np.sum(c**2))
    if s == 0.0:
        return 2.0 if M <= 0 else 0.0
    return 2.0 * math.exp(-(M**2) / (2.0 * s))


def check_concentration(table: UTable, t: float, M_grid) -> dict:
    """Empirical tail frequencies P(|u - mean| >= M sqrt(t)) over an M-grid.

    Asserts qualitative sub-Gaussian shape (monotone tails, concave
    log-tails in M) rather than a specific constant, which the theory leaves
    existential.  The fitted c comes from regressing log-frequency on M^2.
    """
    k = table.times.index(t)
    u = table.samples[k]
    mu = table.means()[k]
    dev = np.abs(u - mu)
    M_grid = sorted(float(m) for m in M_grid)
    freqs = [float(np.mean(dev >= m * math.sqrt(t))) for m in M_grid]
    n = len(u)
    under_powered = n * freqs[-1] < 10 if freqs else True

    pos = [(m, f) for m, f in zip(M_grid, freqs) if f > 0]
    c_hat = None
    if len(pos) >= 2:
        xs = np.array([m**2 for m, _ in pos])
        ys = np.log([f for _, f in pos])
        c_hat = -_ols(xs, ys)[0]

    monotone = all(f1 >= f2 - 1e-12 for f1, f2 in zip(freqs, freqs[1:]))
    logs = [math.log(f) for f in freqs if f > 0]
    concave = True
    ms = [m for m, f in zip(M_grid, freqs) if f > 0]
    fs = [f for f in freqs if f > 0]
    for i in range(1, len(logs) - 1):
        h1, h2 = ms[i] - ms[i - 1], ms[i + 1] - ms[i]
        second = (logs[i + 1] - logs[i]) / h2 - (logs[i] - logs[i - 1]) / h1
        # binomial noise of the three log-frequencies, propagated
        sig = math.sqrt(sum((1.0 - f) / (f * n) for f in fs[i - 1:i + 2]))
        slack = 3.0 * sig * (1.0 / h1 + 1.0 / h2)
        if second > slack:
            concave = False
    return {
        "t": t,
        "M_grid": M_grid,
        "tail_freqs": freqs,
        "c_hat": c_hat,
        "monotone": monotone,
        "log_tail_concave": concave,
        "under_powered": bool(under_powered),
        "n_samples": n,
    }


def additive_surrogate_tails(t: int, n_samples: int, M_grid, seed: int = 0) -> dict:
    """Direct simulation of the i.i.d.-increment surrogate (sums of uniforms)."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(n_samples, int(t))).sum(axis=1)
    dev = np.abs(u - u.mean())
    M_grid = sorted(float(m) for m in M_grid)
    freqs = [float(np.mean(dev >= m * math.sqrt(t))) for m in M_grid]
    pos = [(m, f) for m, f in zip(M_grid, freqs) if f > 0]
    xs = np.array([m**2 for m, _ in pos])
    ys = np.log([f for _, f in pos])
    slope, _, r2 = _ols(xs, ys)
    return {
        "t": t,
        "M_grid": M_grid,
        "tail_freqs": freqs,
        "slope": slope,
        "r2": r2,
        "c_hat": -slope,
    }


# ---------------------------------------------------------------------------
# strip perturbation


def strip_experiment(gh: GameHamiltonian, env, lo: float, hi: float, shift,
                     theta, t: float, dx: float, dt: float, box,
                     e=None) -> dict:
    """Observed vs analytic bound for a strip-localized cost perturbation.

    bound = (hi - lo) / delta * sup|l - l_hat|, the crossing-time estimate
    for oriented dynamics; sup is estimated by dense probing in the strip.
    """
    gh_b = families.bind_env_constants(gh, env)
    consts = certify_constants(gh_b, e=e)
    consts.require_oriented()
    if lo >= hi:
        raise ValueError(f"degenerate strip: lo={lo} >= hi={hi}")
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    env_hat = replace_on_strip(env, lo, hi, consts.e, shift)

    cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=t,
                      box_lo=box[0], box_hi=box[1])
    shifted = shift_momentum(gh_b, np.atleast_1d(theta))
    u, u_hat = (solve_sl(shifted, field, cfg).final.active_values() for field in (env, env_hat))
    observed = float(np.max(np.abs(u - u_hat)))

    d = gh.dim
    rng = np.random.default_rng(12345)
    n_probe = 2000
    pts = rng.uniform(np.asarray(box[0]), np.asarray(box[1]), size=(n_probe, d))
    span = pts @ consts.e
    pts = pts[(span >= lo) & (span <= hi)]
    if len(pts):
        dl = np.max(np.abs(env.values(pts) - env_hat.values(pts)))
    else:
        dl = 0.0
    bound = (hi - lo) / consts.delta * float(dl)
    return {
        "observed": observed,
        "bound": bound,
        "delta": consts.delta,
        "strip_width": hi - lo,
        "cost_gap_sup": float(dl),
    }


# ---------------------------------------------------------------------------
# effective Hamiltonian extraction


def subadditivity_defects(table: UTable) -> list[dict]:
    """Defects D(m,n) = U(m) + U(n) - U(m+n), normalized by sqrt(n ln n).

    Per-sample defects are used for the Monte-Carlo error so that the
    correlation between times of the same realization is accounted for.
    """
    times = table.times
    idx = {t: k for k, t in enumerate(times)}
    rows = []
    for i, m in enumerate(times):
        for n in times[i:]:
            tot = m + n
            if tot not in idx:
                continue
            d_i = (table.samples[idx[m]] + table.samples[idx[n]]
                   - table.samples[idx[tot]])
            n_err = min(m, n)
            norm = math.sqrt(n_err * max(math.log(n_err), math.log(2.0)))
            rows.append({
                "m": m,
                "n": n,
                "defect": float(np.mean(d_i)),
                "defect_se": float(np.std(d_i, ddof=1) / math.sqrt(len(d_i)))
                if len(d_i) > 1 else 0.0,
                "normalized": float(np.mean(d_i) / norm),
                "normalized_se": float(np.std(d_i, ddof=1) / math.sqrt(len(d_i)) / norm)
                if len(d_i) > 1 else 0.0,
            })
    return rows


def check_subadditivity(table: UTable) -> dict:
    """Implied K-hat per defect pair and a stability (no-growth) verdict."""
    rows = subadditivity_defects(table)
    if not rows:
        raise ValueError("schedule has no pairwise-summable times")
    doubling = sorted((r for r in rows if r["m"] == r["n"]), key=lambda r: r["n"])
    stable = True
    for r0, r1 in zip(doubling, doubling[1:]):
        slack = 2.0 * (r0["normalized_se"] + r1["normalized_se"])
        if r1["normalized"] > r0["normalized"] + slack + 1e-12:
            stable = False
    implied = max((r["normalized"] for r in rows), default=0.0)
    return {
        "defects": rows,
        "K_hat_implied": float(max(implied, 0.0)),
        "stable": stable,
    }


def extract_effective_H(table: UTable, K_hat: float | None = None) -> EffectiveEstimate:
    """Effective Hamiltonian at theta with an honest confidence band.

    H_hat = -U(t_max)/t_max; the bias band A (ln t / t)^(1/2) uses A fitted
    from the doubling defects (A = K_hat * sum 2^{-k/2} sqrt(k+1)), and the
    Monte-Carlo standard error is added on top.
    """
    if len(table.times) < 3:
        raise ValueError("need at least 3 schedule points to fit a rate")
    mu = table.means()
    se = table.stderr()
    t_max = table.times[-1]
    H_hat = -float(mu[-1]) / t_max
    sub = check_subadditivity(table)
    if K_hat is None:
        # defect noise floor: do not let pure MC noise zero the band
        noise = max((r["normalized_se"] for r in sub["defects"]), default=0.0)
        K_hat = max(sub["K_hat_implied"], noise)
    bias = K_hat * A_OVER_KHAT * math.sqrt(max(math.log(t_max), math.log(2.0)) / t_max)
    mc = float(se[-1]) / t_max
    ratios = [-float(m) / t for m, t in zip(mu, table.times)]

    errs = [abs(r - H_hat) for r in ratios[:-1]]
    ts = table.times[:-1]
    pos = [(t, e) for t, e in zip(ts, errs) if e > 0]
    slope = None
    if len(pos) >= 2:
        slope = _ols(np.log([t for t, _ in pos]), np.log([e for _, e in pos]))[0]
    return EffectiveEstimate(
        theta=table.theta,
        H_hat=H_hat,
        ci_halfwidth=bias + 3.0 * mc,
        bias_band=bias,
        mc_stderr=mc,
        times=list(table.times),
        ratio_sequence=ratios,
        rate_slope=slope,
        log_correction=True,
        K_hat_implied=float(sub["K_hat_implied"]),
        defects=sub["defects"],
    )


def synthetic_table(times, h: float, noise: float = 0.0, M: int = 1,
                    seed: int = 0, beta: float = 10.0) -> UTable:
    """Planted almost-subadditive sequence U(n) = -n h + sqrt(n ln n)."""
    rng = np.random.default_rng(seed)
    times = sorted(float(t) for t in times)
    rows = []
    for t in times:
        base = -t * h + math.sqrt(t * max(math.log(t), math.log(2.0)))
        rows.append(base + noise * rng.normal(size=M))
    return UTable(theta=np.zeros(1), times=times, samples=np.stack(rows),
                  base_seed=seed, beta=beta)


def effective_H_properties(estimates: list[EffectiveEstimate], beta: float) -> dict:
    """Growth and momentum-Lipschitz checks for the extracted table."""
    growth_ok = True
    lip_ok = True
    worst_growth = -np.inf
    worst_lip = -np.inf
    for est in estimates:
        th = np.linalg.norm(np.atleast_1d(est.theta))
        excess = abs(est.H_hat) - beta * (1.0 + th) - est.ci_halfwidth
        worst_growth = max(worst_growth, excess)
        if excess > 0:
            growth_ok = False
    for i, e1 in enumerate(estimates):
        for e2 in estimates[i + 1:]:
            dth = np.linalg.norm(np.atleast_1d(e1.theta) - np.atleast_1d(e2.theta))
            excess = (abs(e1.H_hat - e2.H_hat) - beta * dth
                      - e1.ci_halfwidth - e2.ci_halfwidth)
            worst_lip = max(worst_lip, excess)
            if excess > 0:
                lip_ok = False
    return {
        "growth_ok": growth_ok,
        "lipschitz_ok": lip_ok,
        "worst_growth_excess": float(worst_growth),
        "worst_lipschitz_excess": float(worst_lip),
    }


# ---------------------------------------------------------------------------
# epsilon-rate


def _sup_errors(gh: GameHamiltonian, env_spec, seeds, theta, eps: float, R: float,
                T: float, H_bar: float, dx: float, dt: float,
                n_t: int = 8, n_x: int = 9) -> np.ndarray:
    """Per seed of env_spec's law, sup over a [0,T] x B_R grid of
    |eps u(t/eps, x/eps) + t H_bar|."""
    t_top = T / eps
    times = [t_top * j / n_t for j in range(1, n_t + 1)]
    box = solve_box_for(gh.f_pairs, "semi-lagrangian", t_top, dt, dx, report_radius=R / eps)
    cfg = SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=t_top,
                      box_lo=box[0], box_hi=box[1], record_times=tuple(times))
    xg = ball_grid(R, n_x, gh.dim)

    def read(res) -> np.ndarray:
        worst = 0.0
        for tj, t_un in zip([T * j / n_t for j in range(1, n_t + 1)], times):
            val = eps * res.at_time(t_un).value_at(xg / eps) + tj * H_bar
            worst = np.maximum(worst, np.abs(val).max(axis=-1))
        return worst

    return _solve_batches(gh, env_spec, seeds, theta, cfg, read)


def rate_experiment(gh: GameHamiltonian, env_spec, theta, eps_list, R: float,
                    T: float, M: int, H_bar: float, dx: float, dt: float,
                    base_seed: int, K_hat: float | None = None,
                    calibration_fraction: float = 1.0,
                    slope_band=(0.35, 0.65)) -> dict:
    """Convergence-rate study for linear data.

    Per epsilon, per sample: sup over [0,T] x B_R of the distance between
    the scaled solution and its homogenized limit; reports quantiles, the
    log-log slope of the median against epsilon, and the exceedance of the
    split-sample calibrated threshold K_hat sqrt(-eps ln eps).
    """
    eps_list = sorted(float(e) for e in eps_list)
    if any(e > 0.5 for e in eps_list):
        raise ValueError("epsilon must be <= 1/2 (outside the valid range)")
    if len(set(eps_list)) < 2:
        raise ValueError(f"eps_list needs at least two distinct epsilons to fit a rate, "
                         f"got {eps_list}")
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))

    # one batch per epsilon: the calibration samples (tag 1), then the test
    # samples (tag 2); every epsilon's seeds come from one call
    m_cal = max(4, int(M * calibration_fraction)) if K_hat is None else 0
    tags = np.repeat([1, 2], [m_cal, M])
    index = np.concatenate([np.arange(m_cal), np.arange(M)])
    seeds = derive_seeds(base_seed, tags, np.arange(len(eps_list))[:, None], index)
    cal, test = {}, {}
    for eps, bank in zip(eps_list, seeds):
        cal[eps], test[eps] = np.split(
            _sup_errors(gh, env_spec, bank, theta, eps, R, T, H_bar, dx, dt), [m_cal])

    if K_hat is None:
        ratios = np.concatenate([
            cal[eps] / math.sqrt(-eps * math.log(eps)) for eps in eps_list
        ])
        K_hat = 1.25 * float(ratios.max())

    medians = {eps: float(np.median(test[eps])) for eps in eps_list}
    spread = all(np.std(test[eps]) > 1e-12 or medians[eps] > 1e-12
                 for eps in eps_list)
    degenerate = not spread

    slope = None
    slope_se = None
    conclusive = False
    in_band = False
    if not degenerate and all(medians[eps] > 0 for eps in eps_list):
        xs = np.log(eps_list)
        ys = np.log([medians[e] for e in eps_list])
        slope = _ols(xs, ys)[0]
        # bootstrap the medians for an honest slope uncertainty; one
        # integers() call draws the indices, in the same order, of 200 rounds
        # of one choice(test[eps], M, replace=True) call per epsilon
        rng = np.random.default_rng(base_seed)
        banks = np.stack([test[eps] for eps in eps_list])
        idx = rng.integers(0, M, size=(200,) + banks.shape)
        meds = np.median(np.take_along_axis(banks[None], idx, axis=-1), axis=-1)
        boots = [_ols(xs, [math.log(max(m, 1e-300)) for m in row])[0] for row in meds]
        slope_se = float(np.std(boots))
        in_band = slope_band[0] <= slope <= slope_band[1]
        conclusive = in_band or slope_se < 0.1

    exceedance = {
        eps: float(np.mean(test[eps] > K_hat * math.sqrt(-eps * math.log(eps))))
        for eps in eps_list
    }
    exceedance_ok = all(exceedance[eps] <= 5.0 * eps**2 + 1e-12 for eps in eps_list)
    return {
        "eps_list": eps_list,
        "medians": medians,
        "quantiles": {eps: [float(np.quantile(test[eps], q))
                            for q in (0.1, 0.5, 0.9)] for eps in eps_list},
        "slope": slope,
        "slope_se": slope_se,
        "in_band": in_band,
        "conclusive": conclusive,
        "degenerate": degenerate,
        "K_hat": float(K_hat),
        "exceedance": exceedance,
        "exceedance_ok": exceedance_ok,
    }


# ---------------------------------------------------------------------------
# general initial data


def general_datum_homogenization(gh: GameHamiltonian, env, H_bar_grid,
                                 H_bar_vals, g, speed_bound: float,
                                 eps_list, R: float, T: float,
                                 dx0: float, dt0: float) -> dict:
    """Scaled solves with a general UC datum against the effective equation.

    The effective problem du/dt + Hbar(Du) = 0 is solved by Lax-Friedrichs
    with Hbar interpolated from the supplied momentum table; the sup
    distance on [0, T] x B_R must decrease along the epsilon list.
    """
    H_bar_grid = np.asarray(H_bar_grid, dtype=np.float64)
    H_bar_vals = np.asarray(H_bar_vals, dtype=np.float64)

    def H_of_p(P):
        p = np.atleast_2d(P)[:, 0]
        if np.any(p < H_bar_grid[0] - 1e-9) or np.any(p > H_bar_grid[-1] + 1e-9):
            raise ValueError(
                f"momentum excursion [{p.min()}, {p.max()}] beyond the Hbar "
                f"table range [{H_bar_grid[0]}, {H_bar_grid[-1]}]"
            )
        return np.interp(p, H_bar_grid, H_bar_vals)

    gh_b = families.bind_env_constants(gh, env)
    d = gh_b.dim

    # the effective solve is refined relative to the scaled runs so that its
    # own scheme error does not mask the epsilon-trend being measured
    dx_eff = dx0 / 4.0
    box = solve_box_for(np.full((1, d), speed_bound), "lax-friedrichs", T, dt0, dx_eff, R)
    eff_cfg = SolveConfig(scheme="lax-friedrichs", dt=dt0, dx=dx_eff, T=T,
                          box_lo=box[0], box_hi=box[1], record_times=(T,))
    eff = solve_effective(H_of_p, speed_bound, eff_cfg, g)

    dists = {}
    for eps in sorted(eps_list, reverse=True):
        box = solve_box_for(gh_b.f_pairs, "semi-lagrangian", T, dt0 * eps, dx0 * eps, R)
        cfg = SolveConfig(scheme="semi-lagrangian", dt=dt0 * eps, dx=dx0 * eps,
                          T=T, box_lo=box[0], box_hi=box[1], epsilon=eps,
                          record_times=(T,))
        res = solve_sl(gh_b, env, cfg, g)
        xx = np.zeros((17, d))
        xx[:, 0] = np.linspace(-R, R, 17)
        dists[eps] = float(np.max(np.abs(res.final.value_at(xx) - eff.final.value_at(xx))))
    eps_sorted = sorted(dists, reverse=True)
    # a single realization fluctuates, so strict per-step monotonicity is not
    # expected; the trend check compares the endpoints and flags the rest
    decreasing = dists[eps_sorted[-1]] < dists[eps_sorted[0]]
    monotone = all(dists[e2] <= dists[e1] * 1.1 + 1e-9
                   for e1, e2 in zip(eps_sorted, eps_sorted[1:]))
    return {"distances": dists, "decreasing": decreasing, "monotone": monotone}
