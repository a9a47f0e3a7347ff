"""Monte-Carlo homogenization experiments.

Estimates U(t) = E[u_theta(t, 0, .)] over independent field realizations,
extracts the effective Hamiltonian with an honest bias band from the
almost-subadditive structure, and runs the empirical checks: concentration
tails, strip perturbation, subadditivity defects, and the epsilon-rate of
convergence to the homogenized limit.
"""
from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import families, pde
from .env import DomainError, replace_on_strip, sample_environment, with_seed
from .game import GameHamiltonian, ball_grid, certify_constants, shift_momentum, velocities
from .pde import (SolveConfig, probe_stencil, reach, sl_plan, sl_step_cost, solve_sl,
                  solve_sl_batch)
from .rng import derive_seeds

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: sum_{k>=1} 2^{-k/2} sqrt(k+1); converts the per-pair defect constant into
#: the bias-band constant of the doubling argument
A_OVER_KHAT = float(sum(2.0 ** (-k / 2.0) * math.sqrt(k + 1.0)
                        for k in range(1, 200)))

#: slopes of log median error against log epsilon that confirm the
#: eps^{1/2} rate, up to its log factor
SLOPE_BAND = (0.35, 0.65)


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
        return {**asdict(self), "theta": list(np.atleast_1d(self.theta))}


# ---------------------------------------------------------------------------
# sampling

def solve_box_for(gh: GameHamiltonian, scheme: str, T: float, dt: float, dx: float,
                  report_radius: float = 0.0):
    """Box whose active window still covers B(report_radius) at time T.

    The window sheds ``pde.reach`` cells per step for the game's motion
    (``velocities``); the box keeps 4 dx to spare on each side.
    """
    steps = round(T / dt)
    below, above = reach(velocities(gh), scheme, dt, dx)
    return (tuple(float(-report_radius - steps * b * dx - 4 * dx) for b in below),
            tuple(float(report_radius + steps * a * dx + 4 * dx) for a in above))


def _campaign_config(gh: GameHamiltonian, env_spec, times, dt: float, dx: float,
                     report_radius: float = 0.0, box=None) -> SolveConfig:
    """A campaign's SL solve: to the last of the ascending record times, on
    ``box``, or else on the ``solve_box_for`` box that still covers
    B(report_radius) then; refuses (DomainError) a field box that misses it."""
    if box is None:
        box = solve_box_for(gh, "semi-lagrangian", times[-1], dt, dx, report_radius)
    lo, hi = (tuple(float(v) for v in b) for b in box)
    if (np.any(np.subtract(env_spec.box_lo, lo) > 1e-9)
            or np.any(np.subtract(hi, env_spec.box_hi) > 1e-9)):
        raise DomainError(
            f"environment box [{env_spec.box_lo}, {env_spec.box_hi}] does not cover the "
            f"required solve box [{lo}, {hi}]; enlarge it"
        )
    return SolveConfig(scheme="semi-lagrangian", dt=dt, dx=dx, T=times[-1],
                       box_lo=box[0], box_hi=box[1], record_times=tuple(times))


#: the process's campaign pool, (chunk count N, its N - 1 processes, the
#: caller's end of each one's pipe).  The first pooled call starts it, a call
#: with another chunk count replaces it, and a call that a dead worker or any
#: exception ends between its sends and its last receive drops it; its
#: daemon processes end with the interpreter.  A pooled call holds _POOL_LOCK
#: from look-up to result, so that no other thread replaces the pool under
#: it.  multiprocessing loads with the first pooled call.
_POOL: tuple[int, list[BaseProcess], list[Connection]] | None = None
_POOL_LOCK = threading.Lock()


def _pool(n_chunks: int) -> list[Connection]:
    """The caller's pipe ends to the campaign pool's `n_chunks` - 1 processes;
    call it holding _POOL_LOCK."""
    import multiprocessing

    global _POOL
    if _POOL is None or _POOL[0] != n_chunks:
        _shutdown_pool()
        procs, conns = [], []
        for _ in range(n_chunks - 1):
            mine, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_serve, args=(theirs, mine), daemon=True)
            proc.start()
            theirs.close()
            procs.append(proc)
            conns.append(mine)
        _POOL = (n_chunks, procs, conns)
    return _POOL[2]


def _shutdown_pool() -> None:
    """Stop the campaign pool's workers, if any; the next pooled call starts a new pool."""
    global _POOL
    if _POOL is not None:
        (_, procs, conns), _POOL = _POOL, None
        for proc, conn in zip(procs, conns):
            conn.close()
            proc.terminate()
        for proc in procs:
            proc.join()


def _serve(conn: Connection, caller_end: Connection) -> None:
    """A pool worker: solve each chunk the caller sends, and reply with its
    array or with the exception it raised, until its pipe reads end-of-file.
    A forked worker closes its copy of the caller's end first, so that the
    pipe reads end-of-file once the caller is gone, even if killed."""
    caller_end.close()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            reply = _solve_batches(*task)
        except Exception as exc:          # the caller raises it
            reply = exc
        conn.send(reply)


def _solve_batches(game, env_spec, seeds, theta, cfg: SolveConfig, probes,
                   workers: int = 1) -> np.ndarray:
    """u_theta at the probes (n, d) at each record time, per seed of env_spec's law.

    Returns (n_times, n, len(seeds)); column m is realization seeds[m]'s own
    number.  ``game`` is a GameHamiltonian, or (family, params) to rebuild it
    by name; with workers > 1 it must be the latter, and the seeds split into
    min(workers, len(seeds)) contiguous chunks: the caller solves the first,
    and each of the others goes to one process of a campaign pool sized to
    them, over its pipe; a single chunk needs no pool.  A refusal in any
    chunk is raised once every reply is in, the first chunk's first.
    The realizations share the stencil, so they are solved together, in
    batches whose stacked cost table fits ``pde.BATCH_COST_BYTES``, the one
    bound on a pass; each batch is one seed-batched environment, hashed in
    one pass, and one cost-table call.  The batch's environment is freed
    before the march, which reads the probes (one ``probe_stencil`` per
    call) and builds no Field.
    """
    n_chunks = min(workers, len(seeds))
    if n_chunks > 1:
        first, *rest = np.array_split(seeds, n_chunks)
        with _POOL_LOCK:
            conns = _pool(n_chunks)
            try:
                for conn, chunk in zip(conns, rest):
                    conn.send((game, env_spec, chunk, theta, cfg, probes))
                try:
                    mine = _solve_batches(game, env_spec, first, theta, cfg, probes)
                except Exception as exc:  # raised below, once the pipes are drained
                    mine = exc
                parts = [mine] + [conn.recv() for conn in conns]
            except (EOFError, OSError):
                # a worker died; its pipe no longer answers
                _shutdown_pool()
                from concurrent.futures.process import BrokenProcessPool
                raise BrokenProcessPool("a campaign pool worker died")
            except BaseException:
                # the replies still in flight would answer the next call
                _shutdown_pool()
                raise
        for part in parts:
            if isinstance(part, Exception):
                raise part
        return np.concatenate(parts, axis=-1)
    if not isinstance(game, GameHamiltonian):
        game = families.build(game[0], game[1], env_spec.dimension)
    plan = sl_plan(game, cfg)
    shifted = shift_momentum(game, theta)
    per = max(1, pde.BATCH_COST_BYTES // plan.cost_bytes)
    stencil = probe_stencil(cfg.grid, probes)
    parts = []
    for lo in range(0, len(seeds), per):
        step_cost = sl_step_cost(shifted, sample_environment(env_spec, seeds[lo:lo + per]), plan)
        res = solve_sl_batch(plan, step_cost, probes=stencil)
        parts.append(np.stack([res.at_time(t) for t in cfg.record_times]))
    return np.concatenate(parts, axis=-1)


def _certified(gh: GameHamiltonian, env):
    """gh with env's cost certificates bound, and its constants.

    Refuses (OrientationError) a game that is not oriented along its
    orientation hint.
    """
    gh_b = families.bind_env_constants(gh, env)
    consts = certify_constants(gh_b)
    consts.require_oriented()
    return gh_b, consts


def estimate_U(gh: GameHamiltonian, env_spec, theta, times, M: int,
               base_seed: int, dx: float, dt: float,
               workers: int = 1, family_desc: tuple[str, dict] | None = None,
               box=None) -> UTable:
    """Monte-Carlo table of u_theta(t, 0, .) over M independent realizations.

    Sample i uses the derived seed mix(base_seed, i).  The realizations are
    solved as batches; with workers > 1 they split into at most `workers`
    contiguous chunks, one for the caller and one for each pool process, and
    the game is rebuilt from ``family_desc`` = (family, params), which must
    rebuild ``gh`` itself.  Every sample is its own realization's number, so
    the table does not depend on the worker count.
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
    gh_b, consts = _certified(gh, probe_env)
    cfg = _campaign_config(gh_b, env_spec, times, dt, dx, box=box)
    game = gh
    if workers > 1:
        _check_rebuilds(gh, family_desc, probe_env)
        game = family_desc
    samples = _solve_batches(game, env_spec, seeds, theta, cfg, np.zeros((1, gh.dim)),
                             workers)[:, 0]

    bound = consts.beta * (1.0 + math.hypot(*theta))
    for k, t in enumerate(times):
        if not (math.isfinite(bound * t) and np.isfinite(samples[k]).all()):
            raise AssertionError(
                f"a-priori bound check needs finite numbers at t={t}: beta(1+|theta|)t="
                f"{bound * t}, samples in [{samples[k].min()}, {samples[k].max()}]"
            )
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
        arrays = (g.f_table, g.n_b, g.shift_table, g.cost(origin, env))
        return [None if a is None else (np.shape(a), np.asarray(a).tobytes()) for a in arrays]

    if bits(game) != bits(gh):
        raise ValueError(
            f"family_desc={family_desc!r} does not rebuild the given game (dynamics, "
            f"action counts, momentum shift or cost at the origin differ), so pool workers "
            f"would solve another game; pass the matching family_desc, or use workers=1"
        )


def _covariances(x, Y) -> np.ndarray:
    """np.cov(x, y, bias=1) for every row y of Y (R, n), written out: (R, 2, 2).

    One (R, 2, n) table is centred and multiplied by its transpose in one
    stacked product, the same arithmetic, row by row, as np.cov's.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n > 1 and np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a line when all x values are identical")
    Z = np.empty((len(Y), 2, n))
    Z[:, 0] = x
    Z[:, 1] = Y
    Z -= Z.mean(axis=2)[..., None]
    c = np.matmul(Z, np.swapaxes(Z, 1, 2).conj())
    c *= np.true_divide(1, n)
    return c


def _slopes(x, Y) -> np.ndarray:
    """The least-squares slope of every row y of Y (R, n) against x, in one fit.

    Each is cov(x, y) / var(x), the arithmetic of scipy.stats.linregress's
    slope, so it matches that to the bit.
    """
    c = _covariances(x, Y)
    return c[:, 0, 1] / c[:, 0, 0]


# ---------------------------------------------------------------------------
# concentration


def _tail_fit(dev: np.ndarray, t: float, M_grid):
    """Sorted M-grid, tail frequencies P(dev >= M sqrt(t)) on it, and the
    (M^2, log f) points of the positive frequencies, for a log-tail fit."""
    M_grid = sorted(float(m) for m in M_grid)
    freqs = [float(np.mean(dev >= m * math.sqrt(t))) for m in M_grid]
    pos = [(m, f) for m, f in zip(M_grid, freqs) if f > 0]
    return M_grid, freqs, np.array([m**2 for m, _ in pos]), np.log([f for _, f in pos])


def check_concentration(table: UTable, t: float, M_grid) -> dict:
    """Empirical tail frequencies P(|u - mean| >= M sqrt(t)) over an M-grid.

    Asserts qualitative sub-Gaussian shape (monotone tails, concave
    log-tails in M) rather than a specific constant, which the theory leaves
    existential.  The fitted c comes from regressing log-frequency on M^2.
    """
    k = table.times.index(t)
    u = table.samples[k]
    mu = table.means()[k]
    M_grid, freqs, xs, ys = _tail_fit(np.abs(u - mu), t, M_grid)
    n = len(u)
    under_powered = n * freqs[-1] < 10 if freqs else True
    c_hat = -float(_slopes(xs, [ys])[0]) if len(xs) >= 2 else None

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


# ---------------------------------------------------------------------------
# strip perturbation


def strip_experiment(gh: GameHamiltonian, env, lo: float, hi: float, shift,
                     theta, t: float, dx: float, dt: float, box) -> dict:
    """Observed vs analytic bound for a strip-localized cost perturbation.

    The strip {lo <= <x, e> <= hi} is taken along the game's orientation
    hint e.  bound = (hi - lo) / delta * sup|l - l_hat|, the crossing-time
    estimate for oriented dynamics; sup is estimated by dense probing in
    the strip.
    """
    gh_b, consts = _certified(gh, env)
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


def _summable_pairs(times) -> list[tuple[int, int, int]]:
    """Indices (i, j, k), i <= j, of the schedule's times with m + n on it:
    times[i] + times[j] = times[k] within the time grid's tolerance,
    1e-9 max(1, m + n); on a dt = 0.1 grid, 0.1 + 0.2 is not 0.3."""
    triples = []
    for i, m in enumerate(times):
        for j, n in enumerate(times[i:], start=i):
            tot = m + n
            at = [k for k, t in enumerate(times) if abs(t - tot) <= 1e-9 * max(1.0, tot)]
            if at:
                triples.append((i, j, at[0]))
    return triples


def require_rate_schedule(times) -> None:
    """Refuses (ValueError) an ascending schedule that ``extract_effective_H``
    cannot fit: fewer than 3 times, or no pair of them with m + n on it."""
    if len(times) < 3:
        raise ValueError("need at least 3 schedule points to fit a rate")
    if not _summable_pairs(times):
        raise ValueError("schedule has no pairwise-summable times")


def subadditivity_defects(table: UTable) -> list[dict]:
    """Defects D(m,n) = U(m) + U(n) - U(m+n), normalized by sqrt(n ln n),
    for each ``_summable_pairs`` pair of the schedule.

    Per-sample defects are used for the Monte-Carlo error so that the
    correlation between times of the same realization is accounted for.
    """
    times = table.times
    rows = []
    for i, j, k in _summable_pairs(times):
        m, n = times[i], times[j]
        d_i = table.samples[i] + table.samples[j] - table.samples[k]
        n_err = min(m, n)
        norm = math.sqrt(n_err * max(math.log(n_err), math.log(2.0)))
        mean = float(np.mean(d_i))
        se = float(np.std(d_i, ddof=1) / math.sqrt(len(d_i))) if len(d_i) > 1 else 0.0
        rows.append({"m": m, "n": n, "defect": mean, "defect_se": se,
                     "normalized": mean / norm, "normalized_se": se / norm})
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


def extract_effective_H(table: UTable) -> EffectiveEstimate:
    """Effective Hamiltonian at theta with an honest confidence band.

    H_hat = -U(t_max)/t_max; the bias band A (ln t / t)^(1/2) uses A fitted
    from the doubling defects (A = K_hat * sum 2^{-k/2} sqrt(k+1)), and the
    Monte-Carlo standard error is added on top.
    """
    require_rate_schedule(table.times)
    mu = table.means()
    se = table.stderr()
    t_max = table.times[-1]
    H_hat = -float(mu[-1]) / t_max
    sub = check_subadditivity(table)
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
        slope = float(_slopes(np.log([t for t, _ in pos]), [np.log([e for _, e in pos])])[0])
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


def rate_times(T: float, eps: float) -> tuple[float, tuple[float, ...]]:
    """The horizon T/eps of the eps rate solve, and its 8 record times up to it."""
    t_top = T / eps
    return t_top, tuple(t_top * j / 8 for j in range(1, 9))


def rate_config(gh: GameHamiltonian, env_spec, eps: float, R: float, T: float, dx: float,
                dt: float) -> SolveConfig:
    """The eps rate solve: to T/eps, recorded at the ``rate_times``, on a box whose
    window still covers B(R/eps); refuses (DomainError) a field box that misses it."""
    return _campaign_config(gh, env_spec, rate_times(T, eps)[1], dt, dx, report_radius=R / eps)


def _sup_errors(gh: GameHamiltonian, env_spec, seeds, theta, eps: float, R: float,
                T: float, H_bar: float, dx: float, dt: float) -> np.ndarray:
    """Per seed of env_spec's law, sup over a [0,T] x B_R grid of
    |eps u(t/eps, x/eps) + t H_bar|: the ``rate_times``, 9 points per axis."""
    cfg = rate_config(gh, env_spec, eps, R, T, dx, dt)    # eps ascends: the widest box first
    n_t = len(cfg.record_times)
    u = _solve_batches(gh, env_spec, seeds, theta, cfg, ball_grid(R, 9, gh.dim) / eps)
    tj = np.array([T * j / n_t for j in range(1, n_t + 1)])
    return np.abs(eps * u + tj[:, None, None] * H_bar).max(axis=(0, 1))


def require_eps_list(eps_list) -> None:
    """Refuses (ValueError) an eps_list that ``rate_experiment`` cannot run: an
    epsilon outside (0, 1/2], or fewer than two distinct epsilons to fit a rate."""
    if any(not 0 < e <= 0.5 for e in eps_list):
        raise ValueError(f"every epsilon must lie in (0, 1/2], got {list(eps_list)}")
    if len(set(eps_list)) < 2:
        raise ValueError(f"needs two distinct epsilons to fit a rate, got eps_list {list(eps_list)}")


def rate_experiment(gh: GameHamiltonian, env_spec, theta, eps_list, R: float,
                    T: float, M: int, H_bar: float, dx: float, dt: float,
                    base_seed: int) -> dict:
    """Convergence-rate study for linear data.

    Per epsilon, per sample: sup over [0,T] x B_R of the distance between
    the scaled solution and its homogenized limit; reports quantiles, the
    log-log slope of the median against epsilon (in SLOPE_BAND or not), and
    the exceedance of the threshold K_hat sqrt(-eps ln eps), with K_hat
    calibrated on a separate bank of max(4, M) seeds per epsilon.
    """
    require_eps_list(eps_list)
    eps_list = sorted(float(e) for e in eps_list)
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    _certified(gh, sample_environment(env_spec))

    # one batch per epsilon: the calibration samples (tag 1), then the test
    # samples (tag 2); every epsilon's seeds come from one call
    m_cal = max(4, M)
    tags = np.repeat([1, 2], [m_cal, M])
    index = np.concatenate([np.arange(m_cal), np.arange(M)])
    seeds = derive_seeds(base_seed, tags, np.arange(len(eps_list))[:, None], index)
    cal, test = {}, {}
    for eps, bank in zip(eps_list, seeds):
        cal[eps], test[eps] = np.split(
            _sup_errors(gh, env_spec, bank, theta, eps, R, T, H_bar, dx, dt), [m_cal])

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
        slope = float(_slopes(xs, [ys])[0])
        # bootstrap the medians for an honest slope uncertainty; one
        # integers() call draws the indices, in the same order, of 200 rounds
        # of one choice(test[eps], M, replace=True) call per epsilon; a negative
        # seed is read as its two's complement, as rng.mix reads it
        rng = np.random.default_rng(base_seed % 2**64)
        banks = np.stack([test[eps] for eps in eps_list])
        idx = rng.integers(0, M, size=(200,) + banks.shape)
        meds = np.median(np.take_along_axis(banks[None], idx, axis=-1), axis=-1)
        boots = _slopes(xs, [[math.log(max(m, 1e-300)) for m in row] for row in meds.tolist()])
        slope_se = float(np.std(boots))
        in_band = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
        conclusive = in_band or slope_se < 0.1

    exceedance = {
        eps: float(np.mean(test[eps] > K_hat * math.sqrt(-eps * math.log(eps))))
        for eps in eps_list
    }
    exceedance_ok = all(exceedance[eps] <= 5.0 * eps**2 + 1e-12 for eps in eps_list)
    return {
        "eps_list": eps_list,
        "medians": medians,
        "quantiles": {eps: np.quantile(test[eps], (0.1, 0.5, 0.9)).tolist()
                      for eps in eps_list},
        "slope": slope,
        "slope_se": slope_se,
        "in_band": in_band,
        "conclusive": conclusive,
        "degenerate": degenerate,
        "K_hat": float(K_hat),
        "exceedance": exceedance,
        "exceedance_ok": exceedance_ok,
    }
