"""Experiment orchestration: config parsing, subcommands, artifacts.

One structured JSON config describes an experiment (environment /
hamiltonian / solver / campaign / output blocks); dotted-path --set
overrides allow parameter sweeps.  Every artifact embeds the sha256 of the
fully-resolved config and the library version.  The config is typed by
DEFAULTS and checked before a command runs, and is echoed to config.echo.json
(defaults included) after it, so no silent default survives a run and a
refusal writes nothing.

Exit codes: 0 all assertions passed, 1 configuration error or library
refusal (domain or orientation error), 2 assertion failure; any other
exception is a bug and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, families, homog
from .env import DomainError, EnvSpec, TensorGrid, sample_environment
from .game import (GameHamiltonian, OrientationError, certify_constants, eval_H, localize,
                   shift_momentum, verify_localization)
from .pde import (Grid, SolveConfig, check_comparison, check_lipschitz, check_scaling,
                  linear_datum, solve, zero_datum)


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


DEFAULTS: dict = {
    "environment": {
        "dimension": 1,
        "rho": 1.0,
        "bump_radius": 0.5,
        "amp_lo": 0.0,
        "amp_hi": 1.0,
        "channels": 1,
        "box_lo": [-8.0],
        "box_hi": [48.0],
        "seed": 7,
    },
    "hamiltonian": {
        "family": "transport",
        "params": {"speed": 1.0},
    },
    "solver": {
        "scheme": "semi-lagrangian",
        "dt": 0.25,
        "dx": 0.25,
        "T": 8.0,
        "box_lo": [-1.0],
        "box_hi": [10.0],
        "epsilon": 1.0,
        "record_times": [],
    },
    "campaign": {
        "thetas": [[0.0]],
        "times": [4.0, 8.0, 12.0, 16.0, 24.0, 32.0],
        "eps_list": [0.25, 0.125],
        "M": 16,
        "base_seed": 2026,
        "workers": 1,
        "rate_R": 0.5,
        "rate_T": 1.0,
        "rate_dx": 0.0625,
        "rate_dt": 0.0625,
    },
    "output": {
        "directory": "out",
        "formats": ["json", "csv"],
    },
}


# ---------------------------------------------------------------------------
# config plumbing

#: the one config object whose keys are free: a config file replaces it
#: whole, and only an override below it may add a key
FREE_KEYS = "hamiltonian.params"


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {here!r}")
        if isinstance(base[key], dict) and isinstance(val, dict) and here != FREE_KEYS:
            out[key] = _deep_merge(base[key], val, here)
        else:
            out[key] = copy.deepcopy(val)
    return out


def apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    path, raw = item.split("=", 1)
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"invalid override path {path!r} (at {k!r})")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict) or (leaf not in node and ".".join(keys[:-1]) != FREE_KEYS):
        raise ConfigError(f"invalid override path {path!r} (at {leaf!r})")
    try:
        node[leaf] = json.loads(raw)
    except json.JSONDecodeError:
        node[leaf] = raw


def _read_config(path: str | None, overrides: list[str]) -> dict:
    """DEFAULTS, merged with the config file at path, then the overrides."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file {path!r} not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _deep_merge(cfg, user)
    for item in overrides:
        apply_override(cfg, item)
    return cfg


def _typed(value, default, path: str):
    """value read as its default's JSON type, or a ConfigError naming path.

    A float field takes any finite JSON number but a bool (Python's json
    reads NaN and Infinity), and an int field an integral one; a list takes
    a list of its default's element type (floats for an empty default) and
    is read as a tuple; an object takes exactly its default's fields, but
    FREE_KEYS takes any object.
    """
    if isinstance(default, dict) and path != FREE_KEYS:
        if isinstance(value, dict) and value.keys() == default.keys():
            return {k: _typed(value[k], d, f"{path}.{k}" if path else k)
                    for k, d in default.items()}
        kind = f"an object with the fields {', '.join(default)}"
    elif isinstance(default, list):
        if isinstance(value, list):
            return tuple(_typed(v, default[0] if default else 0.0, f"{path}[{i}]")
                         for i, v in enumerate(value))
        kind = "a list"
    else:
        want = type(default)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if want is float and number and abs(value) <= sys.float_info.max:
            return float(value)
        if want is int and number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if want in (str, dict) and isinstance(value, want):
            return value
        kind = {float: "a finite number", int: "an integer", str: "a string",
                dict: "an object"}[want]
    raise ConfigError(f"{path}: must be {kind}, got {value!r}")


@contextlib.contextmanager
def _refused_as(path: str, errors=ValueError):
    """Reraises what the block raises of errors as a ConfigError on path."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{path}: {exc}")


@dataclasses.dataclass(frozen=True)
class Run:
    """A checked config and what every command builds from it, built once."""

    cfg: dict                 # as resolved: echoed and hashed
    blocks: dict              # cfg read as DEFAULTS' types
    spec: EnvSpec
    game: GameHamiltonian
    solver: SolveConfig


def validate_config(cfg: dict) -> Run:
    """cfg read, checked and built; refuses with a ConfigError naming the field."""
    blocks = _typed(cfg, DEFAULTS, "")
    # every seed is hashed as an int64 word
    for path, seed in (("environment.seed", blocks["environment"]["seed"]),
                       ("campaign.base_seed", blocks["campaign"]["base_seed"])):
        if not -2**63 <= seed < 2**63:
            raise ConfigError(f"{path}: must lie in [-2^63, 2^63), got {seed}")
    spec = EnvSpec(**blocks["environment"])
    with _refused_as("environment"):
        spec.validate()
    fam, params = blocks["hamiltonian"]["family"], blocks["hamiltonian"]["params"]
    if fam not in families.FAMILIES:
        raise ConfigError(f"hamiltonian.family: unknown family {fam!r}")
    # the default params are the default family's: another family leaves out
    # those it does not read while they keep their default values
    default = DEFAULTS["hamiltonian"]["params"]
    params = {k: v for k, v in params.items()
              if k in families.FAMILIES[fam].accepts or k not in default or v != default[k]}
    blocks["hamiltonian"]["params"] = params
    with _refused_as("hamiltonian.params", (ValueError, TypeError, KeyError)):
        gh = families.build(fam, params, spec.dimension)
    pairs = gh.n_a * gh.n_b
    if spec.channels not in (1, pairs):
        raise ConfigError(
            f"environment.channels: the {fam} game reads 1 channel shared by its action "
            f"pairs or n_a*n_b = {pairs}, one per pair; got {spec.channels}")
    solver = SolveConfig(**blocks["solver"])
    with _refused_as("solver"):     # its time grid, and at least 2 nodes per axis
        solver.validate()
        Grid.from_box(solver.box_lo, solver.box_hi, solver.dx)
    camp = blocks["campaign"]
    if not camp["thetas"]:
        raise ConfigError("campaign.thetas: must hold at least one theta")
    dim = spec.dimension
    for theta in camp["thetas"]:
        if len(theta) != dim:
            raise ConfigError(f"campaign.thetas: entry {list(theta)} needs "
                              f"environment.dimension = {dim} components")
    for key in ("box_lo", "box_hi"):
        if len(getattr(solver, key)) != dim:
            raise ConfigError(f"solver.{key}: needs environment.dimension = {dim} "
                              f"components, got {list(getattr(solver, key))}")
    times = camp["times"]
    if not times or any(t <= 0 for t in times) or sorted(times) != list(times):
        raise ConfigError("campaign.times: must be nonempty, positive and increasing")
    with _refused_as("campaign.times"):   # the campaign's solve, on the solver's time step
        dataclasses.replace(solver, T=times[-1], record_times=times).validate()
    if camp["M"] < 1:
        raise ConfigError(f"campaign.M: must be >= 1, got {camp['M']}")
    _worker_count(camp["workers"], "campaign.workers")
    with _refused_as("campaign.eps_list"):
        homog.require_eps_list(camp["eps_list"])
    if camp["rate_R"] < 0:
        raise ConfigError(f"campaign.rate_R: must be >= 0, got {camp['rate_R']}")
    for key in ("rate_dx", "rate_dt"):
        if camp[key] <= 0:
            raise ConfigError(f"campaign.{key}: must be positive, got {camp[key]}")
    for eps in camp["eps_list"]:
        t_top, recs = homog.rate_times(camp["rate_T"], eps)
        with _refused_as(f"campaign.rate_T: the rate solve at eps={eps}"):   # on its own grid
            dataclasses.replace(solver, dt=camp["rate_dt"], dx=camp["rate_dx"], T=t_top,
                                record_times=recs).validate()
    return Run(cfg=cfg, blocks=blocks, spec=spec, game=gh, solver=solver)


def _worker_count(raw, source: str) -> int:
    """raw as a campaign pool size, or a ConfigError naming its source."""
    try:
        n = int(str(raw))
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"{source}: worker count must be an integer >= 1, got {raw!r}")
    return n


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_json(out: Path, name: str, cfg: dict, payload: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w") as fh:
        json.dump({**payload, "config_hash": config_hash(cfg), "version": __version__}, fh,
                  indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_csv(out: Path, name: str, cfg: dict, header: list, rows) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} version={__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample_env(run: Run, out: Path, workers: int) -> int:
    spec, env = run.spec, sample_environment(run.spec)
    d = spec.dimension
    grid = TensorGrid(np.arange(spec.box_lo[i], spec.box_hi[i] + 1e-12, spec.rho / 8)
                      for i in range(d))
    pts, vals = grid.nodes(), env.values(grid)
    pairs = [divmod(ch, run.game.n_b) if vals.shape[1] > 1 else (0, 0)
             for ch in range(vals.shape[1])]
    _write_csv(out, "env.csv", run.cfg, [f"x{i}" for i in range(d)] + ["a", "b", "value"],
               (list(row) + [a, b, v[ch]]
                for row, v in zip(pts, vals) for ch, (a, b) in enumerate(pairs)))
    _write_json(out, "env.summary.json", run.cfg, {
        "sup_bound": env.sup_bound,
        "lip_bound": env.lip_bound,
        "mean_value": env.mean_value,
        "n_points": int(len(pts)),
    })
    return 0


def cmd_solve(run: Run, out: Path, workers: int) -> int:
    scfg = dataclasses.replace(
        run.solver, record_times=tuple(sorted(set(run.solver.record_times) | {run.solver.T})))
    theta = run.blocks["campaign"]["thetas"][0]
    res = solve(shift_momentum(run.game, theta), sample_environment(run.spec), scfg, zero_datum)
    d = run.game.dim

    def rows():
        for t in sorted(res.snapshots):
            fld = res.snapshots[t]
            pts = fld.grid.nodes().reshape(*fld.grid.shape, d)
            sl = fld.active_slices()
            for x, u in zip(pts[sl].reshape(-1, d), fld.values[sl].ravel()):
                yield [t] + list(x) + [u]

    _write_csv(out, "solution.csv", run.cfg, ["t"] + [f"x{i}" for i in range(d)] + ["u"], rows())
    _write_json(out, "solve.summary.json", run.cfg, {
        "telemetry": res.telemetry,
        "t_final": res.final.t,
    })
    return 0


def _campaign_table(run: Run, theta, workers: int) -> homog.UTable:
    camp, h = run.blocks["campaign"], run.blocks["hamiltonian"]
    return homog.estimate_U(
        run.game, run.spec, theta, camp["times"], camp["M"], camp["base_seed"],
        dx=run.solver.dx, dt=run.solver.dt,
        workers=workers, family_desc=(h["family"], h["params"]),
    )


def cmd_estimate(run: Run, out: Path, workers: int) -> int:
    table = _campaign_table(run, run.blocks["campaign"]["thetas"][0], workers)
    _write_json(out, "utable.json", run.cfg, {"utable": table.to_dict()})
    if "csv" in run.blocks["output"]["formats"]:
        _write_csv(out, "utable.csv", run.cfg, ["t", "sample_index", "value"],
                   ([t, i, v] for t, row in zip(table.times, table.samples)
                    for i, v in enumerate(row)))
    return 0


def cmd_effective(run: Run, out: Path, workers: int) -> int:
    with _refused_as("campaign.times"):     # before any campaign
        homog.require_rate_schedule(run.blocks["campaign"]["times"])
    estimates = []
    for theta in run.blocks["campaign"]["thetas"]:
        table = _campaign_table(run, theta, workers)
        estimates.append(homog.extract_effective_H(table))
    beta = table.beta          # certified for the unshifted game, so the same for every theta
    props = homog.effective_H_properties(estimates, beta)
    _write_json(out, "effective.json", run.cfg, {
        "estimates": [e.to_dict() for e in estimates],
        "properties": props,
        "beta": beta,
    })
    ok = props["growth_ok"] and props["lipschitz_ok"]
    return 0 if ok else 2


def cmd_rate(run: Run, out: Path, workers: int) -> int:
    camp = run.blocks["campaign"]
    theta = camp["thetas"][0]
    # before the H-bar campaign, refuse the widest (smallest eps) box and an unfittable schedule
    homog.rate_config(run.game, run.spec, min(camp["eps_list"]), camp["rate_R"],
                      camp["rate_T"], camp["rate_dx"], camp["rate_dt"])
    with _refused_as("campaign.times"):
        homog.require_rate_schedule(camp["times"])
    est = homog.extract_effective_H(_campaign_table(run, theta, workers))
    report = homog.rate_experiment(
        run.game, run.spec, theta, camp["eps_list"], R=camp["rate_R"],
        T=camp["rate_T"], M=camp["M"], H_bar=est.H_hat,
        dx=camp["rate_dx"], dt=camp["rate_dt"], base_seed=camp["base_seed"],
    )
    _write_csv(out, "rate.csv", run.cfg, ["eps", "q10", "median", "q90", "exceedance"],
               ([eps, *report["quantiles"][eps], report["exceedance"][eps]]
                for eps in report["eps_list"]))
    _write_json(out, "rate.summary.json", run.cfg, {
        "report": {k: v for k, v in report.items()
                   if k not in ("quantiles", "medians", "exceedance")},
        "H_bar_used": est.H_hat,
    })
    if report["degenerate"] or not report["conclusive"]:
        return 0          # explicitly inconclusive, not a failure
    return 0 if (report["in_band"] and report["exceedance_ok"]) else 2


def cmd_verify(run: Run, out: Path, workers: int) -> int:
    spec, env = run.spec, sample_environment(run.spec)
    gh = families.bind_env_constants(run.game, env)
    consts = certify_constants(gh)
    report: dict = {"checks": {}}
    ok = True

    def record(name, passed, detail):
        nonlocal ok
        report["checks"][name] = {"passed": bool(passed), "detail": detail}
        ok = ok and bool(passed)

    record("orientation", consts.oriented,
           {"delta": consts.delta, "e": list(consts.e)})

    # (H1)-(H3) probes: |H| growth, p-Lipschitz, x-Lipschitz at random points
    rng = np.random.default_rng(0)
    d = gh.dim
    box_lo = np.asarray(spec.box_lo) + spec.bump_radius
    box_hi = np.asarray(spec.box_hi) - spec.bump_radius
    xs = rng.uniform(box_lo, box_hi, size=(30, d))
    ps = rng.normal(size=(30, d))
    worst = {"h1": -np.inf, "h2": -np.inf, "h3": -np.inf}
    for x, p in zip(xs, ps):
        h = eval_H(gh, x, p, env)
        worst["h1"] = max(worst["h1"],
                          abs(h) - consts.beta * (1.0 + np.linalg.norm(p)))
        p2 = p + rng.normal(size=d) * 0.3
        h2 = eval_H(gh, x, p2, env)
        worst["h2"] = max(worst["h2"],
                          abs(h - h2) - consts.f_inf * np.linalg.norm(p - p2))
        x2 = np.clip(x + rng.normal(size=d) * 0.2, box_lo, box_hi)
        h3 = eval_H(gh, x2, p, env)
        worst["h3"] = max(worst["h3"],
                          abs(h - h3) - consts.lip_l * np.linalg.norm(x - x2))
    record("structural_bounds",
           all(v <= 1e-9 for v in worst.values()),
           {k: float(v) for k, v in worst.items()})

    # the time step nearest each quarter of T
    steps = round(run.solver.T / run.solver.dt)
    recs = tuple(round(steps * k / 4) * run.solver.dt for k in range(1, 5))
    scfg = dataclasses.replace(run.solver, record_times=recs)

    # strip perturbation bound
    mid = 0.5 * float((np.asarray(scfg.box_lo) + np.asarray(scfg.box_hi)) @ consts.e)
    width = 2.0 * spec.rho
    try:
        strip = homog.strip_experiment(
            gh, env, mid - width / 2, mid + width / 2,
            shift=np.full(d, 3 * spec.rho), theta=np.zeros(d), t=scfg.T,
            dx=scfg.dx, dt=scfg.dt, box=(scfg.box_lo, scfg.box_hi))
    except OrientationError as exc:   # an unoriented game fails this check, not the run
        record("strip_bound", False, {"error": str(exc)})
    else:
        record("strip_bound",
               strip["observed"] <= strip["bound"] + 5 * scfg.dx, strip)

    # a-priori Lipschitz bounds on a seeded run
    res = solve(gh, env, scfg, zero_datum)
    lip = check_lipschitz(list(res.snapshots.values()),
                          beta1=consts.beta, beta3=consts.beta, lip_g=0.0)
    record("lipschitz", lip["space_ok"] and lip["time_ok"], lip)

    # comparison / monotonicity
    comp = check_comparison(gh, env, scfg, linear_datum(np.full(d, 0.1)),
                            lambda pts: linear_datum(np.full(d, 0.1))(pts) - 1.0)
    record("comparison", comp["ok"], comp)

    # scaling relation on a matched grid
    sc = check_scaling(gh, env, np.zeros(d), 0.5, scfg, zero_datum)
    record("scaling", sc["max_error"] <= 1e-9, sc)

    # localization of a reference Lipschitz Hamiltonian
    beta_loc = 0.02
    v = np.zeros(d)
    v[0] = 0.75
    pi = np.diag([0.0] + [1.0] * (d - 1))

    def G(pts, Q):
        return beta_loc * np.linalg.norm(Q, axis=1)

    loc = localize(G, beta=beta_loc, R=1.0, v=v, pi=pi, n_a=32, n_b=32)
    rep = verify_localization(loc, G, R=1.0, v=v, pi=pi)
    delta_exact = certify_constants(loc).delta == float(np.linalg.norm(v))
    record("localization",
           rep["max_error"] <= 5e-3 and delta_exact,
           {**rep, "delta_equals_v_norm": delta_exact})

    _write_json(out, "verify.report.json", run.cfg, report)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point


#: the subcommands, by name
COMMANDS = {"sample-env": cmd_sample_env, "solve": cmd_solve, "estimate": cmd_estimate,
            "effective": cmd_effective, "rate": cmd_rate, "verify": cmd_verify}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjhomog",
        description="homogenization experiments for oriented max-min Hamiltonians",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path override")
    parser.add_argument("--workers", default=None,
                        help="at most this many processes solve a Monte-Carlo campaign: "
                             "this one and up to WORKERS-1 pool processes (default "
                             "$HJHOMOG_WORKERS, then campaign.workers)")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = validate_config(_read_config(args.config, args.overrides))
        # the worker count never changes a number; --workers and
        # $HJHOMOG_WORKERS stay out of the hashed config, while
        # campaign.workers is hashed like every config field
        if args.workers is not None:
            workers = _worker_count(args.workers, "--workers")
        elif "HJHOMOG_WORKERS" in os.environ:
            workers = _worker_count(os.environ["HJHOMOG_WORKERS"], "$HJHOMOG_WORKERS")
        else:
            workers = run.blocks["campaign"]["workers"]
        out = Path(args.out if args.out is not None else run.blocks["output"]["directory"])
        code = COMMANDS[args.command](run, out, workers)
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, DomainError, OrientationError) as exc:    # any other error is a bug
        label = {ConfigError: "config", DomainError: "domain", OrientationError: "orientation"}
        print(f"{label[type(exc)]} error: {exc}", file=sys.stderr)
        return 1
    _write_json(out, "config.echo.json", run.cfg, {"config": run.cfg})
    return code


if __name__ == "__main__":
    sys.exit(main())
