"""Experiment orchestration: config parsing, subcommands, artifacts.

One structured JSON config describes an experiment (environment /
hamiltonian / solver / campaign / output blocks); dotted-path --set
overrides allow parameter sweeps.  Every artifact embeds the sha256 of the
fully-resolved config and the library version, and the resolved config
itself (defaults included) is echoed to config.echo.json so no silent
default survives a run.

Exit codes: 0 all assertions passed, 1 configuration error or library
refusal (domain, orientation or CFL error), 2 assertion failure.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, families, homog
from .env import DomainError, EnvSpec, sample_environment
from .game import (OrientationError, certify_constants, eval_H, localize, shift_momentum,
                   verify_localization)
from .pde import (CFLError, SolveConfig, check_comparison, check_lipschitz, check_scaling,
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


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {here!r}")
        if isinstance(base[key], dict) and key != "params":
            if not isinstance(val, dict):
                raise ConfigError(f"{here!r} must be an object")
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
    if not isinstance(node, dict) or (leaf not in node and keys[0] != "hamiltonian"):
        raise ConfigError(f"invalid override path {path!r} (at {leaf!r})")
    try:
        node[leaf] = json.loads(raw)
    except json.JSONDecodeError:
        node[leaf] = raw


def load_config(path: str | None, overrides: list[str]) -> dict:
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
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    try:
        env_spec_from(cfg).validate()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"environment: {exc}")
    fam = cfg["hamiltonian"]["family"]
    if fam not in families.FAMILIES:
        raise ConfigError(f"hamiltonian.family: unknown family {fam!r}")
    try:
        hamiltonian_from(cfg)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"hamiltonian.params: {exc}")
    try:
        solve_config_from(cfg).validate()
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}")
    camp = cfg["campaign"]
    if not camp["thetas"]:
        raise ConfigError("campaign.thetas: must hold at least one theta")
    dim = int(cfg["environment"]["dimension"])
    for theta in camp["thetas"]:
        if np.shape(np.atleast_1d(theta)) != (dim,):
            raise ConfigError(f"campaign.thetas: entry {theta} needs environment.dimension "
                              f"= {dim} components")
    for key in ("box_lo", "box_hi"):
        if len(cfg["solver"][key]) != dim:
            raise ConfigError(f"solver.{key}: needs environment.dimension = {dim} "
                              f"components, got {cfg['solver'][key]}")
    times = camp["times"]
    if any(t <= 0 for t in times) or sorted(times) != list(times):
        raise ConfigError("campaign.times: must be positive and increasing")
    if camp["M"] < 1:
        raise ConfigError(f"campaign.M: must be >= 1, got {camp['M']}")
    if any(e <= 0 or e > 0.5 for e in camp["eps_list"]):
        raise ConfigError("campaign.eps_list: entries must lie in (0, 1/2]")
    if len(set(camp["eps_list"])) < 2:
        raise ConfigError("campaign.eps_list: needs at least two distinct epsilons "
                          "to fit a rate")


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def env_spec_from(cfg: dict) -> EnvSpec:
    e = cfg["environment"]
    return EnvSpec(
        dimension=int(e["dimension"]),
        rho=float(e["rho"]),
        bump_radius=float(e["bump_radius"]),
        amp_lo=float(e["amp_lo"]),
        amp_hi=float(e["amp_hi"]),
        channels=int(e["channels"]),
        box_lo=tuple(float(v) for v in e["box_lo"]),
        box_hi=tuple(float(v) for v in e["box_hi"]),
        seed=int(e["seed"]),
    )


def solve_config_from(cfg: dict) -> SolveConfig:
    s = cfg["solver"]
    return SolveConfig(
        scheme=s["scheme"],
        dt=float(s["dt"]),
        dx=float(s["dx"]),
        T=float(s["T"]),
        box_lo=tuple(float(v) for v in s["box_lo"]),
        box_hi=tuple(float(v) for v in s["box_hi"]),
        epsilon=float(s["epsilon"]),
        record_times=tuple(float(t) for t in s["record_times"]),
    )


def hamiltonian_from(cfg: dict):
    h = cfg["hamiltonian"]
    return families.build(h["family"], h.get("params", {}),
                          int(cfg["environment"]["dimension"]))


def _stamp(cfg: dict, payload: dict) -> dict:
    payload["config_hash"] = config_hash(cfg)
    payload["version"] = __version__
    return payload


def _write_json(out: Path, name: str, payload: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _echo_config(cfg: dict, out: Path) -> None:
    _write_json(out, "config.echo.json", _stamp(cfg, {"config": cfg}))


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample_env(cfg: dict, out: Path) -> int:
    spec = env_spec_from(cfg)
    env = sample_environment(spec)
    d = spec.dimension
    axes = [np.arange(spec.box_lo[i], spec.box_hi[i] + 1e-12, spec.rho / 8)
            for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = env.values(pts)
    gh = hamiltonian_from(cfg)
    n_b = gh.n_b
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "env.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} version={__version__}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["a", "b", "value"])
        for row, v in zip(pts, vals):
            for ch in range(vals.shape[1]):
                a, b = (ch // n_b, ch % n_b) if vals.shape[1] > 1 else (0, 0)
                writer.writerow(list(row) + [a, b, v[ch]])
    _write_json(out, "env.summary.json", _stamp(cfg, {
        "sup_bound": env.sup_bound,
        "lip_bound": env.lip_bound,
        "mean_value": env.mean_value,
        "n_points": int(len(pts)),
    }))
    return 0


def cmd_solve(cfg: dict, out: Path) -> int:
    spec = env_spec_from(cfg)
    env = sample_environment(spec)
    gh = hamiltonian_from(cfg)
    scfg = solve_config_from(cfg)
    scfg = SolveConfig(**{**scfg.__dict__,
                          "record_times": tuple(sorted(set(scfg.record_times) | {scfg.T}))})
    theta = np.asarray(cfg["campaign"]["thetas"][0], dtype=np.float64)
    res = solve(shift_momentum(gh, theta), env, scfg, zero_datum)
    d = gh.dim
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "solution.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} version={__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(d)] + ["u"])
        for t in sorted(res.snapshots):
            fld = res.snapshots[t]
            pts = fld.grid.nodes().reshape(*fld.grid.shape, d)
            sl = fld.active_slices()
            coords = pts[sl].reshape(-1, d)
            vals = fld.values[sl].ravel()
            for x, u in zip(coords, vals):
                writer.writerow([t] + list(x) + [u])
    _write_json(out, "solve.summary.json", _stamp(cfg, {
        "telemetry": res.telemetry,
        "t_final": res.final.t,
    }))
    return 0


def _campaign_table(cfg: dict, theta, workers: int) -> homog.UTable:
    spec = env_spec_from(cfg)
    camp = cfg["campaign"]
    gh = hamiltonian_from(cfg)
    h = cfg["hamiltonian"]
    return homog.estimate_U(
        gh, spec, theta, camp["times"], int(camp["M"]), int(camp["base_seed"]),
        dx=float(cfg["solver"]["dx"]), dt=float(cfg["solver"]["dt"]),
        workers=workers, family_desc=(h["family"], h.get("params", {})),
    )


def cmd_estimate(cfg: dict, out: Path, workers: int) -> int:
    theta = cfg["campaign"]["thetas"][0]
    table = _campaign_table(cfg, theta, workers)
    _write_json(out, "utable.json", _stamp(cfg, {"utable": table.to_dict()}))
    if "csv" in cfg["output"]["formats"]:
        with open(out / "utable.csv", "w", newline="") as fh:
            fh.write(f"# config_hash={config_hash(cfg)} version={__version__}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "sample_index", "value"])
            for k, t in enumerate(table.times):
                for i, v in enumerate(table.samples[k]):
                    writer.writerow([t, i, v])
    return 0


def cmd_effective(cfg: dict, out: Path, workers: int) -> int:
    estimates = []
    for theta in cfg["campaign"]["thetas"]:
        table = _campaign_table(cfg, theta, workers)
        estimates.append(homog.extract_effective_H(table))
    beta = table.beta          # certified for the unshifted game, so the same for every theta
    props = homog.effective_H_properties(estimates, beta)
    _write_json(out, "effective.json", _stamp(cfg, {
        "estimates": [e.to_dict() for e in estimates],
        "properties": props,
        "beta": beta,
    }))
    ok = props["growth_ok"] and props["lipschitz_ok"]
    return 0 if ok else 2


def cmd_rate(cfg: dict, out: Path, workers: int) -> int:
    spec = env_spec_from(cfg)
    camp = cfg["campaign"]
    gh = hamiltonian_from(cfg)
    theta = np.asarray(camp["thetas"][0], dtype=np.float64)
    table = _campaign_table(cfg, theta, workers)
    est = homog.extract_effective_H(table)
    report = homog.rate_experiment(
        gh, spec, theta, camp["eps_list"], R=float(camp["rate_R"]),
        T=float(camp["rate_T"]), M=int(camp["M"]), H_bar=est.H_hat,
        dx=float(camp["rate_dx"]), dt=float(camp["rate_dt"]),
        base_seed=int(camp["base_seed"]),
    )
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rate.csv", "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} version={__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(["eps", "q10", "median", "q90", "exceedance"])
        for eps in report["eps_list"]:
            q = report["quantiles"][eps]
            writer.writerow([eps, q[0], q[1], q[2], report["exceedance"][eps]])
    _write_json(out, "rate.summary.json", _stamp(cfg, {
        "report": {k: v for k, v in report.items()
                   if k not in ("quantiles", "medians", "exceedance")},
        "H_bar_used": est.H_hat,
    }))
    if report["degenerate"] or not report["conclusive"]:
        return 0          # explicitly inconclusive, not a failure
    return 0 if (report["in_band"] and report["exceedance_ok"]) else 2


def cmd_verify(cfg: dict, out: Path) -> int:
    spec = env_spec_from(cfg)
    env = sample_environment(spec)
    gh = families.bind_env_constants(hamiltonian_from(cfg), env)
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

    scfg = solve_config_from(cfg)
    n_rec = 4
    recs = tuple(scfg.T * k / n_rec for k in range(1, n_rec + 1))
    scfg = SolveConfig(**{**scfg.__dict__, "record_times": recs})

    # strip perturbation bound
    try:
        mid = 0.5 * float((np.asarray(scfg.box_lo) + np.asarray(scfg.box_hi)) @ consts.e)
        width = 2.0 * spec.rho
        strip = homog.strip_experiment(
            gh, env, mid - width / 2, mid + width / 2,
            shift=np.full(d, 3 * spec.rho), theta=np.zeros(d), t=scfg.T,
            dx=scfg.dx, dt=scfg.dt, box=(scfg.box_lo, scfg.box_hi))
        record("strip_bound",
               strip["observed"] <= strip["bound"] + 5 * scfg.dx, strip)
    except Exception as exc:          # noqa: BLE001 - reported, not raised
        record("strip_bound", False, {"error": str(exc)})

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
    if d == 1:
        v = np.array([0.75])
        pi = np.zeros((1, 1))
    else:
        v = np.zeros(d)
        v[0] = 0.75
        pi = np.zeros((d, d))
        pi[1, 1] = 1.0

    def G(pts, Q):
        return beta_loc * np.linalg.norm(Q, axis=1)

    loc = localize(G, beta=beta_loc, R=1.0, v=v, pi=pi, n_a=32, n_b=32)
    rep = verify_localization(loc, G, R=1.0, v=v, pi=pi)
    delta_exact = certify_constants(loc).delta == float(np.linalg.norm(v))
    record("localization",
           rep["max_error"] <= 5e-3 and delta_exact,
           {**rep, "delta_equals_v_norm": delta_exact})

    _write_json(out, "verify.report.json", _stamp(cfg, report))
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjhomog",
        description="homogenization experiments for oriented max-min Hamiltonians",
    )
    parser.add_argument("command",
                        choices=["sample-env", "solve", "estimate",
                                 "effective", "rate", "verify"])
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="dotted-path override")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default $HJHOMOG_WORKERS or 1)")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # worker count deliberately stays out of the hashed config: results are
    # required to be identical across pool sizes
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("HJHOMOG_WORKERS",
                                     str(cfg["campaign"]["workers"])))
    out = Path(args.out if args.out is not None else cfg["output"]["directory"])
    _echo_config(cfg, out)
    try:
        if args.command == "sample-env":
            return cmd_sample_env(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out)
        if args.command == "estimate":
            return cmd_estimate(cfg, out, workers)
        if args.command == "effective":
            return cmd_effective(cfg, out, workers)
        if args.command == "rate":
            return cmd_rate(cfg, out, workers)
        if args.command == "verify":
            return cmd_verify(cfg, out)
    except AssertionError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OrientationError, CFLError) as exc:
        label = {DomainError: "domain", OrientationError: "orientation", CFLError: "CFL"}
        print(f"{label[type(exc)]} error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
