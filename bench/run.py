"""Campaign benchmark for hjhomog.

    python3 bench/run.py --workload mc1d-saddle --seed 2026 --seconds 15 --trace 0
    python3 bench/run.py --all [--trace 1]      # every workload, then one table

A run builds its workload's inputs from --seed, runs one warm-up iteration,
then runs iterations in a closed loop (the next starts when the last ends)
for --seconds, checks every output, and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are BENCHMARK.json's end-to-end metrics:

    wall_s              median wall time of one iteration, after the warm-up
    wall_s_tail         highest percentile of iteration wall time that has at
                        least ten iterations beyond it
    realizations_per_s  field realizations solved per iteration / wall_s
    setup_s             median over five fresh interpreters of the time from
                        start until `import hjhomog.cli`, the env spec and the
                        game are built
    peak_rss_mib        peak resident memory of this process plus the largest
                        peak among its reaped children (the pool workers)

and ops_failed_frac (failed / attempted iterations, also carried by the
failed and attempted keys) is printed beside them.

Times are reported at a reference machine speed, because a shared host's
CPU speed swings by up to 2x over seconds: each iteration time is scaled by
a calibration kernel timed before and after it, and each start-up time
(setup_s, import.*) by a reference interpreter start timed before and after
it; see calib.py.  The raw times go to the run record.

With --trace 1 the iterations alternate between untraced and traced, and the
metrics are the per-layer ones: self time per layer, computed counts and
their rates per self-second, pool busy share, import times, and the tracing
overhead.

Each run also writes a record (quartiles, tail percentile, machine context,
load average, checks, and the spans of a traced run) to bench/runs/.

Exit codes: 0 a result was printed; 2 there is no hjhomog source tree beside
the benchmark; 3 harness fault (the benchmark's own bookkeeping disagrees).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import CAL_REF_S, STARTUP_REF_CODE, STARTUP_REF_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: ROADMAP.md's re-anchor figure: estimate_U, 1-D saddle game, M=256, times
#: up to 32, box widened by hand, one worker, on a 2-CPU sandbox
REANCHOR_MC1D_SADDLE = (256, 3.22)

DEFAULT_SEED = 2026            # the CLI's default campaign seed
SETUP_PROBES = 5
TAIL_BEYOND = 10


def _fresh_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter on the checkout's source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return t0, proc


def setup_time(code: str) -> float:
    """Start of a fresh interpreter until `code` has run.

    CLOCK_MONOTONIC is system-wide, so the child's stamp and ours compare.
    """
    t0, proc = _fresh_python(["-c", code + "import time\nprint(time.monotonic())\n"])
    return float(proc.stdout.split()[-1]) - t0


def at_reference_startup(probe, n: int):
    """Run `probe` n times, each between two start-up references: (result, scale).

    `scale` takes a start-up time to the reference speed (calib.py).
    """
    ref = setup_time(STARTUP_REF_CODE)
    for _ in range(n):
        result = probe()
        after = setup_time(STARTUP_REF_CODE)
        yield result, STARTUP_REF_S * 2.0 / (ref + after)
        ref = after


def import_times() -> dict[str, float]:
    """`python -X importtime -c "import hjhomog.cli"`, split by package."""
    _, proc = _fresh_python(["-X", "importtime", "-c", "import hjhomog.cli"])
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(parts[0].split(":")[1]), int(parts[1]), name.strip()))

    def mine(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    def outermost(pkg):
        # the lines are in post-order; reversed, each line's ancestors precede it
        total, stack = 0, []
        for depth, _, cum, name in reversed(rows):
            del stack[depth:]
            if mine(name, pkg) and not any(stack):
                total += cum
            stack.append(mine(name, pkg))
        return total * 1e-6

    return {"import.total_s": outermost("hjhomog"),
            "import.numpy_s": outermost("numpy"),
            "import.scipy_s": outermost("scipy"),
            "import.hjhomog_s": sum(s for _, s, _, n in rows if mine(n, "hjhomog")) * 1e-6}


def machine_context() -> dict:
    import numpy as np
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__}


def tail(walls: list[float]) -> dict:
    """Highest percentile of `walls` with at least TAIL_BEYOND samples beyond it.

    A run too short to have one reports its maximum, with `beyond` below
    TAIL_BEYOND.
    """
    s = sorted(walls)
    k = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)     # 1-based rank
    return {"value": s[k - 1], "percentile": 100.0 * k / len(s), "beyond": len(s) - k,
            "n": len(s)}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= rtol * max(abs(a), abs(b))


def recorded(name: str) -> dict:
    """Outputs recorded at the default seed (bench/expected.json)."""
    return json.loads((BENCH / "expected.json").read_text())[name]


def expected_mismatches(name: str, out) -> list[str]:
    """Raw outputs bitwise and statistics within STATS_RTOL of the recorded ones."""
    import workloads
    exp = recorded(name)
    bad = []
    if out.digest() != exp["raw_sha256"]:
        bad.append(f"raw outputs digest {out.digest()} != recorded {exp['raw_sha256']}")
    for key, want in exp["stats"].items():
        got = out.stats.get(key, math.nan)
        if not _close(got, want, workloads.STATS_RTOL):
            bad.append(f"{key} = {got!r}, recorded {want!r} (rtol {workloads.STATS_RTOL})")
    return bad


def load_program() -> bool:
    """Import hjhomog from the checkout's own source tree, never from elsewhere."""
    if not (SRC / "hjhomog" / "__init__.py").is_file():
        print(f"no hjhomog source tree at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import hjhomog
    if Path(hjhomog.__file__).resolve().parent != SRC / "hjhomog":
        print(f"imported hjhomog from {hjhomog.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from hjhomog import CFLError, DomainError, OrientationError
    import tracing
    import workloads

    # the library's documented refusals, and the a-priori-bound assertion
    refusals = (DomainError, CFLError, OrientationError, AssertionError)
    load_before = os.getloadavg()
    wl = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    problems: list[str] = []
    walls: list[float] = []                  # untraced iterations after the warm-up,
    traced_walls: list[float] = []           # at the reference speed
    raw_walls: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    reference = None                         # fingerprint of the first good iteration

    def attempt(traced: bool):
        nonlocal attempted, failed, reference
        attempted += 1
        if traced:
            tracer.begin_iteration()
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.iterate()
            wall = time.perf_counter() - t0
        except refusals as exc:
            failed += 1
            problems.append(f"iteration {attempted}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            if traced:
                tracer.uninstall()
        bad = wl.check(out)
        if reference is None:
            reference = out.fingerprint()
        elif out.fingerprint() != reference:
            bad.append("outputs differ bitwise from the warm-up iteration")
        if traced:
            layer = tracer.end_iteration()
            if layers and layer["counts"] != layers[0]["counts"]:
                raise tracing.HarnessFault(f"computed counts changed between iterations: "
                                           f"{layers[0]['counts']} -> {layer['counts']}")
            layers.append(layer)
        if bad:
            failed += 1
            problems.extend(f"iteration {attempted}: {b}" for b in bad)
        return out, wall

    warm_out, _ = attempt(False)
    if warm_out is not None and seed == DEFAULT_SEED:
        bad = expected_mismatches(name, warm_out)
        if bad:
            failed += 1
            problems.extend(f"default seed: {b}" for b in bad)
    deadline = time.perf_counter() + seconds
    cal = calibrate()
    i = 0
    while time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        _, wall = attempt(traced)
        cal_after = calibrate()
        if wall is not None:
            scale = CAL_REF_S * 2.0 / (cal + cal_after)
            (traced_walls if traced else walls).append(wall * scale)
            raw_walls.append(wall)
            if traced:
                layers[-1]["scale"] = scale
        cal = cal_after
        i += 1
    if trace and layers and seed == DEFAULT_SEED:
        want = recorded(name)["counts"]
        got = {k: layers[0]["counts"][k] for k in want}
        if got != want:
            raise tracing.HarnessFault(f"computed counts {got} differ from recorded {want}")
    if not walls or (trace and not traced_walls):
        print(f"{name}: no iteration succeeded; {problems[:3]}", file=sys.stderr)
        return 1

    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall_s = statistics.median(walls)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_context(), "load_before": load_before,
        "realizations_per_iteration": wl.realizations, "workers": wl.workers,
        "inputs": {"env_spec": repr(wl.spec), **{k: repr(v) for k, v in wl.notes.items()}},
        "attempted": attempted, "failed": failed, "problems": problems,
        "ops_failed_frac": failed / attempted,
        "warm_up": {"raw_sha256": warm_out.digest(), "stats": warm_out.stats}
        if warm_out is not None else None,
        "walls": walls, "raw_walls": raw_walls,
        "wall_s": {"median": wall_s, "quartiles": quartiles(walls), "n": len(walls)},
        "wall_s_tail": tail(walls),
    }
    if trace:
        values = layer_metrics(layers, walls, traced_walls)
        record["traced_walls"] = traced_walls
        record["layers"] = layers
        t_origin = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [[n, round(a - t_origin, 9), round(b - t_origin, 9), p]
                           for n, a, b, p in tracer.spans]
        metric_defs = SPEC["per_layer"]
    else:
        setups = [(raw, raw * scale) for raw, scale
                  in at_reference_startup(lambda: setup_time(wl.setup_code()), SETUP_PROBES)]
        values = {"wall_s": wall_s, "wall_s_tail": record["wall_s_tail"]["value"],
                  "realizations_per_s": wl.realizations / wall_s,
                  "setup_s": statistics.median(s for _, s in setups),
                  "peak_rss_mib": (rss_self + rss_children) / 1024.0}
        record["setup_s"] = setups
        record["peak_rss_kib"] = {"self": rss_self, "children": rss_children}
        metric_defs = SPEC["end_to_end"]
        if name == "mc1d-saddle":
            m, ref_s = REANCHOR_MC1D_SADDLE
            proj = wall_s * m / wl.realizations
            record["sanity"] = (f"mc1d-saddle at {m} realizations: {proj:.3f} s projected from "
                                f"wall_s; ROADMAP re-anchor {ref_s} s; ratio {proj / ref_s:.2f}")
    record["load_after"] = os.getloadavg()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_defs}
    record["metrics"] = metrics
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, default=float) + "\n")

    print_summary(record, metrics, path)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def layer_metrics(layers: list[dict], walls: list[float], traced_walls: list[float]) -> dict:
    import tracing
    values = {}
    self_s = {span: statistics.median(it["self_s"][span] * it["scale"] for it in layers)
              for span in tracing.SELF_METRICS}
    for span, metric in tracing.SELF_METRICS.items():
        values[metric] = self_s[span]
    for counter, span in tracing.COUNTERS.items():
        count = layers[0]["counts"][counter]
        values[counter] = count
        values[f"{counter}_per_s"] = count / self_s[span] if self_s[span] > 0 else 0.0
    values["homog.pool.busy_frac"] = statistics.median(it["pool_busy_frac"] for it in layers)
    imports = [{k: v * scale for k, v in im.items()}
               for im, scale in at_reference_startup(import_times, SETUP_PROBES)]
    for key in imports[0]:
        values[key] = statistics.median(im[key] for im in imports)
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    return values


def print_summary(record: dict, metrics: dict, path: Path) -> None:
    r = record
    print(f"{r['workload']} seed={r['seed']} trace={int(r['trace'])}: {r['attempted']} iterations "
          f"(warm-up included), {r['failed']} failed, {r['realizations_per_iteration']} "
          f"realizations per iteration")
    for p in r["problems"][:10]:
        print(f"  problem: {p}")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    if not r["trace"]:
        q, t = r["wall_s"], r["wall_s_tail"]
        print(f"  {'ops_failed_frac':36s} {r['ops_failed_frac']:.6g} ratio")
        print(f"  wall_s quartiles {q['quartiles'][0]:.4f} / {q['quartiles'][2]:.4f} s over "
              f"{q['n']} iterations; tail is p{t['percentile']:.1f} with {t['beyond']} beyond")
    else:
        import tracing
        own = {m: metrics[m]["value"] for m in tracing.SELF_METRICS.values()}
        top = sorted(own, key=own.get, reverse=True)[:3]
        print(f"  largest self times: " + ", ".join(f"{m} {own[m]:.4g} s" for m in top)
              + f" (of {sum(own.values()):.4g} s in spans)")
    if "sanity" in r:
        print(f"  sanity: {r['sanity']}")
    m = r["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} load {r['load_before'][0]:.2f} -> {r['load_after'][0]:.2f}")
    print(f"  record: {path.relative_to(ROOT)}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then every metric in one table."""
    results, status = {}, 0
    for wl in SPEC["workloads"]:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", wl["name"], "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[wl["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    defs = SPEC["per_layer" if trace else "end_to_end"]
    rows = [(m["name"], m["unit"], [results[n]["metrics"][m["name"]]["value"] for n in names])
            for m in defs]
    rows.append(("ops_failed_frac", "ratio",
                 [results[n]["failed"] / results[n]["attempted"] for n in names]))
    print()
    print(f"{'metric':38s} {'unit':6s}" + "".join(f"{n:>18s}" for n in names))
    for metric, unit, vals in rows:
        print(f"{metric:38s} {unit:6s}" + "".join(f"{v:18.6g}" for v in vals))
    if not all(results[n]["correct"] for n in names):
        status = status or 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    group.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not load_program():
        return 2
    import tracing
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except tracing.HarnessFault as exc:
        print(f"harness fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
