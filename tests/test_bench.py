"""The benchmark's workloads still run and still give their recorded outputs.

One iteration of each workload in bench/workloads.py, at the seed its
outputs were recorded at (bench/expected.json), must pass the workload's own
checks, hash to the recorded raw digest and give the recorded statistics
exactly: a float's repr round-trips, so equal reprs are equal to the last
bit, the sign of a zero included (and NaN matches NaN).  This keeps the
library API the benchmark calls (SolveConfig.cfl_limit, estimate_U's
family_desc=, the pool path) working.
"""
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from hjhomog import homog, pde

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 2026                    # the seed of bench/expected.json

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

BUILD = {
    "mc1d-saddle": lambda: workloads.mc1d_saddle(SEED),
    # two workers on any host, so that the test starts no more processes
    "mc1d-pool": lambda: workloads._mc1d("mc1d-pool", SEED, workers=2),
    "field2d-saddle": lambda: workloads.field2d_saddle(SEED),
    "rate1d-transport": lambda: workloads.rate1d_transport(SEED),
}


def test_every_workload_is_covered():
    assert sorted(BUILD) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(BUILD))
def test_workload_gives_its_recorded_outputs(name):
    want = json.loads((BENCH / "expected.json").read_text())[name]
    try:
        wl = BUILD[name]()
        out = wl.iterate()
    finally:
        homog._shutdown_pool()
    assert wl.check(out) == []
    assert out.digest() == want["raw_sha256"]
    for key, value in want["stats"].items():
        assert repr(float(out.stats[key])) == repr(value), (key, out.stats[key], value)


#: field2d-saddle's traced counts per iteration at SEED: one hashed word per
#: live (cell, channel) of the field, and the 225^2 grid read by the SL and
#: the LF solve (the second read is a memo hit, which the tracer counts too)
FIELD2D_WORDS_HASHED = 51_986
FIELD2D_POINTS = 101_250
#: the nodes field2d's LF solve updates: a ring a substep on the moving axis,
#: and on the still axis only the columns of the next record
FIELD2D_LF_NODE_UPDATES = 1_216_512
#: what the tracer's LF model reads: a ring a substep on every axis
FIELD2D_LF_RING_MODEL = 1_867_744


def test_traced_layers_see_one_field2d_iteration(monkeypatch):
    # the tracer wraps module attributes by name (pde.eval_H_nodes,
    # env.uniform01, Environment.values): a renamed or bypassed one would
    # read 0 in its layer instead of failing
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wl = workloads.field2d_saddle(SEED)
    solve, results = pde.solve, {}

    def solving(gh, env, cfg):
        results[cfg.scheme] = solve(gh, env, cfg)
        return results[cfg.scheme]

    monkeypatch.setattr(pde, "solve", solving)
    tracer = tracing.Tracer()
    tracer.begin_iteration()
    tracer.install()
    try:
        out = wl.iterate()
    finally:
        tracer.uninstall()
    counts = tracer.end_iteration()["counts"]
    assert wl.check(out) == []
    lf = results["lax-friedrichs"].telemetry[-1]
    assert counts["game.eval_H_nodes.nodes"] == lf["node_updates"] == FIELD2D_LF_NODE_UPDATES
    assert counts["pde.lf.node_updates"] == FIELD2D_LF_RING_MODEL
    assert counts["rng.words_hashed"] == FIELD2D_WORDS_HASHED
    assert counts["env.points"] == FIELD2D_POINTS


def test_field2d_telemetry_counts_the_node_updates(monkeypatch):
    # the solvers count their updates in closed form; LF's count is the
    # nodes of every substep's window, SL's is every pair at every node of
    # every step's window
    wl = workloads.field2d_saddle(SEED)
    solve, results = pde.solve, {}

    def solving(gh, env, cfg):
        results[cfg.scheme] = (gh, cfg, solve(gh, env, cfg))
        return results[cfg.scheme][2]

    monkeypatch.setattr(pde, "solve", solving)
    wl.iterate()
    tel = results["lax-friedrichs"][2].telemetry[-1]
    assert tel["node_updates"] == FIELD2D_LF_NODE_UPDATES
    assert tel["probes_read"] == 0
    gh, cfg, res = results["semi-lagrangian"]
    plan = pde.sl_plan(gh, cfg)
    windows = sum(math.prod(hi - lo for lo, hi in plan.active(k))
                  for k in range(1, plan.n_steps + 1))
    assert res.telemetry[-1]["node_updates"] == gh.n_a * gh.n_b * windows == 5_529_600
