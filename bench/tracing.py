"""Spans and computed counters around the public calls into each layer.

The benchmark installs wrappers on hjhomog's own attributes for the traced
iterations only (and removes them afterwards), so the program itself carries
no instrumentation.  A span holds [name, start, end, parent]; spans stay in
memory and the benchmark writes them out when it ends.  A layer's self time
is its span durations minus the time its child spans cover.

Counters are computed from each call's inputs and from
`SolveResult.telemetry`; a computed count that disagrees with the solver's
own telemetry is a harness fault, not a program failure.
"""
from __future__ import annotations

import inspect
import resource
import time
from collections import Counter, defaultdict

import numpy as np

from hjhomog import env, game, homog, pde

import workloads

#: span name -> self-time metric
SELF_METRICS = {
    "pde.sl": "pde.sl_s",
    "pde.lf": "pde.lf_s",
    "game.eval_H_nodes": "game.eval_H_nodes_s",
    "game.cost": "game.cost_s",
    "env.values": "env.values_s",
    "rng": "rng.s",
    "pde.value_at": "pde.value_at_s",
    "homog.aggregate": "homog.aggregate_s",
    "homog.campaign": "homog.campaign_self_s",
}

#: computed counter -> the span whose self time gives its rate
COUNTERS = {
    "pde.sl.node_pair_updates": "pde.sl",
    "pde.sl.steps": "pde.sl",
    "pde.lf.node_updates": "pde.lf",
    "pde.lf.substeps": "pde.lf",
    "game.eval_H_nodes.nodes": "game.eval_H_nodes",
    "env.points": "env.values",
    "rng.words_hashed": "rng",
    "pde.value_at.probes": "pde.value_at",
    "homog.pool.tasks": "homog.campaign",
}


class HarnessFault(RuntimeError):
    """The benchmark's own bookkeeping is inconsistent; no result is valid."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []           # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._pool: list[tuple[float, float, int]] = []   # (child cpu, wall, workers)
        self._cpu0 = 0.0                      # reaped children's CPU time at the last mark
        self._saved: list[tuple[object, str, object]] = []
        self._iter_start = 0

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out, rec[2] - rec[1])
            return out

        return wrapped

    def install(self) -> None:
        sl = inspect.signature(pde.solve_sl)
        lf = inspect.signature(pde.solve_lf)
        est = inspect.signature(homog.estimate_U)
        patches = [
            (pde, "solve_sl", "pde.sl", lambda a, k, out, _: self._count_sl(sl.bind(*a, **k), out)),
            (homog, "solve_sl", "pde.sl", lambda a, k, out, _: self._count_sl(sl.bind(*a, **k), out)),
            (pde, "solve_lf", "pde.lf", lambda a, k, out, _: self._count_lf(lf.bind(*a, **k), out)),
            (pde, "eval_H_nodes", "game.eval_H_nodes", self._count_nodes),
            (game.GameHamiltonian, "cost", "game.cost", None),
            (env.Environment, "values", "env.values", self._count_points),
            (env, "uniform01", "rng", self._count_words),
            (pde.Field, "value_at", "pde.value_at", self._count_probe),
            (homog, "estimate_U", "homog.campaign",
             lambda a, k, out, wall: self._count_pool(est.bind(*a, **k), wall)),
            (homog, "rate_experiment", "homog.campaign", None),
            (homog, "extract_effective_H", "homog.aggregate", None),
            (homog, "check_concentration", "homog.aggregate", None),
        ]
        for owner, attr, name, after in patches:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- computed counters --------------------------------------------------

    def _count_sl(self, bound, res) -> None:
        gh, cfg = bound.arguments["gh"], bound.arguments["cfg"]
        shape = pde.Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx).shape
        steps = round(cfg.T / cfg.dt)
        below, above = workloads.sl_reach(gh, cfg.dt, cfg.dx)
        tel = res.telemetry[-1]
        final = [[int(steps * b), int(n - steps * a)] for n, b, a in zip(shape, below, above)]
        if tel["steps"] != steps or tel["active_cells"] != final:
            raise HarnessFault(f"computed SL reach gives steps={steps}, final window {final}; "
                               f"solver telemetry says {tel}")
        k = np.arange(1, steps + 1)[:, None]
        per_step = np.prod(np.asarray(shape) - k * (below + above), axis=1)
        self.counts["pde.sl.node_pair_updates"] += gh.n_a * gh.n_b * int(per_step.sum())
        self.counts["pde.sl.steps"] += steps

    def _count_lf(self, bound, res) -> None:
        gh, cfg = bound.arguments["gh"], bound.arguments["cfg"]
        shape = pde.Grid.from_box(cfg.box_lo, cfg.box_hi, cfg.dx).shape
        steps = round(cfg.T / cfg.dt)
        n_sub = workloads.lf_substeps(gh, cfg.dt, cfg.dx)
        tel = res.telemetry[-1]
        subs = steps * n_sub
        final = [[subs, n - subs] for n in shape]
        if (tel["steps"], tel["substeps_per_step"], tel["active_cells"]) != (steps, n_sub, final):
            raise HarnessFault(f"computed LF reach gives {steps}x{n_sub} substeps, final window "
                               f"{final}; solver telemetry says {tel}")
        j = np.arange(1, subs + 1)[:, None]
        self.counts["pde.lf.node_updates"] += int(np.prod(np.asarray(shape) - 2 * j, axis=1).sum())
        self.counts["pde.lf.substeps"] += subs

    def _count_nodes(self, args, kwargs, out, wall) -> None:
        self.counts["game.eval_H_nodes.nodes"] += len(args[2])

    def _count_points(self, args, kwargs, out, wall) -> None:
        self.counts["env.points"] += len(out)

    def _count_words(self, args, kwargs, out, wall) -> None:
        self.counts["rng.words_hashed"] += int(np.size(out))

    def _count_probe(self, args, kwargs, out, wall) -> None:
        self.counts["pde.value_at.probes"] += 1

    def _count_pool(self, bound, wall) -> None:
        args = bound.arguments
        workers, M = args.get("workers", 1), args["M"]
        if workers > 1 and args.get("family_desc") is not None:
            # estimate_U splits the M seeds into workers * 4 chunks, one task each
            self.counts["homog.pool.tasks"] += min(M, 4 * workers)
            cpu = _children_cpu()
            self._pool.append((cpu - self._cpu0, wall, workers))
            self._cpu0 = cpu

    # -- per-iteration summary ----------------------------------------------

    def begin_iteration(self) -> None:
        self._iter_start = len(self.spans)
        self.counts = Counter()
        self._pool = []
        self._cpu0 = _children_cpu()

    def end_iteration(self) -> dict:
        """Self time per layer, computed counts and pool busy share of one iteration."""
        own: dict[str, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans[self._iter_start:]:
            own[name] += t1 - t0
            if parent >= 0:
                own[self.spans[parent][0]] -= t1 - t0
        busy = (sum(c for c, _, _ in self._pool) / sum(w * n for _, w, n in self._pool)
                if self._pool else 0.0)
        return {"self_s": {s: own.get(s, 0.0) for s in SELF_METRICS},
                "counts": {c: self.counts.get(c, 0) for c in COUNTERS},
                "pool_busy_frac": busy}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime
