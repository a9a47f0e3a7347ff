"""Alternating parent/change/control runs of the benchmark, written as a BENCH_*.json.

    python3 tools/ab_pairs.py --parent HEAD --out BENCH_name.json \
        [--workload W ...] [--pairs 10] [--seed 2026] [--seconds 15] [--what TEXT]

The parent revision's committed files are exported (`git archive`) twice
into temporary directories, as the benchmark itself is run on a commit.
The second export is the null control: the parent with only its layout
changed, a padding string appended to `src/hjhomog/__init__.py` and a
padding variable in its run's environment, of a length that cycles
through PAD_LENGTHS from pair to pair (Mytkowicz et al., "Producing wrong
data without doing anything obviously wrong!", ASPLOS 2009).  Each pair
runs `python3 bench/run.py --workload W --seed S --seconds T` once in the
parent, once in the working tree (the change) and once in the control, in
the order ORDERS gives it, the parent first in the first pair.  The last
JSON line of each run is parsed, and the file written holds, per workload,

    runs[].{workload, seed, pairs, all_correct, failed, first_in_pair, order_in_pair,
            metrics.<m>.{parent, change, control, parent_q1_median_q3,
                         change_q1_median_q3, control_q1_median_q3,
                         change_won, control_won, change_beat_control,
                         control_beat_change}}

for every end-to-end metric of BENCHMARK.json, where `failed` counts the
failed iterations of every run of every arm, `first_in_pair` is whichever
of the parent and the change ran first, `change_won` (`control_won`) the
pairs in which the change (the control) reads better than the parent,
`change_beat_control` the pairs in which the change reads better than the
control and `control_beat_change` those in which it reads worse, each by
the metric's own direction.  Values are rounded to 6
decimals; quartiles are linearly interpolated (numpy's default).  The
temporary trees are removed when done.  Stdlib only.

The rule: a control differs from its parent by layout alone, so its gap
is what layout and the host make of no change.  A gain counts only when
it beats the control in the same run: the change's median gap from the
parent is a gain, by the metric's own direction, larger than the
control's gap in either direction, and the change beats the control in
at least k of the n pairs, k the least count that a one-sided sign test
passes at 5 % (`sign_test_k`: 9 of 10, 6 of 6, 12 of 16).  A loss is
read the same way with the direction turned round: the change's median
gap is a loss larger than the control's gap in either direction, and
the control beats the change in at least k of the n pairs.  So neither
a gain nor a loss counts unless it exceeds the shift layout alone made:
a control that moved 0.17 MiB down does not make a change 0.04 MiB up a
loss.  Each workload's verdict per metric, "gain counts",
"loss counts" or "neither", is printed to stderr (`verdict`).  `verdict`
reads every committed record: a count an older record lacks is counted
from its per-pair lists, and a record run without a control reads "no
control".
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ARMS = ("parent", "change", "control")
#: the run order of each pair, cycled: each order is followed by its reverse,
#: so over every even number of pairs each arm runs before each other as often
#: as after it
ORDERS = [("parent", "change", "control"), ("control", "change", "parent"),
          ("change", "control", "parent"), ("parent", "control", "change"),
          ("control", "parent", "change"), ("change", "parent", "control")]
#: the control's padding, in characters, cycled one length a pair
PAD_LENGTHS = (1024, 2048, 3584)


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def pad(tree: Path, init: str, length: int) -> dict:
    """The control's layout change: tree's package __init__ (whose parent text is
    init) padded by length characters, and the run environment to pass it."""
    (tree / "src" / "hjhomog" / "__init__.py").write_text(
        f'{init}\n_LAYOUT_PAD = "{"x" * length}"\n')
    return {**os.environ, "AB_PAIRS_PAD": "x" * length}


def bench_once(tree: Path, workload: str, seed: int, seconds: float,
               env: dict | None = None) -> dict:
    """The last JSON line that one benchmark run in tree prints."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True, env=env)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"{workload} in {tree} printed no result (exit {proc.returncode}):\n"
                       f"{proc.stderr[-2000:]}")


def sign_test_k(n: int) -> int:
    """The least k with P(at least k wins in n fair coin flips) <= 5 %, or n + 1."""
    tail = 0
    for k in range(n, 0, -1):
        tail += math.comb(n, k)
        if tail > 0.05 * 2**n:
            return k + 1
    return 1


def wins(side: dict, arm: str, over: str, lower: bool) -> str:
    """The pairs, "k/n", in which arm's value in side (each arm's per-pair
    list) reads better than over's, lower (or higher) being better."""
    n = sum((a < b) if lower else (a > b) for b, a in zip(side[over], side[arm]))
    return f"{n}/{len(side[arm])}"


def _beats(metric: dict, arm: str, over: str, lower: bool) -> str:
    """metric's stored count of the pairs in which arm beat over, or, in a
    record written before it was stored, that count from the per-pair lists."""
    return metric.get(f"{arm}_beat_{over}") or wins(metric, arm, over, lower)


def _beats_control(metric: dict, lower: bool, count: str) -> bool:
    """Whether the change's median gap from the parent, read with lower (or
    higher) as better, is a gain larger than the control's gap either way,
    with the change ahead of the control in ``count`` ("k/n") pairs, enough
    for the sign test."""
    sign = 1.0 if lower else -1.0
    parent = metric["parent_q1_median_q3"][1]
    change, control = (sign * (parent - metric[f"{s}_q1_median_q3"][1])
                       for s in ("change", "control"))
    won, n = map(int, count.split("/"))
    return change > abs(control) and won >= sign_test_k(n)


def gain_counts(metric: dict, lower: bool) -> bool:
    """Whether one metric's entry of a runs[] item shows a gain under the rule."""
    return _beats_control(metric, lower, _beats(metric, "change", "control", lower))


def loss_counts(metric: dict, lower: bool) -> bool:
    """Whether one metric's entry of a runs[] item shows a loss: the rule
    with the direction turned round."""
    return _beats_control(metric, not lower, _beats(metric, "control", "change", lower))


def verdict(metric: dict, lower: bool) -> str:
    """The verdict on one metric's entry: "gain counts", "loss counts" or
    "neither", or "no control" for a record run without a control arm."""
    if "control" not in metric:
        return "no control"
    if gain_counts(metric, lower):
        return "gain counts"
    return "loss counts" if loss_counts(metric, lower) else "neither"


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, linearly interpolated between order statistics."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])

    return [round(at(q), 6) for q in (0.25, 0.5, 0.75)]


def summarize(workload: str, seed: int, orders: list[tuple[str, ...]], results: dict) -> dict:
    """One workload's runs entry from its results per arm, in pair order."""
    metrics = {}
    for m in SPEC["end_to_end"]:
        name = m["name"]
        side = {s: [r["metrics"][name]["value"] for r in results[s]] for s in ARMS}
        lower = m["better"] == "lower"
        metrics[name] = {
            **{s: [round(v, 6) for v in side[s]] for s in ARMS},
            **{f"{s}_q1_median_q3": quartiles(side[s]) for s in ARMS},
            "change_won": wins(side, "change", "parent", lower),
            "control_won": wins(side, "control", "parent", lower),
            "change_beat_control": wins(side, "change", "control", lower),
            "control_beat_change": wins(side, "control", "change", lower),
        }
    runs = [r for s in ARMS for r in results[s]]
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(orders),
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "first_in_pair": [min(("parent", "change"), key=order.index) for order in orders],
        "order_in_pair": [list(order) for order in orders],
        "metrics": metrics,
    }


def machine(workload: str, seed: int) -> str | None:
    """The machine context of the working tree's last run record of workload."""
    record = ROOT / "bench" / "runs" / f"{workload}-seed{seed}-trace0.json"
    if not record.exists():
        return None
    m = json.loads(record.read_text())["machine"]
    return (f"{m['nproc']}-CPU {m['cpu_model']}, Python {m['python']}, "
            f"numpy {m['numpy']}")


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--what", default="", help="what the change is, for the file")
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    trees = {"change": ROOT}
    out = {"what": (f"Alternating pairs of `python3 bench/run.py --workload <w> --seed "
                    f"{args.seed} --seconds {args.seconds:g}`, parent {parent} against the "
                    f"working tree and against a layout-padded control export of the parent, "
                    f"the order within a pair cycling through tools/ab_pairs.py's ORDERS. "
                    f"{args.what}").strip(),
           "machine": None, "runs": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees["parent"], trees["control"] = Path(tmp, "parent"), Path(tmp, "control")
        for s in ("parent", "control"):
            export(parent, trees[s])
        init = (trees["control"] / "src" / "hjhomog" / "__init__.py").read_text()
        for workload in args.workload or names:
            orders, results = [], {s: [] for s in ARMS}
            for i in range(args.pairs):
                orders.append(ORDERS[i % len(ORDERS)])
                env = {"control": pad(trees["control"], init, PAD_LENGTHS[i % len(PAD_LENGTHS)])}
                for s in orders[-1]:
                    results[s].append(bench_once(trees[s], workload, args.seed, args.seconds,
                                                 env.get(s)))
                    print(f"{workload} pair {i + 1}/{args.pairs} {s}: wall_s "
                          f"{results[s][-1]['metrics']['wall_s']['value']:.6f}",
                          file=sys.stderr)
            out["runs"].append(summarize(workload, args.seed, orders, results))
            for m in SPEC["end_to_end"]:
                got = out["runs"][-1]["metrics"][m["name"]]
                print(f"{workload} {m['name']}: change beat the control in "
                      f"{got['change_beat_control']}, lost to it in "
                      f"{got['control_beat_change']}: {verdict(got, m['better'] == 'lower')}",
                      file=sys.stderr)
            out["machine"] = out["machine"] or machine(workload, args.seed)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
