"""Alternating parent/change pairs of the benchmark, written as a BENCH_*.json.

    python3 tools/ab_pairs.py --parent HEAD --out BENCH_name.json \
        [--workload W ...] [--pairs 10] [--seed 2026] [--seconds 15] [--what TEXT]

The parent revision's committed files are exported (`git archive`) into a
temporary directory, as the benchmark itself is run on a commit.  Each pair
runs `python3 bench/run.py --workload W --seed S --seconds T` once in that
tree and once in the working tree; the side that goes first alternates from
pair to pair, the parent first in the first pair.  The last JSON line of
each run is parsed, and the file written holds, per workload,

    runs[].{workload, seed, pairs, all_correct, failed, first_in_pair,
            metrics.<m>.{parent, change, parent_q1_median_q3,
                         change_q1_median_q3, change_won}}

for every end-to-end metric of BENCHMARK.json, where `failed` counts the
failed iterations of every run on both sides and `change_won` the pairs in
which the change reads better by the metric's own direction.  Values are
rounded to 6 decimals; quartiles are linearly interpolated (numpy's
default).  The temporary tree is removed when done.  Stdlib only.
"""
from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, written under dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line that one benchmark run in tree prints."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"{workload} in {tree} printed no result (exit {proc.returncode}):\n"
                       f"{proc.stderr[-2000:]}")


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, linearly interpolated between order statistics."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])

    return [round(at(q), 6) for q in (0.25, 0.5, 0.75)]


def summarize(workload: str, seed: int, order: list[str], results: dict) -> dict:
    """One workload's runs entry from its results per side, in pair order."""
    metrics = {}
    for m in SPEC["end_to_end"]:
        name = m["name"]
        side = {s: [r["metrics"][name]["value"] for r in results[s]] for s in results}
        lower = m["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))
        metrics[name] = {
            "parent": [round(v, 6) for v in side["parent"]],
            "change": [round(v, 6) for v in side["change"]],
            "parent_q1_median_q3": quartiles(side["parent"]),
            "change_q1_median_q3": quartiles(side["change"]),
            "change_won": f"{won}/{len(order)}",
        }
    runs = results["parent"] + results["change"]
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(order),
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "first_in_pair": order,
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
    out = {"what": (f"Alternating parent/change pairs of `python3 bench/run.py --workload "
                    f"<w> --seed {args.seed} --seconds {args.seconds:g}`, the order within a "
                    f"pair alternating, parent {parent} against the working tree. "
                    f"{args.what}").strip(),
           "machine": None, "runs": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees["parent"] = Path(tmp)
        export(parent, trees["parent"])
        for workload in args.workload or names:
            order, results = [], {"parent": [], "change": []}
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(sides[0])
                for s in sides:
                    results[s].append(bench_once(trees[s], workload, args.seed, args.seconds))
                    print(f"{workload} pair {i + 1}/{args.pairs} {s}: wall_s "
                          f"{results[s][-1]['metrics']['wall_s']['value']:.6f}",
                          file=sys.stderr)
            out["runs"].append(summarize(workload, args.seed, order, results))
            out["machine"] = out["machine"] or machine(workload, args.seed)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
