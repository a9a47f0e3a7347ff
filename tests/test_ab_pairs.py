"""tools/ab_pairs.py summarizes its parent, change and control arms as documented."""
import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"

_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


#: per end-to-end metric, whether lower reads better
LOWER = {m["name"]: m["better"] == "lower" for m in ab_pairs.SPEC["end_to_end"]}


def _result(value: float, correct: bool = True, failed: int = 0) -> dict:
    return {"correct": correct, "failed": failed,
            "metrics": {m["name"]: {"value": value} for m in ab_pairs.SPEC["end_to_end"]}}


def test_every_even_run_of_orders_puts_each_arm_first_as_often_as_second():
    assert ab_pairs.ORDERS[0][0] == "parent"
    assert all(sorted(order) == sorted(ab_pairs.ARMS) for order in ab_pairs.ORDERS)
    for n in range(2, 13, 2):
        orders = [ab_pairs.ORDERS[i % len(ab_pairs.ORDERS)] for i in range(n)]
        for a, b in itertools.combinations(ab_pairs.ARMS, 2):
            assert sum(o.index(a) < o.index(b) for o in orders) == n // 2


def test_summarize_writes_the_control_beside_the_parent_and_the_change():
    orders = [ab_pairs.ORDERS[i % len(ab_pairs.ORDERS)] for i in range(4)]
    results = {"parent": [_result(v) for v in (1.0, 2.0, 3.0, 4.0)],
               "change": [_result(v) for v in (0.5, 2.5, 2.0, 3.0)],
               "control": [_result(v, failed=1) for v in (1.5, 1.0, 3.0, 5.0)]}
    entry = ab_pairs.summarize("w", 7, orders, results)
    assert entry["pairs"] == 4 and entry["failed"] == 4 and entry["all_correct"]
    assert entry["first_in_pair"] == ["parent", "change", "change", "parent"]
    assert entry["order_in_pair"] == [list(o) for o in orders]
    # every key an older BENCH_*.json holds is still written
    for m in ab_pairs.SPEC["end_to_end"]:
        got = entry["metrics"][m["name"]]
        assert got["parent"] == [1.0, 2.0, 3.0, 4.0]
        assert got["control"] == [1.5, 1.0, 3.0, 5.0]
        assert got["change_q1_median_q3"] == [1.625, 2.25, 2.625]
        assert got["control_q1_median_q3"] == [1.375, 2.25, 3.5]
        # each arm against the parent, by the metric's own direction; a tie wins nothing
        lower = m["better"] == "lower"
        assert got["change_won"] == ("3/4" if lower else "1/4")
        assert got["control_won"] == ("1/4" if lower else "2/4")
        # and the change against the control, either way
        assert got["change_beat_control"] == ("3/4" if lower else "1/4")
        assert got["control_beat_change"] == ("1/4" if lower else "3/4")
    results["control"][2] = _result(3.0, correct=False)
    assert not ab_pairs.summarize("w", 7, orders, results)["all_correct"]


def test_sign_test_k_is_the_least_count_a_one_sided_test_passes_at_five_percent():
    assert [ab_pairs.sign_test_k(n) for n in (1, 4, 5, 6, 10, 16)] == [2, 5, 5, 6, 9, 12]
    for n in range(1, 21):
        k = ab_pairs.sign_test_k(n)
        tail = sum(math.comb(n, j) for j in range(k, n + 1)) / 2**n
        above = sum(math.comb(n, j) for j in range(k - 1, n + 1)) / 2**n
        assert tail <= 0.05 < above


def test_a_change_counts_only_when_it_beats_a_control_that_wins_every_round():
    # lower is better for wall_s: the control beats the parent in every round
    orders = [ab_pairs.ORDERS[i % len(ab_pairs.ORDERS)] for i in range(10)]
    parent = [1.0 + 0.01 * i for i in range(10)]

    def entry(change, control):
        results = {"parent": [_result(v) for v in parent],
                   "change": [_result(v) for v in change],
                   "control": [_result(v) for v in control]}
        return ab_pairs.summarize("w", 7, orders, results)["metrics"]

    control = [p - 0.05 for p in parent]
    # the change beats the parent every round, but the control by less
    behind = entry([p - 0.03 for p in parent], control)
    # the change beats the control in 9 rounds of 10, by more than its gap
    ahead = entry([c - (0.02 if i else -0.01) for i, c in enumerate(control)], control)
    # and in 8 of 10: not enough for the sign test
    eight = entry([c - (0.02 if i > 1 else -0.01) for i, c in enumerate(control)], control)
    for m in ab_pairs.SPEC["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        assert behind[name]["control_won"] == ("10/10" if lower else "0/10")
        assert behind[name]["change_beat_control"] == ("0/10" if lower else "10/10")
        assert ahead[name]["change_beat_control"] == ("9/10" if lower else "1/10")
        assert eight[name]["change_beat_control"] == ("8/10" if lower else "2/10")
        assert not ab_pairs.gain_counts(behind[name], lower)
        assert ab_pairs.gain_counts(ahead[name], lower) == lower
        assert not ab_pairs.gain_counts(eight[name], lower)
    # a change that wins every round against a control that loses every round
    # does not count when its median gap is no gain
    worse = entry([p + 0.01 for p in parent], [p + 0.05 for p in parent])["wall_s"]
    assert worse["change_beat_control"] == "10/10" and not ab_pairs.gain_counts(worse, True)


def test_a_change_that_loses_every_round_to_the_parent_and_the_control_counts_as_a_loss():
    orders = [ab_pairs.ORDERS[i % len(ab_pairs.ORDERS)] for i in range(10)]
    parent = [1.0 + 0.01 * i for i in range(10)]
    results = {"parent": [_result(v) for v in parent],
               "change": [_result(v + 0.05) for v in parent],
               "control": [_result(v + (0.01 if i % 2 else -0.01)) for i, v in enumerate(parent)]}
    entry = ab_pairs.summarize("w", 7, orders, results)["metrics"]
    for m in ab_pairs.SPEC["end_to_end"]:
        got, lower = entry[m["name"]], m["better"] == "lower"
        # higher is better for realizations_per_s: there the change wins every round
        assert got["change_won"] == ("0/10" if lower else "10/10")
        assert got["control_beat_change"] == ("10/10" if lower else "0/10")
        assert ab_pairs.loss_counts(got, lower) == lower
        assert ab_pairs.gain_counts(got, lower) != lower
        assert ab_pairs.verdict(got, lower) == ("loss counts" if lower else "gain counts")
    # a loss in 8 rounds of 10 is not enough for the sign test, and a change
    # that loses to the control every round without a median loss is none
    eight = dict(results, change=[_result(v + (0.05 if i > 1 else -0.05))
                                  for i, v in enumerate(parent)])
    level = dict(results, change=[_result(v) for v in parent],
                 control=[_result(v - 0.001) for v in parent])
    for case in (eight, level):
        got = ab_pairs.summarize("w", 7, orders, case)["metrics"]["wall_s"]
        assert not ab_pairs.loss_counts(got, True) and not ab_pairs.gain_counts(got, True)
        assert ab_pairs.verdict(got, True) == "neither"


@pytest.mark.parametrize("path", sorted(TOOL.parents[1].glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_every_committed_record_reads_a_verdict(path):
    # most records hold no control arm, or lack a count the rule reads
    for run in json.loads(path.read_text())["runs"]:
        for name, metric in run["metrics"].items():
            got = ab_pairs.verdict(metric, LOWER[name])
            assert got in ("gain counts", "loss counts", "neither", "no control")
            assert (got == "no control") == ("control" not in metric)


@pytest.mark.parametrize("path, counted", [
    ("BENCH_lf_planes.json", {("field2d-saddle", "wall_s"): "gain counts",
                              ("field2d-saddle", "wall_s_tail"): "gain counts",
                              ("field2d-saddle", "realizations_per_s"): "gain counts",
                              ("field2d-saddle", "peak_rss_mib"): "loss counts"}),
    ("BENCH_pde_once.json", {("mc1d-saddle", "wall_s"): "gain counts",
                             ("mc1d-saddle", "realizations_per_s"): "gain counts"})])
def test_records_that_store_every_count_read_as_written(path, counted):
    for run in json.loads((TOOL.parents[1] / path).read_text())["runs"]:
        for name, metric in run["metrics"].items():
            assert ab_pairs.verdict(metric, LOWER[name]) == counted.get(
                (run["workload"], name), "neither")


def test_a_record_without_a_count_or_a_control_still_reads_a_verdict():
    orders = [ab_pairs.ORDERS[i % len(ab_pairs.ORDERS)] for i in range(10)]
    parent = [1.0 + 0.01 * i for i in range(10)]
    results = {"parent": [_result(v) for v in parent],
               "change": [_result(v + 0.05) for v in parent],
               "control": [_result(v) for v in parent]}
    for name, metric in ab_pairs.summarize("w", 7, orders, results)["metrics"].items():
        want = "loss counts" if LOWER[name] else "gain counts"
        assert ab_pairs.verdict(metric, LOWER[name]) == want
        # the counts are those of the per-pair lists
        uncounted = {k: v for k, v in metric.items() if "_beat_" not in k}
        assert ab_pairs.verdict(uncounted, LOWER[name]) == want
        plain = {k: v for k, v in metric.items() if "control" not in k}
        assert ab_pairs.verdict(plain, LOWER[name]) == "no control"
