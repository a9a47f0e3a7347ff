"""tools/ab_pairs.py summarizes its parent, change and control arms as documented."""
import importlib.util
import itertools
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"

_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


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
    results["control"][2] = _result(3.0, correct=False)
    assert not ab_pairs.summarize("w", 7, orders, results)["all_correct"]
