"""The verdicts of tools/bench_pairs.py on made-up runs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten runs with median 1.0 and quartiles 0.9875 and 1.0125
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


@pytest.mark.parametrize("scale, verdict, within", [
    (0.8, "better", True),
    (1.0, "level", True),
    (1.2, "worse", True),  # worse by the paired rule, inside a 25% bound
    (1.3, "worse", False),
])
def test_compare_lower_is_better(scale, verdict, within):
    got = bench_pairs.compare(PARENT, [scale * x for x in PARENT], True, 0.25)
    assert got["verdict"] == verdict
    assert got["bound"] == 0.25
    assert got["within_bound"] is within
    assert got["ratio"] == pytest.approx(scale)
    assert got["parent_quartile_distance"] == pytest.approx(0.025)
    # ties count for neither side
    assert got["change_won"] + got["parent_won"] == (0 if scale == 1.0 else 10)


@pytest.mark.parametrize("scale, verdict, within", [
    (1.2, "better", True),
    (0.92, "worse", True),
    (0.85, "worse", False),
])
def test_compare_higher_is_better(scale, verdict, within):
    got = bench_pairs.compare(PARENT, [scale * x for x in PARENT], False, 0.1)
    assert got["verdict"] == verdict
    assert got["within_bound"] is within

