"""``scripts/bench_pairs.py``: the claim rule, the no-regression verdict and the digest match."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "speed", "unit": "inst/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1}


def _pairs(name, parent, change):
    return [
        {"parent": {"metrics": {name: a}}, "change": {"metrics": {name: b}}}
        for a, b in zip(parent, change)
    ]


def _summary(entry, parent, change):
    return bench_pairs.summarise(_pairs(entry["name"], parent, change), [entry])[entry["name"]]


STEADY = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
NOISY = [80.0, 120.0, 90.0, 130.0, 100.0, 140.0, 85.0, 125.0, 95.0, 135.0]


@pytest.mark.parametrize(
    "entry, parent, change, claim, verdict",
    [
        # a gain of 20 against a parent IQR of 4.5: claimed, and no regression
        (HIGHER, STEADY, [x + 20.0 for x in STEADY], True, "ok"),
        # 10 wins in 10, but the median gain (1) is inside the IQR
        (HIGHER, STEADY, [x + 1.0 for x in STEADY], False, "ok"),
        # half the speed: worse by more than 25% of the parent median
        (HIGHER, STEADY, [x / 2.0 for x in STEADY], False, "regressed"),
        # a parent IQR of 36 MB exceeds the 10% allowance (11 MB)
        (LOWER, NOISY, NOISY[::-1], False, "unresolved"),
        # the same parent noise, but every change run beats every parent run
        (LOWER, NOISY, [x - 75.0 for x in STEADY], True, "ok"),
        # worse by 12% of a steady parent: past the 10% bound
        (LOWER, STEADY, [x * 1.12 for x in STEADY], False, "regressed"),
    ],
)
def test_summarise_claim_and_verdict(entry, parent, change, claim, verdict):
    got = _summary(entry, parent, change)
    assert got["claim_holds"] is claim
    assert got["verdict"] == verdict
    assert got["bound"] == entry["bound"]
    assert got["pairs"] == len(parent)


def test_summarise_reports_the_quartiles_of_the_per_pair_ratios():
    # Each pair is judged against its own parent run, so a drift that moves
    # both sides alike leaves the ratios as they are.
    parent = [100.0, 200.0, 400.0, 800.0, 50.0]
    change = [110.0, 240.0, 400.0, 1200.0, 0.0]
    got = _summary(HIGHER, parent, change)
    assert got["pair_ratio_median"] == pytest.approx(1.1)
    assert got["pair_ratio_quartiles"] == pytest.approx([1.0, 1.2])
    # The ratio is change over parent whichever way the metric is better.
    lower = _summary(LOWER, STEADY, [x * 0.9 for x in STEADY])
    assert lower["pair_ratio_median"] == pytest.approx(0.9)
    assert lower["pair_ratio_quartiles"] == pytest.approx([0.9, 0.9])


def test_summarise_skips_a_metric_no_pair_measured():
    pairs = _pairs("speed", STEADY, STEADY)
    assert bench_pairs.summarise(pairs, [HIGHER, LOWER]).keys() == {"speed"}


_DIGESTS = {"step_losses": "d9601801b88f9891", "checkpoint": "84308abe4d417cd5"}


@pytest.mark.parametrize("parent, change, equal", [
    (_DIGESTS, dict(_DIGESTS), True),
    (_DIGESTS, _DIGESTS | {"checkpoint": "af8145c02c0e4c4e"}, False),
    (_DIGESTS, {"step_losses": _DIGESTS["step_losses"]}, False),
    (None, None, False),  # runs that printed no report: nothing to compare
])
def test_digests_equal_per_pair(parent, change, equal):
    pair = {"parent": {"digests": parent}, "change": {"digests": change}}
    assert bench_pairs.digests_equal(pair) is equal


def test_write_result_keeps_other_workloads_and_a_failed_write_keeps_the_old_file(tmp_path):
    out = tmp_path / "BENCH.json"
    bench_pairs.write_result(out, "train-maria", {"digests_equal": 10})
    bench_pairs.write_result(out, "score-maria", {"digests_equal": 9})
    old = out.read_bytes()
    assert json.loads(old) == {"train-maria": {"digests_equal": 10}, "score-maria": {"digests_equal": 9}}
    # json.dump streams the document, so the value it cannot encode stops it
    # after the entries before it have reached the temp file
    with pytest.raises(TypeError):
        bench_pairs.write_result(out, "train-mmoe-b64", {"pairs": list(range(5000)), "z": object()})
    assert out.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH.json"]


def test_setup_breakdown_per_run_and_medians_per_side():
    report = {"import_s": 0.2, "setup_times_s": [0.9, 0.5, 0.7], "metrics": {"gen_inst_per_s": 20000.0}}
    assert bench_pairs.setup_breakdown(report) == {"import_s": 0.2, "setup_median_s": 0.7, "gen_inst_per_s": 20000.0}
    # a report without the parts (a failed run) gives none
    assert bench_pairs.setup_breakdown({}) == {}
    pairs = [
        {"parent": {"setup": {"import_s": a, "setup_median_s": 1.0 + a}}, "change": {"setup": {"import_s": b}}}
        for a, b in [(0.1, 0.3), (0.2, 0.1), (0.6, 0.2)]
    ] + [{"parent": {"setup": {}}, "change": {}}]
    assert bench_pairs.summarise_setup(pairs) == {
        "parent": {"import_s": 0.2, "setup_median_s": 1.2},
        "change": {"import_s": 0.2},
    }
