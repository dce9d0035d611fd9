"""``scripts/bench_pairs.py``: the claim rule, the no-regression verdict and the digest match."""

import importlib.util
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
