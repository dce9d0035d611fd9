"""Ranking metrics against a brute-force pairwise oracle."""

import numpy as np
import pytest

from helpers import pairwise_auc
from maria import metrics


def test_auc_matches_pairwise_oracle_on_seeded_cases():
    rng = np.random.default_rng(7)
    checked = 0
    for case in range(200):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n)
        if case % 3 == 0:
            scores = np.round(scores * 2) / 2  # heavy ties
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        expected = pairwise_auc(scores, labels)
        got = metrics.auc(scores, labels)
        if expected is None:
            assert got is None
        else:
            assert abs(got - expected) <= 1e-12
            checked += 1
    assert checked > 100


def _auc_by_tie_loop(scores, labels):
    """Reference: average ranks built one tie group at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    positives = int(np.sum(labels == 1.0))
    negatives = labels.size - positives
    return (float(np.sum(ranks[labels == 1.0])) - positives * (positives + 1) / 2.0) / (positives * negatives)


@pytest.mark.parametrize("case", ["long_tie_run", "all_ties", "distinct", "nan_and_signed_zero"])
def test_auc_equals_tie_loop_exactly(case):
    rng = np.random.default_rng(3)
    n = 301
    labels = rng.integers(0, 2, size=n).astype(np.float64)
    scores = rng.normal(size=n)
    if case == "long_tie_run":
        scores[40:260] = 0.25
    elif case == "all_ties":
        scores[:] = 0.7
    elif case == "nan_and_signed_zero":
        scores[::7] = np.nan
        scores[1::5] = 0.0
        scores[2::5] = -0.0
    assert metrics.auc(scores, labels) == _auc_by_tie_loop(scores, labels)
    if case != "nan_and_signed_zero":
        assert abs(metrics.auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12
    if case == "all_ties":
        assert metrics.auc(scores, labels) == 0.5


def test_auc_known_values():
    assert metrics.auc([0.1, 0.4, 0.9], [0, 0, 1]) == 1.0
    assert metrics.auc([0.9, 0.4, 0.1], [0, 0, 1]) == 0.0
    assert metrics.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    assert abs(metrics.auc([0.2, 0.8, 0.8], [0, 0, 1]) - 0.75) <= 1e-12


def test_auc_single_class_is_undefined():
    assert metrics.auc([0.2, 0.4], [1, 1]) is None
    assert metrics.auc([0.2, 0.4], [0, 0]) is None


def test_auc_shape_mismatch_raises():
    with pytest.raises(ValueError, match="auc"):
        metrics.auc([0.1, 0.2], [1])


def test_pcoc_matches_direct_ratio():
    scores = [0.2, 0.4, 0.6]
    labels = [0, 1, 1]
    assert abs(metrics.pcoc(scores, labels) - (np.mean(scores) / np.mean(labels))) <= 1e-12


def test_pcoc_undefined_without_positives():
    assert metrics.pcoc([0.3, 0.4], [0, 0]) is None
    assert metrics.pcoc([], []) is None


def test_total_variation_known_cases():
    assert metrics.total_variation([1, 0], [1, 0]) == 0.0
    assert metrics.total_variation([1, 0], [0, 1]) == 1.0
    assert abs(metrics.total_variation([2, 2], [4, 0]) - 0.5) <= 1e-12
    with pytest.raises(ValueError, match="total_variation"):
        metrics.total_variation([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="positive mass"):
        metrics.total_variation([0, 0], [1, 1])
