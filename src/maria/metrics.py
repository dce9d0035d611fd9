"""Ranking and calibration metrics."""

from __future__ import annotations

import numpy as np


def shown(value: float | None, spec: str = ".4f") -> str:
    """``value`` formatted by ``spec``, or ``n/a`` where the metric is undefined."""
    return "n/a" if value is None else format(value, spec)


def auc(scores, labels) -> float | None:
    """Area under the ROC curve via the rank statistic; ties get average rank.

    Returns None when only one class is present (the metric is undefined).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"auc: {scores.shape[0]} scores vs {labels.shape[0]} labels")
    positives = int(np.sum(labels == 1.0))
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        return None
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # Tie groups are runs of equal sorted scores; the run [i, j] gets the
    # average 1-based rank 0.5 * (i + j) + 1. NaN equals nothing, so each
    # NaN is a run of its own.
    run_start = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    run_end = np.append(run_start[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (run_start + run_end) + 1.0, run_end - run_start + 1)
    positive_rank_sum = float(np.sum(ranks[labels == 1.0]))
    return (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


def pcoc(scores, labels) -> float | None:
    """Predicted-over-observed click ratio: mean(score) / mean(label).

    Returns None when there are no positive labels (the ratio is undefined).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"pcoc: {scores.shape[0]} scores vs {labels.shape[0]} labels")
    if scores.size == 0 or float(np.sum(labels)) == 0.0:
        return None
    return float(np.mean(scores) / np.mean(labels))


def total_variation(counts_a, counts_b) -> float:
    """Total variation distance between two histograms given as raw counts."""
    a = np.asarray(counts_a, dtype=np.float64).ravel()
    b = np.asarray(counts_b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"total_variation: shapes {a.shape} vs {b.shape}")
    if a.sum() <= 0 or b.sum() <= 0:
        raise ValueError("total_variation: each histogram needs positive mass")
    return float(0.5 * np.abs(a / a.sum() - b / b.sum()).sum())
