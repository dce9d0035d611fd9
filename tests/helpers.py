"""Shared oracles for the test suite, kept independent of package internals."""

import numpy as np

# Nodes that one step of each benchmark workload builds on a full block of
# the benchmark recipe (test_model.py pins them). A change that fuses or adds
# nodes on purpose re-pins these counts.
BENCHMARK_STEP_NODES = {"train-maria": 156, "train-mmoe-b64": 89, "score-maria": 140}


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate.

    ``f`` takes no arguments and must read ``x`` (perturbed in place) afresh
    on every call.
    """
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = f()
        flat_x[i] = orig - eps
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Element-wise relative error with a floor so near-zero grads compare absolutely."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def pairwise_auc(scores, labels):
    """O(n^2) probability that a positive outranks a negative; ties count half.

    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))
