"""Tests of the benchmark's own helpers: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
from stats import nearest_rank, tail_percentile  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    values = [float(v) for v in range(n, 0, -1)]
    p, value, count = tail_percentile(values)
    assert (p, count) == (percentile, n)
    assert value == nearest_rank(values, p)
    assert sum(v > value for v in values) >= 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 19)


def _row(name, start, end, parent):
    return (name, "", start, end, parent, 1, "timed", 0)


def test_self_time_subtracts_children_only():
    rows = [
        _row("root", 0.0, 10.0, -1),
        _row("a", 1.0, 4.0, 0),
        _row("a.inner", 2.0, 3.0, 1),
        _row("b", 5.0, 6.0, 0),
        _row("counter", 7.0, 7.0, 0),
    ]
    assert spans.self_times(rows) == pytest.approx([6.0, 2.0, 1.0, 1.0, 0.0])


def test_self_time_counts_overlapping_children_once():
    rows = [_row("root", 0.0, 4.0, -1), _row("x", 1.0, 3.0, 0), _row("y", 2.0, 3.5, 0)]
    assert spans.self_times(rows)[0] == pytest.approx(1.5)


def test_benchmark_metric_names_are_well_formed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name


def _tiny_run(kind: str, primary: str):
    """Trace a short train and eval of ``kind``; returns (tracer, patched, metrics)."""
    from maria import datagen, training
    from maria.autodiff import Graph
    from maria.benchmark import benchmark_config
    from maria.model import build_model

    cfg = benchmark_config(192, 5)
    cfg = replace(cfg, train=replace(cfg.train, batch_size=64, epochs=1))
    data, _ = datagen.generate(cfg)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.phase = "timed"
        graph = Graph(seed=0)
        model = build_model(graph, cfg, kind=kind)
        training.train(graph, model, data.instances, cfg.train)
        training.evaluate(model, data.instances, 64)
    finally:
        patched = tracer.patched()
        tracer.uninstall()
    return tracer, patched, spans.layer_metrics(tracer.rows(), tracer.step_kind, primary)


def test_traced_run_restores_every_wrapped_function():
    modules = {name: mod for name, mod in sys.modules.items() if name == "maria" or name.startswith("maria.")}
    before = {(name, attr): value for name, mod in modules.items() for attr, value in vars(mod).items()}
    tracer, patched, metrics = _tiny_run("maria", "train")
    assert len(patched) > 30
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    after = {(name, attr): value for name, mod in modules.items() for attr, value in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    for name in metrics:
        assert NAME_RE.fullmatch(name), name


def test_layer_metrics_show_the_predicted_bypasses():
    _, _, maria_train = _tiny_run("maria", "train")
    assert maria_train["autodiff.nodes_per_step"] > 0
    assert {"features.fs.fwd_ms", "features.fr.fwd_ms", "features.fcm.fwd_ms", "autodiff.backward.ms"} <= maria_train.keys()
    assert maria_train["features.fr.useful_refiner_frac"] == pytest.approx(5 / 7)  # refiners 1,3,1,1,1

    _, _, mmoe_train = _tiny_run("mmoe", "train")
    assert not [k for k in mmoe_train if k.startswith("features.")]

    _, _, maria_eval = _tiny_run("maria", "eval")
    assert maria_eval["autodiff.grad_bytes_alloc"] > 0
    assert not [k for k in maria_eval if k.startswith(("autodiff.backward", "autodiff.zero_grads", "optim."))]
