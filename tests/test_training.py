"""Training loop behavior, evaluation reports, ablation sweeps, gradient harness."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import BENCHMARK_STEP_NODES, recipe_grads

from maria import checkpoint, datagen, metrics, training
from maria.autodiff import Graph
from maria.benchmark import EVAL_DATA_SEED, TRAIN_DATA_SEED, benchmark_config, run_benchmark
from maria.config import build_run_config
from maria.model import build_model, make_batch, model_from_spec
from maria.training import TrainingDiverged, ablate, evaluate, gradient_check, run_cell, train


def learnable_overrides(**extra):
    base = {
        "vocab.users": "24", "vocab.items": "36", "vocab.user_attrs": "12",
        "vocab.item_attrs": "12", "vocab.trigger_attrs": "8", "vocab.context_attrs": "8",
        "vocab.scenarios": "2",
        "schema.user_attrs": "2", "schema.item_attrs": "2", "schema.trigger_attrs": "1",
        "schema.context_attrs": "2", "schema.max_behavior": "3", "schema.image_dim": "4",
        "dim.user": "4", "dim.item": "4", "dim.attr": "2", "dim.context": "2",
        "dim.scenario": "3", "dim.trigger": "4",
        "model.experts": "2", "model.expert_hidden": "16", "model.tower_dims": "16,8",
        "model.correlation_dim": "3", "model.scale_hidden": "8",
        "model.gumbel_temperature": "1.0",
        "scenario.0.noise_std": "0", "scenario.1.noise_std": "0",
        "train.batch_size": "64", "train.epochs": "6", "train.learning_rate": "0.02",
        "train.seed": "1", "gen.count": "2000", "gen.seed": "5",
    }
    base.update(extra)
    return build_run_config(base)


def make_run(cfg):
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=cfg.train.seed)
    model = build_model(graph, cfg)
    return dataset, graph, model


def test_model_learns_a_noise_free_task():
    weights = ",".join(["5", "-5"] * 5 + ["5"])  # 11 elements, strongly separable
    cfg = learnable_overrides(**{
        "train.learning_rate": "0.02", "train.epochs": "14", "train.batch_size": "128",
        "scenario.0.label_weights": weights, "scenario.1.label_weights": weights,
    })
    dataset, graph, model = make_run(cfg)
    report = train(graph, model, dataset.instances, cfg.train)
    assert report.steps == 14 * int(np.ceil(2000 / 128))
    assert report.epoch_losses[-1] < report.epoch_losses[0] * 0.9
    result = evaluate(model, dataset.instances, cfg.train.batch_size)
    assert result.auc is not None and result.auc >= 0.95
    for scenario_eval in result.per_scenario.values():
        assert scenario_eval.auc >= 0.9
    assert dataset.manifest.bayes_auc["overall"] >= result.auc - 0.05


def test_training_is_deterministic():
    cfg = learnable_overrides(**{"train.epochs": "2", "gen.count": "400"})
    ds1, g1, m1 = make_run(cfg)
    r1 = train(g1, m1, ds1.instances, cfg.train)
    ds2, g2, m2 = make_run(cfg)
    r2 = train(g2, m2, ds2.instances, cfg.train)
    assert r1.epoch_losses == r2.epoch_losses
    for (n1, v1), (n2, v2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(v1.data, v2.data)


def test_zero_epochs_is_a_no_op():
    cfg = learnable_overrides(**{"train.epochs": "0", "gen.count": "100"})
    dataset, graph, model = make_run(cfg)
    before = [v.data.copy() for v in model.parameter_values()]
    report = train(graph, model, dataset.instances, cfg.train)
    assert report.steps == 0 and report.epoch_losses == []
    for old, value in zip(before, model.parameter_values()):
        assert np.array_equal(old, value.data)
    with pytest.raises(ValueError, match="no instances"):
        train(graph, model, [], cfg.train)


def test_weight_decay_shrinks_parameters():
    cfg_plain = learnable_overrides(**{
        "train.epochs": "1", "gen.count": "300", "train.weight_decay": "0",
        "train.learning_rate": "0.001",
    })
    cfg_decay = learnable_overrides(**{
        "train.epochs": "1", "gen.count": "300", "train.weight_decay": "0.2",
        "train.learning_rate": "0.001",
    })
    ds, g1, m1 = make_run(cfg_plain)
    train(g1, m1, ds.instances, cfg_plain.train)
    _, g2, m2 = make_run(cfg_decay)
    train(g2, m2, ds.instances, cfg_decay.train)
    norm_plain = sum(float(np.sum(v.data**2)) for v in m1.parameter_values())
    norm_decay = sum(float(np.sum(v.data**2)) for v in m2.parameter_values())
    assert norm_decay < norm_plain


def test_divergence_guard_names_the_step():
    cfg = learnable_overrides(**{"gen.count": "100"})
    dataset, graph, model = make_run(cfg)
    model.parameter_values()[0].data[...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged, match="step 0"):
        train(graph, model, dataset.instances, cfg.train)


def test_non_finite_gradient_guard_names_parameter_group_and_step_and_moves_nothing(monkeypatch):
    cfg = learnable_overrides(**{"gen.count": "100"})
    dataset, graph, model = make_run(cfg)
    named = model.named_parameters()
    tower = next(value for name, value in named if name.startswith("towers.scenario"))
    backward = training.ad.backward

    def poisoned_backward(loss):
        backward(loss)
        tower.grad.flat[0] = np.nan

    monkeypatch.setattr(training.ad, "backward", poisoned_backward)
    before = [value.data.copy() for _, value in named]
    with pytest.raises(TrainingDiverged, match=r"gradient of towers\.scenario.*\(scenario_towers\).* step 0$"):
        train(graph, model, dataset.instances, cfg.train)
    for (name, value), was in zip(named, before):
        assert value.data.tobytes() == was.tobytes(), name


def _not_float32(graph) -> list:
    """The (op, data dtype, grad dtype) of every node not wholly float32."""
    return [
        (node.op, str(node.data.dtype), None if node._grad is None else str(node._grad.dtype))
        for node in graph.nodes
        if node.data.dtype != np.float32 or (node._grad is not None and node._grad.dtype != np.float32)
    ]


def test_a_training_step_builds_only_float32_node_data_and_grads(monkeypatch):
    """One step on the benchmark recipe at batch 64: no float64 constant,
    default-dtype buffer or bincount sum promotes a node or a grad, or
    reaches a grad as a float64 contribution. Interior grads are read as
    their recipes receive them; at ``truncate`` only the parameters hold
    grads."""
    cfg = benchmark_config(64, 3)
    cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, batch_size=64, epochs=1))
    dataset, graph, model = make_run(cfg)
    contributions = set()
    accumulate = training.ad._accumulate

    def recording_accumulate(node, contribution, g):
        contributions.add(np.asarray(contribution).dtype)
        accumulate(node, contribution, g)

    monkeypatch.setattr(training.ad, "_accumulate", recording_accumulate)
    received = {}
    backward = training.ad.backward
    monkeypatch.setattr(training.ad, "backward", lambda loss: received.update(recipe_grads(loss, backward)))
    seen = []
    truncate = graph.truncate

    def checked_truncate(m):
        holders = [node for node in graph.nodes if node._grad is not None]
        seen.append((len(graph) - m, holders, _not_float32(graph)))
        truncate(m)

    graph.truncate = checked_truncate
    train(graph, model, dataset.instances, cfg.train)
    del graph.truncate
    assert len(seen) == 1
    built, holders, promoted = seen[0]
    # One full step: the graph the benchmark pins for train-maria at batch 512.
    assert built == BENCHMARK_STEP_NODES["train-maria"]
    assert {id(node) for node in holders} == {id(value) for value in model.parameter_values()}
    assert promoted == []
    assert received and {grad.dtype for grad in received.values()} == {np.dtype(np.float32)}
    assert contributions == {np.dtype(np.float32)}


def test_train_truncates_the_arena_and_keeps_the_last_completed_step_when_it_raises(monkeypatch):
    cfg = learnable_overrides(**{"train.epochs": "1", "gen.count": "200"})
    dataset, graph, model = make_run(cfg)
    start = len(graph)
    initial = [v.data.copy() for v in model.parameter_values()]
    train(graph, model, dataset.instances, cfg.train)
    assert len(graph) == start
    assert not all(np.array_equal(a, v.data) for a, v in zip(initial, model.parameter_values()))

    # raised at step 2: the values of the last completed step
    first = model.parameter_values()[0]
    backward, calls, completed = training.ad.backward, [], []

    def poisoned_backward(loss):
        backward(loss)
        calls.append(None)
        if len(calls) == 3:
            completed.extend(v.data.copy() for v in model.parameter_values())
            first.grad.flat[0] = np.nan

    monkeypatch.setattr(training.ad, "backward", poisoned_backward)
    trained = [v.data.copy() for v in model.parameter_values()]
    with pytest.raises(TrainingDiverged, match="step 2$"):
        train(graph, model, dataset.instances, cfg.train)
    assert len(graph) == start
    assert not all(np.array_equal(a, v.data) for a, v in zip(trained, model.parameter_values()))
    assert all(np.array_equal(a, v.data) for a, v in zip(completed, model.parameter_values()))

    # raised before any step completed: the values are unchanged
    monkeypatch.setattr(training.ad, "backward", backward)
    first.data[...] = np.inf
    before = [v.data.copy() for v in model.parameter_values()]
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged, match="step 0"):
        train(graph, model, dataset.instances, cfg.train)
    assert len(graph) == start
    assert all(np.array_equal(a, v.data) for a, v in zip(before, model.parameter_values()))


def test_train_clears_the_grads_once_per_step_before_its_pass(monkeypatch):
    # Cleared before the forward, the grads dropped are the parameters' alone.
    cfg = learnable_overrides(**{"train.epochs": "2", "gen.count": "300"})
    dataset, graph, model = make_run(cfg)
    sizes = []
    zero_grads = Graph.zero_grads
    monkeypatch.setattr(Graph, "zero_grads", lambda g: sizes.append(len(g)) or zero_grads(g))
    settings = dataclasses.replace(cfg.train, eval_every=1)
    report = train(graph, model, dataset.instances[:200], settings, eval_instances=dataset.instances[200:])
    assert len(report.eval_history) == 2
    assert report.steps > 0 and sizes == [len(graph.params)] * report.steps
    assert len(graph) == len(graph.params)


def test_evaluate_on_a_float32_graph_gives_a_finite_loss():
    cfg = learnable_overrides(**{"gen.count": "100"})
    dataset, graph, model = make_run(cfg)
    model.head.biases[0].data[...] = 60.0  # every score rounds to 1.0 in float32
    report = evaluate(model, dataset.instances, batch_size=64)
    assert 0 < sum(dataset.instances.label) < len(dataset.instances)
    assert np.isfinite(report.loss)


def test_gradient_check_refuses_a_float32_graph():
    cfg = learnable_overrides(**{"gen.count": "4"})
    dataset, graph, model = make_run(cfg)
    assert graph.dtype == np.float32
    with pytest.raises(ValueError, match="needs a float64 graph, got float32"):
        gradient_check(graph, model, dataset.instances)


def test_early_stop_on_flat_eval():
    cfg = learnable_overrides(**{
        "train.epochs": "5", "train.eval_every": "1", "train.early_stop_patience": "1",
        "gen.count": "200",
    })
    dataset, graph, model = make_run(cfg)
    first = dataset.instances[:50]
    all_positive = dataclasses.replace(first, label=np.ones_like(first.label))
    report = train(graph, model, dataset.instances, cfg.train, eval_instances=all_positive)
    assert report.stopped_early
    assert len(report.epoch_losses) == 1  # stopped after the first epoch's eval
    assert report.eval_history[0][1] is None  # single-class eval has no auc


def test_evaluate_is_side_effect_free_and_reports_scenarios():
    cfg = learnable_overrides(**{"train.epochs": "1", "gen.count": "500"})
    dataset, graph, model = make_run(cfg)
    train(graph, model, dataset.instances, cfg.train)

    params_before = [v.data.copy() for v in model.parameter_values()]
    arena_before = len(graph)
    rng_before = graph.rng.bit_generator.state
    clamp_before = graph.clamp_events

    report = evaluate(model, dataset.instances, batch_size=64)

    assert len(graph) == arena_before
    assert graph.rng.bit_generator.state == rng_before
    assert graph.clamp_events == clamp_before
    for old, value in zip(params_before, model.parameter_values()):
        assert np.array_equal(old, value.data)

    assert report.count == 500
    assert set(report.per_scenario) == {0, 1}
    assert sum(e.count for e in report.per_scenario.values()) == 500
    for fname, hist in report.refiner_hist.items():
        assert hist.shape[0] == cfg.vocab.scenarios
        # one pick per instance per field, in its scenario's row
        assert hist.sum(axis=1).tolist() == [report.per_scenario[s].count for s in range(cfg.vocab.scenarios)]
    assert report.to_dict()["count"] == 500


def test_eval_puts_a_one_refiner_field_in_column_0_for_every_row():
    cfg = benchmark_config(600, 3)  # refiners 1,3,1,1,1: only the user field selects
    dataset, _ = datagen.generate(cfg)
    model = build_model(Graph(seed=0), cfg)
    report = evaluate(model, dataset.instances, batch_size=256)
    counts = [report.per_scenario[s].count for s in range(cfg.vocab.scenarios)]
    for fname, hist in report.refiner_hist.items():
        assert hist.shape == (cfg.vocab.scenarios, 3 if fname == "user" else 1), fname
        assert hist.sum(axis=1).tolist() == counts, fname


def test_eval_makes_no_grad_buffers_and_leaves_training_unchanged():
    cfg = learnable_overrides(**{"train.epochs": "2", "gen.count": "400"})
    dataset, graph, model = make_run(cfg)
    batch = make_batch(dataset.instances[:64], model.vocab, model.schema, model.trigger_mode)
    mark = graph.mark()
    model.forward(batch, mode="eval")
    assert len(graph) > mark
    assert all(node._grad is None for node in graph.nodes)
    graph.truncate(mark)

    # evaluate truncates after each batch: look at every node first.
    unbuffered = []
    truncate = graph.truncate

    def checked_truncate(m):
        unbuffered.append(len(graph) > m and all(node._grad is None for node in graph.nodes))
        truncate(m)

    graph.truncate = checked_truncate
    evaluate(model, dataset.instances, batch_size=64)
    del graph.truncate
    assert len(unbuffered) == 7 and all(unbuffered)

    report = train(graph, model, dataset.instances, cfg.train)
    ref_ds, ref_graph, ref_model = make_run(cfg)
    ref = train(ref_graph, ref_model, ref_ds.instances, cfg.train)
    assert report.step_losses == ref.step_losses
    for (n1, v1), (n2, v2) in zip(model.named_parameters(), ref_model.named_parameters()):
        assert n1 == n2
        assert np.array_equal(v1.data, v2.data)


def test_evaluate_of_a_trained_model_scores_every_batch_in_float32():
    cfg = learnable_overrides(**{"train.epochs": "1", "gen.count": "200"})
    dataset, graph, model = make_run(cfg)
    train(graph, model, dataset.instances, cfg.train)
    scored = []
    forward = model.forward

    def recording_forward(batch, mode):
        result = forward(batch, mode=mode)
        scored.append((graph.dtype, result.score.data.dtype, {v.data.dtype for v in model.parameter_values()}))
        return result

    model.forward = recording_forward
    evaluate(model, dataset.instances, batch_size=64)
    f32 = np.dtype(np.float32)
    assert scored == [(f32, f32, {f32})] * 4  # every batch scored in float32


def test_evaluate_truncates_the_arena_when_a_batch_raises():
    cfg = benchmark_config(64, 3)
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=0)
    model = build_model(graph, cfg)
    dataset.instances.target_item[40] = cfg.vocab.items + 5  # in the second batch of 32
    start = len(graph)
    with pytest.raises(IndexError):
        evaluate(model, dataset.instances, batch_size=32)
    assert len(graph) == start


def test_mid_training_evals_leave_the_steps_and_the_checkpoint_unchanged(tmp_path):
    cfg = learnable_overrides(**{"train.epochs": "2", "gen.count": "300"})
    runs = []
    for every in (0, 1):
        dataset, graph, model = make_run(cfg)
        settings = dataclasses.replace(cfg.train, eval_every=every)
        report = train(graph, model, dataset.instances[:200], settings, eval_instances=dataset.instances[200:])
        assert len(report.eval_history) == 2 * every
        path = tmp_path / f"every{every}.ckpt"
        checkpoint.save_model(path, model)
        runs.append((report.step_losses, path.read_bytes()))
    assert runs[1] == runs[0]


def test_float32_evaluate_matches_a_float64_forward_of_the_checkpoint(tmp_path):
    """The reference for scoring in float32: the same checkpoint scored by a
    float64 forward, batch by batch as ``evaluate`` cuts the log."""
    cfg = benchmark_config(3072, 7)
    dataset, _ = datagen.generate(cfg)
    train_rows, heldout = dataset.instances[:2048], dataset.instances[2048:]
    graph = Graph(seed=cfg.train.seed)
    trained = build_model(graph, cfg)
    train(graph, trained, train_rows, dataclasses.replace(cfg.train, epochs=2))
    path = tmp_path / "maria.ckpt"
    checkpoint.save_model(path, trained)
    model, _, _ = checkpoint.load_model(path)
    spec, _, records = checkpoint.load_checkpoint(path)
    graph64 = Graph(seed=0, dtype=np.float64)
    wide = model_from_spec(graph64, spec, seed=0)
    named = dict(wide.named_parameters())
    for name, arr in records:
        named[name].data[...] = arr

    scores64, hist64 = [], {fname: np.zeros((cfg.vocab.scenarios, n)) for fname, n in wide.fr.counts.items()}
    for block in datagen.batch_iter(heldout, 512):
        mark = graph64.mark()
        result = wide.forward(make_batch(block, wide.vocab, wide.schema, wide.trigger_mode), mode="eval")
        assert result.score.data.dtype == np.float64
        scores64.append(result.score.data.copy())
        for fname, picks in result.trace["refiner_choice"].items():
            np.add.at(hist64[fname], (block.scenario, picks), 1.0)
        graph64.truncate(mark)
    scores64 = np.concatenate(scores64)

    scores32 = []
    forward = model.forward

    def recording_forward(batch, mode):
        result = forward(batch, mode=mode)
        scores32.append(result.score.data.copy())
        return result

    model.forward = recording_forward
    report = evaluate(model, heldout, batch_size=512)
    scores32 = np.concatenate(scores32)
    assert scores32.dtype == np.float32
    np.testing.assert_allclose(scores32, scores64, rtol=1e-5, atol=0)
    labels = heldout.label.astype(np.float64)
    assert abs(report.auc - metrics.auc(scores64, labels)) <= 1e-6
    for sid, entry in report.per_scenario.items():
        sel = heldout.scenario == sid
        assert abs(entry.auc - metrics.auc(scores64[sel], labels[sel])) <= 1e-6, sid
    assert report.refiner_hist.keys() == hist64.keys()
    for fname, hist in hist64.items():
        np.testing.assert_array_equal(report.refiner_hist[fname], hist, err_msg=fname)


def test_a_reloaded_checkpoint_scores_bit_equal_to_the_model_it_saved(tmp_path):
    cfg = benchmark_config(3072, 7)
    dataset, _ = datagen.generate(cfg)
    train_rows, heldout = dataset.instances[:2048], dataset.instances[2048:]
    graph = Graph(seed=cfg.train.seed)
    trained = build_model(graph, cfg)
    train(graph, trained, train_rows, dataclasses.replace(cfg.train, epochs=1))
    path = tmp_path / "maria.ckpt"
    checkpoint.save_model(path, trained)
    reloaded, reloaded_graph, _ = checkpoint.load_model(path)
    assert reloaded_graph.dtype == np.float32
    assert {value.data.dtype for value in reloaded.parameter_values()} == {np.dtype(np.float32)}

    def scores(model):
        out = []
        for block in datagen.batch_iter(heldout, 512):
            mark = model.graph.mark()
            out.append(model.forward(make_batch(block, model.vocab, model.schema, model.trigger_mode), mode="eval").score.data.copy())
            model.graph.truncate(mark)
        return out

    for batch, (ours, theirs) in enumerate(zip(scores(trained), scores(reloaded), strict=True)):
        assert ours.dtype == theirs.dtype == np.float32
        assert ours.tobytes() == theirs.tobytes(), batch
    assert evaluate(reloaded, heldout, 512).to_dict() == evaluate(trained, heldout, 512).to_dict()


def test_evaluate_refuses_workers_other_than_one():
    cfg = learnable_overrides(**{"gen.count": "40"})
    dataset, _, model = make_run(cfg)
    for workers in (0, 2):
        with pytest.raises(ValueError, match=f"workers must be 1, got {workers}"):
            evaluate(model, dataset.instances, batch_size=32, workers=workers)


def test_single_class_eval_warns():
    cfg = learnable_overrides(**{"train.epochs": "1", "gen.count": "120"})
    dataset, graph, model = make_run(cfg)
    train(graph, model, dataset.instances, cfg.train)
    forced = dataclasses.replace(dataset.instances, label=np.ones_like(dataset.instances.label))
    report = evaluate(model, forced, batch_size=64)
    assert report.auc is None
    assert any("only one label class" in w for w in report.warnings)


def test_ablation_bookkeeping():
    cfg = learnable_overrides(**{"train.epochs": "1", "gen.count": "300"})
    dataset, _ = datagen.generate(cfg)
    split = 200
    report = ablate(cfg, dataset.instances[:split], dataset.instances[split:],
                    variants=("full", "wo_st", "wo_nl"))
    assert set(report.results) == {"full", "wo_st", "wo_nl"}
    gains = report.gains()
    assert set(gains) == {"wo_st", "wo_nl"}
    for row in gains.values():
        assert "total_gain" in row

    full_model = build_model(Graph(seed=0), cfg)
    summary = full_model.parameter_summary()
    assert report.results["full"].parameters == summary["total"]
    assert report.results["wo_st"].parameters == summary["total"] - summary["shared_tower"]
    table = report.to_table()
    assert "wo_st" in table and "total_gain" in table


def _timeless(cell: training.CellResult) -> dict:
    return {k: v for k, v in dataclasses.asdict(cell).items() if k != "seconds"}


def test_every_ablation_result_is_the_cell_run_cell_gives():
    cfg = benchmark_config(500, 3)
    dataset, _ = datagen.generate(cfg)
    train_rows, eval_rows = dataset.instances[:300], dataset.instances[300:]
    report = ablate(cfg, train_rows, eval_rows, variants=("full", "wo_fr", "wo_st"))
    for variant, result in report.results.items():
        cfg_v = cfg if variant == "full" else dataclasses.replace(cfg, flags=cfg.flags.disable([variant[len("wo_"):]]))
        assert _timeless(result) == _timeless(run_cell(cfg_v, train_rows, eval_rows)), variant
    assert report.results["wo_fr"].user_divergence is None
    doc = report.to_dict()
    assert [list(r) for r in doc["results"].values()] == [["auc", "per_scenario_auc", "parameters"]] * 3


def test_every_benchmark_run_is_the_cell_run_cell_gives():
    report = run_benchmark(kinds=("maria", "mmoe"), seeds=(0, 1), train_count=300, eval_count=200)
    cfg = benchmark_config(300, TRAIN_DATA_SEED)
    train_rows = datagen.generate(cfg)[0].instances
    eval_rows = datagen.generate(benchmark_config(200, EVAL_DATA_SEED))[0].instances
    assert [(r.kind, r.seed) for r in report.runs] == [("maria", 0), ("maria", 1), ("mmoe", 0), ("mmoe", 1)]
    for run in report.runs:
        cell = run_cell(dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=run.seed)),
                        train_rows, eval_rows, kind=run.kind)
        assert _timeless(run) == _timeless(cell), (run.kind, run.seed)
    doc = report.to_dict()
    keys = ["kind", "seed", "auc", "per_scenario_auc", "user_divergence", "seconds"]
    assert [list(r) for r in doc["runs"]] == [keys] * 4
    assert doc["user_divergences"] == [r.user_divergence for r in report.runs[:2]]
    assert doc["mean_auc"] == {kind: (report.runs[i].auc + report.runs[i + 1].auc) / 2
                               for kind, i in (("maria", 0), ("mmoe", 2))}


def test_gradient_check_harness_passes_and_can_fail():
    cfg = learnable_overrides(**{"gen.count": "4", "model.gumbel_temperature": "1.0"})
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=cfg.train.seed, dtype=np.float64)
    model = build_model(graph, cfg)
    report = gradient_check(graph, model, dataset.instances, coords_per_tensor=1)
    assert report.overall <= 1e-4
    from maria.model import _SUMMARY_GROUPS
    assert set(report.per_group) <= {g for g, _ in _SUMMARY_GROUPS}
    assert report.coords > 0 and report.seconds > 0

    corrupted = gradient_check(graph, model, dataset.instances, coords_per_tensor=1, corrupt_group="mixture")
    assert corrupted.per_group["mixture"] > 1e-2
    clean_groups = {g: e for g, e in corrupted.per_group.items() if g != "mixture"}
    assert max(clean_groups.values()) <= 1e-4

    with pytest.raises(ValueError, match="corrupt_group"):
        gradient_check(graph, model, dataset.instances, corrupt_group="nonexistent")


def test_benchmark_times_its_data_generation():
    lines = []
    report = run_benchmark(kinds=(), seeds=(), train_count=60, eval_count=30, log_fn=lines.append)
    assert 0 < report.gen_seconds <= report.seconds
    assert report.to_dict()["gen_seconds"] == report.gen_seconds
    assert lines[0].startswith(f"data ready: 60 train / 30 eval in {report.gen_seconds:.1f}s (")
    assert f"({90 / report.gen_seconds:.0f} inst/s)" in lines[0]


@pytest.mark.parametrize(
    "argv, named", [(["--kinds", "maria,bogus"], "'bogus'"), (["--seeds", "0,x"], "'0,x'")], ids=["kinds", "seeds"]
)
def test_benchmark_script_refuses_a_bad_kind_or_seed_before_generating_data(monkeypatch, capsys, argv, named):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
    spec = importlib.util.spec_from_file_location("run_benchmark_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "run_benchmark", lambda **_: pytest.fail("the script went on to run the benchmark"))
    monkeypatch.setattr(sys, "argv", ["run_benchmark.py", *argv])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
