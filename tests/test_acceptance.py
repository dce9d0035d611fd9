"""Acceptance gate: nine checks, one pass/fail line each.

Covers gradient integrity, stop-gradient isolation, metric oracles,
selection-sampling statistics, analytic invariants, the directional
synthetic experiment, refiner-selection divergence, ablation bookkeeping,
and bit-level determinism. Run with -s to see the lines on success.
"""

import json
import math

import numpy as np
import pytest

from helpers import pairwise_auc
from maria import autodiff as ad
from maria import cli, config, datagen, features as ft, metrics, training
from maria.autodiff import Graph
from maria.benchmark import run_benchmark
from maria.model import _grouped_towers, bce_loss, build_model, make_batch

TINY = {
    "vocab.users": "20", "vocab.items": "30", "vocab.user_attrs": "12",
    "vocab.item_attrs": "12", "vocab.trigger_attrs": "8", "vocab.context_attrs": "8",
    "vocab.scenarios": "2",
    "schema.max_behavior": "4",
    "dim.user": "8", "dim.item": "8", "dim.attr": "4", "dim.context": "4",
    "dim.scenario": "4", "dim.trigger": "8",
    "model.experts": "2", "model.expert_hidden": "16",
    "model.tower_dims": "16,8", "model.scale_hidden": "12",
    "model.refiners": "1,2,1,1,1",
}


def tiny_cfg(**over):
    merged = dict(TINY)
    merged.update(over)
    return config.build_run_config(merged)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _tiny_batch(cfg, count, gen_seed, graph_seed):
    dataset, _ = datagen.generate(
        config.build_run_config(
            {**TINY, "gen.count": str(count), "gen.seed": str(gen_seed)}
        )
    )
    graph = Graph(seed=graph_seed, dtype=np.float64)
    model = build_model(graph, cfg)
    batch = make_batch(dataset.instances, model.vocab, model.schema, model.trigger_mode)
    return graph, model, batch, dataset


def test_criterion_1_gradient_integrity():
    cfg = tiny_cfg(**{"gen.count": "8", "gen.seed": "3"})
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=cfg.train.seed, dtype=np.float64)
    model = build_model(graph, cfg)
    report = training.gradient_check(graph, model, dataset.instances, coords_per_tensor=2, eps=1e-5)
    ok = report.overall <= 1e-4 and report.seconds < 60.0
    worst = max(report.per_group, key=report.per_group.get)
    _line(
        1, ok,
        f"max relative error {report.overall:.3e} (worst group {worst}) over "
        f"{report.coords} coordinates in {report.seconds:.1f}s; need <= 1e-4 in < 60s",
    )


def test_criterion_2_stop_gradient_isolation():
    cfg = tiny_cfg()
    graph, model, batch, _ = _tiny_batch(cfg, 12, 5, 0)
    out = model.bottom.encode(batch)
    # the scaling multipliers see the assembled vector only through the
    # gradient-frozen view, so a loss on them alone must leave the sequence
    # encoder untouched
    _, alpha = model.fs.forward(out.q, out.e_user, out.e_item, out.e_scenario)
    graph.zero_grads()
    ad.backward(ad.sum_all(alpha))
    encoder = [(n, v) for n, v in model.named_parameters() if n.startswith("bottom.encoder.")]
    dirty = [n for n, v in encoder if not np.all(v.grad == 0.0)]
    scale_live = any(
        np.any(v.grad != 0.0) for n, v in model.named_parameters() if n.startswith("adaptive.fs.")
    )
    ok = bool(encoder) and not dirty and scale_live
    _line(
        2, ok,
        f"{len(encoder)} encoder tensors all bitwise zero grad "
        f"(dirty: {dirty or 'none'}); scaling net grads nonzero: {scale_live}",
    )


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 60))
        if case % 3 == 0:
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # guaranteed ties
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        worst = max(worst, abs(metrics.auc(scores, labels) - pairwise_auc(scores, labels)))

    scores = rng.random(500)
    labels = (rng.random(500) < 0.3).astype(np.float64)
    want_pcoc = (math.fsum(scores) / 500) / (math.fsum(labels) / 500)
    pcoc_diff = abs(metrics.pcoc(scores, labels) - want_pcoc)

    graph = Graph(seed=0, dtype=np.float64)
    p = np.clip(rng.random(300), 1e-6, 1 - 1e-6)
    y = (rng.random(300) < 0.5).astype(np.float64)
    got_mean = float(bce_loss(graph.constant(p), y).data) / 300
    want_mean = math.fsum(
        -(yi * math.log(pi) + (1 - yi) * math.log(1 - pi)) for pi, yi in zip(p, y)
    ) / 300
    loss_diff = abs(got_mean - want_mean)

    ok = worst <= 1e-12 and pcoc_diff <= 1e-12 and loss_diff <= 1e-12
    _line(
        3, ok,
        f"auc vs pairwise oracle {worst:.2e} over 200 cases; pcoc {pcoc_diff:.2e}; "
        f"mean loss {loss_diff:.2e}; all need <= 1e-12",
    )


def test_criterion_4_gumbel_argmax_frequency():
    graph = Graph(seed=7)
    logits = graph.constant(np.tile(np.log([0.7, 0.3]), (100000, 1)))
    sample = ad.gumbel_softmax(logits, 1.0)
    freq = float(np.mean(sample.data.argmax(axis=-1) == 0))
    ok = abs(freq - 0.70) <= 0.02
    _line(4, ok, f"argmax frequency {freq:.4f} over 100000 draws; need 0.70 +/- 0.02")


def test_criterion_5_analytic_invariants():
    cfg = tiny_cfg()
    graph, model, batch, _ = _tiny_batch(cfg, 16, 9, 1)
    checks: list[tuple[str, bool]] = []

    # scaling is the identity when its network is zeroed and the ceiling is 2
    assert model.settings.scale_ceiling == 2.0
    saved = [(v, v.data.copy()) for n, v in model.named_parameters() if n.startswith("adaptive.fs.net.")]
    for v, _ in saved:
        v.data[...] = 0.0
    out = model.bottom.encode(batch)
    scaled, _ = model.fs.forward(out.q, out.e_user, out.e_item, out.e_scenario)
    checks.append(("scaling identity at zeroed net", float(np.max(np.abs(scaled.data - out.q.data))) <= 1e-15))
    for v, data in saved:
        v.data[...] = data

    result = model.forward(batch, mode="train")
    a = result.alpha.data
    checks.append(("alpha strictly inside (0, 2)", bool(np.all(a > 0.0) and np.all(a < 2.0))))

    out = model.bottom.encode(batch)
    q_s, _ = model.fs.forward(out.q, out.e_user, out.e_item, out.e_scenario)
    sums_ok, onehot_ok = True, True
    for f in model.layout.fields:
        piece = ad.slice_last(q_s, f.offset, f.offset + f.width)
        scores = ad.sigmoid(
            model.fr.selectors[f.name].forward(ad.concat([piece, out.e_scenario], axis=-1))
        )
        beta = ad.gumbel_softmax(scores, model.fr.temperature)
        sums_ok &= bool(np.max(np.abs(beta.data.sum(axis=-1) - 1.0)) <= 1e-12)
        hard = ad.argmax_one_hot(scores).data
        top = np.sort(hard, axis=-1)
        onehot_ok &= bool(np.all(top[..., -1] == 1.0) and np.all(top[..., :-1] == 0.0))
    checks.append(("selection weights sum to 1 in training", sums_ok))
    checks.append(("selection exactly one-hot at evaluation", onehot_ok))

    checks.append(("10 correlation terms for 5 fields", model.fcm.out_width == 10 and len(model.layout.fields) == 5))

    gates = ad.softmax_last(model.mixture.gate.forward(out.e_scenario))
    checks.append(("expert gate sums to 1", float(np.max(np.abs(gates.data.sum(axis=-1) - 1.0))) <= 1e-12))

    # orthogonal scenario embeddings shut off the shared tower exactly
    w = model.scenario_tab.weights
    w.data[...] = 0.0
    w.data[0, 0] = 1.0
    w.data[1, 1] = 1.0
    coupling = model._coupling(batch.scenario)
    checks.append(("coupling exactly zero when orthogonal", bool(np.all(coupling.data == 0.0))))
    score = model.forward(batch, mode="eval").score
    out2 = model.bottom.encode(batch)
    fused, _ = ft.adaptive_features(
        out2.q, out2.e_user, out2.e_item, out2.e_scenario,
        model.fs, model.fr, model.fcm, "eval", None,
    )
    mixed = model.mixture.forward(fused, out2.e_scenario)
    specific = _grouped_towers(model.towers, mixed, batch.scenario)
    bare = ad.reshape(model.head.forward(specific), (batch.size,))
    checks.append(("fused head equals the specific tower bitwise", bool(np.array_equal(score.data, bare.data))))

    labels = (np.arange(64) % 2).astype(np.float64)
    per_instance = float(bce_loss(graph.constant(np.full(64, 0.5)), labels).data) / 64
    checks.append(("cross-entropy at 0.5 equals ln 2", abs(per_instance - math.log(2.0)) <= 1e-12))

    failed = [name for name, ok in checks if not ok]
    _line(5, not failed, f"{len(checks)} invariants checked; failing: {failed or 'none'}")


@pytest.fixture(scope="module")
def bench_report():
    return run_benchmark(log_fn=None)


def test_criterion_6_directional_experiment(bench_report):
    r = bench_report
    gap_hard = r.gap("hard_sharing")
    gap_mmoe = r.gap("mmoe")
    ok = (
        gap_hard is not None and gap_hard >= 0.01
        and gap_mmoe is not None and gap_mmoe >= -0.005
        and r.seconds < 900.0
    )
    _line(
        6, ok,
        f"mean auc maria {r.mean_auc.get('maria', float('nan')):.4f}, "
        f"hard_sharing {r.mean_auc.get('hard_sharing', float('nan')):.4f} (gap {gap_hard:+.4f}, need >= +0.01), "
        f"mmoe {r.mean_auc.get('mmoe', float('nan')):.4f} (gap {gap_mmoe:+.4f}, need >= -0.005); "
        f"{r.seconds:.0f}s of < 900s",
    )


def test_criterion_7_refiner_selection_divergence(bench_report):
    divs = bench_report.user_divergences
    ok = len(divs) == 3 and min(divs) > 0.2
    shown = ", ".join(f"{d:.3f}" for d in divs)
    _line(7, ok, f"user-field selection divergence per seed [{shown}]; every seed needs > 0.2")


def test_criterion_8_ablation_bookkeeping():
    cfg = tiny_cfg(**{
        "gen.count": "1600", "gen.seed": "21",
        "train.epochs": "2", "train.learning_rate": "0.01", "train.batch_size": "128",
    })
    dataset, _ = datagen.generate(cfg)
    report = training.ablate(cfg, dataset.instances[:1200], dataset.instances[1200:])
    table = report.to_table()
    rows_ok = all(variant in table for variant in training.ABLATION_VARIANTS)
    gains = report.gains()
    gains_ok = set(gains) == set(training.ABLATION_VARIANTS) - {"full"} and all(
        "total_gain" in row for row in gains.values()
    )
    delta = report.results["full"].parameters - report.results["wo_st"].parameters
    shared = build_model(Graph(seed=0), cfg).parameter_summary()["shared_tower"]
    ok = rows_ok and gains_ok and delta == shared
    _line(
        8, ok,
        f"table rows for all {len(training.ABLATION_VARIANTS)} variants: {rows_ok}; gains complete: {gains_ok}; "
        f"w/o shared-tower parameter delta {delta} == shared tower count {shared}",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    sets = [x for k, v in TINY.items() for x in ("--set", f"{k}={v}")]
    sets += ["--set", "train.epochs=2", "--set", "train.learning_rate=0.01", "--set", "train.batch_size=64"]
    data = tmp_path / "d.jsonl"
    assert cli.main(["gen-data", *sets, "--out", str(data), "--count", "400", "--seed", "2"]) == 0
    capsys.readouterr()

    docs, blobs = [], []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        code = cli.main(["train", *sets, "--data", str(data), "--model-out", str(ckpt), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        docs.append(json.loads(out))
        blobs.append(ckpt.read_bytes())

    steps_a, steps_b = docs[0]["step_losses"], docs[1]["step_losses"]
    loss_gap = max(abs(x - y) for x, y in zip(steps_a, steps_b))
    ok = len(steps_a) == len(steps_b) and loss_gap <= 1e-9 and blobs[0] == blobs[1]
    _line(
        9, ok,
        f"{len(steps_a)} per-step losses differ by {loss_gap:.2e} (need <= 1e-9); "
        f"checkpoints byte-identical: {blobs[0] == blobs[1]}",
    )
