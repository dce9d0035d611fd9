"""Model assembly: forward oracle, gradients, grouping, coupling, baselines, checkpoints."""

import functools
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BENCHMARK_STEP_NODES, max_rel_err, table_of_objects
from maria import autodiff as ad
from maria import checkpoint as ckpt
from maria import config as cfgmod
from maria import datagen, model as mdl, training
from maria.autodiff import Graph
from maria.benchmark import benchmark_config
from maria.config import build_run_config
from maria.fileio import atomic_writer
from maria.layers import Fcn
from maria.model import BaselineModel, bce_loss, build_model, make_batch


def tiny_overrides(**extra):
    base = {
        "vocab.users": "12", "vocab.items": "18", "vocab.user_attrs": "9",
        "vocab.item_attrs": "9", "vocab.trigger_attrs": "7", "vocab.context_attrs": "6",
        "vocab.scenarios": "2",
        "schema.user_attrs": "2", "schema.item_attrs": "2", "schema.trigger_attrs": "1",
        "schema.context_attrs": "2", "schema.max_behavior": "3", "schema.image_dim": "4",
        "dim.user": "3", "dim.item": "4", "dim.attr": "2", "dim.context": "2",
        "dim.scenario": "3", "dim.trigger": "4",
        "model.experts": "2", "model.expert_hidden": "6", "model.tower_dims": "8,4",
        "model.correlation_dim": "3", "model.scale_hidden": "5",
        "gen.count": "6", "gen.seed": "11",
    }
    base.update(extra)
    return base


def tiny_cfg(**extra):
    return build_run_config(tiny_overrides(**extra))


def build_tiny(mode_count=6, dtype=np.float64, kind="maria", **extra):
    """A tiny model and batch; float64 by default, for the numpy oracles."""
    cfg = tiny_cfg(**({"gen.count": str(mode_count)} | extra))
    dataset, _ = datagen.generate(cfg)
    batch = make_batch(dataset.instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
    graph = Graph(seed=5, dtype=dtype)
    model = build_model(graph, cfg, kind=kind, seed=7)
    return cfg, graph, model, batch


# ---------------------------------------------------------------------------
# straight-line numpy re-implementation of the eval-mode forward pass
# ---------------------------------------------------------------------------

def _softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    c = x - mu
    var = (c * c).mean(axis=-1, keepdims=True)
    return c * (var + 1e-5) ** -0.5 * gain + bias


def straight_line_forward(cfg, params, batch):
    d, s, v = cfg.dims, cfg.schema, cfg.vocab
    p = {name: arr for name, arr in params}
    item_w = d.item + s.item_attr_count * d.attr
    big_l, big_p, big_o, n_c = s.user_attr_count, s.item_attr_count, s.trigger_attr_count, s.context_attr_count
    b, m = batch.size, s.max_behavior_len

    users = p["bottom.tables.user"]
    items = p["bottom.tables.item"]
    uattr = p["bottom.tables.user_attr"]
    iattr = p["bottom.tables.item_attr"]
    tattr = p["bottom.tables.trigger_attr"]
    cattr = p["bottom.tables.context"]
    scen_tab = p["bottom.tables.scenario"]

    e_u = users[batch.user]
    user_field = np.concatenate([e_u, uattr[batch.user_attrs].reshape(b, big_l * d.attr)], axis=-1)
    seq = np.concatenate(
        [items[batch.beh_items], iattr[batch.beh_attrs].reshape(b, m, big_p * d.attr)], axis=-1
    )
    seq = seq + p["bottom.encoder.positions"][:m]
    mask = ((1.0 - batch.valid) * -1e30)[:, None, :]
    heads = cfg.model.attention_heads
    dh = item_w // heads
    h = seq
    for layer in range(cfg.model.encoder_layers):
        pre = f"bottom.encoder.block{layer}"
        normed = _layer_norm(h, p[f"{pre}.ln1.gain"], p[f"{pre}.ln1.bias"])
        outs = []
        for hd in range(heads):
            q = normed @ p[f"{pre}.h{hd}.wq"]
            k = normed @ p[f"{pre}.h{hd}.wk"]
            vv = normed @ p[f"{pre}.h{hd}.wv"]
            scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(dh) + mask
            outs.append(_softmax(scores) @ vv)
        mixed = np.concatenate(outs, axis=-1) @ p[f"{pre}.wo"]
        res = h + mixed
        ffn_h = np.maximum(_layer_norm(res, p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"]) @ p[f"{pre}.ffn.w0"] + p[f"{pre}.ffn.b0"], 0.0)
        h = res + (ffn_h @ p[f"{pre}.ffn.w1"] + p[f"{pre}.ffn.b1"])
    encoded = h

    e_x = items[batch.target]
    item_field = np.concatenate([e_x, iattr[batch.target_attrs].reshape(b, big_p * d.attr)], axis=-1)

    trig_attr_flat = tattr[batch.trig_attrs].reshape(b, big_o * d.attr)
    trig_in = np.concatenate([items[batch.trig_items], trig_attr_flat], axis=-1)
    t_head = trig_in @ p["bottom.trigger_proj.w0"] + p["bottom.trigger_proj.b0"]
    trig_field = np.concatenate([t_head, trig_attr_flat], axis=-1)

    query = t_head @ p["bottom.trigger_sim.w0"] + p["bottom.trigger_sim.b0"]
    sims = np.einsum("bd,bmd->bm", query, encoded) / np.sqrt(item_w)
    attn = _softmax(sims + (1.0 - batch.valid) * -1e30)
    pooled = np.einsum("bm,bmd->bd", attn, encoded)

    ctx_field = cattr[batch.context].reshape(b, n_c * d.context)
    e_s = scen_tab[batch.scenario]

    q_vec = np.concatenate([pooled, user_field, item_field, trig_field, ctx_field], axis=-1)
    widths = (
        [item_w] + [d.user] + [d.attr] * big_l + [d.item] + [d.attr] * big_p
        + [d.trigger] + [d.attr] * big_o + [d.context] * n_c
    )
    offsets = np.concatenate([[0], np.cumsum(widths)])
    field_widths = {
        "behavior": item_w,
        "user": d.user + big_l * d.attr,
        "item": d.item + big_p * d.attr,
        "trigger": d.trigger + big_o * d.attr,
        "context": n_c * d.context,
    }

    # feature scaling
    fs_in = np.concatenate([q_vec, e_u, e_x, e_s], axis=-1)
    fs_h = np.maximum(fs_in @ p["adaptive.fs.net.w0"] + p["adaptive.fs.net.b0"], 0.0)
    alpha = cfg.model.scale_ceiling / (1.0 + np.exp(-(fs_h @ p["adaptive.fs.net.w1"] + p["adaptive.fs.net.b1"])))
    q_scaled = q_vec.copy()
    for j in range(len(widths)):
        q_scaled[:, offsets[j]:offsets[j + 1]] = q_vec[:, offsets[j]:offsets[j + 1]] * alpha[:, j:j + 1]

    # field refinement, eval mode: argmax one-hot selection
    field_order = ["behavior", "user", "item", "trigger", "context"]
    cursor = 0
    pieces = {}
    for fname in field_order:
        w = field_widths[fname]
        pieces[fname] = q_scaled[:, cursor:cursor + w]
        cursor += w
    refined = []
    for fname in field_order:
        piece = pieces[fname]
        n = cfg.model.refiner_counts[fname]
        pick = np.zeros(b, dtype=np.intp)  # a field with one refiner has no selector
        if n > 1:
            sel_in = np.concatenate([piece, e_s], axis=-1)
            scores = 1.0 / (1.0 + np.exp(-(sel_in @ p[f"adaptive.fr.{fname}.selector.w0"] + p[f"adaptive.fr.{fname}.selector.b0"])))
            pick = scores.argmax(axis=-1)
        for k in range(n):
            slot = np.maximum(piece @ p[f"adaptive.fr.{fname}.refiner{k}.w0"] + p[f"adaptive.fr.{fname}.refiner{k}.b0"], 0.0)
            refined.append(slot * (pick == k)[:, None])
    q_r = np.concatenate(refined, axis=-1)

    projected = [
        pieces[fname] @ p[f"adaptive.fcm.{fname}.w0"] + p[f"adaptive.fcm.{fname}.b0"]
        for fname in field_order
    ]
    pairs = []
    for i in range(5):
        for j in range(i + 1, 5):
            pairs.append(np.sum(projected[i] * projected[j], axis=-1, keepdims=True))
    q_f = np.concatenate([q_r] + pairs, axis=-1)

    gates = _softmax(e_s @ p["moe.gate.w0"] + p["moe.gate.b0"])
    mixed = np.zeros((b, cfg.model.expert_hidden))
    for j in range(cfg.model.experts):
        eh = np.maximum(q_f @ p[f"moe.expert{j}.w0"] + p[f"moe.expert{j}.b0"], 0.0)
        eo = np.maximum(eh @ p[f"moe.expert{j}.w1"] + p[f"moe.expert{j}.b1"], 0.0)
        mixed = mixed + gates[:, j:j + 1] * eo

    def tower(x, prefix):
        out = x
        for i in range(len(cfg.model.tower_dims)):
            out = np.maximum(out @ p[f"{prefix}.w{i}"] + p[f"{prefix}.b{i}"], 0.0)
        return out

    gram = scen_tab @ scen_tab.T
    n_s = cfg.vocab.scenarios
    alpha_vec = (gram * (1.0 - np.eye(n_s))).sum(axis=-1) / (n_s - 1)
    fused_rows = np.empty((b, cfg.model.tower_dims[-1]))
    for i in range(b):
        sid = int(batch.scenario[i])
        sp = tower(mixed[i:i + 1], f"towers.scenario{sid}")
        sh = tower(mixed[i:i + 1], "towers.shared")
        fused_rows[i] = sp + alpha_vec[sid] * sh
    score = 1.0 / (1.0 + np.exp(-(fused_rows @ p["head.w0"] + p["head.b0"])))
    return score[:, 0], alpha


def test_forward_matches_straight_line_oracle():
    cfg, graph, model, batch = build_tiny()
    result = model.forward(batch, mode="eval")
    oracle_score, oracle_alpha = straight_line_forward(cfg, [(n, v.data) for n, v in model.named_parameters()], batch)
    assert result.score.shape == (batch.size,)
    assert np.max(np.abs(result.score.data - oracle_score)) <= 1e-10
    assert np.max(np.abs(result.alpha.data - oracle_alpha)) <= 1e-10


def test_rows_with_equal_behaviours_and_other_triggers_pool_them_differently(monkeypatch):
    cfg, graph, model, batch = build_tiny()
    for name in ("beh_items", "beh_attrs", "valid"):
        getattr(batch, name)[1] = getattr(batch, name)[0]
    assert batch.trig_items[0] != batch.trig_items[1]
    calls = []
    attention = ad.attention

    def recording(q, k, v, mask, scale):
        calls.append((q, k, mask, scale))
        return attention(q, k, v, mask, scale)

    monkeypatch.setattr(ad, "attention", recording)
    model.forward(batch, mode="eval")
    q, k, mask, scale = calls[-1]  # the trigger's query over the encoded behaviours
    assert q.shape == (batch.size, 1, k.shape[2])
    np.testing.assert_allclose(k.data[1], k.data[0], atol=1e-12)
    scores = np.einsum("bqd,bmd->bqm", q.data, k.data) * scale + mask.data
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    assert np.abs(weights[1] - weights[0]).max() > 1e-3


def test_layout_element_count_matches_schema():
    cfg, graph, model, batch = build_tiny()
    out = model.bottom.encode(batch)
    assert model.layout.element_count == cfg.schema.element_count
    assert out.q.shape[-1] == model.layout.width
    assert [f.name for f in model.layout.fields] == ["behavior", "user", "item", "trigger", "context"]


def test_scores_are_probabilities_and_deterministic_in_eval():
    _, graph, model, batch = build_tiny()
    r1 = model.forward(batch, mode="eval")
    r2 = model.forward(batch, mode="eval")
    assert np.all((r1.score.data > 0) & (r1.score.data < 1))
    assert np.array_equal(r1.score.data, r2.score.data)
    for choices in r1.trace["refiner_choice"].values():
        assert choices.shape == (batch.size,)


@pytest.mark.parametrize("kind", mdl.MODEL_KINDS)
def test_a_batch_of_no_rows_gets_an_empty_score(kind):
    cfg = tiny_cfg(**{"gen.count": "0"})
    graph = Graph(seed=5)
    model = build_model(graph, cfg, kind, seed=7)
    empty = make_batch(datagen.generate(cfg)[0].instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
    for mode in ("train", "eval"):
        score = model.forward(empty, mode=mode).score
        assert score.shape == (0,) and score.data.dtype == graph.dtype


def test_full_model_gradients_match_finite_differences():
    cfg, graph, model, batch = build_tiny(mode_count=5)
    named = model.named_parameters()

    graph.record_context()
    mark = graph.mark()
    loss = bce_loss(model.forward(batch, mode="train").score, batch.labels)
    graph.zero_grads()
    ad.backward(loss)
    grads = {name: v.grad.copy() for name, v in named}
    graph.truncate(mark)

    def loss_value():
        graph.replay_context()
        inner = graph.mark()
        val = float(bce_loss(model.forward(batch, mode="train").score, batch.labels).data)
        graph.truncate(inner)
        return val

    eps = 1e-5
    analytic, numeric = [], []
    for name, value in named:
        flat = value.data.reshape(-1)
        coords = {0, flat.size // 2}
        for c in coords:
            base = flat[c]
            flat[c] = base + eps
            up = loss_value()
            flat[c] = base - eps
            down = loss_value()
            flat[c] = base
            analytic.append(grads[name].reshape(-1)[c])
            numeric.append((up - down) / (2 * eps))
    err = max_rel_err(np.array(analytic), np.array(numeric))
    assert err <= 1e-4, f"max relative gradient error {err}"


@pytest.mark.parametrize("kind", mdl.MODEL_KINDS)
def test_every_parameter_gets_a_gradient_in_one_training_step(kind):
    """A parameter whose gradient is zero in every step never trains. Only
    one is dead by design: the scenario table of the kinds whose head never
    reads it."""
    cfg, graph, model, batch = build_tiny(mode_count=64, kind=kind)
    assert model.kind == kind
    ad.backward(bce_loss(model.forward(batch, mode="train").score, batch.labels))
    dead = ("bottom.tables.scenario",) if kind in ("shared_bottom", "hard_sharing") else ()
    grads = {name: float(np.abs(v.grad).max()) for name, v in model.named_parameters()}
    floor = 1e-9 * max(grads.values())
    starved = sorted(n for n, g in grads.items() if g <= floor and not n.startswith(dead))
    assert starved == [], f"{kind}: no gradient reaches {starved}"


def test_a_training_forward_without_feature_scaling_replays_bit_identically():
    # The user field's two refiners draw Gumbel noise; without feature
    # scaling there is no frozen view, so the rewound noise alone pins a replay.
    cfg, graph, model, batch = build_tiny(**{"train.disable": "fs"})
    assert model.fs is None and cfg.model.refiner_counts["user"] == 2
    before = graph.rng.bit_generator.state
    graph.record_context()
    recorded = model.forward(batch, mode="train").score.data.copy()
    assert graph.rng.bit_generator.state != before
    for _ in range(2):
        graph.replay_context()
        assert np.array_equal(model.forward(batch, mode="train").score.data, recorded)
    graph.live_context()


def test_coupling_matches_numpy_and_vanishes_for_orthogonal_scenarios():
    cfg, graph, model, batch = build_tiny()
    scen_tab = model.scenario_tab.weights.data
    expected = (scen_tab @ scen_tab.T * (1.0 - np.eye(cfg.vocab.scenarios))).sum(axis=-1) / (cfg.vocab.scenarios - 1)
    got = model._coupling(batch.scenario).data[:, 0]
    assert np.max(np.abs(got - expected[batch.scenario])) <= 1e-12

    scen_tab[...] = np.eye(cfg.vocab.scenarios, scen_tab.shape[1])
    assert np.array_equal(model._coupling(batch.scenario).data, np.zeros((batch.size, 1)))
    with_shared = model.forward(batch, mode="eval").score.data.copy()
    model.shared_tower = None
    without_shared = model.forward(batch, mode="eval").score.data
    assert np.array_equal(with_shared, without_shared)


def _per_scenario_towers(towers, x, scenario):
    """The per-scenario composition that ``_grouped_towers`` replaces, kept
    as its reference: gather each scenario's rows, run its tower, stack the
    pieces and restore the row order."""
    present = np.unique(scenario)
    groups = [np.flatnonzero(scenario == s) for s in present]
    pieces = [towers[int(s)].forward(ad.take_rows(x, idx)) for s, idx in zip(present, groups)]
    inverse = np.empty(scenario.size, dtype=np.int64)
    inverse[np.concatenate(groups)] = np.arange(scenario.size)
    return ad.take_rows(ad.concat(pieces, axis=0), inverse)


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.lists(st.integers(0, 3), min_size=2, max_size=12).filter(lambda s: len(set(s)) > 1),
    shared_reader=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(scenario=[2, 0, 2, 2], shared_reader=True, seed=1)  # scenarios 1 and 3 missing, a one-row segment
@example(scenario=[3, 1, 0, 2], shared_reader=False, seed=2)  # one row per scenario
def test_grouped_towers_equal_the_per_scenario_composition(scenario, shared_reader, seed):
    """Values and grads, bit for bit, in float32; towers of scenarios missing
    from the batch take no grad. ``shared_reader`` adds a later node that
    reads the input too, as the shared tower does."""
    scenario = np.array(scenario)
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        graph = Graph(seed=0)
        towers = [Fcn(graph, rng, 5, [4, 3], ["relu", "relu"], f"towers.scenario{s}") for s in range(4)]
        x = graph.parameter(rng.normal(size=(scenario.size, 5)))
        out = (mdl._grouped_towers if fused else _per_scenario_towers)(towers, x, scenario)
        loss = ad.sum_all(ad.mul(out, graph.constant(rng.normal(size=out.shape))))
        if shared_reader:
            loss = ad.add(loss, ad.sum_all(ad.mul(x, graph.constant(rng.normal(size=x.shape)))))
        ad.backward(loss)
        outputs.append(out.data)
        grads.append([v._grad for v in graph.params.values()] + [x.grad])
    assert outputs[0].tobytes() == outputs[1].tobytes()
    for fused_grad, chain_grad in zip(*grads):
        assert (fused_grad is None) == (chain_grad is None)
        assert fused_grad is None or fused_grad.tobytes() == chain_grad.tobytes()


def test_rows_are_independent_across_batching():
    cfg = tiny_cfg(**{
        "scenario.0.trigger_kind": "image", "scenario.1.trigger_kind": "product",
        "gen.count": "8", "gen.seed": "2",
    })
    dataset, _ = datagen.generate(cfg)
    kinds = set(dataset.instances.trigger_kind.tolist())
    assert kinds == {datagen.TRIGGER_IMAGE, datagen.TRIGGER_PRODUCT}  # mixed image and product rows in one batch
    graph = Graph(seed=1, dtype=np.float64)
    model = build_model(graph, cfg, seed=3)
    batch = make_batch(dataset.instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
    full = model.forward(batch, mode="eval").score.data
    for i in range(len(dataset.instances)):
        single = make_batch(dataset.instances[i:i + 1], cfg.vocab, cfg.schema, cfg.trigger_mode)
        one = model.forward(single, mode="eval").score.data
        assert abs(one[0] - full[i]) <= 1e-9


def test_recommendation_mode_forward():
    cfg = tiny_cfg(**{
        "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0", "gen.count": "6",
    })
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=1)
    model = build_model(graph, cfg, seed=3)
    batch = make_batch(dataset.instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
    trig = model.layout.field("trigger")
    assert len(trig.element_widths) == 1
    assert trig.width == cfg.dims.item + cfg.schema.item_attr_count * cfg.dims.attr
    result = model.forward(batch, mode="eval")
    assert np.all((result.score.data > 0) & (result.score.data < 1))


def test_four_field_layout_without_attribute_or_context_slots():
    cfg = tiny_cfg(**{"schema.user_attrs": "0", "schema.item_attrs": "0", "schema.context_attrs": "0"})
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=5)
    model = build_model(graph, cfg, seed=7)
    assert [f.name for f in model.layout.fields] == ["behavior", "user", "item", "trigger"]
    assert model.layout.element_count == cfg.schema.element_count
    assert model.fcm.out_width == 6

    before = [v.data.copy() for v in model.parameter_values()]
    report = training.train(graph, model, dataset.instances, cfg.train)
    assert len(report.step_losses) == 1 and np.isfinite(report.step_losses[0])
    assert any(not np.array_equal(b, v.data) for b, v in zip(before, model.parameter_values()))

    batch = make_batch(dataset.instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
    result = model.forward(batch, mode="eval")
    assert np.all((result.score.data > 0) & (result.score.data < 1))
    choices = result.trace["refiner_choice"]
    assert list(choices) == ["behavior", "user", "item", "trigger"]
    for name, picked in choices.items():
        assert picked.shape == (batch.size,)
        assert np.all((picked >= 0) & (picked < model.fr.counts[name]))


def test_make_batch_validation():
    cfg, graph, model, batch = build_tiny()
    dataset, _ = datagen.generate(tiny_cfg())
    (inst,) = datagen._objects_of(dataset.instances[:1])

    def table(row):
        return table_of_objects([row], cfg.schema)

    no_trigger = {**inst, "trigger": None}
    with pytest.raises(ValueError, match="missing trigger"):
        make_batch(table(no_trigger), cfg.vocab, cfg.schema, "search")
    with pytest.raises(ValueError, match="trigger present"):
        make_batch(table(inst), cfg.vocab, cfg.schema, "recommendation")
    too_long = {**inst, "behavior": inst["behavior"] * 5}
    with pytest.raises(ValueError, match="behavior length"):
        make_batch(table(too_long), cfg.vocab, cfg.schema, "search")


def test_product_triggers_with_no_trigger_attribute_slots():
    cfg = tiny_cfg(**{
        "scenario.0.trigger_kind": "product", "scenario.1.trigger_kind": "product",
        "schema.trigger_attrs": "0", "gen.count": "9",
    })
    instances = datagen.generate(cfg)[0].instances
    batch = make_batch(instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
    assert batch.trig_attrs.shape == (9, 0)
    np.testing.assert_array_equal(batch.trig_items, [obj["trigger"]["item"] for obj in datagen._objects_of(instances)])
    assert not batch.is_image.any()
    model = build_model(Graph(seed=1), cfg, seed=3)
    score = model.forward(batch, mode="eval").score.data
    assert np.all((score > 0) & (score < 1))


def loop_make_batch(instances, vocab, schema, trigger_mode) -> mdl.Batch:
    """The per-row loop over instance objects that ``make_batch`` replaced:
    the reference its column build must equal byte for byte."""
    b = len(instances)
    m = schema.max_behavior_len
    big_l, big_p, big_o = schema.user_attr_count, schema.item_attr_count, schema.trigger_attr_count
    pad_item, pad_item_attr, pad_trig_attr = vocab.items, vocab.item_attrs, vocab.trigger_attrs

    scenario = np.empty(b, dtype=np.int64)
    user = np.empty(b, dtype=np.int64)
    user_attrs = np.empty((b, big_l), dtype=np.int64)
    beh_items = np.full((b, m), pad_item, dtype=np.int64)
    beh_attrs = np.full((b, m, big_p), pad_item_attr, dtype=np.int64)
    valid = np.zeros((b, m), dtype=np.float64)
    target = np.empty(b, dtype=np.int64)
    target_attrs = np.empty((b, big_p), dtype=np.int64)
    is_image = np.zeros(b, dtype=bool)
    image_vecs = np.zeros((b, schema.image_dim), dtype=np.float64)
    trig_items = np.zeros(b, dtype=np.int64)
    trig_attrs = np.full((b, big_o), pad_trig_attr, dtype=np.int64)
    context = np.empty((b, schema.context_attr_count), dtype=np.int64)
    labels = np.empty(b, dtype=np.float64)

    for i, inst in enumerate(instances):
        scenario[i] = inst["scenario"]
        user[i] = inst["user"]
        user_attrs[i] = inst["user_attrs"]
        length = len(inst["behavior"])
        if not (1 <= length <= m):
            raise ValueError(f"instance {i}: behavior length {length} outside [1, {m}]")
        for k, (item, attrs) in enumerate(inst["behavior"]):
            col = m - length + k
            beh_items[i, col] = item
            beh_attrs[i, col] = attrs
            valid[i, col] = 1.0
        target[i] = inst["target_item"]
        target_attrs[i] = inst["target_attrs"]
        context[i] = inst["context"]
        labels[i] = inst["label"]
        trigger = inst["trigger"]
        if trigger_mode == "recommendation":
            if trigger is not None:
                raise ValueError(f"instance {i}: trigger present in a trigger-free model")
        elif trigger is not None and trigger["kind"] == "image":
            is_image[i] = True
            image_vecs[i] = trigger["vec"]
        elif trigger is not None and trigger["kind"] == "product":
            trig_items[i] = trigger["item"]
            trig_attrs[i] = trigger["attrs"]
        else:
            raise ValueError(f"instance {i}: missing trigger in a trigger-driven model")

    return mdl.Batch(
        size=b, scenario=scenario, user=user, user_attrs=user_attrs,
        beh_items=beh_items, beh_attrs=beh_attrs, valid=valid,
        target=target, target_attrs=target_attrs,
        is_image=is_image, image_vecs=image_vecs, trig_items=trig_items, trig_attrs=trig_attrs,
        context=context, labels=labels,
    )


_REF_VOCAB = cfgmod.VocabSizes(users=5, items=7, user_attrs=4, item_attrs=4, trigger_attrs=3, context_attrs=3, scenarios=2)


@st.composite
def _batch_recipes(draw):
    """A trigger mode, a schema with 0-2 slots of each attribute kind, rows of
    every trigger kind the mode allows with behaviour lengths 1..m, up to two
    rows broken in a way make_batch refuses, and a row order with subsets and
    repeats."""
    v = _REF_VOCAB
    mode = draw(st.sampled_from(["search", "recommendation"]))
    slots = {name: draw(st.integers(0, 2)) for name in (
        "user_attr_count", "item_attr_count", "trigger_attr_count", "context_attr_count")}
    schema = cfgmod.FeatureSchema(**slots, max_behavior_len=draw(st.integers(1, 5)), image_dim=draw(st.integers(1, 3)))
    m = schema.max_behavior_len

    def ids(count, bound):
        return list(draw(st.tuples(*[st.integers(0, bound - 1)] * count)))

    def trigger(kind):
        if kind == "image":
            return {"kind": "image", "vec": list(draw(st.tuples(*[st.floats(width=64)] * schema.image_dim)))}
        if kind == "product":
            item = draw(st.integers(0, v.items - 1))
            return {"kind": "product", "item": item, "attrs": ids(schema.trigger_attr_count, v.trigger_attrs)}
        return None

    def behavior(length):
        return [[draw(st.integers(0, v.items - 1)), ids(schema.item_attr_count, v.item_attrs)] for _ in range(length)]

    kinds = ["image", "product"] if mode == "search" else ["none"]
    rows = [
        {
            "scenario": draw(st.integers(0, v.scenarios - 1)),
            "user": draw(st.integers(0, v.users - 1)),
            "user_attrs": ids(schema.user_attr_count, v.user_attrs),
            "behavior": behavior(draw(st.integers(1, m))),
            "target_item": draw(st.integers(0, v.items - 1)),
            "target_attrs": ids(schema.item_attr_count, v.item_attrs),
            "trigger": trigger(draw(st.sampled_from(kinds))),
            "context": ids(schema.context_attr_count, v.context_attrs),
            "label": draw(st.integers(0, 1)),
        }
        for _ in range(draw(st.integers(1, 8)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        case = draw(st.sampled_from(["trigger", "length"]))
        if case == "length":
            broken = {"behavior": behavior(draw(st.sampled_from([0, m + 1, m + 2])))}
        else:  # a missing trigger in search mode, a present one in recommendation mode
            broken = {"trigger": trigger("none" if mode == "search" else draw(st.sampled_from(["image", "product"])))}
        rows[i] = {**rows[i], **broken}
    order = draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    return mode, schema, rows, order


@settings(max_examples=150, deadline=None)
@given(recipe=_batch_recipes())
def test_make_batch_equals_the_per_row_loop(recipe):
    mode, schema, rows, order = recipe
    block = table_of_objects(rows, schema)[np.array(order, dtype=np.int64)]

    def build(fn, instances):
        try:
            return fn(instances, _REF_VOCAB, schema, mode)
        except ValueError as exc:
            return str(exc)

    want = build(loop_make_batch, [rows[i] for i in order])
    got = build(make_batch, block)
    if isinstance(want, str):
        assert got == want  # the same message for the same row index
        return
    assert got.size == want.size == len(order)
    for name, ref in vars(want).items():
        if isinstance(ref, np.ndarray):
            ours = getattr(got, name)
            assert (ours.dtype, ours.shape, ours.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), name


def test_ablated_model_collapses_to_mixture_baseline():
    cfg_off = tiny_cfg(**{"train.disable": "fs,fr,fcm,st"})
    graph = Graph(seed=0)
    stripped = build_model(graph, cfg_off, seed=3)
    mmoe = build_model(Graph(seed=0), tiny_cfg(), kind="mmoe", seed=3)
    assert stripped.parameter_summary()["total"] == mmoe.parameter_summary()["total"]
    names_a = [n for n, _ in stripped.named_parameters()]
    names_b = [n for n, _ in mmoe.named_parameters()]
    assert names_a == names_b
    for (_, a), (_, b) in zip(stripped.named_parameters(), mmoe.named_parameters()):
        assert np.array_equal(a.data, b.data)
    dataset, _ = datagen.generate(cfg_off)
    batch = make_batch(dataset.instances, cfg_off.vocab, cfg_off.schema, cfg_off.trigger_mode)
    score_a = stripped.forward(batch, mode="eval").score.data
    score_b = mmoe.forward(batch, mode="eval").score.data
    assert np.array_equal(score_a, score_b)


def test_disabling_shared_tower_removes_exactly_its_parameters():
    full = build_model(Graph(seed=0), tiny_cfg(), seed=3)
    slim = build_model(Graph(seed=0), tiny_cfg(**{"train.disable": "st"}), seed=3)
    summary = full.parameter_summary()
    assert summary["shared_tower"] > 0
    assert summary["total"] - slim.parameter_summary()["total"] == summary["shared_tower"]
    assert slim.parameter_summary()["shared_tower"] == 0


def test_baselines_share_bottom_structure():
    cfg = tiny_cfg()
    kinds = {}
    for kind in ("maria", "hard_sharing", "shared_bottom", "mmoe"):
        model = build_model(Graph(seed=0), cfg, kind=kind, seed=3)
        kinds[kind] = model.parameter_summary()
        dataset, _ = datagen.generate(cfg)
        batch = make_batch(dataset.instances, cfg.vocab, cfg.schema, cfg.trigger_mode)
        score = model.forward(batch, mode="eval").score.data
        assert np.all((score > 0) & (score < 1))
    base = kinds["maria"]
    for kind in ("hard_sharing", "shared_bottom", "mmoe"):
        assert kinds[kind]["embeddings"] == base["embeddings"]
        assert kinds[kind]["sequence_encoder"] == base["sequence_encoder"]
    assert kinds["hard_sharing"]["scenario_towers"] < kinds["shared_bottom"]["scenario_towers"]
    with pytest.raises(ValueError, match="unknown baseline"):
        BaselineModel(Graph(seed=0), np.random.default_rng(0), cfg.vocab, cfg.schema, cfg.dims, cfg.model, "bad", "search")
    with pytest.raises(ValueError, match="unknown baseline"):
        BaselineModel(Graph(seed=0), np.random.default_rng(0), cfg.vocab, cfg.schema, cfg.dims, cfg.model, "maria", "search")
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model(Graph(seed=0), cfg, kind="bad")


# sha256 of an untrained checkpoint at the tiny config, seed 3. The bytes come
# from RNG draws only (no BLAS), so a change means the construction order,
# the parameter names or the spec record changed. maria's pin moved when the
# selectors of one-refiner fields went: the other records keep their bytes.
UNTRAINED_CHECKPOINT_SHA256 = {
    "maria": "b86fe46c830d6b8b2c1869cfdc9247af5d6ee925c45a622396e1d28d6bcff472",
    "mmoe": "011f5eb651414e930ce77c631f6140f48d32d0878f2a7630a235abae457014e2",
    "shared_bottom": "c2833e949ea9690858045ccf9be962620cbe4bf05e252cd8b781ed706b7152b8",
    "hard_sharing": "675d50e4f25bdca6298e210e6023383145a0a8fe5cf31aece2496ea561a45792",
}


def _checkpoint_sha256(model, path) -> str:
    ckpt.save_model(path, model)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(UNTRAINED_CHECKPOINT_SHA256))
def test_untrained_checkpoint_bytes_are_pinned(kind, tmp_path):
    path = tmp_path / "model.ckpt"
    model = build_model(Graph(seed=0, dtype=np.float64), tiny_cfg(), kind=kind, seed=3)
    assert _checkpoint_sha256(model, path) == UNTRAINED_CHECKPOINT_SHA256[kind]
    if kind != "maria":
        # baselines ignore the ablation flags, and the preset class builds the same model
        flagged = build_model(Graph(seed=0, dtype=np.float64), tiny_cfg(**{"train.disable": "nl,st"}), kind=kind, seed=3)
        assert _checkpoint_sha256(flagged, path) == UNTRAINED_CHECKPOINT_SHA256[kind]
        cfg = tiny_cfg()
        preset = BaselineModel(
            Graph(seed=0, dtype=np.float64), np.random.default_rng(3), cfg.vocab, cfg.schema, cfg.dims, cfg.model,
            kind, cfg.trigger_mode,
        )
        assert _checkpoint_sha256(preset, path) == UNTRAINED_CHECKPOINT_SHA256[kind]
    # a default graph is float32: its checkpoint holds the float32 rounding of the same draws
    ckpt.save_model(path, build_model(Graph(seed=0), tiny_cfg(), kind=kind, seed=3))
    _, _, records = ckpt.load_checkpoint(path)
    assert [(name, arr.tobytes()) for name, arr in records] == [
        (name, value.data.astype(np.float32).astype(np.float64).tobytes()) for name, value in model.named_parameters()
    ]


@pytest.mark.parametrize(
    "kind, disable",
    [(kind, None) for kind in mdl.MODEL_KINDS] + [("maria", flag) for flag in cfgmod.ABLATION_FLAGS],
)
def test_the_graph_lists_every_parameter_the_model_makes(kind, disable):
    graph = Graph(seed=0)
    cfg = tiny_cfg(**({"train.disable": disable} if disable else {}))
    model = build_model(graph, cfg, kind=kind, seed=3)
    made = [v for v in graph.nodes if v.op == "parameter"]
    listed = [v for _, v in model.named_parameters()]
    assert len(made) == len(listed)
    assert all(a is b for a, b in zip(made, listed))


def test_a_parameter_name_is_made_once_per_graph():
    graph = Graph(seed=0)
    first = graph.parameter(np.zeros(2), "a")
    graph.parameter(np.zeros(2))  # unnamed leaves are not listed
    with pytest.raises(ValueError, match="'a' is made twice"):
        graph.parameter(np.ones(2), "a")
    assert list(graph.params.items()) == [("a", first)]


def test_bce_loss_reference_values():
    graph = Graph(seed=0, dtype=np.float64)
    n = 10
    score = graph.constant(np.full(n, 0.5))
    labels = np.array([1.0] * 5 + [0.0] * 5)
    loss = bce_loss(score, labels)
    assert abs(float(loss.data) - n * np.log(2.0)) <= 1e-12

    graph2 = Graph(seed=0, dtype=np.float64)
    extreme = graph2.constant(np.array([0.0, 1.0, 0.5]))
    before = graph2.clamp_events
    val = float(bce_loss(extreme, np.array([0.0, 1.0, 1.0])).data)
    assert graph2.clamp_events - before == 2
    assert np.isfinite(val)


def test_bce_loss_of_float32_scores_at_zero_and_one_is_finite():
    graph = Graph(seed=0)
    graph.dtype = np.dtype(np.float32)
    score = graph.parameter(np.array([1.0, 1.0, 0.0, 0.5]))
    loss = bce_loss(score, np.array([0.0, 1.0, 1.0, 0.0]))
    ad.backward(loss)
    assert graph.clamp_events == 3
    assert loss.data.dtype == np.float32 and np.isfinite(loss.data)
    assert score.grad.dtype == np.float32 and np.all(np.isfinite(score.grad))


def test_bce_gradient_matches_analytic_formula():
    graph = Graph(seed=0, dtype=np.float64)
    p_ref = np.array([0.2, 0.7, 0.9])
    labels = np.array([0.0, 1.0, 0.0])
    score = graph.parameter(p_ref.copy())
    loss = bce_loss(score, labels)
    ad.backward(loss)
    expected = (p_ref - labels) / (p_ref * (1.0 - p_ref))  # d/dp of summed cross-entropy
    assert np.max(np.abs(score.grad - expected)) <= 1e-12


def test_checkpoint_round_trip_and_digest(tmp_path):
    cfg, graph, model, batch = build_tiny(dtype=np.float32)  # the dtype load_model builds
    before = model.forward(batch, mode="eval").score.data.copy()
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, model, meta={"note": "tiny"})

    loaded, graph2, meta = ckpt.load_model(path)
    assert meta == {"note": "tiny"}
    assert loaded.kind == "maria"
    for (name_a, v_a), (name_b, v_b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(v_a.data, v_b.data)
    after = loaded.forward(batch, mode="eval").score.data
    assert np.array_equal(before, after)

    rebuilt = build_model(Graph(seed=0), cfg, kind="maria", seed=1)
    assert cfgmod.canonical_json(loaded.spec()) == cfgmod.canonical_json(rebuilt.spec())


def test_checkpoint_rejects_corruption(tmp_path):
    cfg, graph, model, batch = build_tiny()
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, model)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ckpt"
    other = bytearray(blob)
    other[0] ^= 0xFF
    bad_magic.write_bytes(bytes(other))
    with pytest.raises(ckpt.CheckpointError, match="magic"):
        ckpt.load_checkpoint(bad_magic)

    bad_header = tmp_path / "header.ckpt"
    other = bytearray(blob)
    other[6 + 4 + 32 + 4 + 3] ^= 0x01  # flip a byte inside the header JSON
    bad_header.write_bytes(bytes(other))
    with pytest.raises(ckpt.CheckpointError, match="digest"):
        ckpt.load_checkpoint(bad_header)

    short = tmp_path / "short.ckpt"
    short.write_bytes(bytes(blob[: len(blob) // 2]))
    with pytest.raises(ckpt.CheckpointError, match="truncated"):
        ckpt.load_checkpoint(short)


def test_checkpoint_refuses_a_file_of_another_kind_before_reading_it(tmp_path):
    # A 64 MB dataset given as a checkpoint (sparse, so it takes no disk) is
    # refused from its first bytes, without its contents landing in memory.
    path = tmp_path / "train.jsonl"
    with open(path, "wb") as fh:
        fh.write(b'{"scenario": 0, "user": 1}\n')
        fh.truncate(64 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(ckpt.CheckpointError, match=r"not a model checkpoint \(bad magic\)"):
            ckpt.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_failed_writes_leave_the_old_file_and_no_temp_file(tmp_path):
    cfg, graph, model, batch = build_tiny()
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, model)
    before = path.read_bytes()
    params = [(n, v.data) for n, v in model.named_parameters()]
    params[3] = ("\ud800", params[3][1])  # not encodable: fails after three records
    with pytest.raises(UnicodeEncodeError):
        ckpt.save_checkpoint(path, model.spec(), params)
    assert path.read_bytes() == before

    metrics_file = tmp_path / "model.ckpt.metrics.json"
    metrics_file.write_text("{}\n")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_writer(metrics_file) as fh:
            fh.write(b'{"partial": ')
            raise RuntimeError("midway")
    assert metrics_file.read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.metrics.json"]


def test_atomic_writer_syncs_the_file_then_its_directory(tmp_path, monkeypatch):
    import os
    import stat

    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    path = tmp_path / "model.ckpt.metrics.json"
    with atomic_writer(path) as fh:
        fh.write(b"{}\n")
    assert path.read_bytes() == b"{}\n"
    assert synced == ([False, True] if os.name == "posix" else [False])


def test_checkpoint_shape_mismatch_detected(tmp_path):
    cfg, graph, model, batch = build_tiny()
    spec = model.spec()
    params = [(n, v.data) for n, v in model.named_parameters()]
    name0, arr0 = params[0]
    params[0] = (name0, arr0[:, :1])
    path = tmp_path / "shape.ckpt"
    ckpt.save_checkpoint(path, spec, params)
    with pytest.raises(ckpt.CheckpointError, match="shape"):
        ckpt.load_model(path)


def test_checkpoint_with_a_repeated_parameter_is_refused(tmp_path):
    # load_model compares name sets, so a second record of a name was read
    # over the first: the model loaded with the later copy's values.
    cfg, graph, model, batch = build_tiny()
    params = [(n, v.data) for n, v in model.named_parameters()]
    name, arr = next((n, a) for n, a in params if n == "bottom.tables.user")
    path = tmp_path / "repeated.ckpt"
    ckpt.save_checkpoint(path, model.spec(), params + [(name, np.full_like(arr, 7.0))])
    with pytest.raises(ckpt.CheckpointError, match=r"parameter 'bottom.tables.user' is stored twice"):
        ckpt.load_model(path)


# ---------------------------------------------------------------------------
# the benchmark's traced run needs every op it lists
# ---------------------------------------------------------------------------

def _benchmark_spec() -> dict:
    with open(Path(__file__).resolve().parents[1] / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _listed_ops(spec: dict) -> set[str]:
    prefix = "autodiff.op."
    return {e["name"][len(prefix):].rsplit(".", 1)[0] for e in spec["per_layer"] if e["name"].startswith(prefix)}


@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark_spec()["workloads"]])
def test_each_benchmark_workload_builds_every_listed_op(workload):
    """A traced benchmark run reports ``autodiff.op.<op>.*`` for each op that
    BENCHMARK.json lists and fails when one is missing. Each workload's step
    here (a training step for ``train-<kind>``, an eval forward for
    ``score-<kind>``) must build at least one node of each, so a fusion
    that removes the last ``relu``, ``slice_last`` or ``mul`` fails here."""
    ops = _listed_ops(_benchmark_spec())
    assert {"matmul", "mul", "relu", "slice_last"} <= ops
    flow, kind = workload.split("-")[:2]
    cfg = benchmark_config(128, 3)
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=3)
    model = build_model(graph, cfg, kind=kind)
    batch = make_batch(dataset.instances, model.vocab, model.schema, model.trigger_mode)
    mark = graph.mark()
    if flow == "train":
        ad.backward(bce_loss(model.forward(batch, mode="train").score, batch.labels))
    else:
        assert flow == "score"
        model.forward(batch, mode="eval")
    built = {node.op for node in graph.nodes[mark:]}
    assert ops <= built, f"{workload}: no node of {sorted(ops - built)}"


@functools.lru_cache(maxsize=None)
def _benchmark_block() -> datagen.InstanceTable:
    return datagen.generate(benchmark_config(512, 3))[0].instances


@pytest.mark.parametrize(
    "workload, kind, flow, batch_size, nodes",
    [(w, k, f, b, BENCHMARK_STEP_NODES[w]) for w, k, f, b in [
        ("train-maria", "maria", "train", 512),
        ("train-mmoe-b64", "mmoe", "train", 64),
        ("score-maria", "maria", "score", 512),
    ]],
)
def test_graph_size_of_each_benchmark_step_is_pinned(workload, kind, flow, batch_size, nodes):
    """Nodes one step of each benchmark workload builds on a full block: the
    forward plus the loss for a training step, the forward for an eval batch.
    The counts are ``helpers.BENCHMARK_STEP_NODES``."""
    cfg = benchmark_config(512, 3)
    graph = Graph(seed=3)
    model = build_model(graph, cfg, kind=kind)
    batch = make_batch(_benchmark_block()[:batch_size], model.vocab, model.schema, model.trigger_mode)
    mark = graph.mark()
    if flow == "train":
        bce_loss(model.forward(batch, mode="train").score, batch.labels)
    else:
        model.forward(batch, mode="eval")
    assert len(graph.nodes) - mark == nodes, workload
