"""Adaptive feature transforms: layout, scaling, refinement, correlation."""

import numpy as np
import pytest
from helpers import fd_gradient, max_rel_err

from maria import autodiff as ad
from maria import features as ft
from maria.config import FIELD_ORDER
from maria.layers import Fcn


def concat_fields(parts):
    """Concatenate (name, value, element_widths) parts and lay out their fields."""
    q = ad.concat([value for _, value, _ in parts], axis=-1)
    return q, ft.FieldLayout([(name, widths) for name, _, widths in parts])


def make_layout(widths_by_field=None):
    """A small five-field layout; element widths chosen per field."""
    widths_by_field = widths_by_field or {
        "behavior": [6],
        "user": [3, 2, 2],
        "item": [3, 2],
        "trigger": [3, 2],
        "context": [2, 2],
    }
    parts = []
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    for name in FIELD_ORDER:
        widths = widths_by_field[name]
        parts.append((name, g.constant(rng.normal(size=(4, sum(widths)))), widths))
    q, layout = concat_fields(parts)
    return g, q, layout


def test_layout_partitions_and_element_count():
    g, q, layout = make_layout()
    assert layout.width == q.shape[-1] == 27
    # L=3 user elements? here: 1 behavior + 3 user + 2 item + 2 trigger + 2 context
    assert layout.element_count == 10
    assert layout.element_widths == [6, 3, 2, 2, 3, 2, 3, 2, 2, 2]
    assert sum(layout.element_widths) == layout.width
    fields = layout.fields
    assert fields[0].offset == 0
    for a, b in zip(fields, fields[1:]):
        assert b.offset == a.offset + a.width
    assert fields[-1].offset + fields[-1].width == layout.width


def test_element_count_formula_for_instance_like_layout():
    # one element per id embedding plus one per attribute: with L user attrs,
    # P item attrs, O trigger attrs and N_c context attrs the element count is
    # L + P + O + N_c + 4 (behavior summary, user id, item id, trigger head).
    L, P, O, Nc = 3, 2, 1, 2
    g = ad.Graph(seed=0)
    d_a, d_u, d_x, d_t, d_c, d = 4, 8, 8, 8, 4, 16
    parts = [
        ("behavior", g.constant(np.zeros((2, d))), [d]),
        ("user", g.constant(np.zeros((2, d_u + L * d_a))), [d_u] + [d_a] * L),
        ("item", g.constant(np.zeros((2, d_x + P * d_a))), [d_x] + [d_a] * P),
        ("trigger", g.constant(np.zeros((2, d_t + O * d_a))), [d_t] + [d_a] * O),
        ("context", g.constant(np.zeros((2, Nc * d_c))), [d_c] * Nc),
    ]
    _, layout = concat_fields(parts)
    assert layout.element_count == L + P + O + Nc + 4


def test_layout_rejects_empty_elements():
    with pytest.raises(ValueError, match="user"):
        ft.FieldLayout([("user", [2, 0])])


# ---------------------------------------------------------------------------
# feature scaling
# ---------------------------------------------------------------------------

def build_fs(g, layout, rng, ceiling=2.0):
    return ft.FeatureScaling(g, rng, layout, user_dim=3, item_dim=3, scenario_dim=2, hidden=5, ceiling=ceiling)


def test_scaling_identity_at_zero_parameters():
    g, q, layout = make_layout()
    rng = np.random.default_rng(1)
    fs = build_fs(g, layout, rng, ceiling=2.0)
    for _, p in g.params.items():
        p.data[...] = 0.0
    e = g.constant(np.random.default_rng(2).normal(size=(4, 3)))
    s = g.constant(np.random.default_rng(3).normal(size=(4, 2)))
    scaled, alpha = fs.forward(q, e, e, s)
    assert np.abs(alpha.data - 1.0).max() <= 1e-15
    assert np.abs(scaled.data - q.data).max() <= 1e-15
    assert scaled.shape == q.shape


def test_scaling_multipliers_stay_inside_open_interval():
    g, q, layout = make_layout()
    rng = np.random.default_rng(4)
    ceiling = 1.7
    fs = build_fs(g, layout, rng, ceiling=ceiling)
    for _, p in g.params.items():
        p.data[...] = rng.normal(scale=1.0, size=p.shape)
    e = g.constant(rng.normal(size=(4, 3)))
    s = g.constant(rng.normal(size=(4, 2)))
    _, alpha = fs.forward(q, e, e, s)
    assert alpha.data.min() > 0.0 and alpha.data.max() < ceiling
    assert alpha.shape == (4, layout.element_count)


def test_scaling_frozen_branch_blocks_gradient_to_input():
    # sum(alpha) depends on the assembled vector only through the frozen copy,
    # so parameters feeding the assembled vector get bitwise-zero gradient.
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(5)
    src = g.parameter(rng.normal(size=(4, 27)))
    parts = [
        ("behavior", ad.slice_last(src, 0, 6), [6]),
        ("user", ad.slice_last(src, 6, 13), [3, 2, 2]),
        ("item", ad.slice_last(src, 13, 18), [3, 2]),
        ("trigger", ad.slice_last(src, 18, 23), [3, 2]),
        ("context", ad.slice_last(src, 23, 27), [2, 2]),
    ]
    q, layout = concat_fields(parts)
    fs = build_fs(g, layout, rng)
    e_u = g.parameter(rng.normal(size=(4, 3)))
    e_x = g.parameter(rng.normal(size=(4, 3)))
    e_s = g.parameter(rng.normal(size=(4, 2)))
    _, alpha = fs.forward(q, e_u, e_x, e_s)
    ad.backward(ad.sum_all(alpha))
    assert not src.grad.any()
    assert e_u.grad.any() and e_x.grad.any() and e_s.grad.any()


def test_scaling_gradients_match_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(6)
    src = g.parameter(rng.normal(size=(3, 27)))

    def build():
        parts = [
            ("behavior", ad.slice_last(src, 0, 6), [6]),
            ("user", ad.slice_last(src, 6, 13), [3, 2, 2]),
            ("item", ad.slice_last(src, 13, 18), [3, 2]),
            ("trigger", ad.slice_last(src, 18, 23), [3, 2]),
            ("context", ad.slice_last(src, 23, 27), [2, 2]),
        ]
        return concat_fields(parts)

    q, layout = build()
    fs = build_fs(g, layout, rng)
    e_u = g.constant(rng.normal(size=(3, 3)))
    e_x = g.constant(rng.normal(size=(3, 3)))
    e_s = g.constant(rng.normal(size=(3, 2)))

    def run_graph():
        q2, _ = build()
        scaled, _ = fs.forward(q2, e_u, e_x, e_s)
        return ad.sum_all(ad.sigmoid(scaled))

    # record the frozen view so finite differences probe the same partial
    # derivative the backward pass computes (live branch only)
    g.record_context()
    ad.backward(run_graph())
    params = [src] + [v for _, v in g.params.items()]
    grads = [p.grad.copy() for p in params]

    def run() -> float:
        g.replay_context()
        m = g.mark()
        val = float(run_graph().data)
        g.truncate(m)
        return val

    for p, got in zip(params, grads):
        assert max_rel_err(got, fd_gradient(run, p.data)) <= 1e-4
    g.live_context()


# ---------------------------------------------------------------------------
# field refinement
# ---------------------------------------------------------------------------

def build_fr(g, layout, rng, counts=None, temperature=0.5, use_gumbel=True):
    counts = counts or {"behavior": 1, "user": 2, "item": 1, "trigger": 1, "context": 1}
    return ft.FieldRefinement(
        g, rng, layout, scenario_dim=2, refiner_counts=counts,
        compression=0.5, temperature=temperature, use_gumbel=use_gumbel,
    )


def test_single_refiner_weight_is_exactly_one():
    g, q, layout = make_layout()
    rng = np.random.default_rng(7)
    fr = build_fr(g, layout, rng, counts={n: 1 for n in FIELD_ORDER})
    e_s = g.constant(rng.normal(size=(4, 2)))
    field = ad.slice_last(q, 0, 6)
    out = fr.refine_field("behavior", field, e_s, mode="train")
    direct = fr.refiners["behavior"][0].forward(field)
    np.testing.assert_array_equal(out.data, direct.data)


@pytest.mark.parametrize("use_gumbel", [True, False])
def test_a_one_refiner_field_is_its_refiner_and_has_no_selector(use_gumbel):
    g, q, layout = make_layout()
    rng = np.random.default_rng(14)
    fr = build_fr(g, layout, rng, use_gumbel=use_gumbel)  # user has 2 refiners, every other field 1
    e_s = g.parameter(rng.normal(size=(4, 2)))
    spec = layout.field("item")
    field = ad.slice_last(q, spec.offset, spec.offset + spec.width)
    direct = fr.refiners["item"][0].forward(field).data
    for mode in ("train", "eval"):
        trace: dict = {}
        out = fr.refine_field("item", field, e_s, mode, trace)
        assert out.data.tobytes() == direct.tobytes(), mode
        if mode == "eval":
            np.testing.assert_array_equal(trace["refiner_choice"]["item"], np.zeros(4, dtype=np.intp))
    assert set(fr.selectors) == {"user"}
    assert sorted(n for n in g.params if ".selector." in n) == ["fr.user.selector.b0", "fr.user.selector.w0"]
    g.zero_grads()
    ad.backward(ad.sum_all(fr.forward(q, e_s, mode="train")))
    assert all(g.params[n].grad.any() for n in ("fr.user.selector.b0", "fr.user.selector.w0"))
    # Only the two-refiner field's selector reaches the scenario embedding.
    assert e_s.grad.any()


def test_eval_selection_zeroes_unselected_slots_exactly():
    g, q, layout = make_layout()
    rng = np.random.default_rng(8)
    fr = build_fr(g, layout, rng)
    sel = fr.selectors["user"]
    # force selector to prefer refiner 0 for every row
    sel.weights[0].data[...] = 0.0
    sel.biases[0].data[...] = np.array([5.0, -5.0])
    e_s = g.constant(rng.normal(size=(4, 2)))
    spec = layout.field("user")
    field = ad.slice_last(q, spec.offset, spec.offset + spec.width)
    out = fr.refine_field("user", field, e_s, mode="eval")
    rw = ft.refiner_width(spec.width, 0.5)
    assert out.shape == (4, 2 * rw)
    assert np.array_equal(out.data[:, rw:], np.zeros((4, rw)))
    assert out.data[:, :rw].any()


def test_training_weights_sum_to_one_and_eval_is_one_hot():
    g, q, layout = make_layout()
    rng = np.random.default_rng(9)
    fr = build_fr(g, layout, rng, counts={n: 3 for n in FIELD_ORDER})
    e_s = g.constant(rng.normal(size=(4, 2)))
    spec = layout.field("item")
    field = ad.slice_last(q, spec.offset, spec.offset + spec.width)
    scores = ad.sigmoid(fr.selectors["item"].forward(ad.concat([field, e_s], axis=-1)))
    beta_train = ad.gumbel_softmax(scores, fr.temperature)
    assert np.abs(beta_train.data.sum(axis=-1) - 1.0).max() <= 1e-12
    beta_eval = ad.argmax_one_hot(scores)
    assert set(np.unique(beta_eval.data)) <= {0.0, 1.0}
    np.testing.assert_array_equal(beta_eval.data.sum(axis=-1), np.ones(4))


def test_eval_trace_records_argmax_choices():
    g, q, layout = make_layout()
    rng = np.random.default_rng(10)
    fr = build_fr(g, layout, rng)
    e_s = g.constant(rng.normal(size=(4, 2)))
    trace: dict = {}
    fr.forward(q, e_s, mode="eval", trace=trace)
    choices = trace["refiner_choice"]
    assert set(choices) == set(FIELD_ORDER)
    assert choices["user"].shape == (4,)
    assert set(np.unique(choices["user"])) <= {0, 1}


def test_refinement_gradients_with_frozen_noise():
    g = ad.Graph(seed=1, dtype=np.float64)
    rng = np.random.default_rng(11)
    src = g.parameter(rng.normal(size=(3, 27)))

    def assemble():
        parts = [
            ("behavior", ad.slice_last(src, 0, 6), [6]),
            ("user", ad.slice_last(src, 6, 13), [3, 2, 2]),
            ("item", ad.slice_last(src, 13, 18), [3, 2]),
            ("trigger", ad.slice_last(src, 18, 23), [3, 2]),
            ("context", ad.slice_last(src, 23, 27), [2, 2]),
        ]
        return concat_fields(parts)

    _, layout = assemble()
    fr = build_fr(g, layout, rng, temperature=0.8)
    e_s = g.constant(rng.normal(size=(3, 2)))

    def run_graph():
        q2, _ = assemble()
        return ad.sum_all(ad.sigmoid(fr.forward(q2, e_s, mode="train")))

    g.record_context()
    ad.backward(run_graph())
    params = [src] + [v for _, v in g.params.items()]
    grads = [p.grad.copy() for p in params]

    def run(p) -> float:
        g.replay_context()
        m = g.mark()
        val = float(run_graph().data)
        g.truncate(m)
        return val

    for p, got in zip(params, grads):
        want = fd_gradient(lambda: run(p), p.data)
        assert max_rel_err(got, want) <= 1e-4
    g.live_context()


def test_plain_softmax_variant_is_soft_and_noise_free():
    g, q, layout = make_layout()
    rng = np.random.default_rng(12)
    fr = build_fr(g, layout, rng, use_gumbel=False)
    e_s = g.constant(rng.normal(size=(4, 2)))
    spec = layout.field("user")
    field = ad.slice_last(q, spec.offset, spec.offset + spec.width)
    a = fr.refine_field("user", field, e_s, mode="train")
    b = fr.refine_field("user", field, e_s, mode="eval")
    np.testing.assert_array_equal(a.data, b.data)
    rw = ft.refiner_width(spec.width, 0.5)
    # soft: both slots carry mass
    assert np.abs(a.data[:, :rw]).sum() > 0 and np.abs(a.data[:, rw:]).sum() > 0


# ---------------------------------------------------------------------------
# field correlation
# ---------------------------------------------------------------------------

def test_correlation_emits_all_pairs_in_field_order():
    g, q, layout = make_layout()
    rng = np.random.default_rng(13)
    fcm = ft.FieldCorrelation(g, rng, layout, projection_dim=3)
    out = fcm.forward(q)
    assert out.shape == (4, 10)  # C(5,2)
    projected = []
    for f in layout.fields:
        piece = q.data[:, f.offset:f.offset + f.width]
        w = fcm.projections[f.name].weights[0].data
        b = fcm.projections[f.name].biases[0].data
        projected.append(piece @ w + b)
    col = 0
    for i in range(5):
        for j in range(i + 1, 5):
            want = (projected[i] * projected[j]).sum(axis=-1)
            np.testing.assert_allclose(out.data[:, col], want, atol=1e-12)
            col += 1


def test_correlation_gradients_match_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(14)
    src = g.parameter(rng.normal(size=(2, 27)))

    def assemble():
        parts = [
            ("behavior", ad.slice_last(src, 0, 6), [6]),
            ("user", ad.slice_last(src, 6, 13), [3, 2, 2]),
            ("item", ad.slice_last(src, 13, 18), [3, 2]),
            ("trigger", ad.slice_last(src, 18, 23), [3, 2]),
            ("context", ad.slice_last(src, 23, 27), [2, 2]),
        ]
        return concat_fields(parts)

    _, layout = assemble()
    fcm = ft.FieldCorrelation(g, rng, layout, projection_dim=3)

    def run_graph():
        q2, _ = assemble()
        return ad.sum_all(ad.sigmoid(fcm.forward(q2)))

    ad.backward(run_graph())
    for p in [src] + [v for _, v in g.params.items()]:
        got = p.grad.copy()

        def run(p=p) -> float:
            m = g.mark()
            val = float(run_graph().data)
            g.truncate(m)
            return val

        assert max_rel_err(got, fd_gradient(run, p.data)) <= 1e-4


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_adaptive_features_composes_and_supports_disabling():
    g, q, layout = make_layout()
    rng = np.random.default_rng(15)
    fs = build_fs(g, layout, rng)
    fr = build_fr(g, layout, rng)
    fcm = ft.FieldCorrelation(g, rng, layout, projection_dim=3)
    e_u = g.constant(rng.normal(size=(4, 3)))
    e_x = g.constant(rng.normal(size=(4, 3)))
    e_s = g.constant(rng.normal(size=(4, 2)))

    full, alpha = ft.adaptive_features(q, e_u, e_x, e_s, fs, fr, fcm, mode="eval")
    assert full.shape == (4, fr.out_width + fcm.out_width)
    assert alpha.shape == (4, layout.element_count)

    no_fs, alpha2 = ft.adaptive_features(q, e_u, e_x, e_s, None, fr, fcm, mode="eval")
    assert alpha2 is None and no_fs.shape == full.shape

    no_fr, _ = ft.adaptive_features(q, e_u, e_x, e_s, fs, None, fcm, mode="eval")
    assert no_fr.shape == (4, layout.width + fcm.out_width)

    no_fcm, _ = ft.adaptive_features(q, e_u, e_x, e_s, fs, fr, None, mode="eval")
    assert no_fcm.shape == (4, fr.out_width)

    bare, _ = ft.adaptive_features(q, e_u, e_x, e_s, None, None, None, mode="eval")
    np.testing.assert_array_equal(bare.data, q.data)

    with pytest.raises(ValueError, match="mode"):
        ft.adaptive_features(q, e_u, e_x, e_s, None, None, None, mode="predict")


def test_adaptive_features_end_to_end_gradients_with_frozen_noise():
    g = ad.Graph(seed=3, dtype=np.float64)
    rng = np.random.default_rng(16)
    src = g.parameter(rng.normal(size=(2, 27)))

    def assemble():
        parts = [
            ("behavior", ad.slice_last(src, 0, 6), [6]),
            ("user", ad.slice_last(src, 6, 13), [3, 2, 2]),
            ("item", ad.slice_last(src, 13, 18), [3, 2]),
            ("trigger", ad.slice_last(src, 18, 23), [3, 2]),
            ("context", ad.slice_last(src, 23, 27), [2, 2]),
        ]
        return concat_fields(parts)

    _, layout = assemble()
    fs = build_fs(g, layout, rng)
    fr = build_fr(g, layout, rng, temperature=0.9)
    fcm = ft.FieldCorrelation(g, rng, layout, projection_dim=3)
    e_u = g.constant(rng.normal(size=(2, 3)))
    e_x = g.constant(rng.normal(size=(2, 3)))
    e_s = g.constant(rng.normal(size=(2, 2)))

    def run_graph():
        q2, _ = assemble()
        out, _ = ft.adaptive_features(q2, e_u, e_x, e_s, fs, fr, fcm, mode="train")
        return ad.sum_all(ad.sigmoid(out))

    g.record_context()
    ad.backward(run_graph())
    params = [src] + [v for _, v in g.params.items()]
    grads = [p.grad.copy() for p in params]

    def run() -> float:
        g.replay_context()
        m = g.mark()
        val = float(run_graph().data)
        g.truncate(m)
        return val

    for p, got in zip(params, grads):
        want = fd_gradient(run, p.data)
        assert max_rel_err(got, want) <= 1e-4
    g.live_context()
