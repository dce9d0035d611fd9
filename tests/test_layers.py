"""Layers: lookup gradients, FC stacks, transformer encoding, trigger attention."""

import numpy as np
import pytest

from maria import autodiff as ad
from maria import layers as ly

from helpers import fd_gradient, max_rel_err


def test_embed_lookup_shape_and_scatter_gradient():
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(0)
    table = ly.EmbeddingTable(g, rng, rows=5, dim=3, name="embed.item")
    out = table.lookup([1, 1, 4])
    assert out.shape == (3, 3)
    ad.backward(ad.sum_all(out))
    np.testing.assert_array_equal(table.weights.grad[:, 0], [0.0, 2.0, 0.0, 0.0, 1.0])


def test_embed_lookup_rejects_out_of_range_and_empty_ok():
    g = ad.Graph(seed=0)
    table = ly.EmbeddingTable(g, np.random.default_rng(0), rows=4, dim=2, name="embed.user")
    with pytest.raises(IndexError, match="embed.user"):
        table.lookup([4])
    assert table.lookup([]).shape == (0, 2)


def test_embed_gradient_matches_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(1)
    table = ly.EmbeddingTable(g, rng, rows=6, dim=4, name="t")
    ids = np.array([0, 2, 2, 5])

    def build():
        out = table.lookup(ids)
        return ad.sum_all(ad.sigmoid(out))

    loss = build()
    ad.backward(loss)
    got = table.weights.grad.copy()

    def run() -> float:
        m = g.mark()
        val = float(build().data)
        g.truncate(m)
        return val

    want = fd_gradient(run, table.weights.data)
    assert max_rel_err(got, want) <= 1e-6


def test_fcn_zero_params_give_half_after_sigmoid():
    g = ad.Graph(seed=0)
    net = ly.Fcn(g, np.random.default_rng(0), in_dim=3, widths=[4, 1], activations=["relu", "sigmoid"], name="n")
    for w in net.weights:
        w.data[...] = 0.0
    out = net.forward(g.constant(np.random.default_rng(1).normal(size=(5, 3))))
    np.testing.assert_array_equal(out.data, np.full((5, 1), 0.5))


def test_fcn_width_mismatch_raises():
    g = ad.Graph(seed=0)
    net = ly.Fcn(g, np.random.default_rng(0), 3, [2], ["linear"], name="n")
    with pytest.raises(ad.ShapeError, match="n"):
        net.forward(g.constant(np.ones((2, 4))))


def test_fcn_gradients_match_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(2)
    net = ly.Fcn(g, rng, 4, [5, 3, 1], ["relu", "relu", "sigmoid"], name="n")
    x = g.constant(rng.normal(size=(6, 4)))

    def build():
        return ad.sum_all(net.forward(x))

    ad.backward(build())
    for name, p in g.params.items():
        got = p.grad.copy()

        def run(p=p) -> float:
            m = g.mark()
            val = float(build().data)
            g.truncate(m)
            return val

        assert max_rel_err(got, fd_gradient(run, p.data)) <= 1e-4, name


@pytest.fixture
def softmax_outputs(monkeypatch):
    """Every attention weight array the layers compute, in order."""
    seen = []
    softmax_last = ad.softmax_last

    def recording(x):
        out = softmax_last(x)
        seen.append(out)
        return out

    monkeypatch.setattr(ad, "softmax_last", recording)
    return seen


def test_transformer_single_position_attention_weight_is_one(softmax_outputs):
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(3)
    block = ly.TransformerBlock(g, rng, model_dim=6, head_count=2, ffn_mult=2, name="b")
    seq = g.constant(rng.normal(size=(1, 1, 6)))
    out = block.forward(seq, ly._additive_mask(g, np.ones((1, 1))))
    assert out.shape == (1, 1, 6)
    assert len(softmax_outputs) == 2
    for head in softmax_outputs:
        assert head.data.reshape(-1).tolist() == [1.0]


def test_transformer_preserves_shape_and_masks_padding_keys(softmax_outputs):
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(4)
    block = ly.TransformerBlock(g, rng, model_dim=8, head_count=2, ffn_mult=2, name="b")
    seq = g.constant(rng.normal(size=(3, 5, 8)))
    valid = np.array([[0, 0, 1, 1, 1], [1, 1, 1, 1, 1], [0, 1, 1, 1, 1]], dtype=float)
    out = block.forward(seq, ly._additive_mask(g, valid))
    assert out.shape == (3, 5, 8)
    assert len(softmax_outputs) == 2
    for head in softmax_outputs:
        # no attention mass on padded keys, for any query
        assert head.data[0, :, :2].max() < 1e-12
        assert head.data[2, :, :1].max() < 1e-12
        np.testing.assert_allclose(head.data.sum(axis=-1), np.ones((3, 5)), atol=1e-12)


def test_transformer_rejects_indivisible_heads():
    g = ad.Graph(seed=0)
    with pytest.raises(ValueError, match="divisible"):
        ly.TransformerBlock(g, np.random.default_rng(0), model_dim=7, head_count=2, ffn_mult=2, name="b")


def test_transformer_gradients_match_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(5)
    block = ly.TransformerBlock(g, rng, model_dim=6, head_count=2, ffn_mult=2, name="b")
    seq = g.constant(rng.normal(size=(2, 3, 6)))
    mask = ly._additive_mask(g, np.array([[0, 1, 1], [1, 1, 1]], dtype=float))

    def build():
        return ad.sum_all(ad.sigmoid(block.forward(seq, mask)))

    ad.backward(build())
    for name, p in g.params.items():
        got = p.grad.copy()

        def run(p=p) -> float:
            m = g.mark()
            val = float(build().data)
            g.truncate(m)
            return val

        assert max_rel_err(got, fd_gradient(run, p.data)) <= 1e-5, name


def test_sequence_encoder_adds_positions_and_respects_capacity():
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(6)
    enc = ly.SequenceEncoder(g, rng, model_dim=6, capacity=4, head_count=2, layer_count=1)
    out = enc.forward(g.constant(rng.normal(size=(2, 4, 6))), np.ones((2, 4)))
    assert out.shape == (2, 4, 6)
    with pytest.raises(ad.ShapeError, match="capacity"):
        enc.forward(g.constant(rng.normal(size=(2, 5, 6))), np.ones((2, 5)))


def test_trigger_attention_uniform_when_scores_equal(softmax_outputs):
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(7)
    sim = ly.Fcn(g, rng, in_dim=4 + 6, widths=[1], activations=["linear"], name="sim")
    for w in sim.weights:
        w.data[...] = 0.0
    trig = g.constant(rng.normal(size=(1, 4)))
    seq = g.constant(rng.normal(size=(1, 2, 6)))
    pooled = ly.trigger_attention(trig, seq, sim, np.ones((1, 2)))
    (weights,) = softmax_outputs
    np.testing.assert_allclose(weights.data, [[0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(pooled.data, seq.data.mean(axis=1), atol=1e-12)


def test_trigger_attention_masks_padding_positions(softmax_outputs):
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(8)
    sim = ly.Fcn(g, rng, in_dim=3 + 5, widths=[1], activations=["linear"], name="sim")
    trig = g.constant(rng.normal(size=(2, 3)))
    seq = g.constant(rng.normal(size=(2, 4, 5)))
    valid = np.array([[0, 0, 1, 1], [1, 1, 1, 1]], dtype=float)
    ly.trigger_attention(trig, seq, sim, valid)
    (weights,) = softmax_outputs
    assert weights.data[0, :2].max() < 1e-12
    np.testing.assert_allclose(weights.data.sum(axis=-1), [1.0, 1.0], atol=1e-12)


def test_trigger_attention_gradients_match_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(9)
    sim = ly.Fcn(g, rng, in_dim=3 + 5, widths=[1], activations=["linear"], name="sim")
    trig = g.parameter(rng.normal(size=(2, 3)))
    seq = g.parameter(rng.normal(size=(2, 4, 5)))
    valid = np.array([[0, 1, 1, 1], [1, 1, 1, 1]], dtype=float)

    def build():
        return ad.sum_all(ad.sigmoid(ly.trigger_attention(trig, seq, sim, valid)))

    ad.backward(build())
    for p in [trig, seq] + [v for _, v in g.params.items()]:
        got = p.grad.copy()

        def run(p=p) -> float:
            m = g.mark()
            val = float(build().data)
            g.truncate(m)
            return val

        assert max_rel_err(got, fd_gradient(run, p.data)) <= 1e-5


def test_glorot_bounds():
    rng = np.random.default_rng(10)
    w = ly.glorot_uniform(rng, (200, 100), 200, 100)
    bound = np.sqrt(6.0 / 300.0)
    assert w.min() >= -bound and w.max() <= bound
    assert abs(w.mean()) < 0.01
