"""Layers: lookup gradients, FC stacks, transformer encoding, trigger attention."""

import re

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
    for ids in ([4], [-1], [0, 3, 4], [[1, 2], [-3, 0]]):
        with pytest.raises(IndexError, match=re.escape("embedding table 'embed.user': id out of range [0, 4)")):
            table.lookup(ids)
    assert table.lookup([]).shape == (0, 2)
    assert table.lookup([0, 3]).shape == (2, 2)


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


_ATTENTION = ad.attention  # the node itself, not the recording of the fixture below


@pytest.fixture
def attention_calls(monkeypatch):
    """Operands and output of every attention head the layers run, in order."""
    calls = []

    def recording(q, k, v, mask, scale):
        out = _ATTENTION(q, k, v, mask, scale)
        calls.append(((q, k, v, mask, scale), out))
        return out

    monkeypatch.setattr(ad, "attention", recording)
    return calls


def _attention_weights(q, k, v, mask, scale) -> np.ndarray:
    """A head's (batch, queries, keys) weights, read through the fused node:
    against identity values its output is the weights, bit for bit."""
    eye = np.broadcast_to(np.eye(k.shape[1]), (k.shape[0], k.shape[1], k.shape[1]))
    return _ATTENTION(q, k, q.graph.constant(eye), mask, scale).data


def test_transformer_single_position_attention_weight_is_one(attention_calls):
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(3)
    block = ly.TransformerBlock(g, rng, model_dim=6, head_count=2, ffn_mult=2, name="b")
    seq = g.constant(rng.normal(size=(1, 1, 6)))
    out = block.forward(seq, ly._additive_mask(g, np.ones((1, 1))))
    assert out.shape == (1, 1, 6)
    assert len(attention_calls) == 2
    for (q, k, v, mask, scale), head in attention_calls:
        assert _attention_weights(q, k, v, mask, scale).reshape(-1).tolist() == [1.0]
        assert head.data.tobytes() == v.data.tobytes()  # weight 1 on the one value


def test_transformer_preserves_shape_and_masks_padding_keys(attention_calls):
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(4)
    block = ly.TransformerBlock(g, rng, model_dim=8, head_count=2, ffn_mult=2, name="b")
    seq = g.constant(rng.normal(size=(3, 5, 8)))
    valid = np.array([[0, 0, 1, 1, 1], [1, 1, 1, 1, 1], [0, 1, 1, 1, 1]], dtype=float)
    out = block.forward(seq, ly._additive_mask(g, valid))
    assert out.shape == (3, 5, 8)
    assert len(attention_calls) == 2
    for (q, k, v, mask, scale), head in attention_calls:
        weights = _attention_weights(q, k, v, mask, scale)
        # no attention mass on padded keys, for any query
        assert weights[0, :, :2].max() < 1e-12
        assert weights[2, :, :1].max() < 1e-12
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones((3, 5)), atol=1e-12)
        # other values at the padded keys leave every output row as it was, bit for bit
        moved = v.data + np.where(valid[:, :, None] == 0.0, rng.normal(size=v.shape) * 1e3, 0.0)
        again = _ATTENTION(q, k, g.constant(moved), mask, scale)
        assert again.data.tobytes() == head.data.tobytes()


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


def _trigger_weights(attention_calls) -> np.ndarray:
    """The (batch, positions) pooling weights of the one attention call, a
    trigger attention, that the layers ran."""
    ((q, k, v, mask, scale), _), = attention_calls
    assert q.shape == (k.shape[0], 1, k.shape[2]) and v is k  # one query per row over the sequence
    return _attention_weights(q, k, v, mask, scale)[:, 0, :]


def test_trigger_attention_uniform_when_scores_equal(attention_calls):
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(7)
    query = ly.Fcn(g, rng, in_dim=4, widths=[6], activations=["linear"], name="query")
    for w in query.weights + query.biases:
        w.data[...] = 0.0
    trig = g.constant(rng.normal(size=(1, 4)))
    seq = g.constant(rng.normal(size=(1, 2, 6)))
    pooled = ly.trigger_attention(trig, seq, query, np.ones((1, 2)))
    np.testing.assert_allclose(_trigger_weights(attention_calls), [[0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(pooled.data, seq.data.mean(axis=1), atol=1e-12)


def test_trigger_attention_masks_padding_positions(attention_calls):
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(8)
    query = ly.Fcn(g, rng, in_dim=3, widths=[5], activations=["linear"], name="query")
    trig = g.constant(rng.normal(size=(2, 3)))
    seq = g.constant(rng.normal(size=(2, 4, 5)))
    valid = np.array([[0, 0, 1, 1], [1, 1, 1, 1]], dtype=float)
    ly.trigger_attention(trig, seq, query, valid)
    weights = _trigger_weights(attention_calls)
    assert weights[0, :2].max() < 1e-12
    np.testing.assert_allclose(weights.sum(axis=-1), [1.0, 1.0], atol=1e-12)


def test_trigger_attention_gradients_match_central_differences():
    g = ad.Graph(seed=0, dtype=np.float64)
    rng = np.random.default_rng(9)
    query = ly.Fcn(g, rng, in_dim=3, widths=[5], activations=["linear"], name="query")
    trig = g.parameter(rng.normal(size=(2, 3)))
    seq = g.parameter(rng.normal(size=(2, 4, 5)))
    valid = np.array([[0, 1, 1, 1], [1, 1, 1, 1]], dtype=float)

    def build():
        return ad.sum_all(ad.sigmoid(ly.trigger_attention(trig, seq, query, valid)))

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
