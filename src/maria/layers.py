"""Neural building blocks: embeddings, FC stacks, transformer encoder, trigger attention.

Everything here works on batched inputs: vectors are rows of a (batch, width)
Value and behavior sequences are (batch, length, width). The unbatched shapes
accepted by the public helpers are lifted to a batch of one internally.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, ShapeError, Value

MASK_OFF = -1e30  # additive attention mask for padded positions


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class EmbeddingTable:
    """Dense rows of learned embeddings with bounds-checked integer lookup."""

    def __init__(self, graph: Graph, rng: np.random.Generator, rows: int, dim: int, name: str):
        if rows <= 0 or dim <= 0:
            raise ValueError(f"embedding table {name!r}: rows and dim must be positive")
        self.rows = rows
        self.dim = dim
        self.name = name
        self.weights = graph.parameter(glorot_uniform(rng, (rows, dim), rows, dim))

    def lookup(self, ids) -> Value:
        idx = np.asarray(ids, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.rows):
            raise IndexError(f"embedding table {self.name!r}: id out of range [0, {self.rows})")
        return ad.take_rows(self.weights, idx)

    def parameters(self):
        return [(self.name, self.weights)]


_ACTIVATIONS = ("relu", "sigmoid", "linear")


class Fcn:
    """Stack of affine layers with per-layer activation tags."""

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        in_dim: int,
        widths: Sequence[int],
        activations: Sequence[str],
        name: str,
    ):
        if len(widths) != len(activations) or not widths:
            raise ValueError(f"fcn {name!r}: need one activation per layer")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"fcn {name!r}: unknown activation {act!r}")
        self.in_dim = in_dim
        self.widths = list(widths)
        self.activations = list(activations)
        self.name = name
        self.weights: list[Value] = []
        self.biases: list[Value] = []
        prev = in_dim
        for w in widths:
            self.weights.append(graph.parameter(glorot_uniform(rng, (prev, w), prev, w)))
            self.biases.append(graph.parameter(np.zeros(w)))
            prev = w

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def forward(self, x: Value) -> Value:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"fcn {self.name!r}: input width {x.shape[-1]}, expected {self.in_dim}")
        h = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = ad.affine(h, w, b)
            if act == "relu":
                h = ad.relu(h)
            elif act == "sigmoid":
                h = ad.sigmoid(h)
        return h

    def parameters(self):
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{self.name}.w{i}", w))
            out.append((f"{self.name}.b{i}", b))
        return out


def _additive_mask(graph: Graph, valid) -> Value | None:
    """(batch, 1, length) additive mask constant from a 0/1 validity array."""
    if valid is None:
        return None
    arr = np.asarray(valid, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    return graph.constant(((1.0 - arr) * MASK_OFF)[:, None, :])


class TransformerBlock:
    """One pre-norm encoder layer: multi-head self-attention plus feed-forward."""

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        model_dim: int,
        head_count: int,
        ffn_mult: int,
        name: str,
    ):
        if model_dim % head_count != 0:
            raise ValueError(f"transformer {name!r}: model_dim {model_dim} not divisible by {head_count} heads")
        self.model_dim = model_dim
        self.head_count = head_count
        self.head_dim = model_dim // head_count
        self.name = name
        d, dh = model_dim, self.head_dim
        self.wq = [graph.parameter(glorot_uniform(rng, (d, dh), d, dh)) for _ in range(head_count)]
        self.wk = [graph.parameter(glorot_uniform(rng, (d, dh), d, dh)) for _ in range(head_count)]
        self.wv = [graph.parameter(glorot_uniform(rng, (d, dh), d, dh)) for _ in range(head_count)]
        self.wo = graph.parameter(glorot_uniform(rng, (d, d), d, d))
        self.ffn = Fcn(graph, rng, d, [ffn_mult * d, d], ["relu", "linear"], f"{name}.ffn")
        self.ln1_gain = graph.parameter(np.ones(d))
        self.ln1_bias = graph.parameter(np.zeros(d))
        self.ln2_gain = graph.parameter(np.ones(d))
        self.ln2_bias = graph.parameter(np.zeros(d))

    def forward(self, seq: Value, mask: Value | None = None, collect: list | None = None) -> Value:
        normed = ad.layer_norm(seq, self.ln1_gain, self.ln1_bias)
        heads = []
        inv = 1.0 / math.sqrt(self.head_dim)
        for wq, wk, wv in zip(self.wq, self.wk, self.wv):
            q = ad.matmul(normed, wq)
            k = ad.matmul(normed, wk)
            v = ad.matmul(normed, wv)
            scores = ad.scale(ad.matmul(q, ad.transpose_last2(k)), inv)
            if mask is not None:
                scores = ad.add(scores, mask)
            attn = ad.softmax_last(scores)
            if collect is not None:
                collect.append(attn)
            heads.append(ad.matmul(attn, v))
        mixed = ad.matmul(ad.concat(heads, axis=-1), self.wo)
        h = ad.add(seq, mixed)
        return ad.add(h, self.ffn.forward(ad.layer_norm(h, self.ln2_gain, self.ln2_bias)))

    def parameters(self):
        out = []
        for i in range(self.head_count):
            out.append((f"{self.name}.h{i}.wq", self.wq[i]))
            out.append((f"{self.name}.h{i}.wk", self.wk[i]))
            out.append((f"{self.name}.h{i}.wv", self.wv[i]))
        out.append((f"{self.name}.wo", self.wo))
        out.extend(self.ffn.parameters())
        out.append((f"{self.name}.ln1.gain", self.ln1_gain))
        out.append((f"{self.name}.ln1.bias", self.ln1_bias))
        out.append((f"{self.name}.ln2.gain", self.ln2_gain))
        out.append((f"{self.name}.ln2.bias", self.ln2_bias))
        return out


def transformer_encode(
    block: TransformerBlock,
    seq: Value,
    valid=None,
    return_attention: bool = False,
):
    """Encode a (length, dim) or (batch, length, dim) sequence.

    ``valid`` is an optional 0/1 array marking real (non-padding) positions;
    padded positions are excluded as attention keys.
    """
    batched = seq.data.ndim == 3
    if not batched:
        if seq.data.ndim != 2:
            raise ShapeError(f"transformer_encode: expected 2-d or 3-d input, got {seq.shape}")
        seq = ad.reshape(seq, (1,) + seq.shape)
    mask = _additive_mask(seq.graph, valid)
    collect: list | None = [] if return_attention else None
    out = block.forward(seq, mask, collect)
    if not batched:
        out = ad.reshape(out, out.shape[1:])
    if return_attention:
        return out, collect
    return out


class SequenceEncoder:
    """Learned positional embeddings plus a stack of transformer blocks."""

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        model_dim: int,
        capacity: int,
        head_count: int = 2,
        layer_count: int = 1,
        ffn_mult: int = 2,
        name: str = "encoder",
    ):
        self.capacity = capacity
        self.model_dim = model_dim
        self.name = name
        self.positions = graph.parameter(glorot_uniform(rng, (capacity, model_dim), capacity, model_dim))
        self.blocks = [
            TransformerBlock(graph, rng, model_dim, head_count, ffn_mult, f"{name}.block{i}")
            for i in range(layer_count)
        ]

    def forward(self, seq: Value, valid=None) -> Value:
        length = seq.shape[-2]
        if length > self.capacity:
            raise ShapeError(f"sequence encoder: length {length} exceeds capacity {self.capacity}")
        pos = ad.take_rows(self.positions, np.arange(length))
        h = ad.add(seq, pos)
        mask = _additive_mask(seq.graph, valid)
        for block in self.blocks:
            h = block.forward(h, mask)
        return h

    def parameters(self):
        out = [(f"{self.name}.positions", self.positions)]
        for block in self.blocks:
            out.extend(block.parameters())
        return out


def trigger_attention(
    trigger: Value,
    seq: Value,
    sim_net: Fcn,
    valid=None,
    return_weights: bool = False,
):
    """Pool encoded behaviors into one vector, weighted by trigger similarity.

    Similarity of the trigger against each encoded behavior is a learned
    function of their concatenation; weights are a softmax over positions
    (padding masked out) and the result is the weighted sum of behaviors.
    """
    batched = seq.data.ndim == 3
    if not batched:
        seq = ad.reshape(seq, (1,) + seq.shape)
        trigger = ad.reshape(trigger, (1,) + trigger.shape)
    if trigger.data.ndim != 2 or seq.data.ndim != 3 or trigger.shape[0] != seq.shape[0]:
        raise ShapeError(f"trigger_attention: trigger {trigger.shape} vs sequence {seq.shape}")
    b, m, _ = seq.shape
    tiled = ad.add(ad.reshape(trigger, (b, 1, trigger.shape[-1])), seq.graph.constant(np.zeros((b, m, 1))))
    scores = ad.reshape(sim_net.forward(ad.concat([tiled, seq], axis=-1)), (b, m))
    if valid is not None:
        arr = np.asarray(valid, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        scores = ad.add(scores, scores.graph.constant((1.0 - arr) * MASK_OFF))
    weights = ad.softmax_last(scores)
    pooled = ad.reshape(ad.matmul(ad.reshape(weights, (b, 1, m)), seq), (b, seq.shape[-1]))
    if not batched:
        pooled = ad.reshape(pooled, pooled.shape[1:])
        weights = ad.reshape(weights, (m,))
    if return_weights:
        return pooled, weights
    return pooled
