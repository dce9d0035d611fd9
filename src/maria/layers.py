"""Neural building blocks: embeddings, FC stacks, transformer encoder, target attention on the trigger.

Everything here works on batched inputs: vectors are rows of a (batch, width)
Value and behavior sequences are (batch, length, width), with a (batch, length)
0/1 array marking the real (non-padding) positions.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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
        self.rows = rows
        self.dim = dim
        self.name = name
        self.weights = graph.parameter(glorot_uniform(rng, (rows, dim), rows, dim), name)

    def lookup(self, ids) -> Value:
        try:  # take_rows checks the range once; its error gets the table's name
            return ad.take_rows(self.weights, np.asarray(ids, dtype=np.int64))
        except IndexError as exc:
            raise IndexError(f"embedding table {self.name!r}: id out of range [0, {self.rows})") from exc


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
        for i, w in enumerate(widths):
            self.weights.append(graph.parameter(glorot_uniform(rng, (prev, w), prev, w), f"{name}.w{i}"))
            self.biases.append(graph.parameter(np.zeros(w), f"{name}.b{i}"))
            prev = w

    def forward(self, x: Value) -> Value:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"fcn {self.name!r}: input width {x.shape[-1]}, expected {self.in_dim}")
        h = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = _activate(ad.affine(h, w, b), act)
        return h


def fcn_bank(nets: Sequence[Fcn], x: Value, affine: Callable[..., Value]) -> Value:
    """Same-shaped ``nets`` side by side: per layer, one ``affine(h,
    weights, biases)`` node over every net's weights and biases, then one
    activation node."""
    h = x
    for layer, act in enumerate(nets[0].activations):
        h = _activate(affine(h, [n.weights[layer] for n in nets], [n.biases[layer] for n in nets]), act)
    return h


def _activate(x: Value, act: str) -> Value:
    if act == "relu":
        return ad.relu(x)
    if act == "sigmoid":
        return ad.sigmoid(x)
    return x


def _additive_mask(graph: Graph, valid: np.ndarray) -> Value:
    """(batch, 1, length) additive mask constant from a (batch, length) 0/1 validity array."""
    return graph.constant(((1.0 - np.asarray(valid, dtype=np.float64)) * MASK_OFF)[:, None, :])


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
        self.model_dim = model_dim
        self.head_dim = model_dim // head_count
        d, dh = model_dim, self.head_dim
        # Drawn as all queries, then all keys, then all values; listed head by head.
        draws = [[glorot_uniform(rng, (d, dh), d, dh) for _ in range(head_count)] for _ in "qkv"]
        self.wq, self.wk, self.wv = [], [], []
        for i in range(head_count):
            for kind, heads, draw in zip("qkv", (self.wq, self.wk, self.wv), draws):
                heads.append(graph.parameter(draw[i], f"{name}.h{i}.w{kind}"))
        self.wo = graph.parameter(glorot_uniform(rng, (d, d), d, d), f"{name}.wo")
        self.ffn = Fcn(graph, rng, d, [ffn_mult * d, d], ["relu", "linear"], f"{name}.ffn")
        self.ln1_gain = graph.parameter(np.ones(d), f"{name}.ln1.gain")
        self.ln1_bias = graph.parameter(np.zeros(d), f"{name}.ln1.bias")
        self.ln2_gain = graph.parameter(np.ones(d), f"{name}.ln2.gain")
        self.ln2_bias = graph.parameter(np.zeros(d), f"{name}.ln2.bias")

    def forward(self, seq: Value, mask: Value) -> Value:
        """Encode a (batch, length, dim) sequence; ``mask`` is the additive
        mask of :func:`_additive_mask`, which keeps padded keys out."""
        normed = ad.layer_norm(seq, self.ln1_gain, self.ln1_bias)
        heads = []
        inv = 1.0 / math.sqrt(self.head_dim)
        for wq, wk, wv in zip(self.wq, self.wk, self.wv):
            q = ad.matmul(normed, wq)
            k = ad.matmul(normed, wk)
            v = ad.matmul(normed, wv)
            heads.append(ad.attention(q, k, v, mask, inv))
        mixed = ad.matmul(ad.concat(heads, axis=-1), self.wo)
        h = ad.add(seq, mixed)
        return ad.add(h, self.ffn.forward(ad.layer_norm(h, self.ln2_gain, self.ln2_bias)))


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
        self.positions = graph.parameter(
            glorot_uniform(rng, (capacity, model_dim), capacity, model_dim), f"{name}.positions"
        )
        self.blocks = [
            TransformerBlock(graph, rng, model_dim, head_count, ffn_mult, f"{name}.block{i}")
            for i in range(layer_count)
        ]

    def forward(self, seq: Value, valid: np.ndarray) -> Value:
        length = seq.shape[-2]
        if length > self.capacity:
            raise ShapeError(f"sequence encoder: length {length} exceeds capacity {self.capacity}")
        pos = ad.take_rows(self.positions, np.arange(length))
        h = ad.add(seq, pos)
        mask = _additive_mask(seq.graph, valid)
        for block in self.blocks:
            h = block.forward(h, mask)
        return h


def trigger_attention(trigger: Value, seq: Value, query_net: Fcn, valid: np.ndarray) -> Value:
    """Pool encoded behaviors into one vector by target attention (DIN, BST):
    ``query_net`` maps the (batch, width) trigger to one query of the
    sequence's width, and one :func:`ad.attention` node weighs the positions,
    padding masked out, by the softmax of their scaled dot products with it."""
    if trigger.data.ndim != 2 or seq.data.ndim != 3 or trigger.shape[0] != seq.shape[0]:
        raise ShapeError(f"trigger_attention: trigger {trigger.shape} vs sequence {seq.shape}")
    b, _, d = seq.shape
    q = ad.reshape(query_net.forward(trigger), (b, 1, d))
    return ad.reshape(ad.attention(q, seq, seq, _additive_mask(seq.graph, valid), 1.0 / math.sqrt(d)), (b, d))
