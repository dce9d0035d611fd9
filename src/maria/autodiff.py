"""Reverse-mode automatic differentiation over dense float tensors.

A :class:`Graph` owns an append-only arena of :class:`Value` nodes. Nodes are
appended in creation order, so the arena index is a valid topological order
and :func:`backward` is a single reverse sweep over it. The graph's ``dtype``,
fixed when the graph is made (float32 by default), is the dtype of every
buffer: constants and parameters are cast to it, and each primitive
allocates in its operands' dtype. A grad buffer is made on first use: the
first contribution backward adds to a node becomes its buffer, and a read
of a node that has none makes a zero one. A forward pass alone, as in eval,
allocates no grad bytes. The graph also owns the random source used for
Gumbel noise, so runs are reproducible bit for bit and noise can be
recorded and replayed (finite-difference checks need the same noise on
every perturbed pass).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with a primitive."""


def _shape_error(op: str, *shapes: tuple) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {' and '.join(str(s) for s in shapes)}")


class Value:
    """One node of the computation: a buffer plus its backward recipe.

    ``grad`` has no buffer behind it until backward contributes to the node
    or something reads it (see :attr:`grad`).
    """

    __slots__ = ("graph", "index", "data", "_grad", "op", "parents", "requires_grad", "_backward")

    def __init__(
        self,
        graph: "Graph",
        data: Array,
        parents: tuple["Value", ...] = (),
        op: str = "leaf",
        requires_grad: bool = False,
        backward: Callable[[Array], None] | None = None,
    ):
        self.graph = graph
        self.data = data
        self._grad: Array | None = None
        self.parents = parents
        self.op = op
        self.requires_grad = requires_grad
        self._backward = backward
        self.index = graph._register(self)

    @property
    def grad(self) -> Array:
        """d loss / d node, full-shape and of the node's dtype; an all-zero
        buffer is made on the first read of a node that has none."""
        if self._grad is None:
            self._grad = np.zeros(self.data.shape, dtype=self.data.dtype)
        return self._grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Value(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


class Graph:
    """Arena of Values plus the seeded noise source for one model build.

    ``dtype`` is the float type of the nodes :meth:`constant` and
    :meth:`parameter` make: float32, the precision models train and score
    in, unless the graph is made as float64 (for finite differences).
    ``params`` maps each named parameter's name to its node, in creation
    order: the list that Adam trains and checkpoints save.
    """

    def __init__(self, seed: int | Sequence[int] = 0, dtype=np.float32):
        self.nodes: list[Value] = []
        self.params: dict[str, Value] = {}
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(seed)
        self.clamp_events = 0
        # Nodes at or past this index hold no grad that a backward wrote
        # since the last clear: no buffer, or zeros that a read made.
        self._grads_written = 0
        # "context" = everything a forward pass consumes besides node data:
        # sampled noise and gradient-frozen views. Recording it and replaying
        # it bit for bit lets finite differences probe exactly the partial
        # derivative the backward pass computes.
        self._context_mode = "live"  # live | record | replay
        self._noise_tape: list[Array] = []
        self._noise_cursor = 0
        self._frozen_tape: list[Array] = []
        self._frozen_cursor = 0

    def _register(self, value: Value) -> int:
        self.nodes.append(value)
        return len(self.nodes) - 1

    def __len__(self) -> int:
        return len(self.nodes)

    # -- arena bookkeeping ------------------------------------------------
    def mark(self) -> int:
        """Current arena length; pass to :meth:`truncate` to free intermediates."""
        return len(self.nodes)

    def truncate(self, mark: int) -> None:
        """Drop every node created at or after ``mark`` (parameters stay if older)."""
        del self.nodes[mark:]
        self._grads_written = min(self._grads_written, mark)

    def zero_grads(self) -> None:
        """Clear every grad that :func:`backward` may have written since the
        last clear, by dropping its buffer; younger nodes have none yet, or
        zeros that a read made. A dropped grad reads as zeros again.

        Only :func:`backward` marks grads as written. A grad set any other
        way (by hand, or by running a node's backward recipe directly) is
        cleared here only if a backward has reached that node since the last
        clear; otherwise clearing it is the caller's job.
        """
        for node in self.nodes[: self._grads_written]:
            node._grad = None
        self._grads_written = 0

    # -- noise source and frozen views --------------------------------------
    def uniform(self, shape: tuple[int, ...]) -> Array:
        """Uniform[0,1) draw that honors the record/replay mode."""
        shape = tuple(shape)
        if self._context_mode == "replay":
            if self._noise_cursor >= len(self._noise_tape):
                raise RuntimeError("noise replay exhausted: more draws than were recorded")
            draw = self._noise_tape[self._noise_cursor]
            if draw.shape != shape:
                raise RuntimeError(f"noise replay shape mismatch: recorded {draw.shape}, requested {shape}")
            self._noise_cursor += 1
            return draw
        draw = self.rng.random(size=shape)
        if self._context_mode == "record":
            self._noise_tape.append(draw)
        return draw

    def frozen_view(self, data: Array) -> Array:
        """Buffer for a stop_gradient node, pinned to the recorded pass on replay."""
        if self._context_mode == "replay":
            if self._frozen_cursor >= len(self._frozen_tape):
                raise RuntimeError("frozen-view replay exhausted")
            view = self._frozen_tape[self._frozen_cursor]
            if view.shape != data.shape:
                raise RuntimeError(f"frozen-view shape mismatch: recorded {view.shape}, got {data.shape}")
            self._frozen_cursor += 1
            return view
        if self._context_mode == "record":
            data = data.copy()
            self._frozen_tape.append(data)
        return data

    def record_context(self) -> None:
        """Record all noise draws and frozen views for bit-identical replay."""
        self._context_mode = "record"
        self._noise_tape = []
        self._noise_cursor = 0
        self._frozen_tape = []
        self._frozen_cursor = 0

    def replay_context(self) -> None:
        """Rewind: subsequent draws and frozen views replay the recorded tapes."""
        if self._context_mode == "live":
            raise RuntimeError("no recorded context to replay")
        self._context_mode = "replay"
        self._noise_cursor = 0
        self._frozen_cursor = 0

    def live_context(self) -> None:
        """Back to fresh sampling and live frozen views; clears the tapes."""
        self._context_mode = "live"
        self._noise_tape = []
        self._noise_cursor = 0
        self._frozen_tape = []
        self._frozen_cursor = 0

    # -- node constructors --------------------------------------------------
    def constant(self, data) -> Value:
        arr = np.asarray(data, dtype=self.dtype)
        return Value(self, arr, op="constant")

    def parameter(self, data, name: str | None = None) -> Value:
        """Trainable leaf; a named one is listed in :attr:`params`."""
        if name in self.params:
            raise ValueError(f"parameter {name!r} is made twice on one graph")
        value = Value(self, np.array(data, dtype=self.dtype), op="parameter", requires_grad=True)
        if name is not None:
            self.params[name] = value
        return value


def _node(
    graph: Graph,
    data: Array,
    parents: tuple[Value, ...],
    op: str,
    backward: Callable[[Array], None],
) -> Value:
    requires = any(p.requires_grad for p in parents)
    return Value(graph, data, parents, op, requires, backward if requires else None)


def _accumulate(node: Value, contribution: Array, g: Array) -> None:
    """``node.grad += contribution``, making the buffer on the first one.

    A first contribution that the recipe has just computed becomes the
    buffer itself. One that is ``g`` (the consumer's own grad), a view, a
    numpy scalar, a broadcast, not C-ordered or of another dtype than the
    node's is copied into a new buffer of the node's dtype.
    Either way the values pass through ``+ 0.0``, which turns -0.0 into
    +0.0: the buffer holds the same bits as a zero-filled one that took the
    contribution.
    """
    buf = node._grad
    if buf is not None:
        buf += contribution
    elif (
        contribution is g or type(contribution) is not np.ndarray or contribution.base is not None
        or contribution.shape != node.data.shape or not contribution.flags.c_contiguous
        or contribution.dtype != node.data.dtype
    ):
        node._grad = np.add(contribution, 0.0, out=np.empty(node.data.shape, dtype=node.data.dtype))
    else:
        node._grad = np.add(contribution, 0.0, out=contribution)


def _gemv_sum(x: Array, lead: int = 0) -> Array:
    """Sum ``x`` by one GEMV against a ones vector, into a fresh C-ordered
    buffer of ``x``'s dtype: over the last axis, kept as width 1, when
    ``lead`` is 0, or over the first ``lead`` axes otherwise.

    At this model's shapes (a last axis of a few to a few dozen, a few
    thousand rows) numpy's reductions take several times as long. BLAS sums
    in another order than they do, and the bits of a row's sum can depend
    on where the row sits in the matrix, but not on where the matrix sits
    in memory: the same call on the same data gives the same bits.
    """
    if lead:
        rows, width = math.prod(x.shape[:lead]), math.prod(x.shape[lead:])
        out = np.empty(x.shape[lead:], dtype=x.dtype)
        np.matmul(np.ones(rows, dtype=x.dtype), x.reshape(rows, width), out=out.reshape(width))
    else:
        out = np.empty(x.shape[:-1] + (1,), dtype=x.dtype)
        np.matmul(_rows(x), np.ones(x.shape[-1], dtype=x.dtype), out=out.reshape(-1))
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0 and grad.shape[extra:] == shape:  # a bias: sum over the rows
        return _gemv_sum(grad, extra)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes == (grad.ndim - 1,):  # a column weight: sum over the last axis
        return _gemv_sum(grad)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    # A reshaped view would make _accumulate copy what it could adopt.
    return grad if grad.shape == shape else grad.reshape(shape)


def _broadcastable(a: tuple, b: tuple) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Value, b: Value) -> Value:
    if not _broadcastable(a.shape, b.shape):
        raise _shape_error("add", a.shape, b.shape)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), g)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape), g)

    return _node(a.graph, a.data + b.data, (a, b), "add", backward)


def sub(a: Value, b: Value) -> Value:
    if not _broadcastable(a.shape, b.shape):
        raise _shape_error("sub", a.shape, b.shape)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), g)
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape), g)

    return _node(a.graph, a.data - b.data, (a, b), "sub", backward)


def mul(a: Value, b: Value) -> Value:
    if not _broadcastable(a.shape, b.shape):
        raise _shape_error("mul", a.shape, b.shape)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), g)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), g)

    return _node(a.graph, a.data * b.data, (a, b), "mul", backward)


def _rows(x: Array) -> Array:
    """``x`` as a 2-d matrix of its last-axis rows (a view when it can be)."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def _row_gemm(x: Array, w: Array) -> Array:
    """``x @ w`` for a 2-d ``w`` as one GEMM over the rows of ``x``, into a
    fresh C-ordered buffer of shape ``x.shape[:-1] + (w.shape[1],)`` and of
    ``x``'s dtype."""
    out = np.empty(x.shape[:-1] + (w.shape[1],), dtype=x.dtype)
    np.matmul(_rows(x), w, out=_rows(out))
    return out


def _row_product(x: Value, w: Value, b: Value | None, op: str) -> Value:
    """``x @ w`` (plus ``b``) for a 2-d or stacked ``x`` and a 2-d ``w``: one
    GEMM over the rows of ``x`` each way. The forward and the input grad
    hold, row for row, the bits of numpy's per-matrix products on OpenBLAS at
    the encoder's shapes. The weight grad ``x2.T @ g2`` over the flattened
    rows sums a stacked ``x`` in another order than per-matrix products do.
    Against a one-column ``w`` the input grad is the broadcast product
    ``g * w.T``, in about half the time of a GEMM of inner size 1: the same
    products, where only a zero's sign can differ, and the grad buffer turns
    -0.0 into +0.0 either way (see :func:`_accumulate`).
    """
    out = _row_gemm(x.data, w.data)
    if b is not None:
        out += b.data

    def backward(g: Array) -> None:
        if x.requires_grad:
            gx = g * w.data.T if w.shape[1] == 1 else _row_gemm(g, w.data.T)
            _accumulate(x, gx, g)
        if w.requires_grad:
            _accumulate(w, _rows(x.data).T @ _rows(g), g)
        if b is not None and b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape), g)

    return _node(x.graph, out, (x, w) if b is None else (x, w, b), op, backward)


def matmul(a: Value, b: Value) -> Value:
    """numpy matmul semantics: 2-d or stacked 3-d operands, broadcasting batch dims.

    A 2-d or stacked ``a`` against a 2-d ``b`` runs as one GEMM over the
    rows of ``a`` each way (see :func:`_row_product`).
    """
    if a.data.ndim < 1 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise _shape_error("matmul", a.shape, b.shape)
    if a.data.ndim >= 2 and b.data.ndim == 2:
        return _row_product(a, b, None, "matmul")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise _shape_error("matmul", a.shape, b.shape) from exc

    def backward(g: Array) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.shape), g)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape), g)

    return _node(a.graph, out, (a, b), "matmul", backward)


def affine(x: Value, w: Value, b: Value) -> Value:
    """``x @ w + b`` as one node, bit for bit equal to ``add(matmul(x, w), b)``.

    ``x`` is 2-d or carries stacked leading axes; ``w`` is 2-d and ``b`` 1-d.
    Either way the product runs as one GEMM over the rows of ``x`` each way
    (see :func:`_row_product`), the same products ``matmul`` runs.
    """
    if (
        x.data.ndim < 2 or w.data.ndim != 2 or b.data.ndim != 1
        or x.shape[-1] != w.shape[0] or b.shape[0] != w.shape[1]
    ):
        raise _shape_error("affine", x.shape, w.shape, b.shape)
    return _row_product(x, w, b, "affine")


def layer_norm(x: Value, gain: Value, bias: Value, eps: float = 1e-5) -> Value:
    """Normalise the last axis to zero mean and unit variance, then scale by
    ``gain`` and shift by ``bias`` (both 1-d, of the last axis' width).

    One node. The forward runs the numpy ops of the composition
    ``(x - mean) * (var + eps) ** -0.5 * gain + bias`` in that order, with
    the means of :func:`mean_last`, so it holds the same bits; the backward
    is the analytic one.
    """
    if x.data.ndim < 1 or gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise _shape_error("layer_norm", x.shape, gain.shape, bias.shape)
    n = x.shape[-1]
    centered = x.data - _gemv_sum(x.data) / n
    inv = (_gemv_sum(centered * centered) / n + float(eps)) ** -0.5
    normed = centered * inv
    out = normed * gain.data + bias.data

    def backward(g: Array) -> None:
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape), g)
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * normed, gain.shape), g)
        if x.requires_grad:
            gn = g * gain.data
            inner = gn - _gemv_sum(gn) / n - normed * (_gemv_sum(gn * normed) / n)
            _accumulate(x, inner * inv, g)

    return _node(x.graph, out, (x, gain, bias), "layer_norm", backward)


def weighted_sum(parts: Sequence[Value], weights: Sequence[Value]) -> Value:
    """``parts[0] * weights[0] + ... + parts[-1] * weights[-1]`` as one node.

    Every part has the same shape, and each weight broadcasts against it
    without widening it (a ``(B, 1)`` column against ``(B, H)`` parts). Values
    and grads hold the bits of the chain of ``mul`` and left-to-right ``add``
    nodes that it replaces.
    """
    if not parts or len(parts) != len(weights):
        raise ValueError(f"weighted_sum: need one weight per part, got {len(parts)} parts and {len(weights)} weights")
    shape = parts[0].shape
    for p, w in zip(parts, weights):
        widens = w.data.ndim > len(shape) or any(n not in (1, s) for n, s in zip(w.shape[::-1], shape[::-1]))
        if p.shape != shape or widens:
            raise _shape_error("weighted_sum", p.shape, w.shape)
    out = parts[0].data * weights[0].data
    for p, w in zip(parts[1:], weights[1:]):
        out += p.data * w.data
    pairs = list(zip(parts, weights))

    def backward(g: Array) -> None:
        # Last term first: the order in which the chain's sweep reaches them.
        for p, w in reversed(pairs):
            if p.requires_grad:
                _accumulate(p, _unbroadcast(g * w.data, p.shape), g)
            if w.requires_grad:
                _accumulate(w, _unbroadcast(g * p.data, w.shape), g)

    return _node(parts[0].graph, out, tuple(parts) + tuple(weights), "weighted_sum", backward)


def concat(parts: Sequence[Value], axis: int = -1) -> Value:
    if not parts:
        raise ValueError("concat: need at least one part")
    if axis not in (-1, 0):
        raise ValueError("concat: only the last axis and axis 0 are supported")
    base = parts[0].shape
    for p in parts[1:]:
        pa, pb = list(base), list(p.shape)
        if len(pa) != len(pb):
            raise _shape_error("concat", base, p.shape)
        pa[axis] = pb[axis] = 0
        if pa != pb:
            raise _shape_error("concat", base, p.shape)
    widths = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward(g: Array) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                if axis == -1:
                    _accumulate(p, g[..., lo:hi], g)
                else:
                    _accumulate(p, g[lo:hi], g)

    out = np.concatenate([p.data for p in parts], axis=axis)
    return _node(parts[0].graph, out, tuple(parts), "concat", backward)


def slice_last(x: Value, start: int, stop: int) -> Value:
    width = x.shape[-1]
    if not (0 <= start <= stop <= width):
        raise _shape_error("slice_last", x.shape, (start, stop))

    def backward(g: Array) -> None:
        if x.requires_grad:
            x.grad[..., start:stop] += g

    return _node(x.graph, x.data[..., start:stop].copy(), (x,), "slice_last", backward)


def take_rows(x: Value, indices) -> Value:
    """Gather rows of a 2-d Value; ``indices`` may have any shape.

    Output shape is ``indices.shape + (row_width,)``. The backward pass sums
    the output grad back into the source rows, so repeated indices
    accumulate: one ``np.bincount`` over the flat ``row * width + col``
    positions, which adds in lookup order, as ``np.add.at`` does into a
    zero buffer. ``bincount`` sums in float64; the sums take ``x``'s dtype
    before they reach its grad, so a float32 grad adds float32 values.
    """
    if x.data.ndim != 2:
        raise _shape_error("take_rows", x.shape, ())
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError("take_rows: indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"take_rows: index out of range for {x.shape[0]} rows")
    idx = idx.astype(np.int64, copy=False)

    def backward(g: Array) -> None:
        if x.requires_grad:
            rows, width = x.shape
            flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            summed = np.bincount(flat, weights=g.reshape(-1), minlength=rows * width)
            _accumulate(x, summed.reshape(x.shape).astype(x.data.dtype, copy=False), g)

    out = x.data[idx.reshape(-1)].reshape(idx.shape + (x.shape[1],))
    return _node(x.graph, out, (x,), "take_rows", backward)


def reshape(x: Value, shape: tuple[int, ...]) -> Value:
    try:
        out = x.data.reshape(shape).copy()
    except ValueError as exc:
        raise _shape_error("reshape", x.shape, tuple(shape)) from exc

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g.reshape(x.shape), g)

    return _node(x.graph, out, (x,), "reshape", backward)


def transpose_last2(x: Value) -> Value:
    if x.data.ndim < 2:
        raise _shape_error("transpose_last2", x.shape)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, np.swapaxes(g, -1, -2), g)

    return _node(x.graph, np.swapaxes(x.data, -1, -2).copy(), (x,), "transpose_last2", backward)


def sigmoid(x: Value) -> Value:
    # exp(-x) overflows to inf below x = -709, and the output is then 0.0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g * out * (1.0 - out), g)

    return _node(x.graph, out, (x,), "sigmoid", backward)


def relu(x: Value) -> Value:
    out = np.maximum(x.data, 0.0)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0.0), g)

    return _node(x.graph, out, (x,), "relu", backward)


def _max_last(x: Array) -> Array:
    """``x.max(axis=-1, keepdims=True)`` as a loop of ``np.maximum`` over the
    columns: the same bits, in a fraction of the time at the few columns
    this model's softmaxes have."""
    out = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(out, x[..., j : j + 1], out=out)
    return out


def softmax_last(x: Value) -> Value:
    e = np.exp(x.data - _max_last(x.data))
    out = e / _gemv_sum(e)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, out * (g - _gemv_sum(g * out)), g)

    return _node(x.graph, out, (x,), "softmax_last", backward)


def log(x: Value) -> Value:
    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g / x.data, g)

    return _node(x.graph, np.log(x.data), (x,), "log", backward)


def power(x: Value, exponent: float) -> Value:
    out = x.data ** exponent

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g * exponent * x.data ** (exponent - 1.0), g)

    return _node(x.graph, out, (x,), "power", backward)


def scale(x: Value, c: float) -> Value:
    c = float(c)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g * c, g)

    return _node(x.graph, x.data * c, (x,), "scale", backward)


def shift(x: Value, c: float) -> Value:
    c = float(c)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g, g)

    return _node(x.graph, x.data + c, (x,), "shift", backward)


def clamp(x: Value, lo: float, hi: float) -> Value:
    """Clip into [lo, hi]; gradient passes only where x lies strictly inside."""
    out = np.clip(x.data, lo, hi)
    inside = (x.data > lo) & (x.data < hi)

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g * inside, g)

    return _node(x.graph, out, (x,), "clamp", backward)


def sum_all(x: Value) -> Value:
    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g, g)

    return _node(x.graph, np.asarray(x.data.sum()), (x,), "sum_all", backward)


def sum_last(x: Value, keepdims: bool = False) -> Value:
    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g if keepdims else np.expand_dims(g, -1), g)

    out = _gemv_sum(x.data)
    return _node(x.graph, out if keepdims else out.reshape(x.shape[:-1]), (x,), "sum_last", backward)


def mean_last(x: Value, keepdims: bool = False) -> Value:
    n = x.shape[-1]

    def backward(g: Array) -> None:
        gg = g if keepdims else np.expand_dims(g, -1)
        if x.requires_grad:
            _accumulate(x, gg / n, g)

    out = _gemv_sum(x.data) / n
    return _node(x.graph, out if keepdims else out.reshape(x.shape[:-1]), (x,), "mean_last", backward)


def pair_dots(parts: Sequence[Value]) -> Value:
    """Row-wise dot products over the last axis of every pair of ``parts``,
    ``(0, 1), (0, 2), ..., (n - 2, n - 1)``, as the columns of one node.

    Every part has the same shape ``(..., width)``; the output is ``(...,
    n (n - 1) / 2)``. Values and grads hold the bits of the ``mul`` and
    keepdims ``sum_last`` per pair, concatenated, that it replaces.
    """
    if len(parts) < 2:
        raise ValueError(f"pair_dots: need at least two parts, got {len(parts)}")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape or p.data.ndim < 1:
            raise _shape_error("pair_dots", shape, p.shape)
    pairs = [(a, b) for i, a in enumerate(parts) for b in parts[i + 1 :]]
    out = np.empty(shape[:-1] + (len(pairs),), dtype=parts[0].data.dtype)
    for c, (a, b) in enumerate(pairs):
        out[..., c : c + 1] = _gemv_sum(a.data * b.data)

    def backward(g: Array) -> None:
        # Last pair first: the order in which a sweep over per-pair mul nodes adds them.
        for c in range(len(pairs) - 1, -1, -1):
            a, b = pairs[c]
            gc = g[..., c : c + 1]
            if a.requires_grad:
                _accumulate(a, gc * b.data, g)
            if b.requires_grad:
                _accumulate(b, gc * a.data, g)

    return _node(parts[0].graph, out, tuple(parts), "pair_dots", backward)


def mul_groups(x: Value, w: Value, widths: Sequence[int]) -> Value:
    """Each column of ``x`` times its group's column of ``w``, as one node.

    The last axis of ``x`` is split into consecutive groups of ``widths``;
    group ``j`` is multiplied by ``w[..., j:j + 1]``. ``x`` and ``w`` share
    their leading axes. Values and the grad of ``x`` hold the bits of the
    per-group ``slice_last``, ``mul`` and ``concat`` that it replaces; the
    grad of ``w`` is one GEMM against the 0/1 matrix that maps columns to
    groups, so it sums each group in another order.
    """
    widths = tuple(int(n) for n in widths)
    if (
        x.data.ndim < 1 or x.shape[:-1] != w.shape[:-1] or len(widths) != w.shape[-1]
        or sum(widths) != x.shape[-1] or min(widths, default=1) < 1
    ):
        raise _shape_error("mul_groups", x.shape, w.shape, widths)
    group = np.repeat(np.arange(len(widths)), widths)
    expanded = w.data[..., group]
    out = x.data * expanded

    def backward(g: Array) -> None:
        if x.requires_grad:
            _accumulate(x, g * expanded, g)
        if w.requires_grad:
            member = (group[:, None] == np.arange(len(widths))).astype(w.data.dtype)
            _accumulate(w, _row_gemm(g * x.data, member), g)

    return _node(x.graph, out, (x, w), "mul_groups", backward)


def stop_gradient(x: Value) -> Value:
    """Leaf copy sharing x's data: identical values, no gradient path at all."""
    return Value(x.graph, x.graph.frozen_view(x.data), parents=(), op="stop_gradient", requires_grad=False)


def gumbel_softmax(logits: Value, temperature: float) -> Value:
    """Softmax((logits + g) / temperature) with g = -log(-log u), u ~ U(0,1).

    The noise comes from the owning graph's seeded source (so it honors
    record/replay) and is treated as a constant: gradients flow only through
    ``logits``. The argmax of the output is an exact categorical sample with
    probabilities softmax(logits) when logits are log-probabilities.
    """
    if temperature <= 0.0:
        raise ValueError(f"gumbel_softmax: temperature must be positive, got {temperature}")
    u = np.clip(logits.graph.uniform(logits.shape), 1e-12, 1.0 - 1e-12)
    noise = logits.graph.constant(-np.log(-np.log(u)))
    return softmax_last(scale(add(logits, noise), 1.0 / temperature))


def argmax_one_hot(logits: Value) -> Value:
    """Deterministic one-hot over the last axis; a constant (no gradient)."""
    k = logits.shape[-1]
    idx = logits.data.argmax(axis=-1)
    out = np.zeros(logits.shape, dtype=logits.data.dtype)
    np.put_along_axis(out.reshape(-1, k), idx.reshape(-1, 1), 1.0, axis=-1)
    return logits.graph.constant(out)


def backward(loss: Value) -> None:
    """Accumulate d loss / d node into every reachable node's grad.

    Single reverse sweep over the arena: creation order is topological, so by
    the time a node's recipe runs, every consumer has already added its
    contribution to that node's grad.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = loss.graph.nodes
    needed = np.zeros(loss.index + 1, dtype=bool)
    needed[loss.index] = True
    for i in range(loss.index, -1, -1):
        if needed[i]:
            for p in nodes[i].parents:
                needed[p.index] = True
    loss.graph._grads_written = max(loss.graph._grads_written, loss.index + 1)
    loss._grad = np.ones(loss.data.shape, dtype=loss.data.dtype)
    for i in range(loss.index, -1, -1):
        node = nodes[i]
        if needed[i] and node.requires_grad and node._backward is not None:
            node._backward(node.grad)
