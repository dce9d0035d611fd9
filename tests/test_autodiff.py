"""Autodiff core: forward values, gradients vs central differences, invariants."""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import batched_matmul, fd_gradient, max_rel_err, mean_last, power, recipe_grads, sub

from maria import autodiff as ad


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_forward_fixed_points():
    g = ad.Graph(seed=0)
    assert ad.sigmoid(g.constant([0.0])).data[0] == 0.5
    np.testing.assert_allclose(ad.softmax_last(g.constant([0.0, 0.0])).data, [0.5, 0.5])
    out = ad.matmul(g.constant([[1.0, 2.0]]), g.constant([[3.0], [4.0]]))
    assert out.data.shape == (1, 1) and out.data[0, 0] == 11.0


def test_shape_mismatch_raises_with_primitive_name():
    g = ad.Graph(seed=0)
    a = g.constant(np.ones((2, 3)))
    b = g.constant(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(a, b)
    for a_shape, b_shape in [((2, 3, 4), (2, 4, 5)), ((4,), (4, 2))]:  # the right operand is a 2-d weight
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(g.constant(np.ones(a_shape)), g.constant(np.ones(b_shape)))
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(g.constant(np.ones((2, 3))), g.constant(np.ones((2, 4))))
    with pytest.raises(ad.ShapeError, match="concat"):
        ad.concat([g.constant(np.ones((2, 3))), g.constant(np.ones((3, 3)))], axis=-1)


def test_graph_creation_order_is_topological():
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0])
    y = ad.relu(x)
    z = ad.sum_all(ad.mul(y, y))
    for node in g.nodes:
        for p in node.parents:
            assert p.index < node.index
    assert z.index == len(g) - 1


def test_zero_grads_and_data_length_invariant():
    g = ad.Graph(seed=0)
    x = g.parameter(np.ones((3, 2)))
    loss = ad.sum_all(ad.mul(x, x))
    ad.backward(loss)
    assert np.any(x.grad != 0.0)
    g.zero_grads()
    for node in g.nodes:
        assert node.grad.size == node.data.size == np.prod(node.shape, dtype=int) or node.data.ndim == 0
        assert not node.grad.any()


def test_zero_grads_after_truncate_and_a_longer_step():
    # The second step builds more nodes than the first, so its backward
    # writes grads past everything the first step left behind.
    g = ad.Graph(seed=0)
    x = g.parameter(np.linspace(-1.0, 1.0, 6).reshape(3, 2))
    mark = g.mark()
    ad.backward(ad.sum_all(ad.mul(x, x)))
    g.truncate(mark)
    h = ad.relu(ad.add(x, x))
    loss = ad.sum_all(ad.mul(ad.sigmoid(h), ad.add(h, x)))
    received = recipe_grads(loss)
    # Every node past the parameter is interior: its recipe received a
    # nonzero grad, and the sweep dropped it once the recipe had run.
    assert sorted(received) == [node.index for node in g.nodes[1:]]
    assert all(grad.any() for grad in received.values()) and x.grad.any()
    assert all(node._grad is None for node in g.nodes[1:])
    g.zero_grads()
    for node in g.nodes:
        assert not node.grad.any()
    # Truncating drops the written nodes, not the parameters they wrote to.
    ad.backward(loss)
    g.truncate(mark)
    g.zero_grads()
    assert not x.grad.any()


def test_zero_grads_drops_every_grad():
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0])
    x.grad[...] = 5.0  # set by hand, no backward since the graph was built
    g.zero_grads()
    assert x._grad is None and not x.grad.any()
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    g.zero_grads()
    assert x._grad is None and not x.grad.any()


def test_scope_drops_the_nodes_of_its_block_on_every_exit(monkeypatch):
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0])
    ad.backward(ad.sum_all(ad.mul(x, x)))
    g.truncate(1)
    older = ad.relu(x)
    start = len(g)
    with g.scope():
        ad.backward(ad.sum_all(ad.mul(older, x)))
    assert len(g) == start and g.nodes[-1] is older
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])  # older nodes keep their grads
    with pytest.raises(RuntimeError, match="inside"):
        with g.scope():
            ad.sigmoid(older)
            raise RuntimeError("raised inside the scope")
    assert len(g) == start and g.nodes[-1] is older
    # truncate runs only when the block made nodes
    calls = []
    truncate = ad.Graph.truncate
    monkeypatch.setattr(ad.Graph, "truncate", lambda graph, mark: calls.append(mark) or truncate(graph, mark))
    with g.scope():
        pass
    assert calls == []
    with g.scope():
        ad.relu(older)
    assert calls == [start] and len(g) == start


# ---------------------------------------------------------------------------
# backward: hand oracle and finite differences
# ---------------------------------------------------------------------------

def test_backward_sum_of_squares():
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0, 3.0])
    ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=0, atol=1e-15)


def test_backward_sigmoid_chain():
    # d/dx sigmoid(x)*c at x=0 is 0.25*c
    g = ad.Graph(seed=0)
    x = g.parameter([0.0])
    c = 3.0
    ad.backward(ad.sum_all(ad.scale(ad.sigmoid(x), c)))
    np.testing.assert_allclose(x.grad, [0.25 * c], atol=1e-12)


def test_backward_rejects_nonscalar_loss():
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.mul(x, x))


def _random_composite(g: ad.Graph, params: list[ad.Value], rng: np.random.Generator) -> ad.Value:
    """A little expression mixing most primitives, built from fixed params."""
    a, b, w = params
    h = ad.matmul(a, w)                      # (2,4)@(4,3)
    h = ad.add(h, b)                         # broadcast bias (3,)
    h = ad.relu(h)
    s = ad.softmax_last(ad.mul(h, h))
    t = ad.sigmoid(ad.slice_last(h, 0, 2))
    joined = ad.concat([s, t], axis=-1)
    r = ad.reshape(joined, (10,))
    picked = ad.take_rows(joined, np.array([0, 1, 1]))
    total = ad.add(ad.sum_all(power(ad.shift(mean_last(picked), 2.0), 2.0)), ad.sum_all(r))
    mean_sq = ad.scale(ad.sum_all(ad.mul(h, h)), 1.0 / h.size)
    return ad.add(total, ad.sum_all(power(ad.shift(mean_sq, 1.0), 0.5)))


def test_gradients_match_central_differences_on_composites():
    rng = np.random.default_rng(7)
    for trial in range(5):
        g = ad.Graph(seed=trial, dtype=np.float64)
        a = g.parameter(rng.normal(size=(2, 4)))
        b = g.parameter(rng.normal(size=(3,)))
        w = g.parameter(rng.normal(size=(4, 3)))
        params = [a, b, w]
        loss = _random_composite(g, params, rng)
        ad.backward(loss)
        analytic = [p.grad.copy() for p in params]
        mark_loss = loss

        def run() -> float:
            m = g.mark()
            out = float(_random_composite(g, params, rng).data)
            g.truncate(m)
            return out

        for p, got in zip(params, analytic):
            want = fd_gradient(run, p.data)
            assert max_rel_err(got, want) <= 1e-4, f"trial {trial}"
        assert mark_loss is loss


def _reference_grads(loss: ad.Value) -> dict[int, np.ndarray]:
    """Independent backward: explicit DFS topological sort, then accumulate."""
    order: list[ad.Value] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node.index in seen:
            continue
        seen.add(node.index)
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    saved = {n.index: n.grad.copy() for n in order}
    for n in order:
        n.grad[...] = 0.0
    loss.grad[...] = 1.0
    for n in reversed(order):
        if n.requires_grad and n._backward is not None:
            n._backward(n.grad)
    result = {n.index: n.grad.copy() for n in order}
    for n in order:
        n.grad[...] = saved[n.index]
    return result


def test_reverse_sweep_agrees_with_independent_topological_backward():
    # Random DAGs with shared subexpressions: the arena sweep must equal a
    # classic DFS-topo traversal node for node.
    rng = np.random.default_rng(11)
    for trial in range(10):
        g = ad.Graph(seed=trial, dtype=np.float64)
        pool = [g.parameter(rng.normal(size=(3,))) for _ in range(3)]
        for _ in range(12):
            op = rng.integers(0, 5)
            x = pool[rng.integers(0, len(pool))]
            y = pool[rng.integers(0, len(pool))]
            if op == 0:
                pool.append(ad.add(x, y))
            elif op == 1:
                pool.append(ad.mul(x, y))
            elif op == 2:
                pool.append(ad.sigmoid(x))
            elif op == 3:
                pool.append(ad.relu(sub(x, y)))
            else:
                pool.append(ad.softmax_last(x))
        loss = ad.sum_all(functools.reduce(ad.add, pool[3:], pool[0]))
        want = _reference_grads(loss)
        g.zero_grads()
        received = recipe_grads(loss)
        assert all(node._grad is None for node in g.nodes if node._backward is not None)
        # accumulation order differs between the two traversals, so compare
        # tightly rather than bitwise; interior grads as their recipes
        # received them, leaf grads after the sweep
        for idx, ref in want.items():
            got = received[idx] if g.nodes[idx]._backward is not None else g.nodes[idx].grad
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12, err_msg=f"trial {trial} node {idx}")


# ---------------------------------------------------------------------------
# stop_gradient
# ---------------------------------------------------------------------------

def test_stop_gradient_shares_data_and_blocks_grads():
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0])
    w = g.parameter([3.0, 5.0])
    frozen = ad.stop_gradient(x)
    assert frozen.requires_grad is False and frozen.parents == ()
    np.testing.assert_array_equal(frozen.data, x.data)
    y = ad.sum_all(ad.mul(frozen, w))
    ad.backward(y)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])
    np.testing.assert_array_equal(w.grad, [1.0, 2.0])


def test_stop_gradient_isolates_entire_ancestor_region():
    g = ad.Graph(seed=0)
    deep = g.parameter([0.3, -0.4])
    mid = ad.sigmoid(deep)
    y = ad.sum_all(ad.mul(ad.stop_gradient(mid), ad.stop_gradient(mid)))
    ad.backward(y)
    assert not deep.grad.any()
    assert not mid.grad.any()


# ---------------------------------------------------------------------------
# gumbel softmax
# ---------------------------------------------------------------------------

def test_gumbel_softmax_single_class_is_exactly_one():
    g = ad.Graph(seed=0)
    out = ad.gumbel_softmax(g.constant([0.37]), temperature=1.0)
    assert out.data.tolist() == [1.0]


def test_gumbel_softmax_sums_to_one_and_needs_positive_temperature():
    g = ad.Graph(seed=1)
    logits = g.constant(np.random.default_rng(0).normal(size=(6, 4)))
    out = ad.gumbel_softmax(logits, temperature=0.5)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-12)
    with pytest.raises(ValueError):
        ad.gumbel_softmax(logits, temperature=0.0)


def test_gumbel_argmax_frequency_matches_class_probability():
    # Gumbel-max is exact categorical sampling: argmax frequency of class 0
    # over many draws must estimate its probability.
    draws = 100_000
    g = ad.Graph(seed=123)
    logits = g.constant(np.tile(np.log([0.7, 0.3]), (draws, 1)))
    out = ad.gumbel_softmax(logits, temperature=1.0)
    freq = float((out.data.argmax(axis=-1) == 0).mean())
    assert abs(freq - 0.70) <= 0.02


def test_gumbel_noise_record_replay_is_bit_identical():
    g = ad.Graph(seed=5)
    logits = g.constant(np.random.default_rng(2).normal(size=(3, 4)))
    g.record_context()
    first = ad.gumbel_softmax(logits, temperature=0.7).data.copy()
    g.replay_context()
    second = ad.gumbel_softmax(logits, temperature=0.7).data.copy()
    np.testing.assert_array_equal(first, second)
    g.live_context()
    third = ad.gumbel_softmax(logits, temperature=0.7).data.copy()
    assert not np.array_equal(first, third)


def test_replay_leaves_the_rng_where_the_recorded_pass_did():
    logits_data = np.random.default_rng(2).normal(size=(3, 4))
    once = ad.Graph(seed=5)
    ad.gumbel_softmax(once.constant(logits_data), temperature=0.7)
    g = ad.Graph(seed=5)
    logits = g.constant(logits_data)
    g.record_context()
    ad.gumbel_softmax(logits, temperature=0.7)
    for _ in range(2):
        g.replay_context()
        ad.gumbel_softmax(logits, temperature=0.7)
    g.live_context()
    np.testing.assert_array_equal(
        ad.gumbel_softmax(logits, temperature=0.7).data,
        ad.gumbel_softmax(once.constant(logits_data), temperature=0.7).data,
    )


def test_gumbel_gradient_flows_through_logits_only():
    g = ad.Graph(seed=9, dtype=np.float64)
    logits = g.parameter(np.array([0.2, -0.1, 0.05]))
    g.record_context()
    loss = ad.sum_all(ad.mul(ad.gumbel_softmax(logits, 0.8), g.constant([1.0, 2.0, 3.0])))
    ad.backward(loss)
    got = logits.grad.copy()

    def run() -> float:
        g.replay_context()
        m = g.mark()
        out = float(ad.sum_all(ad.mul(ad.gumbel_softmax(logits, 0.8), g.constant([1.0, 2.0, 3.0]))).data)
        g.truncate(m)
        return out

    want = fd_gradient(run, logits.data)
    assert max_rel_err(got, want) <= 1e-4


def test_argmax_one_hot_is_constant_one_hot():
    g = ad.Graph(seed=0)
    out = ad.argmax_one_hot(g.constant([[0.1, 0.9, 0.3], [0.8, 0.2, 0.1]]))
    np.testing.assert_array_equal(out.data, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert out.requires_grad is False


# ---------------------------------------------------------------------------
# determinism, arena bookkeeping, misc primitives
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_bitwise():
    def run(seed: int) -> tuple[np.ndarray, np.ndarray]:
        g = ad.Graph(seed=seed)
        x = g.parameter(np.random.default_rng(42).normal(size=(4, 3)))
        out = ad.gumbel_softmax(ad.sigmoid(x), temperature=0.3)
        loss = ad.sum_all(ad.mul(out, out))
        ad.backward(loss)
        return out.data.copy(), x.grad.copy()

    a_data, a_grad = run(77)
    b_data, b_grad = run(77)
    np.testing.assert_array_equal(a_data, b_data)
    np.testing.assert_array_equal(a_grad, b_grad)


def test_truncate_frees_intermediates_but_keeps_parameters():
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, 2.0])
    mark = g.mark()
    for _ in range(5):
        ad.sum_all(ad.mul(x, x))
    assert len(g) > mark
    g.truncate(mark)
    assert len(g) == mark and g.nodes[0] is x


def test_clamp_forward_and_gradient_mask():
    g = ad.Graph(seed=0)
    x = g.parameter([-1.0, 0.5, 2.0])
    out = ad.clamp(x, 0.0, 1.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.5, 1.0])
    ad.backward(ad.sum_all(out))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_take_rows_empty_and_bounds():
    g = ad.Graph(seed=0)
    table = g.parameter(np.arange(12.0).reshape(4, 3))
    empty = ad.take_rows(table, np.array([], dtype=np.int64))
    assert empty.shape == (0, 3)
    with pytest.raises(IndexError):
        ad.take_rows(table, np.array([4]))
    picked = ad.take_rows(table, np.array([[1, 1], [0, 3]]))
    assert picked.shape == (2, 2, 3)
    ad.backward(ad.sum_all(picked))
    np.testing.assert_array_equal(table.grad[:, 0], [1.0, 2.0, 0.0, 1.0])


def test_a_float32_graph_casts_its_leaves_and_keeps_grads_in_float32():
    g = ad.Graph(seed=0)
    assert g.dtype == np.float32  # the default
    assert ad.Graph(seed=0, dtype=np.float64).dtype == np.float64
    rng = np.random.default_rng(0)
    table = g.parameter(rng.normal(size=(4, 3)))
    weights = g.constant(rng.normal(size=(5, 3)))
    idx = np.array([1, 3, 1, 1, 0])
    loss = ad.sum_all(ad.mul(ad.take_rows(table, idx), weights))
    ad.backward(loss)
    assert {table.data.dtype, weights.data.dtype, loss.data.dtype, table.grad.dtype} == {np.dtype(np.float32)}
    # take_rows' bincount sums in float64; the grad holds those sums rounded once
    expected = np.zeros((4, 3))
    np.add.at(expected, idx, weights.data.astype(np.float64))
    assert np.array_equal(table.grad, expected.astype(np.float32))

    # a fresh float64 first contribution, from a float64 leaf made without
    # the graph's cast, is copied into a float32 buffer, not adopted
    wide = ad.Value(g, rng.normal(size=3), op="constant")
    x = g.parameter(rng.normal(size=3))
    ad.backward(ad.sum_all(ad.mul(x, wide)))
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad, wide.data.astype(np.float32))


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    rows=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_concat_slice_roundtrip(widths, rows, seed):
    g = ad.Graph(seed=0)
    rng = np.random.default_rng(seed)
    parts = [g.constant(rng.normal(size=(rows, w))) for w in widths]
    joined = ad.concat(parts, axis=-1)
    offset = 0
    for part, w in zip(parts, widths):
        piece = ad.slice_last(joined, offset, offset + w)
        np.testing.assert_array_equal(piece.data, part.data)
        offset += w
    assert joined.shape == (rows, sum(widths))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
def test_softmax_normalizes_and_is_positive(xs):
    g = ad.Graph(seed=0, dtype=np.float64)
    out = ad.softmax_last(g.constant(np.array(xs)))
    assert abs(out.data.sum() - 1.0) <= 1e-12
    assert (out.data >= 0.0).all()


# ---------------------------------------------------------------------------
# affine: one node for x @ w + b
# ---------------------------------------------------------------------------

def _affine_case(g: ad.Graph, seed: int, lead: tuple[int, ...], d_in: int, d_out: int):
    rng = np.random.default_rng(seed)
    x = g.parameter(rng.normal(size=lead + (d_in,)))
    w = g.parameter(rng.normal(size=(d_in, d_out)))
    b = g.parameter(rng.normal(size=(d_out,)))
    weights = g.constant(rng.normal(size=lead + (d_out,)))
    return x, w, b, weights


@settings(max_examples=40, deadline=None)
@given(
    lead=st.one_of(
        st.tuples(st.integers(1, 6)),
        st.tuples(st.integers(1, 4), st.integers(1, 5)),
    ),
    d_in=st.integers(1, 6),
    d_out=st.integers(1, 6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_affine_equals_matmul_plus_bias(lead, d_in, d_out, seed):
    outputs, grads = [], []
    for fused in (True, False):
        g = ad.Graph(seed=0)
        x, w, b, weights = _affine_case(g, seed, lead, d_in, d_out)
        out = ad.affine(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
        ad.backward(ad.sum_all(ad.mul(out, weights)))
        outputs.append(out.data)
        grads.append([x.grad, w.grad, b.grad])
    # The same numpy products in the same order: equal bit for bit.
    np.testing.assert_array_equal(outputs[0], outputs[1])
    for fused_grad, composed_grad in zip(*grads):
        np.testing.assert_array_equal(fused_grad, composed_grad)


@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_affine_gradients_match_central_differences(lead):
    g = ad.Graph(seed=0, dtype=np.float64)
    x, w, b, weights = _affine_case(g, 5, lead, 4, 3)

    def build() -> ad.Value:
        return ad.sum_all(ad.mul(ad.sigmoid(ad.affine(x, w, b)), weights))

    ad.backward(build())

    def run() -> float:
        m = g.mark()
        out = float(build().data)
        g.truncate(m)
        return out

    for p in (x, w, b):
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


@pytest.mark.parametrize(
    "x_shape, w_shape, b_shape",
    [
        ((4,), (4, 3), (3,)),          # x needs a row axis
        ((2, 4), (5, 3), (3,)),        # inner widths differ
        ((2, 4), (4, 3), (2,)),        # bias width differs
        ((2, 4), (4, 3), (1, 3)),      # bias is not 1-d
        ((2, 4), (2, 4, 3), (3,)),     # weight is not 2-d
    ],
)
def test_affine_rejects_bad_shapes(x_shape, w_shape, b_shape):
    g = ad.Graph(seed=0)
    x, w, b = (g.constant(np.zeros(shape)) for shape in (x_shape, w_shape, b_shape))
    with pytest.raises(ad.ShapeError, match="affine"):
        ad.affine(x, w, b)


# ---------------------------------------------------------------------------
# grad buffers made on first use
# ---------------------------------------------------------------------------

# Each recipe maps operands of shape (3, 4) (plus the side parameters w, b)
# to a (3, 4) Value. Together they reach every primitive's backward. The
# comments mark the recipes that hand a parent g itself or a view of g, which
# must be copied rather than adopted when it is the parent's first
# contribution.
_ROWS, _COLS = 3, 4
_RECIPES = [
    lambda x, y, s: ad.add(x, y),  # g itself
    lambda x, y, s: sub(x, y),  # g itself (negated for y)
    lambda x, y, s: ad.mul(x, y),
    lambda x, y, s: ad.matmul(ad.matmul(x, ad.transpose_last2(y)), x),  # transpose_last2: view
    lambda x, y, s: ad.affine(x, s["w"], s["b"]),
    lambda x, y, s: ad.slice_last(ad.concat([x, y], axis=-1), s["lo"], s["lo"] + _COLS),  # concat: view
    lambda x, y, s: ad.take_rows(ad.concat([x, y], axis=0), s["rows"]),  # concat axis 0: view
    lambda x, y, s: ad.reshape(ad.reshape(x, (_COLS, _ROWS)), (_ROWS, _COLS)),  # view
    lambda x, y, s: ad.add(x, ad.sum_last(y, keepdims=True)),  # sum_last: g itself, broadcast
    lambda x, y, s: ad.mul(x, ad.reshape(ad.sum_last(y), (_ROWS, 1))),  # sum_last: expand_dims view
    lambda x, y, s: ad.add(x, mean_last(y, keepdims=True)),
    lambda x, y, s: ad.mul(y, ad.reshape(mean_last(x), (_ROWS, 1))),
    lambda x, y, s: ad.mul(x, ad.pair_dots([x, y])),
    lambda x, y, s: ad.mul_groups(x, ad.slice_last(y, 0, 2), (1, 3)),  # x takes g * w: fresh
    lambda x, y, s: ad.shift(x, s["c"]),  # view: g itself
    lambda x, y, s: ad.add(ad.scale(x, 2.0), ad.shift(x, s["c"])),  # fan-out: x takes g itself first
    lambda x, y, s: ad.scale(x, s["c"]),
    lambda x, y, s: ad.add(x, ad.sum_all(y)),  # sum_all: g itself, broadcast
    lambda x, y, s: ad.sigmoid(x),
    lambda x, y, s: ad.relu(x),  # g * mask: -0.0 where g < 0 is masked
    lambda x, y, s: ad.softmax_last(x),
    lambda x, y, s: ad.clamp(x, -0.5, 0.5),
    lambda x, y, s: ad.log(ad.shift(ad.mul(x, x), 1.0)),
    lambda x, y, s: power(ad.shift(ad.mul(x, x), 1.0), 1.5),
    lambda x, y, s: ad.mul(ad.stop_gradient(x), y),
    lambda x, y, s: ad.reshape(ad.affine(ad.reshape(x, (1, _ROWS, _COLS)), s["w"], s["b"]), (_ROWS, _COLS)),
    lambda x, y, s: ad.reshape(ad.matmul(ad.reshape(y, (_ROWS, 1, _COLS)), s["w"]), (_ROWS, _COLS)),
    lambda x, y, s: ad.layer_norm(x, s["b"], ad.scale(s["b"], 0.5)),
    lambda x, y, s: ad.weighted_sum(_stack(x, y), [ad.sum_last(y, keepdims=True), s["b"]]),
    lambda x, y, s: ad.weighted_sum(ad.affine_stack(x, [s["w"], s["w"]], [s["b"], s["b"]]), [x, y]),  # slices: views
    lambda x, y, s: ad.weighted_sum(ad.affine_stack(_stack(x, y), [s["w"], s["w"]], [s["b"], s["b"]]), [x, y]),
    lambda x, y, s: ad.affine_segments(x, [s["w"], s["w"]], [s["b"], s["b"]], (1, _ROWS - 1)),
    lambda x, y, s: ad.reshape(  # k takes a transposed view; the mask is learned
        ad.attention(
            *(ad.reshape(v, (1, _ROWS, _COLS)) for v in (x, y, x)),
            ad.reshape(ad.slice_last(s["b"], 0, _ROWS), (1, 1, _ROWS)), s["c"],
        ),
        (_ROWS, _COLS),
    ),
]


def _stack(*parts):
    """``parts`` stacked on a new leading axis, by concat and reshape."""
    return ad.reshape(ad.concat(list(parts), axis=0), (len(parts),) + parts[0].shape)


def _build_program(program, seed):
    """One graph per call with the same data: leaves, the program's nodes,
    and a weighted sum of the newest node and of every third node from the
    first parameter on. Operands are counted back from the newest node, so
    nodes often have several consumers (fan-out)."""
    rng = np.random.default_rng(seed)
    g = ad.Graph(seed=0)
    side = {"w": g.parameter(rng.normal(size=(_COLS, _COLS))), "b": g.parameter(rng.normal(size=(_COLS,)))}
    pool = [g.constant(rng.normal(size=(_ROWS, _COLS)))]
    pool += [g.parameter(rng.normal(size=(_ROWS, _COLS))) for _ in range(2)]
    for op, i, j, k in program:
        side.update(lo=k % (_COLS + 1), rows=rng.integers(0, 2 * _ROWS, size=_ROWS), c=float(rng.normal()))
        pool.append(_RECIPES[op](pool[-1 - i % len(pool)], pool[-1 - j % len(pool)], side))
    total = ad.mul(pool[-1], g.constant(rng.normal(size=(_ROWS, _COLS))))
    for v in pool[1 : len(pool) - 1 : 3]:
        total = ad.add(total, ad.mul(v, g.constant(rng.normal(size=(_ROWS, _COLS)))))
    return g, ad.sum_all(total)


@settings(max_examples=80, deadline=None)
@given(
    program=st.lists(
        st.tuples(st.integers(0, len(_RECIPES) - 1), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        min_size=1, max_size=12,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_grads_made_on_first_use_equal_the_zero_start_path_bit_for_bit(program, seed):
    zero_graph, zero_loss = _build_program(program, seed)
    for node in zero_graph.nodes:
        node.grad  # every node gets a zero buffer, so backward only adds
    zero_received = recipe_grads(zero_loss)

    graph, loss = _build_program(program, seed)
    assert all(node._grad is None for node in graph.nodes)
    # A node's grad is final when its recipe runs; parents that take more
    # contributions afterwards must not write through into it (recipe_grads
    # checks each received buffer after the sweep).
    received = recipe_grads(loss)

    assert received and sorted(received) == sorted(zero_received)
    for mine, ref in zip(graph.nodes, zero_graph.nodes):
        if mine.index in received:
            assert mine._grad is None and ref._grad is None, f"{mine.op} node {mine.index} kept its grad"
        mine_grad = received.get(mine.index, mine.grad)
        ref_grad = zero_received.get(ref.index, ref.grad)
        # tobytes tells -0.0 from +0.0; the dtype and shape must match too.
        assert mine_grad.dtype == ref_grad.dtype and mine_grad.shape == ref_grad.shape
        assert mine_grad.tobytes() == ref_grad.tobytes(), f"{mine.op} node {mine.index}"


def test_a_grad_handed_down_whole_is_copied_not_shared():
    # shift hands h its own grad as h's first contribution; scale, which
    # runs later in the sweep, adds into h. shift's grad must not move
    # (recipe_grads checks each received buffer after the sweep).
    g = ad.Graph(seed=0)
    x = g.parameter([1.0, -2.0, 3.0])
    h = ad.mul(x, x)
    scaled = ad.scale(h, 2.0)
    shifted = ad.shift(h, 1.0)
    weights = g.constant([0.5, -1.0, 4.0])
    received = recipe_grads(ad.sum_all(ad.add(ad.mul(shifted, weights), scaled)))
    np.testing.assert_array_equal(received[shifted.index], [0.5, -1.0, 4.0])
    np.testing.assert_array_equal(received[h.index], [2.5, 1.0, 6.0])
    np.testing.assert_array_equal(x.grad, [5.0, -4.0, 36.0])
    assert shifted._grad is None and h._grad is None


# ---------------------------------------------------------------------------
# stacked products: one GEMM over the flattened rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)])
def test_stacked_matmul_and_affine_match_central_differences(lead):
    rng = np.random.default_rng(11)
    g = ad.Graph(seed=0, dtype=np.float64)
    x = g.parameter(rng.normal(size=lead + (4,)))
    w = g.parameter(rng.normal(size=(4, 3)))
    v = g.parameter(rng.normal(size=(3, 2)))
    b = g.parameter(rng.normal(size=(2,)))
    weights = g.constant(rng.normal(size=lead + (2,)))

    def build() -> ad.Value:
        h = ad.sigmoid(ad.matmul(x, w))
        return ad.sum_all(ad.mul(ad.sigmoid(ad.affine(h, v, b)), weights))

    ad.backward(build())
    np.testing.assert_allclose(ad.matmul(x, w).data, np.matmul(x.data, w.data), rtol=1e-13, atol=1e-13)

    def run() -> float:
        m = g.mark()
        out = float(build().data)
        g.truncate(m)
        return out

    for p in (x, w, v, b):
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


def _one_column_case(g: ad.Graph, seed: int, lead: tuple[int, ...], d_in: int, zeros: bool):
    """``x``, a one-column ``w``, a bias ``b`` and the weights that give each
    product row its upstream grad; with ``zeros``, signed zeros are mixed
    into ``w`` and those weights."""
    rng = np.random.default_rng(seed)
    x = g.parameter(rng.normal(size=lead + (d_in,)))
    w_data, up = rng.normal(size=(d_in, 1)), rng.normal(size=lead + (1,))
    if zeros:
        for arr in (w_data, up):
            arr[rng.random(arr.shape) < 0.3] = 0.0
            arr[rng.random(arr.shape) < 0.3] = -0.0
    return x, g.parameter(w_data), g.parameter(rng.normal(size=(1,))), g.constant(up)


def _one_column_product(x, w, b, op: str) -> ad.Value:
    return ad.matmul(x, w) if op == "matmul" else ad.affine(x, w, b)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 4), st.integers(1, 5))),
    d_in=st.integers(1, 30),
    op=st.sampled_from(["matmul", "affine"]),
    zeros=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(lead=(2048,), d_in=24, op="matmul", zeros=False, dtype=np.float32, seed=1)  # 512 rows x 4 positions
@example(lead=(512,), d_in=16, op="affine", zeros=False, dtype=np.float32, seed=2)    # the head's
@example(lead=(512,), d_in=27, op="affine", zeros=True, dtype=np.float64, seed=3)
def test_a_one_column_weight_gives_the_input_grad_of_the_gemm_bit_for_bit(lead, d_in, op, zeros, dtype, seed):
    g = ad.Graph(seed=0)
    g.dtype = np.dtype(dtype)
    x, w, b, up = _one_column_case(g, seed, lead, d_in, zeros)
    out = _one_column_product(x, w, b, op)
    out_grad = recipe_grads(ad.sum_all(ad.mul(out, up)))[out.index]
    assert out._grad is None
    # The GEMM of inner size 1 that the broadcast product replaces, through
    # the + 0.0 of a first grad contribution.
    gemm = np.empty(lead + (d_in,), dtype=dtype)
    np.matmul(out_grad.reshape(-1, 1), w.data.T, out=gemm.reshape(-1, d_in))
    want = np.add(gemm, 0.0)
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", ["matmul", "affine"])
@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_one_column_products_match_central_differences(lead, op):
    g = ad.Graph(seed=0, dtype=np.float64)
    x, w, b, up = _one_column_case(g, 9, lead, 4, zeros=False)

    def build() -> ad.Value:
        return ad.sum_all(ad.mul(ad.sigmoid(_one_column_product(x, w, b, op)), up))

    ad.backward(build())

    def run() -> float:
        m = g.mark()
        value = float(build().data)
        g.truncate(m)
        return value

    for p in (x, w, b) if op == "affine" else (x, w):
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


# ---------------------------------------------------------------------------
# layer_norm: one node for the normalise-scale-shift composition
# ---------------------------------------------------------------------------

def _composed_layer_norm(x, gain, bias, eps=1e-5):
    """The composition that ad.layer_norm replaces, kept as its reference."""
    mu = mean_last(x, keepdims=True)
    centered = sub(x, mu)
    var = mean_last(ad.mul(centered, centered), keepdims=True)
    inv = power(ad.shift(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def _layer_norm_case(g: ad.Graph, seed: int, lead: tuple[int, ...], width: int):
    rng = np.random.default_rng(seed)
    x = g.parameter(rng.normal(size=lead + (width,)) * rng.uniform(0.1, 10.0))
    gain = g.parameter(rng.normal(size=(width,)))
    bias = g.parameter(rng.normal(size=(width,)))
    weights = g.constant(rng.normal(size=lead + (width,)))
    return x, gain, bias, weights


@settings(max_examples=50, deadline=None)
@given(
    lead=st.one_of(st.tuples(st.integers(1, 6)), st.tuples(st.integers(1, 4), st.integers(1, 5))),
    width=st.integers(1, 19),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_layer_norm_equals_its_composition(lead, width, seed):
    outputs, grads = [], []
    for fused in (True, False):
        g = ad.Graph(seed=0, dtype=np.float64)
        x, gain, bias, weights = _layer_norm_case(g, seed, lead, width)
        out = ad.layer_norm(x, gain, bias) if fused else _composed_layer_norm(x, gain, bias)
        ad.backward(ad.sum_all(ad.mul(out, weights)))
        outputs.append(out.data)
        grads.append([x.grad, gain.grad, bias.grad])
    # The forward runs the composition's numpy ops in its order.
    assert outputs[0].tobytes() == outputs[1].tobytes()
    fused_grads, composed_grads = grads
    # bias and gain take the same products; x's grad is the analytic form.
    assert fused_grads[2].tobytes() == composed_grads[2].tobytes()
    assert fused_grads[1].tobytes() == composed_grads[1].tobytes()
    assert max_rel_err(fused_grads[0], composed_grads[0], floor=1e-6) <= 1e-8


@pytest.mark.parametrize("lead", [(3,), (2, 3)])
def test_layer_norm_gradients_match_central_differences(lead):
    g = ad.Graph(seed=0, dtype=np.float64)
    x, gain, bias, weights = _layer_norm_case(g, 5, lead, 5)

    def build() -> ad.Value:
        return ad.sum_all(ad.mul(ad.sigmoid(ad.layer_norm(x, gain, bias)), weights))

    ad.backward(build())

    def run() -> float:
        m = g.mark()
        out = float(build().data)
        g.truncate(m)
        return out

    for p in (x, gain, bias):
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


@pytest.mark.parametrize(
    "x_shape, gain_shape, bias_shape",
    [
        ((), (1,), (1,)),              # x needs a last axis
        ((2, 4), (3,), (4,)),          # gain width differs
        ((2, 4), (4,), (5,)),          # bias width differs
        ((2, 4), (1, 4), (4,)),        # gain is not 1-d
        ((2, 4), (4,), (2, 4)),        # bias is not 1-d
    ],
)
def test_layer_norm_rejects_bad_shapes(x_shape, gain_shape, bias_shape):
    g = ad.Graph(seed=0)
    x, gain, bias = (g.constant(np.zeros(shape)) for shape in (x_shape, gain_shape, bias_shape))
    with pytest.raises(ad.ShapeError, match="layer_norm"):
        ad.layer_norm(x, gain, bias)


# ---------------------------------------------------------------------------
# side-by-side branches as one node: weighted_sum, affine_stack,
# affine_segments and attention against the chains they replace
# ---------------------------------------------------------------------------

def _stacked_leaf(g, parts, frozen):
    """Fused side of a branch test: one leaf holding ``parts`` stacked on a new leading axis."""
    return (g.constant if frozen else g.parameter)(np.stack(parts))


def _weighted_loss(g, rng, out):
    return ad.sum_all(ad.mul(out, g.constant(rng.normal(size=out.shape))))


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 4),
    rows=st.integers(1, 5),
    width=st.integers(1, 6),
    column_weights=st.booleans(),
    from_gates=st.booleans(),
    frozen=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(count=4, rows=3, width=5, column_weights=True, from_gates=True, frozen=[False] * 5, seed=1)
@example(count=1, rows=1, width=1, column_weights=False, from_gates=False, frozen=[False] * 5, seed=2)
def test_weighted_sum_equals_the_mul_add_chain(count, rows, width, column_weights, from_gates, frozen, seed):
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        g = ad.Graph(seed=0)
        data = [rng.normal(size=(rows, width)) for _ in range(count)]
        # Constant parts or weights take no grad.
        if fused:
            stack = _stacked_leaf(g, data, frozen[0])
        else:
            parts = [(g.constant if frozen[0] else g.parameter)(d) for d in data]
        weight_shape = (rows, 1) if column_weights else (rows, width)
        if from_gates:
            gates = g.parameter(rng.normal(size=(rows, count)))
            weights = [ad.slice_last(gates, j, j + 1) for j in range(count)]
            leaves = [gates]
        else:
            weights = [(g.constant if frozen[1 + j] else g.parameter)(rng.normal(size=weight_shape)) for j in range(count)]
            leaves = weights
        if fused:
            out = ad.weighted_sum(stack, weights)
        else:
            out = None
            for p, w in zip(parts, weights):
                term = ad.mul(p, w)
                out = term if out is None else ad.add(out, term)
        ad.backward(_weighted_loss(g, rng, out))
        outputs.append(out.data)
        part_grads = list(stack.grad) if fused else [p.grad for p in parts]
        grads.append(part_grads + [leaf.grad for leaf in leaves])
    assert outputs[0].tobytes() == outputs[1].tobytes()
    for fused_grad, chain_grad in zip(*grads):
        assert fused_grad.tobytes() == chain_grad.tobytes()


def test_weighted_sum_rejects_bad_operands():
    g = ad.Graph(seed=0)
    stack = g.constant(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="one weight per part"):
        ad.weighted_sum(stack, [g.constant(np.zeros((3, 1)))])
    with pytest.raises(ValueError, match="one weight per part"):
        ad.weighted_sum(stack, [])
    for weight in [(3, 2), (2, 3, 1), (3, 5)]:
        with pytest.raises(ad.ShapeError, match="weighted_sum"):
            ad.weighted_sum(stack, [g.constant(np.zeros((3, 1))), g.constant(np.zeros(weight))])


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 4),
    rows=st.integers(1, 6),
    width_in=st.integers(1, 7),
    width_out=st.integers(1, 5),
    stacked=st.booleans(),
    other_consumer=st.booleans(),
    frozen_x=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(count=1, rows=3, width_in=4, width_out=5, stacked=False, other_consumer=False, frozen_x=False, seed=1)
@example(count=3, rows=4, width_in=5, width_out=1, stacked=False, other_consumer=True, frozen_x=False, seed=2)
@example(count=4, rows=1, width_in=3, width_out=4, stacked=True, other_consumer=False, frozen_x=False, seed=3)
def test_affine_stack_equals_one_affine_per_map(count, rows, width_in, width_out, stacked, other_consumer, frozen_x, seed):
    """One expert, an E-stacked input, a one-column output (the broadcast
    input grad), and a shared input that one more node reads."""
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        g = ad.Graph(seed=0)
        data = [rng.normal(size=(rows, width_in)) for _ in range(count if stacked else 1)]
        make = g.constant if frozen_x else g.parameter
        xs = [_stacked_leaf(g, data, frozen_x)] if fused and stacked else [make(d) for d in data]
        weights = [g.parameter(rng.normal(size=(width_in, width_out))) for _ in range(count)]
        biases = [g.parameter(rng.normal(size=width_out)) for _ in range(count)]
        scales = [rng.normal(size=(rows, width_out)) for _ in range(count)]
        if fused:
            out = ad.affine_stack(xs[0], weights, biases)
            outputs.append(list(out.data))
            loss = ad.sum_all(ad.mul(out, g.constant(np.stack(scales))))
        else:
            outs = [ad.affine(xs[j if stacked else 0], w, b) for j, (w, b) in enumerate(zip(weights, biases))]
            outputs.append([o.data for o in outs])
            loss = functools.reduce(ad.add, [ad.sum_all(ad.mul(o, g.constant(c))) for o, c in zip(outs, scales)])
        if other_consumer and not stacked:  # swept before the bank: its grad reaches x first
            loss = ad.add(loss, ad.sum_all(ad.mul(xs[0], xs[0])))
        ad.backward(loss)
        x_grads = list(xs[0].grad) if fused and stacked else [x.grad for x in xs]
        grads.append(x_grads + [v.grad for v in weights + biases])
    for fused_piece, chain_piece in zip(*outputs):
        assert fused_piece.tobytes() == chain_piece.tobytes()
    for fused_grad, chain_grad in zip(*grads):
        assert fused_grad.tobytes() == chain_grad.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    width_in=st.integers(1, 6),
    width_out=st.integers(1, 5),
    frozen_x=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(sizes=[1, 4, 1], width_in=3, width_out=4, frozen_x=False, seed=1)  # one-row segments
@example(sizes=[2, 3], width_in=4, width_out=1, frozen_x=False, seed=2)  # one-column output
def test_affine_segments_equals_one_affine_per_segment(sizes, width_in, width_out, frozen_x, seed):
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        g = ad.Graph(seed=0)
        data = [rng.normal(size=(n, width_in)) for n in sizes]
        make = g.constant if frozen_x else g.parameter
        weights = [g.parameter(rng.normal(size=(width_in, width_out))) for _ in sizes]
        biases = [g.parameter(rng.normal(size=width_out)) for _ in sizes]
        if fused:
            x = make(np.concatenate(data))
            out = ad.affine_segments(x, weights, biases, sizes)
        else:
            xs = [make(d) for d in data]
            out = ad.concat([ad.affine(xi, w, b) for xi, w, b in zip(xs, weights, biases)], axis=0)
        ad.backward(_weighted_loss(g, rng, out))
        outputs.append(out.data)
        x_grads = np.split(x.grad, np.cumsum(sizes)[:-1]) if fused else [xi.grad for xi in xs]
        grads.append(x_grads + [v.grad for v in weights + biases])
    assert outputs[0].tobytes() == outputs[1].tobytes()
    for fused_grad, chain_grad in zip(*grads):
        assert fused_grad.tobytes() == chain_grad.tobytes()


def test_affine_stack_and_segments_match_central_differences():
    rng = np.random.default_rng(31)
    g = ad.Graph(seed=0, dtype=np.float64)

    def maps(count, width_in, width_out):
        return ([g.parameter(rng.normal(size=(width_in, width_out))) for _ in range(count)],
                [g.parameter(rng.normal(size=width_out)) for _ in range(count)])

    x = g.parameter(rng.normal(size=(5, 3)))
    first, second, towers = maps(2, 3, 4), maps(2, 4, 2), maps(2, 2, 3)

    def loss() -> ad.Value:
        bank = ad.affine_stack(ad.sigmoid(ad.affine_stack(x, *first)), *second)  # shared, then stacked input
        rows = ad.affine_segments(ad.reshape(bank, (10, 2)), *towers, (1, 9))
        return ad.sum_all(ad.mul(ad.sigmoid(rows), g.constant(np.linspace(-1.0, 1.0, rows.size).reshape(rows.shape))))

    ad.backward(loss())

    def run() -> float:
        m = g.mark()
        out = float(loss().data)
        g.truncate(m)
        return out

    for p in [x] + [p for ws, bs in (first, second, towers) for p in ws + bs]:
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


@pytest.mark.parametrize(
    "op, x_shape, w_shapes, b_shapes, extra",
    [
        ("affine_stack", (3, 4), [], [], ()),                          # no maps
        ("affine_stack", (3, 4), [(4, 2), (4, 3)], [(2,), (3,)], ()),  # maps of two shapes
        ("affine_stack", (3, 4), [(5, 2)], [(2,)], ()),                # input width differs
        ("affine_stack", (3, 4), [(4, 2)], [(3,)], ()),                # bias width differs
        ("affine_stack", (3, 4), [(4, 2)], [], ()),                    # one bias short
        ("affine_stack", (3, 3, 4), [(4, 2)] * 2, [(2,)] * 2, ()),     # stack of 3 for 2 maps
        ("affine_stack", (4,), [(4, 2)], [(2,)], ()),                  # 1-d input
        ("affine_segments", (3, 4), [(4, 2)] * 2, [(2,)] * 2, (1, 1)),  # sizes cover 2 of 3 rows
        ("affine_segments", (3, 4), [(4, 2)] * 2, [(2,)] * 2, (3, 0)),  # an empty segment
        ("affine_segments", (3, 4), [(4, 2)] * 2, [(2,)] * 2, (3,)),    # one size for two maps
        ("affine_segments", (1, 3, 4), [(4, 2)], [(2,)], (3,)),         # stacked input
    ],
)
def test_affine_stack_and_segments_reject_bad_operands(op, x_shape, w_shapes, b_shapes, extra):
    g = ad.Graph(seed=0)
    x = g.constant(np.zeros(x_shape))
    weights = [g.constant(np.zeros(s)) for s in w_shapes]
    biases = [g.constant(np.zeros(s)) for s in b_shapes]
    with pytest.raises(ad.ShapeError, match=op):
        if op == "affine_stack":
            ad.affine_stack(x, weights, biases)
        else:
            ad.affine_segments(x, weights, biases, extra)


def _composed_attention(q, k, v, mask, c):
    """The per-head chain that ad.attention replaces, kept as its reference."""
    scores = batched_matmul(q, ad.transpose_last2(k))
    return batched_matmul(ad.softmax_last(ad.add(ad.scale(scores, c), mask)), v)


def _valid_keys(rng, batch, keys, single_key_row):
    valid = (rng.random((batch, keys)) < 0.7).astype(float)
    valid[:, -1] = 1.0  # every query sees one key at least
    if single_key_row:  # one row masked but for one key
        valid[0] = 0.0
        valid[0, rng.integers(keys)] = 1.0
    return valid


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    queries=st.integers(1, 5),
    keys=st.integers(1, 5),
    width=st.integers(1, 4),
    value_width=st.integers(1, 4),
    single_key_row=st.booleans(),
    shared=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(batch=2, queries=3, keys=4, width=2, value_width=3, single_key_row=True, shared=False, seed=1)
@example(batch=1, queries=1, keys=1, width=1, value_width=1, single_key_row=True, shared=False, seed=2)
@example(batch=3, queries=4, keys=4, width=3, value_width=3, single_key_row=False, shared=True, seed=3)
def test_attention_equals_the_per_head_chain(batch, queries, keys, width, value_width, single_key_row, shared, seed):
    """Each operand its own leaf, or one leaf read as query, key and value."""
    if shared:
        keys, value_width = queries, width
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        g = ad.Graph(seed=0)
        q = g.parameter(rng.normal(size=(batch, queries, width)))
        k = q if shared else g.parameter(rng.normal(size=(batch, keys, width)))
        v = q if shared else g.parameter(rng.normal(size=(batch, keys, value_width)))
        mask = g.constant(((1.0 - _valid_keys(rng, batch, keys, single_key_row)) * -1e30)[:, None, :])
        c = float(rng.uniform(0.1, 2.0))
        out = ad.attention(q, k, v, mask, c) if fused else _composed_attention(q, k, v, mask, c)
        ad.backward(_weighted_loss(g, rng, out))
        outputs.append(out.data)
        grads.append([q.grad, k.grad, v.grad])
    assert outputs[0].tobytes() == outputs[1].tobytes()
    for fused_grad, chain_grad in zip(*grads):
        assert fused_grad.tobytes() == chain_grad.tobytes()


def test_attention_matches_central_differences():
    rng = np.random.default_rng(41)
    g = ad.Graph(seed=0, dtype=np.float64)
    q = g.parameter(rng.normal(size=(2, 3, 2)))
    k = g.parameter(rng.normal(size=(2, 4, 2)))
    v = g.parameter(rng.normal(size=(2, 4, 3)))
    # A learned additive bias on the keys, and a padded key in the first row.
    mask = g.parameter(rng.normal(size=(2, 1, 4)))
    pad = g.constant(np.array([[[-1e30, 0.0, 0.0, 0.0]], [[0.0] * 4]]))

    def loss() -> ad.Value:
        out = ad.attention(q, k, v, ad.add(mask, pad), 0.7)
        return ad.sum_all(ad.mul(ad.sigmoid(out), g.constant(np.linspace(-1.0, 1.0, out.size).reshape(out.shape))))

    ad.backward(loss())

    def run() -> float:
        m = g.mark()
        out = float(loss().data)
        g.truncate(m)
        return out

    for p in (q, k, v, mask):
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


@pytest.mark.parametrize(
    "q_shape, k_shape, v_shape, mask_shape",
    [
        ((2, 3), (2, 3), (2, 3), (1,)),                    # 2-d operands
        ((2, 3, 4), (3, 3, 4), (3, 3, 4), (2, 1, 3)),      # batch differs
        ((2, 3, 4), (2, 5, 3), (2, 5, 4), (2, 1, 5)),      # query and key widths differ
        ((2, 3, 4), (2, 5, 4), (2, 4, 4), (2, 1, 5)),      # keys and values differ in count
        ((2, 3, 4), (2, 5, 4), (2, 5, 4), (2, 3, 4)),      # mask over 4 keys of 5
        ((2, 3, 4), (2, 5, 4), (2, 5, 4), (1, 2, 3, 5)),   # mask widens the scores
    ],
)
def test_attention_rejects_bad_shapes(q_shape, k_shape, v_shape, mask_shape):
    g = ad.Graph(seed=0)
    q, k, v, mask = (g.constant(np.zeros(s)) for s in (q_shape, k_shape, v_shape, mask_shape))
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(q, k, v, mask, 1.0)


# ---------------------------------------------------------------------------
# take_rows backward: one bincount over the flat positions
# ---------------------------------------------------------------------------

_INDEX_SHAPES = st.one_of(
    st.tuples(st.integers(0, 6)),
    st.tuples(st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    width=st.integers(1, 4),
    first=_INDEX_SHAPES,
    second=st.one_of(st.none(), _INDEX_SHAPES),
    index_type=st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_take_rows_grad_matches_add_at(rows, width, first, second, index_type, seed):
    rng = np.random.default_rng(seed)
    g = ad.Graph(seed=0, dtype=np.float64)
    table = g.parameter(rng.normal(size=(rows, width)))
    reference = np.zeros((rows, width))
    total = None
    for shape in (first, second):
        if shape is None:
            continue
        idx = rng.integers(0, rows, size=shape).astype(index_type)  # small row counts repeat rows
        upstream = rng.normal(size=shape + (width,))
        term = ad.sum_all(ad.mul(ad.take_rows(table, idx), g.constant(upstream)))
        total = term if total is None else ad.add(total, term)
        np.add.at(reference, idx.reshape(-1), upstream.reshape(-1, width))
    ad.backward(total)
    if second is None:
        # One lookup: the same additions in the same order as np.add.at.
        assert table.grad.tobytes() == (reference + 0.0).tobytes()
    else:
        # A second lookup adds its own sum to the first: another order.
        np.testing.assert_allclose(table.grad, reference, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# sums by GEMV and the column max
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(0, 3), (4, 1), (2, 0, 5), (3, 4, 1), (5,), (3, 2, 7)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gemv_sums_match_numpy_in_shape_dtype_and_value(shape, dtype):
    x = np.random.default_rng(1).normal(size=shape).astype(dtype)
    last = ad._gemv_sum(x)
    assert last.dtype == dtype and last.shape == shape[:-1] + (1,) and last.flags.c_contiguous
    np.testing.assert_allclose(last, x.sum(axis=-1, keepdims=True), rtol=1e-5, atol=1e-5)
    for lead in range(1, len(shape) + 1):
        rows = ad._gemv_sum(x, lead)
        assert rows.dtype == dtype and rows.shape == shape[lead:] and rows.base is None
        np.testing.assert_allclose(rows, x.sum(axis=tuple(range(lead))), rtol=1e-5, atol=1e-5)


def test_gemv_sums_read_non_contiguous_input():
    x = np.random.default_rng(2).normal(size=(6, 8)).astype(np.float32)
    for view in (x[::2], x[:, 1::3], x.T, x[:, :5]):
        assert not view.flags.c_contiguous
        np.testing.assert_allclose(ad._gemv_sum(view), view.sum(axis=-1, keepdims=True), rtol=1e-5)
        np.testing.assert_allclose(ad._gemv_sum(view, 1), view.sum(axis=0), rtol=1e-5)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 6)),
        st.tuples(st.integers(0, 4), st.integers(1, 7)),
        st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5)),
    ),
    special=st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, -1e30]), max_size=4),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_column_max_holds_the_bits_of_numpy_max(shape, special, dtype, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape).astype(dtype)
    flat = x.reshape(-1)
    for value in special:  # ties, signed zeros and infinities at random places
        if flat.size:
            flat[rng.integers(flat.size)] = value
    assert ad._max_last(x).tobytes() == x.max(axis=-1, keepdims=True).tobytes()


# ---------------------------------------------------------------------------
# pair_dots and mul_groups: one node for a per-pair or per-group loop
# ---------------------------------------------------------------------------

def _composed_pair_dots(parts):
    """The per-pair loop that ad.pair_dots replaces, kept as its reference."""
    dots = [ad.sum_last(ad.mul(a, b), keepdims=True) for i, a in enumerate(parts) for b in parts[i + 1 :]]
    return ad.concat(dots, axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(2, 6),
    lead=st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 3), st.integers(1, 4))),
    width=st.integers(1, 9),
    frozen=st.lists(st.booleans(), min_size=6, max_size=6),
    repeat=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_pair_dots_equals_the_per_pair_loop(count, lead, width, frozen, repeat, dtype, seed):
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        g = ad.Graph(seed=0)
        g.dtype = np.dtype(dtype)
        parts = [(g.constant if frozen[j] else g.parameter)(rng.normal(size=lead + (width,))) for j in range(count)]
        if repeat:  # a part in several pairs of its own
            parts[-1] = parts[0]
        out = ad.pair_dots(parts) if fused else _composed_pair_dots(parts)
        ad.backward(ad.sum_all(ad.mul(out, g.constant(rng.normal(size=out.shape)))))
        outputs.append(out)
        grads.append([p.grad for p in parts])
    assert outputs[0].shape == lead + (count * (count - 1) // 2,)
    assert outputs[0].data.dtype == dtype
    # Each column sums the same product by the same GEMV.
    assert outputs[0].data.tobytes() == outputs[1].data.tobytes()
    # Each part takes the same products, added in the loop's sweep order.
    for fused_grad, loop_grad in zip(*grads):
        assert fused_grad.tobytes() == loop_grad.tobytes()


def _composed_mul_groups(x, w, widths):
    """The per-group loop that ad.mul_groups replaces, kept as its reference."""
    offsets = np.cumsum([0] + list(widths))
    pieces = [
        ad.mul(ad.slice_last(x, lo, hi), ad.slice_last(w, j, j + 1))
        for j, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))
    ]
    return ad.concat(pieces, axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    lead=st.one_of(st.tuples(st.integers(0, 7)), st.tuples(st.integers(1, 3), st.integers(1, 4))),
    frozen_x=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mul_groups_equals_the_per_group_loop(widths, lead, frozen_x, dtype, seed):
    outputs, grads = [], []
    for fused in (True, False):
        rng = np.random.default_rng(seed)
        g = ad.Graph(seed=0)
        g.dtype = np.dtype(dtype)
        x = (g.constant if frozen_x else g.parameter)(rng.normal(size=lead + (sum(widths),)))
        w = g.parameter(rng.uniform(0.0, 2.0, size=lead + (len(widths),)))
        out = ad.mul_groups(x, w, widths) if fused else _composed_mul_groups(x, w, widths)
        ad.backward(ad.sum_all(ad.mul(out, g.constant(rng.normal(size=out.shape)))))
        outputs.append(out.data)
        grads.append((x.grad, w.grad))
    # The same products each way; the grad of x too.
    assert outputs[0].tobytes() == outputs[1].tobytes()
    assert grads[0][0].tobytes() == grads[1][0].tobytes()
    # w's grad sums each group by one GEMM instead of one sum per group.
    assert grads[0][1].dtype == dtype
    np.testing.assert_allclose(grads[0][1], grads[1][1], rtol=1e-5 if dtype == np.float32 else 1e-12, atol=1e-6)


@pytest.mark.parametrize("op", ["pair_dots", "mul_groups"])
def test_pair_dots_and_mul_groups_match_central_differences(op):
    rng = np.random.default_rng(21)
    g = ad.Graph(seed=0, dtype=np.float64)
    parts = [g.parameter(rng.normal(size=(3, 4))) for _ in range(3)]
    w = g.parameter(rng.normal(size=(3, 3)))
    leaves = parts if op == "pair_dots" else [parts[0], w]

    def loss() -> ad.Value:
        out = ad.pair_dots(parts) if op == "pair_dots" else ad.mul_groups(parts[0], w, (1, 2, 1))
        return ad.sum_all(ad.mul(ad.sigmoid(out), g.constant(np.linspace(-1.0, 1.0, out.size).reshape(out.shape))))

    ad.backward(loss())

    def run() -> float:
        m = g.mark()
        out = float(loss().data)
        g.truncate(m)
        return out

    for p in leaves:
        assert max_rel_err(p.grad.copy(), fd_gradient(run, p.data)) <= 1e-6


def test_pair_dots_and_mul_groups_reject_bad_operands():
    g = ad.Graph(seed=0)
    x = g.constant(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="at least two parts"):
        ad.pair_dots([x])
    with pytest.raises(ad.ShapeError, match="pair_dots"):
        ad.pair_dots([x, g.constant(np.zeros((3, 5)))])
    for w_shape, widths in [((3, 2), (2, 1)), ((3, 2), (1, 2, 1)), ((2, 2), (2, 2)), ((3, 2), (4, 0))]:
        with pytest.raises(ad.ShapeError, match="mul_groups"):
            ad.mul_groups(x, g.constant(np.zeros(w_shape)), widths)


# ---------------------------------------------------------------------------
# the primitive set: no public name that only the tests use
# ---------------------------------------------------------------------------

def _autodiff_names_used(module: ast.Module) -> set[str]:
    """The names a module takes from ``maria.autodiff``: its ``ad.X`` and
    ``autodiff.X`` attributes and the names of its ``from .autodiff import``."""
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("ad", "autodiff"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "maria.autodiff"):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_autodiff_function_and_class_is_used_by_the_package():
    # A primitive that only the tests call lives in the tests, as the
    # layer_norm reference's sub, power and mean_last do in helpers.py.
    source = Path(ad.__file__)
    defined = {
        node.name for node in ast.parse(source.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set().union(*(
        _autodiff_names_used(ast.parse(path.read_text())) for path in source.parent.glob("*.py") if path != source
    ))
    assert len(defined) > 20  # the parse found the primitives
    assert sorted(defined - used) == []
