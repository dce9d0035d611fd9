"""Adam: first-step size, scalar-recurrence oracle, decay behavior, and the
flat arena against the per-tensor loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maria import autodiff as ad
from maria import datagen, training
from maria.model import build_model
from maria.optim import Adam, NonFiniteGradient
from test_training import learnable_overrides


def reference_adam(grads, x0, lr, beta1=0.9, beta2=0.999, eps=1e-8, decay=0.0):
    """Plain-python scalar Adam recurrence, written independently of the package."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * (mhat / (vhat**0.5 + eps) + decay * x)
    return x


def test_first_step_moves_by_learning_rate():
    g = ad.Graph(seed=0)
    p = g.parameter([1.0])
    p.grad[...] = 1.0
    opt = Adam([p], learning_rate=0.05)
    opt.step()
    assert abs((1.0 - p.data[0]) - 0.05) <= 1e-6
    assert opt.t == 1
    np.testing.assert_array_equal(p.grad, [1.0])  # grads untouched


def test_zero_grad_and_zero_decay_leaves_parameter_unchanged():
    g = ad.Graph(seed=0)
    p = g.parameter([2.5, -1.0])
    opt = Adam([p], learning_rate=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [2.5, -1.0])


def test_hundred_steps_on_quadratic_matches_scalar_oracle():
    # minimize (x-3)^2 from x=0 with lr=0.05
    g = ad.Graph(seed=0, dtype=np.float64)
    x = g.parameter([0.0])
    opt = Adam([x], learning_rate=0.05)
    oracle_x, m, v = 0.0, 0.0, 0.0
    for t in range(1, 101):
        grad = 2.0 * (x.data[0] - 3.0)
        x.grad[...] = grad
        opt.step()
        x.grad[...] = 0.0
        og = 2.0 * (oracle_x - 3.0)
        m = 0.9 * m + 0.1 * og
        v = 0.999 * v + 0.001 * og * og
        oracle_x -= 0.05 * (m / (1 - 0.9**t)) / ((v / (1 - 0.999**t)) ** 0.5 + 1e-8)
    assert abs(x.data[0] - oracle_x) <= 1e-12
    assert abs(x.data[0] - 3.0) < 0.5


def test_trajectory_matches_oracle_with_recorded_grads():
    rng = np.random.default_rng(1)
    grads = rng.normal(size=20)
    g = ad.Graph(seed=0, dtype=np.float64)
    p = g.parameter([0.7])
    opt = Adam([p], learning_rate=0.02, weight_decay=0.01)
    for gr in grads:
        p.grad[...] = gr
        opt.step()
    want = reference_adam(list(grads), 0.7, 0.02, decay=0.01)
    assert abs(p.data[0] - want) <= 1e-12


def test_decoupled_decay_shrinks_untouched_parameters():
    g = ad.Graph(seed=0)
    a = g.parameter(np.full(4, 2.0))
    b = g.parameter(np.full(4, 2.0))
    with_decay = Adam([a], learning_rate=0.05, weight_decay=0.1)
    without = Adam([b], learning_rate=0.05, weight_decay=0.0)
    for _ in range(10):
        with_decay.step()
        without.step()
    assert np.linalg.norm(a.data) < np.linalg.norm(b.data)
    np.testing.assert_array_equal(b.data, np.full(4, 2.0))


def test_step_counter_increments_by_one():
    g = ad.Graph(seed=0)
    p = g.parameter([1.0])
    opt = Adam([p], learning_rate=0.01)
    assert opt.t == 0
    for k in range(1, 6):
        opt.step()
        assert opt.t == k


# ---------------------------------------------------------------------------
# the flat arena against the per-tensor loop it replaced
# ---------------------------------------------------------------------------

class LoopAdam:
    """Reference: Adam as a loop over the tensors, each with its own moments."""

    def __init__(self, params, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr = self.learning_rate
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.epsilon)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def _bytes(params):
    return [p.data.tobytes() for p in params]


def _twin_params(arrays):
    """The same starting values as two independent parameter lists."""
    ref, new = ad.Graph(seed=0, dtype=np.float64), ad.Graph(seed=0, dtype=np.float64)
    return [ref.parameter(a) for a in arrays], [new.parameter(a) for a in arrays]


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
    learning_rates=st.lists(st.sampled_from([0.001, 0.02, 0.5]), min_size=1, max_size=4),
)
def test_arena_steps_equal_the_per_tensor_loop_bit_for_bit(shapes, seed, weight_decay, learning_rates):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) * 10.0 ** rng.integers(-3, 3) for s in shapes]
    ref_params, new_params = _twin_params(arrays)
    ref = LoopAdam(ref_params, learning_rate=learning_rates[0], weight_decay=weight_decay)
    new = Adam(new_params, learning_rate=learning_rates[0], weight_decay=weight_decay)
    for lr in learning_rates:
        ref.learning_rate = new.learning_rate = lr
        for r, n in zip(ref_params, new_params):
            if rng.random() < 0.3:
                continue  # a grad never written reads as zeros
            grad = rng.normal(size=r.shape) * 10.0 ** rng.integers(-4, 4)
            r.grad[...] = grad
            n.grad[...] = grad
        ref.step()
        new.step()
        assert _bytes(new_params) == _bytes(ref_params)
        assert new.m.tobytes() == b"".join(m.tobytes() for m in ref.m)
        assert new.v.tobytes() == b"".join(v.tobytes() for v in ref.v)
        for p in ref_params + new_params:
            p._grad = None
    assert new.t == ref.t == len(learning_rates)


@pytest.mark.parametrize("kind", ["maria", "mmoe"])
def test_short_training_run_equals_the_per_tensor_loop_bit_for_bit(kind, monkeypatch):
    cfg = learnable_overrides(**{"train.epochs": "1", "gen.count": "384", "train.weight_decay": "0.01"})
    dataset, _ = datagen.generate(cfg)
    runs = []
    for optimizer in (LoopAdam, Adam):
        monkeypatch.setattr(training, "Adam", optimizer)
        graph = ad.Graph(seed=cfg.train.seed)
        model = build_model(graph, cfg, kind=kind)
        report = training.train(graph, model, dataset.instances, cfg.train)
        runs.append((report.step_losses, _bytes(model.parameter_values())))
    assert len(runs[0][0]) == 6
    assert runs[1] == runs[0]


def test_writes_into_a_parameter_are_seen_by_the_next_step():
    ref_params, new_params = _twin_params([np.arange(6.0).reshape(2, 3)])
    ref = LoopAdam(ref_params, learning_rate=0.1, weight_decay=0.1)
    new = Adam(new_params, learning_rate=0.1, weight_decay=0.1)
    for params in (ref_params, new_params):
        params[0].data[...] = -4.0
        params[0].grad[...] = 1.5
    ref.step()
    new.step()
    assert _bytes(new_params) == _bytes(ref_params)
    np.testing.assert_allclose(new_params[0].data, -4.06, rtol=1e-9)  # -4 - 0.1 * (1 + 0.1 * -4)


def test_rebound_parameter_data_is_refused():
    g = ad.Graph(seed=0)
    p, q = g.parameter([1.0, 2.0]), g.parameter(3.0)
    opt = Adam([p, q], learning_rate=0.1)
    q.data = np.array(5.0)
    with pytest.raises(RuntimeError, match="rebound"):
        opt.step()
    assert opt.t == 0


def test_a_parameter_listed_twice_is_refused():
    g = ad.Graph(seed=0)
    p = g.parameter([1.0])
    with pytest.raises(ValueError, match="twice"):
        Adam([p, g.parameter([2.0]), p])


def test_no_parameters_is_a_no_op():
    opt = Adam([], learning_rate=0.1)
    opt.step()
    assert opt.t == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_grad_moves_nothing_and_names_its_parameter(bad):
    g = ad.Graph(seed=0)
    params = [g.parameter([1.0, 2.0]), g.parameter(np.zeros((0, 3))), g.parameter([[3.0], [4.0]])]
    opt = Adam(params, learning_rate=0.1, weight_decay=0.1)
    params[0].grad[...] = 0.5
    opt.step()
    before = _bytes(params), opt.m.tobytes(), opt.v.tobytes()
    params[2].grad[1, 0] = bad
    with pytest.raises(NonFiniteGradient) as caught:
        opt.step()
    assert caught.value.index == 2
    assert (_bytes(params), opt.m.tobytes(), opt.v.tobytes()) == before
    assert opt.t == 1


def test_the_arena_takes_the_parameters_dtype_and_mixed_dtypes_are_refused():
    g = ad.Graph(seed=0)
    g.dtype = np.dtype(np.float32)
    a, b = g.parameter(np.ones((2, 3))), g.parameter(np.ones(4))
    opt = Adam([a, b], learning_rate=0.1)
    assert {opt.theta.dtype, opt.m.dtype, opt.v.dtype, a.data.dtype, b.data.dtype} == {np.dtype(np.float32)}
    a.grad[...] = 1.0
    opt.step()
    assert a.data.dtype == np.float32
    np.testing.assert_allclose(a.data, 0.9, rtol=1e-6)
    assert np.array_equal(b.data, np.ones(4))
    g.dtype = np.dtype(np.float64)
    with pytest.raises(ValueError, match=r"mix dtypes \['float32', 'float64'\]"):
        Adam([g.parameter([1.0]), b])
