"""Shared oracles for the test suite, kept independent of package internals.
The reference generator takes from ``maria.datagen`` only what defines the
data or holds it: the keyed hashes and CDFs, the trigger codes, the table
and the manifest. Its rows, like every row the tests build, are instance
objects in the form of the JSONL lines, and ``table_of_objects`` makes them
a table with the reader's unchecked builder, ``datagen._table_of``."""

from functools import lru_cache

import numpy as np

from maria import autodiff as ad
from maria import datagen

# Nodes that one step of each benchmark workload builds on a full block of
# the benchmark recipe (test_model.py pins them). A change that fuses or adds
# nodes on purpose re-pins these counts.
BENCHMARK_STEP_NODES = {"train-maria": 146, "train-mmoe-b64": 79, "score-maria": 131}


def fd_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate.

    ``f`` takes no arguments and must read ``x`` (perturbed in place) afresh
    on every call.
    """
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = f()
        flat_x[i] = orig - eps
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Element-wise relative error with a floor so near-zero grads compare absolutely."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def recipe_grads(loss: ad.Value, backward=ad.backward) -> dict[int, np.ndarray]:
    """Run ``backward(loss)`` and return a copy of the grad each backward
    recipe received, keyed by node index.

    After the sweep only leaves hold their grads: an interior node's grad is
    final when its recipe receives it, and the sweep drops it once the recipe
    has run, so this is where it is read. Each received buffer must still
    hold its bytes after the sweep: a recipe, or a parent that takes more
    contributions later, must not write into a consumer's grad.
    """
    recipes = {node: node._backward for node in loss.graph.nodes if node._backward is not None}
    received: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def recording(index, recipe):
        def run(g):
            received[index] = (g, g.copy())
            recipe(g)

        return run

    for node, recipe in recipes.items():
        node._backward = recording(node.index, recipe)
    try:
        backward(loss)
    finally:
        for node, recipe in recipes.items():
            node._backward = recipe
    for index, (g, copy) in received.items():
        assert g.tobytes() == copy.tobytes(), f"node {index}: its grad changed after its recipe received it"
    return {index: copy for index, (_, copy) in received.items()}


def pairwise_auc(scores, labels):
    """O(n^2) probability that a positive outranks a negative; ties count half.

    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# sub, power and mean_last: the primitives of the composition that
# ad.layer_norm replaced, kept with their backward recipes as its reference
# ---------------------------------------------------------------------------

def sub(a: ad.Value, b: ad.Value) -> ad.Value:
    if not ad._broadcastable(a.shape, b.shape):
        raise ad._shape_error("sub", a.shape, b.shape)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            ad._accumulate(a, ad._unbroadcast(g, a.shape), g)
        if b.requires_grad:
            ad._accumulate(b, -ad._unbroadcast(g, b.shape), g)

    return ad._node(a.graph, a.data - b.data, (a, b), "sub", backward)


def power(x: ad.Value, exponent: float) -> ad.Value:
    out = x.data ** exponent

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            ad._accumulate(x, g * exponent * x.data ** (exponent - 1.0), g)

    return ad._node(x.graph, out, (x,), "power", backward)


def mean_last(x: ad.Value, keepdims: bool = False) -> ad.Value:
    n = x.shape[-1]

    def backward(g: np.ndarray) -> None:
        gg = g if keepdims else np.expand_dims(g, -1)
        if x.requires_grad:
            ad._accumulate(x, gg / n, g)

    out = ad._gemv_sum(x.data) / n
    return ad._node(x.graph, out if keepdims else out.reshape(x.shape[:-1]), (x,), "mean_last", backward)


# ---------------------------------------------------------------------------
# batched_matmul: the stacked 3-d x 3-d product of the per-head chain that
# ad.attention replaced, kept with its backward recipe as its reference
# ---------------------------------------------------------------------------

def batched_matmul(a: ad.Value, b: ad.Value) -> ad.Value:
    """numpy matmul semantics over stacked operands, broadcasting batch dims."""
    if a.data.ndim < 1 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ad._shape_error("matmul", a.shape, b.shape)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ad._shape_error("matmul", a.shape, b.shape) from exc

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            ad._accumulate(a, ad._unbroadcast(ga, a.shape), g)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            ad._accumulate(b, ad._unbroadcast(gb, b.shape), g)

    return ad._node(a.graph, out, (a, b), "matmul", backward)


# ---------------------------------------------------------------------------
# rows as instance objects
# ---------------------------------------------------------------------------

def table_of_objects(objs, schema) -> datagen.InstanceTable:
    """The table of instance objects in the form of the JSONL lines, as they
    are: nothing is checked, so generated rows need no file and rows drawn
    free-form, trigger kinds and all, need not match a manifest."""
    return datagen._table_of(list(objs), schema)


@np.errstate(over="ignore")
def reference_generate(cfg):
    """``datagen.generate`` one instance at a time: each instance draws from
    its own ``default_rng([gen_seed, i])`` and computes its signals, logit and
    label before the next one starts. The rows become a table through
    ``table_of_objects``. Returns ``(Dataset, clean_probs)``."""
    vocab, schema = cfg.vocab, cfg.schema
    profiles = cfg.scenarios
    shares = np.array([p.traffic_share for p in profiles], dtype=np.float64)
    share_cdf = datagen._cdf(shares / shares.sum(), "traffic_share")
    item_cdfs = []
    for p in profiles:
        row = np.array([datagen.stable_unit("pop", p.scenario_id, it) for it in range(vocab.items)])
        tilted = np.exp(p.behavior_tilt * row - np.max(p.behavior_tilt * row))
        item_cdfs.append(datagen._cdf(tilted / tilted.sum(), f"scenario.{p.scenario_id} item popularity"))
    masks = [np.asarray(p.field_importance, dtype=np.float64) for p in profiles]
    weights = [np.asarray(p.label_weights, dtype=np.float64) for p in profiles]
    item_signal = np.array([datagen.stable_unit("item", it) for it in range(vocab.items)])
    attr_sizes = {
        "uattr": (schema.user_attr_count, vocab.user_attrs),
        "iattr": (schema.item_attr_count, vocab.item_attrs),
        "tattr": (schema.trigger_attr_count, vocab.trigger_attrs),
    }

    @lru_cache(maxsize=None)
    def entity(kind, key):
        attrs = datagen._attr_ids(kind, key, *attr_sizes[kind])
        head = datagen.stable_unit("user", key) if kind == "uattr" else float(item_signal[key])
        return attrs, [head, *(datagen.stable_unit(kind, a) for a in attrs)]

    rows = []
    clean_probs = np.empty(cfg.gen_count, dtype=np.float64)
    for i in range(cfg.gen_count):
        rng = np.random.default_rng([cfg.gen_seed, i])
        sid = int(share_cdf.searchsorted(rng.random(), side="right"))
        profile, item_cdf = profiles[sid], item_cdfs[sid]
        user = int(rng.integers(0, vocab.users))
        length = int(rng.integers(1, schema.max_behavior_len + 1))
        beh_items = item_cdf.searchsorted(rng.random(length), side="right").tolist()
        target = int(item_cdf.searchsorted(rng.random(), side="right"))
        user_attrs, user_signals = entity("uattr", user)
        target_attrs, target_signals = entity("iattr", target)
        phi = [float(item_signal[beh_items].sum()) / length, *user_signals, *target_signals]
        if profile.trigger_kind == "image":
            vec = rng.uniform(-1.0, 1.0, schema.image_dim)
            trigger = {"kind": "image", "vec": vec.tolist()}
            phi.append(float(vec.sum()) / schema.image_dim)
            phi += [0.0] * schema.trigger_attr_count
        elif profile.trigger_kind == "product":
            trig_item = int(item_cdf.searchsorted(rng.random(), side="right"))
            trig_attrs, trig_signals = entity("tattr", trig_item)
            trigger = {"kind": "product", "item": trig_item, "attrs": trig_attrs}
            phi += trig_signals
        else:
            trigger = None
            phi.append(target_signals[0])
        context = rng.integers(0, vocab.context_attrs, size=schema.context_attr_count).tolist()
        phi += [datagen.stable_unit("cattr", a) for a in context]

        clean_logit = float(weights[sid] @ (masks[sid] * np.array(phi))) + profile.label_bias
        noisy = clean_logit + float(rng.normal(0.0, profile.noise_std)) if profile.noise_std > 0 else clean_logit
        p_click = 1.0 / (1.0 + np.exp(-noisy))
        rows.append({
            "scenario": sid, "user": user, "user_attrs": user_attrs,
            "behavior": [[it, entity("iattr", it)[0]] for it in beh_items],
            "target_item": target, "target_attrs": target_attrs, "trigger": trigger, "context": context,
            "label": int(rng.random() < p_click),
        })
        clean_probs[i] = 1.0 / (1.0 + np.exp(-clean_logit))

    instances = table_of_objects(rows, schema)
    manifest = datagen._build_manifest(cfg, instances, clean_probs)
    return datagen.Dataset(manifest=manifest, instances=instances), clean_probs
