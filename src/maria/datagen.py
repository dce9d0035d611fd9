"""Synthetic multi-scenario click-log generator.

Instances are drawn from a known ground-truth model so that ranking quality
has a computable ceiling: each scenario scores a masked, weighted sum of
per-element signals, squashes it through a sigmoid after adding noise, and
samples the binary label. Instance ``i`` of a run depends only on
``(seed, i)``, so any prefix of a dataset is stable under count changes.

Signals come from a keyed hash, not from the RNG, so the same user or item
carries the same latent value in every instance it appears in. That is what
makes the task learnable from embeddings.

Each instance has its own ``default_rng([seed, i])``. Scenario and item ids
come from a search in cumulative sums built once per run; the ids drawn and
the stream state after them equal those of ``rng.choice(n, size, p=...)``,
which runs the same search inside.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import metrics
from .config import (
    ConfigError,
    FeatureSchema,
    RunConfig,
    VocabSizes,
    compat_digest_parts,
)
from .fileio import atomic_writer

MANIFEST_SUFFIX = ".manifest.json"
_INSTANCE_KEYS = {
    "scenario",
    "user",
    "user_attrs",
    "behavior",
    "target_item",
    "target_attrs",
    "trigger",
    "context",
    "label",
}


class DataError(ValueError):
    """Malformed dataset file or instance."""


@dataclass(frozen=True)
class TriggerImage:
    vec: tuple[float, ...]


@dataclass(frozen=True)
class TriggerProduct:
    item: int
    attrs: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    scenario: int
    user: int
    user_attrs: tuple[int, ...]
    behavior: tuple[tuple[int, tuple[int, ...]], ...]  # (item, item_attrs) pairs, oldest first
    target_item: int
    target_attrs: tuple[int, ...]
    trigger: TriggerImage | TriggerProduct | None
    context: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class ScenarioProfile:
    """Fully resolved generator settings for one scenario."""

    scenario_id: int
    traffic_share: float
    noise_std: float
    trigger_kind: str
    label_bias: float
    behavior_tilt: float
    field_importance: tuple[float, ...]
    label_weights: tuple[float, ...]


@dataclass
class DatasetManifest:
    vocab: dict
    schema: dict
    trigger_mode: str
    seed: int
    count: int
    scenario_counts: dict[int, int]
    positive_rates: dict[str, float]
    bayes_auc: dict[str, float | None]
    compat_digest: str
    profiles: tuple[ScenarioProfile, ...]

    def vocab_sizes(self) -> VocabSizes:
        return VocabSizes(**self.vocab)

    def feature_schema(self) -> FeatureSchema:
        return FeatureSchema(**self.schema)


@dataclass
class Dataset:
    manifest: DatasetManifest
    instances: list[Instance]


# ---------------------------------------------------------------------------
# stable signals
# ---------------------------------------------------------------------------

def _stable_int(*keys) -> int:
    """Deterministic 64-bit word keyed by the given ints/strings."""
    payload = "\x1f".join(str(k) for k in keys).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    (word,) = struct.unpack("<Q", digest)
    return word


def stable_unit(*keys) -> float:
    """Deterministic value in [-1, 1] keyed by the given ints/strings."""
    return _stable_int(*keys) / float(2**64 - 1) * 2.0 - 1.0


def profiles_from_config(cfg: RunConfig) -> tuple[ScenarioProfile, ...]:
    """Resolve auto fields: disjoint round-robin importance masks and hash-free
    per-scenario label weights drawn from the generator seed."""
    n_q = cfg.schema.element_count
    n_s = cfg.vocab.scenarios
    profiles = []
    for sc in cfg.scenarios:
        if sc.field_importance:
            importance = sc.field_importance
            if len(importance) != n_q:
                raise ConfigError(
                    f"scenario.{sc.scenario_id}.field_importance: expected {n_q} values, got {len(importance)}"
                )
        else:
            importance = tuple(1.0 if j % n_s == sc.scenario_id else 0.0 for j in range(n_q))
        if sc.label_weights:
            weights = sc.label_weights
            if len(weights) != n_q:
                raise ConfigError(
                    f"scenario.{sc.scenario_id}.label_weights: expected {n_q} values, got {len(weights)}"
                )
        else:
            rng = np.random.default_rng([cfg.gen_seed, 700_000 + sc.scenario_id])
            magnitude = rng.uniform(1.5, 3.0, size=n_q)
            sign = rng.choice([-1.0, 1.0], size=n_q)
            weights = tuple(float(w) for w in magnitude * sign)
        profiles.append(
            ScenarioProfile(
                scenario_id=sc.scenario_id,
                traffic_share=float(sc.traffic_share),
                noise_std=sc.noise_std,
                trigger_kind=sc.trigger_kind,
                label_bias=sc.label_bias,
                behavior_tilt=sc.behavior_tilt,
                field_importance=importance,
                label_weights=weights,
            )
        )
    return tuple(profiles)


def _attr_ids(kind: str, key: int, count: int, vocab_size: int) -> tuple[int, ...]:
    """Deterministic attribute ids of a user ("uattr") or of an item as a
    target or behavior ("iattr") or as a product trigger ("tattr")."""
    return tuple(_stable_int(kind, key, j) % vocab_size for j in range(count))


def _cdf(p: np.ndarray, what: str) -> np.ndarray:
    """Normalised cumulative sum of the probabilities ``p``.

    ``cdf.searchsorted(rng.random(size), side="right")`` is the computation
    ``rng.choice(len(p), size, p=p)`` runs inside, so it draws the same ids
    and leaves the stream in the same state. ``choice`` also refused a NaN
    or negative ``p``; ``searchsorted`` would not, so the check is here.
    """
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError(f"{what}: probabilities must be finite and non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


@np.errstate(over="ignore")  # a sigmoid's exp(-z) overflows below z = -709; it is then 0.0
def generate(cfg: RunConfig) -> tuple[Dataset, np.ndarray]:
    """Sample ``cfg.gen_count`` instances; also return the noise-free click
    probabilities used for the achievable-AUC estimate in the manifest.

    An instance's signals follow the element order the model assembles:
    behavior (the mean over the sequence), user id, user attrs, item id,
    item attrs, trigger head (the image mean, the product item, or the
    target item when there is no trigger), trigger attrs (zeros for an
    image) and context attrs.
    """
    if cfg.gen_seed < 0:
        raise ConfigError("gen.seed: must be non-negative")
    vocab, schema = cfg.vocab, cfg.schema
    profiles = profiles_from_config(cfg)
    shares = np.array([p.traffic_share for p in profiles], dtype=np.float64)
    share_cdf = _cdf(shares / shares.sum(), "traffic_share")

    pop_logits = np.array(
        [[stable_unit("pop", p.scenario_id, it) for it in range(vocab.items)] for p in profiles]
    )
    item_cdfs = []
    for p, row in zip(profiles, pop_logits):
        tilted = np.exp(p.behavior_tilt * row - np.max(p.behavior_tilt * row))
        item_cdfs.append(_cdf(tilted / tilted.sum(), f"scenario.{p.scenario_id} item popularity"))

    masks = [np.asarray(p.field_importance, dtype=np.float64) for p in profiles]
    weights = [np.asarray(p.label_weights, dtype=np.float64) for p in profiles]

    unit = lru_cache(maxsize=None)(stable_unit)
    item_signal = np.array([stable_unit("item", it) for it in range(vocab.items)])
    attr_sizes = {
        "uattr": (schema.user_attr_count, vocab.user_attrs),
        "iattr": (schema.item_attr_count, vocab.item_attrs),
        "tattr": (schema.trigger_attr_count, vocab.trigger_attrs),
    }

    @lru_cache(maxsize=None)
    def entity(kind: str, key: int) -> tuple[tuple[int, ...], list[float]]:
        """Attribute ids of a user or item, and the signals of it and of them."""
        attrs = _attr_ids(kind, key, *attr_sizes[kind])
        head = unit("user", key) if kind == "uattr" else float(item_signal[key])
        return attrs, [head, *(unit(kind, a) for a in attrs)]

    instances: list[Instance] = []
    clean_probs = np.empty(cfg.gen_count, dtype=np.float64)
    for i in range(cfg.gen_count):
        rng = np.random.default_rng([cfg.gen_seed, i])
        sid = int(share_cdf.searchsorted(rng.random(), side="right"))
        profile, item_cdf = profiles[sid], item_cdfs[sid]
        user = int(rng.integers(0, vocab.users))
        length = int(rng.integers(1, schema.max_behavior_len + 1))
        beh_items = item_cdf.searchsorted(rng.random(length), side="right")
        target = int(item_cdf.searchsorted(rng.random(), side="right"))
        user_attrs, user_signals = entity("uattr", user)
        target_attrs, target_signals = entity("iattr", target)
        # np.mean is this pairwise sum over the count; a running sum differs
        # from it in the last bit once a sequence holds 8 or more items.
        phi = [float(item_signal[beh_items].sum()) / length, *user_signals, *target_signals]
        if profile.trigger_kind == "image":
            vec = rng.uniform(-1.0, 1.0, schema.image_dim)
            trigger = TriggerImage(vec=tuple(vec.tolist()))
            phi.append(float(vec.sum()) / schema.image_dim)
            phi += [0.0] * schema.trigger_attr_count
        elif profile.trigger_kind == "product":
            trig_item = int(item_cdf.searchsorted(rng.random(), side="right"))
            trig_attrs, trig_signals = entity("tattr", trig_item)
            trigger = TriggerProduct(item=trig_item, attrs=trig_attrs)
            phi += trig_signals
        else:
            trigger = None
            phi.append(target_signals[0])
        context = tuple(rng.integers(0, vocab.context_attrs, size=schema.context_attr_count).tolist())
        phi += [unit("cattr", a) for a in context]

        clean_logit = float(weights[sid] @ (masks[sid] * np.array(phi))) + profile.label_bias
        noisy = clean_logit + float(rng.normal(0.0, profile.noise_std)) if profile.noise_std > 0 else clean_logit
        p_click = 1.0 / (1.0 + np.exp(-noisy))
        instances.append(
            Instance(
                scenario=sid,
                user=user,
                user_attrs=user_attrs,
                behavior=tuple((it, entity("iattr", it)[0]) for it in beh_items.tolist()),
                target_item=target,
                target_attrs=target_attrs,
                trigger=trigger,
                context=context,
                label=int(rng.random() < p_click),
            )
        )
        clean_probs[i] = 1.0 / (1.0 + np.exp(-clean_logit))

    manifest = _build_manifest(cfg, profiles, instances, clean_probs)
    return Dataset(manifest=manifest, instances=instances), clean_probs


def _build_manifest(cfg, profiles, instances, clean_probs) -> DatasetManifest:
    labels = np.array([inst.label for inst in instances], dtype=np.float64)
    scen = np.array([inst.scenario for inst in instances], dtype=np.int64)
    counts = {p.scenario_id: int(np.sum(scen == p.scenario_id)) for p in profiles}
    rates: dict[str, float] = {}
    bayes: dict[str, float | None] = {}
    if len(instances):
        rates["overall"] = float(labels.mean())
        bayes["overall"] = metrics.auc(clean_probs, labels)
    for p in profiles:
        sel = scen == p.scenario_id
        key = str(p.scenario_id)
        rates[key] = float(labels[sel].mean()) if counts[p.scenario_id] else 0.0
        bayes[key] = metrics.auc(clean_probs[sel], labels[sel]) if counts[p.scenario_id] else None
    compat = compat_digest_parts(vars(cfg.vocab), vars(cfg.schema), cfg.trigger_mode)
    return DatasetManifest(
        vocab=dict(vars(cfg.vocab)),
        schema=dict(vars(cfg.schema)),
        trigger_mode=cfg.trigger_mode,
        seed=cfg.gen_seed,
        count=len(instances),
        scenario_counts=counts,
        positive_rates=rates,
        bayes_auc=bayes,
        compat_digest=compat,
        profiles=tuple(profiles),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _trigger_to_json(trigger):
    if trigger is None:
        return None
    if isinstance(trigger, TriggerImage):
        return {"kind": "image", "vec": list(trigger.vec)}
    return {"kind": "product", "item": trigger.item, "attrs": list(trigger.attrs)}


def _instance_to_json(inst: Instance) -> dict:
    return {
        "scenario": inst.scenario,
        "user": inst.user,
        "user_attrs": list(inst.user_attrs),
        "behavior": [[item, list(attrs)] for item, attrs in inst.behavior],
        "target_item": inst.target_item,
        "target_attrs": list(inst.target_attrs),
        "trigger": _trigger_to_json(inst.trigger),
        "context": list(inst.context),
        "label": inst.label,
    }


def manifest_path(path: str | Path) -> Path:
    return Path(str(path) + MANIFEST_SUFFIX)


def manifest_to_json(m: DatasetManifest) -> dict:
    return {
        "version": 1,
        "vocab": m.vocab,
        "schema": m.schema,
        "trigger_mode": m.trigger_mode,
        "seed": m.seed,
        "count": m.count,
        "scenario_counts": {str(k): v for k, v in m.scenario_counts.items()},
        "positive_rates": m.positive_rates,
        "bayes_auc": m.bayes_auc,
        "compat_digest": m.compat_digest,
        "profiles": [
            {
                "scenario_id": p.scenario_id,
                "traffic_share": p.traffic_share,
                "noise_std": p.noise_std,
                "trigger_kind": p.trigger_kind,
                "label_bias": p.label_bias,
                "behavior_tilt": p.behavior_tilt,
                "field_importance": list(p.field_importance),
                "label_weights": list(p.label_weights),
            }
            for p in m.profiles
        ],
    }


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """One JSON object per line, plus a sibling ``<path>.manifest.json``.

    Both files are written through :func:`atomic_writer`, so a write that
    fails leaves the old pair in place. The data file is renamed first and
    the manifest right after; only a crash between the two renames leaves a
    new data file beside the old manifest.
    """
    path = Path(path)
    manifest = (json.dumps(manifest_to_json(dataset.manifest), indent=2) + "\n").encode("utf-8")
    with atomic_writer(manifest_path(path)) as mfh:
        with atomic_writer(path) as fh:
            fh.writelines(
                (json.dumps(_instance_to_json(inst), separators=(",", ":")) + "\n").encode("utf-8")
                for inst in dataset.instances
            )
        mfh.write(manifest)


def _instance_parser(manifest: DatasetManifest):
    """Per-file instance validator: resolves the manifest's vocab, schema and
    trigger kinds once, and formats a message only for a check that fails.
    ``parse(obj, lineno)`` returns the Instance or raises ``line N: ...``."""
    vocab = manifest.vocab_sizes()
    schema = manifest.feature_schema()
    n_scenarios, n_users, n_items = vocab.scenarios, vocab.users, vocab.items
    max_len, image_dim = schema.max_behavior_len, schema.image_dim
    kind_by_scenario = {p.scenario_id: p.trigger_kind for p in manifest.profiles}
    trigger_free = manifest.trigger_mode == "recommendation"

    def ids(raw, lineno, name, count, bound):
        if not (isinstance(raw, list) and len(raw) == count):
            raise DataError(f"line {lineno}: {name}: expected {count} ids")
        for v in raw:
            if not (isinstance(v, int) and 0 <= v < bound):
                raise DataError(f"line {lineno}: {name}: id {v!r} outside [0, {bound})")
        return tuple(raw)

    def parse(obj, lineno: int) -> Instance:
        if not isinstance(obj, dict):
            raise DataError(f"line {lineno}: instance is not a JSON object")
        if obj.keys() != _INSTANCE_KEYS:
            missing = _INSTANCE_KEYS - obj.keys()
            if missing:
                raise DataError(f"line {lineno}: missing keys {sorted(missing)}")
            raise DataError(f"line {lineno}: unexpected keys {sorted(obj.keys() - _INSTANCE_KEYS)}")

        sid = obj["scenario"]
        if not (isinstance(sid, int) and 0 <= sid < n_scenarios):
            raise DataError(f"line {lineno}: scenario: {sid!r} outside [0, {n_scenarios})")
        user = obj["user"]
        if not (isinstance(user, int) and 0 <= user < n_users):
            raise DataError(f"line {lineno}: user: {user!r} outside [0, {n_users})")
        user_attrs = ids(obj["user_attrs"], lineno, "user_attrs", schema.user_attr_count, vocab.user_attrs)

        raw_beh = obj["behavior"]
        if not (isinstance(raw_beh, list) and 1 <= len(raw_beh) <= max_len):
            raise DataError(f"line {lineno}: behavior: expected 1..{max_len} entries")
        behavior = []
        for entry in raw_beh:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise DataError(f"line {lineno}: behavior: entries are [item, [attrs]] pairs")
            item, attrs = entry
            if not (isinstance(item, int) and 0 <= item < n_items):
                raise DataError(f"line {lineno}: behavior: item {item!r} outside [0, {n_items})")
            behavior.append((item, ids(attrs, lineno, "behavior attrs", schema.item_attr_count, vocab.item_attrs)))

        target = obj["target_item"]
        if not (isinstance(target, int) and 0 <= target < n_items):
            raise DataError(f"line {lineno}: target_item: {target!r} outside [0, {n_items})")
        target_attrs = ids(obj["target_attrs"], lineno, "target_attrs", schema.item_attr_count, vocab.item_attrs)

        raw_trig = obj["trigger"]
        if trigger_free:
            if raw_trig is not None:
                raise DataError(f"line {lineno}: trigger: must be null in a trigger-free dataset")
            trigger = None
        else:
            if not (isinstance(raw_trig, dict) and "kind" in raw_trig):
                raise DataError(f"line {lineno}: trigger: expected an object with a kind")
            kind = raw_trig["kind"]
            expected_kind = kind_by_scenario.get(sid)
            if kind != expected_kind:
                raise DataError(f"line {lineno}: trigger: kind {kind!r} does not match scenario {sid} ({expected_kind})")
            if kind == "image":
                vec = raw_trig.get("vec")
                if not (isinstance(vec, list) and len(vec) == image_dim):
                    raise DataError(f"line {lineno}: trigger: vec needs {image_dim} floats")
                if not all(isinstance(v, (int, float)) for v in vec):
                    raise DataError(f"line {lineno}: trigger: vec entries must be numbers")
                if raw_trig.keys() != {"kind", "vec"}:
                    raise DataError(f"line {lineno}: trigger: image payload holds kind and vec only")
                trigger = TriggerImage(vec=tuple(map(float, vec)))
            else:
                item = raw_trig.get("item")
                if not (isinstance(item, int) and 0 <= item < n_items):
                    raise DataError(f"line {lineno}: trigger: item {item!r} outside [0, {n_items})")
                attrs = ids(raw_trig.get("attrs"), lineno, "trigger attrs", schema.trigger_attr_count, vocab.trigger_attrs)
                if raw_trig.keys() != {"kind", "item", "attrs"}:
                    raise DataError(f"line {lineno}: trigger: product payload holds kind, item, attrs only")
                trigger = TriggerProduct(item=item, attrs=attrs)

        context = ids(obj["context"], lineno, "context", schema.context_attr_count, vocab.context_attrs)
        label = obj["label"]
        if label not in (0, 1):
            raise DataError(f"line {lineno}: label: {label!r} is not 0 or 1")

        return Instance(
            scenario=sid,
            user=user,
            user_attrs=user_attrs,
            behavior=tuple(behavior),
            target_item=target,
            target_attrs=target_attrs,
            trigger=trigger,
            context=context,
            label=label,
        )

    return parse


def read_manifest(path: str | Path) -> DatasetManifest:
    """Load a dataset's manifest; any manifest that cannot be decoded, whose
    keys or types cannot build the vocabulary, schema and scenario profiles,
    or whose stored compatibility digest is not the one its own vocabulary,
    schema and trigger mode give, raises DataError naming the manifest path."""
    mpath = manifest_path(path)
    if not mpath.exists():
        raise DataError(f"missing manifest {mpath}")
    try:
        doc = json.loads(mpath.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise DataError(f"{mpath}: unreadable manifest ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{mpath}: manifest is not a JSON object")
    if doc.get("version") != 1:
        raise DataError(f"{mpath}: unsupported manifest version {doc.get('version')!r}")
    try:
        profiles = tuple(
            ScenarioProfile(
                scenario_id=p["scenario_id"],
                traffic_share=p["traffic_share"],
                noise_std=p["noise_std"],
                trigger_kind=p["trigger_kind"],
                label_bias=p["label_bias"],
                behavior_tilt=p["behavior_tilt"],
                field_importance=tuple(p["field_importance"]),
                label_weights=tuple(p["label_weights"]),
            )
            for p in doc["profiles"]
        )
        manifest = DatasetManifest(
            vocab=doc["vocab"],
            schema=doc["schema"],
            trigger_mode=doc["trigger_mode"],
            seed=doc["seed"],
            count=doc["count"],
            scenario_counts={int(k): v for k, v in doc["scenario_counts"].items()},
            positive_rates=doc["positive_rates"],
            bayes_auc=doc["bayes_auc"],
            compat_digest=doc["compat_digest"],
            profiles=profiles,
        )
        sizes = vars(manifest.vocab_sizes()) | vars(manifest.feature_schema())
        if not all(type(v) is int for v in sizes.values()):
            raise TypeError("vocab and schema sizes must be integers")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{mpath}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    if compat_digest_parts(manifest.vocab, manifest.schema, manifest.trigger_mode) != manifest.compat_digest:
        raise DataError(f"{mpath}: compat_digest does not match the manifest's vocab, schema and trigger mode")
    return manifest


def read_jsonl(path: str | Path) -> Dataset:
    """Load and validate a dataset; errors carry the 1-based line number."""
    path = Path(path)
    manifest = read_manifest(path)
    parse = _instance_parser(manifest)
    instances: list[Instance] = []
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    raise DataError(f"line {lineno}: blank line inside dataset")
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
                instances.append(parse(obj, lineno))
    except UnicodeDecodeError:
        # Decoding line by line would slow every read by about 7%; the text
        # reader decodes whole chunks instead, so find the bad line here.
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise DataError(f"line {lineno}: not UTF-8 ({exc.reason})") from exc
        raise
    if len(instances) != manifest.count:
        raise DataError(
            f"{path}: holds {len(instances)} instances but the manifest says {manifest.count} (truncated file?)"
        )
    return Dataset(manifest=manifest, instances=instances)


def batch_iter(instances: list[Instance], batch_size: int, seed: int | None = None, epoch: int = 0):
    """Yield batches as lists; the final short batch is kept. A seed gives a
    deterministic per-epoch shuffle, None keeps file order."""
    if batch_size < 1:
        raise ValueError(f"batch_iter: batch_size must be positive, got {batch_size}")
    if seed is None:
        order = range(len(instances))
    else:
        order = np.random.default_rng([seed, epoch]).permutation(len(instances))
    block: list[Instance] = []
    for idx in order:
        block.append(instances[int(idx)])
        if len(block) == batch_size:
            yield block
            block = []
    if block:
        yield block
