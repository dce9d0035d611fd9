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
import io
import json
import struct
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from itertools import chain, repeat
from operator import is_not, itemgetter
from pathlib import Path

import numpy as np

from . import metrics
from .config import (
    FeatureSchema,
    RunConfig,
    ScenarioSettings,
    VocabSizes,
    compat_digest_parts,
    data_compat_digest,
)
from .fileio import atomic_writer

MANIFEST_SUFFIX = ".manifest.json"
_FIELDS = ("scenario", "user", "user_attrs", "behavior", "target_item", "target_attrs", "trigger", "context", "label")
_INSTANCE_KEYS = frozenset(_FIELDS)
_FLOAT_MAX = sys.float_info.max

# InstanceTable.trigger_kind codes
TRIGGER_NONE, TRIGGER_IMAGE, TRIGGER_PRODUCT = 0, 1, 2
_KIND_CODES = {"image": TRIGGER_IMAGE, "product": TRIGGER_PRODUCT}


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


# InstanceTable column -> the FeatureSchema count that is its second dimension
_WIDTHS = {
    "user_attrs": "user_attr_count",
    "beh_attrs": "item_attr_count",
    "target_attrs": "item_attr_count",
    "image_vec": "image_dim",
    "trig_attrs": "trigger_attr_count",
    "context": "context_attr_count",
}


@dataclass(frozen=True, eq=False)
class InstanceTable:
    """Instances column by column; ``table[i]`` is row ``i`` as an Instance.

    Row ``i``'s behaviour sequence, oldest first, is entries ``beh_start[i]``
    to ``beh_start[i] + beh_len[i]`` of the flat ``beh_items`` and
    ``beh_attrs``, which slices and gathers share: they copy only the per-row
    columns. A row's trigger is its ``trigger_kind`` (``TRIGGER_NONE``,
    ``TRIGGER_IMAGE`` or ``TRIGGER_PRODUCT``) with the payload in ``image_vec``
    or in ``trig_item`` and ``trig_attrs``; rows of the other kinds hold zeros
    there. Indexing with a slice, an index array or a mask gives a table.
    """

    scenario: np.ndarray       # (n,) int64
    user: np.ndarray           # (n,) int64
    user_attrs: np.ndarray     # (n, L) int64
    beh_start: np.ndarray      # (n,) int64
    beh_len: np.ndarray        # (n,) int64
    beh_items: np.ndarray      # (T,) int64
    beh_attrs: np.ndarray      # (T, P) int64
    target_item: np.ndarray    # (n,) int64
    target_attrs: np.ndarray   # (n, P) int64
    trigger_kind: np.ndarray   # (n,) int8
    image_vec: np.ndarray      # (n, image_dim) float64
    trig_item: np.ndarray      # (n,) int64
    trig_attrs: np.ndarray     # (n, O) int64
    context: np.ndarray        # (n, N_c) int64
    label: np.ndarray          # (n,) int64

    _ROW_COLUMNS = (
        "scenario", "user", "user_attrs", "beh_start", "beh_len", "target_item", "target_attrs",
        "trigger_kind", "image_vec", "trig_item", "trig_attrs", "context", "label",
    )

    @classmethod
    def _from_lists(cls, schema: FeatureSchema, **columns) -> InstanceTable:
        """Build a table from one Python list per column (every field but
        ``beh_start``); each list is converted once."""
        arrays = {}
        for name, values in columns.items():
            dtype = np.float64 if name == "image_vec" else np.int8 if name == "trigger_kind" else np.int64
            arr = np.array(values, dtype=dtype)
            arrays[name] = arr.reshape(len(values), getattr(schema, _WIDTHS[name])) if name in _WIDTHS else arr
        lengths = arrays["beh_len"]
        return cls(beh_start=np.cumsum(lengths) - lengths, **arrays)

    @classmethod
    def from_rows(cls, rows, schema: FeatureSchema) -> InstanceTable:
        """The table of Instance rows, as they are: nothing is checked."""
        rows = list(rows)
        zero_vec, zero_attrs = (0.0,) * schema.image_dim, (0,) * schema.trigger_attr_count
        image = [isinstance(r.trigger, TriggerImage) for r in rows]
        product = [isinstance(r.trigger, TriggerProduct) for r in rows]
        return cls._from_lists(
            schema,
            scenario=[r.scenario for r in rows],
            user=[r.user for r in rows],
            user_attrs=[r.user_attrs for r in rows],
            beh_len=[len(r.behavior) for r in rows],
            beh_items=[item for r in rows for item, _ in r.behavior],
            beh_attrs=[attrs for r in rows for _, attrs in r.behavior],
            target_item=[r.target_item for r in rows],
            target_attrs=[r.target_attrs for r in rows],
            trigger_kind=[TRIGGER_IMAGE if i else TRIGGER_PRODUCT if p else TRIGGER_NONE for i, p in zip(image, product)],
            image_vec=[r.trigger.vec if i else zero_vec for r, i in zip(rows, image)],
            trig_item=[r.trigger.item if p else 0 for r, p in zip(rows, product)],
            trig_attrs=[r.trigger.attrs if p else zero_attrs for r, p in zip(rows, product)],
            context=[r.context for r in rows],
            label=[r.label for r in rows],
        )

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            n = len(self)
            if not -n <= key < n:
                raise IndexError(f"row {key} outside a table of {n}")
            key = int(key) % n
            return next(iter(self[key:key + 1]))
        return replace(self, **{name: getattr(self, name)[key] for name in self._ROW_COLUMNS})

    def _behavior_positions(self) -> np.ndarray:
        """Indices into ``beh_items``/``beh_attrs`` of every row's sequence, row after row."""
        ends = np.cumsum(self.beh_len)
        total = int(ends[-1]) if len(ends) else 0
        return np.arange(total) + np.repeat(self.beh_start - (ends - self.beh_len), self.beh_len)

    def padded_behavior(self, m: int, item_pad: int, attr_pad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's behaviour sequence left-padded to ``m`` entries: the
        (n, m) item ids, the (n, m, P) attribute ids and the (n, m) mask of
        real entries. Every ``beh_len`` must be at most ``m``."""
        valid = np.arange(m) >= (m - self.beh_len)[:, None]
        pos = self._behavior_positions()  # row-major order of the mask's true cells
        items = np.full((len(self), m), item_pad, dtype=np.int64)
        items[valid] = self.beh_items[pos]
        attrs = np.full((len(self), m, self.beh_attrs.shape[1]), attr_pad, dtype=np.int64)
        attrs[valid] = self.beh_attrs[pos]
        return items, attrs, valid

    def __iter__(self):
        pos = self._behavior_positions()
        beh_items, beh_attrs = self.beh_items[pos].tolist(), list(map(tuple, self.beh_attrs[pos].tolist()))
        start = 0
        rows = zip(
            self.scenario.tolist(), self.user.tolist(), map(tuple, self.user_attrs.tolist()), self.beh_len.tolist(),
            self.target_item.tolist(), map(tuple, self.target_attrs.tolist()), self.trigger_kind.tolist(),
            self.image_vec.tolist(), self.trig_item.tolist(), map(tuple, self.trig_attrs.tolist()),
            map(tuple, self.context.tolist()), self.label.tolist(),
        )
        for scenario, user, user_attrs, length, target, target_attrs, kind, vec, item, attrs, context, label in rows:
            if kind == TRIGGER_IMAGE:
                trigger = TriggerImage(vec=tuple(vec))
            elif kind == TRIGGER_PRODUCT:
                trigger = TriggerProduct(item=item, attrs=attrs)
            else:
                trigger = None
            end = start + length
            yield Instance(
                scenario=scenario,
                user=user,
                user_attrs=user_attrs,
                behavior=tuple(zip(beh_items[start:end], beh_attrs[start:end])),
                target_item=target,
                target_attrs=target_attrs,
                trigger=trigger,
                context=context,
                label=label,
            )
            start = end

    def __eq__(self, other):
        if not isinstance(other, InstanceTable):
            return NotImplemented
        if len(self) != len(other) or not all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self._ROW_COLUMNS if name != "beh_start"
        ):
            return False
        mine, theirs = self._behavior_positions(), other._behavior_positions()
        return np.array_equal(self.beh_items[mine], other.beh_items[theirs]) and np.array_equal(
            self.beh_attrs[mine], other.beh_attrs[theirs]
        )


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
    profiles: tuple[ScenarioSettings, ...]

    def vocab_sizes(self) -> VocabSizes:
        return VocabSizes(**self.vocab)

    def feature_schema(self) -> FeatureSchema:
        return FeatureSchema(**self.schema)


@dataclass
class Dataset:
    manifest: DatasetManifest
    instances: InstanceTable


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
    vocab, schema = cfg.vocab, cfg.schema
    profiles = cfg.scenarios
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

    columns = {f.name: [] for f in fields(InstanceTable) if f.name != "beh_start"}
    zero_vec, zero_attrs = (0.0,) * schema.image_dim, (0,) * schema.trigger_attr_count
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
        # np.mean is this pairwise sum over the count; a running sum differs
        # from it in the last bit once a sequence holds 8 or more items.
        phi = [float(item_signal[beh_items].sum()) / length, *user_signals, *target_signals]
        vec, trig_item, trig_attrs = zero_vec, 0, zero_attrs
        if profile.trigger_kind == "image":
            kind = TRIGGER_IMAGE
            vec = rng.uniform(-1.0, 1.0, schema.image_dim)
            phi.append(float(vec.sum()) / schema.image_dim)
            phi += [0.0] * schema.trigger_attr_count
        elif profile.trigger_kind == "product":
            kind = TRIGGER_PRODUCT
            trig_item = int(item_cdf.searchsorted(rng.random(), side="right"))
            trig_attrs, trig_signals = entity("tattr", trig_item)
            phi += trig_signals
        else:
            kind = TRIGGER_NONE
            phi.append(target_signals[0])
        context = rng.integers(0, vocab.context_attrs, size=schema.context_attr_count).tolist()
        phi += [unit("cattr", a) for a in context]

        clean_logit = float(weights[sid] @ (masks[sid] * np.array(phi))) + profile.label_bias
        noisy = clean_logit + float(rng.normal(0.0, profile.noise_std)) if profile.noise_std > 0 else clean_logit
        p_click = 1.0 / (1.0 + np.exp(-noisy))
        for name, value in (
            ("scenario", sid), ("user", user), ("user_attrs", user_attrs), ("beh_len", length),
            ("target_item", target), ("target_attrs", target_attrs), ("trigger_kind", kind), ("image_vec", vec),
            ("trig_item", trig_item), ("trig_attrs", trig_attrs), ("context", context),
            ("label", int(rng.random() < p_click)),
        ):
            columns[name].append(value)
        columns["beh_items"] += beh_items
        columns["beh_attrs"] += [entity("iattr", it)[0] for it in beh_items]
        clean_probs[i] = 1.0 / (1.0 + np.exp(-clean_logit))

    instances = InstanceTable._from_lists(schema, **columns)
    manifest = _build_manifest(cfg, instances, clean_probs)
    return Dataset(manifest=manifest, instances=instances), clean_probs


def _build_manifest(cfg, instances, clean_probs) -> DatasetManifest:
    profiles = cfg.scenarios
    labels = instances.label.astype(np.float64)
    scen = instances.scenario
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
    return DatasetManifest(
        vocab=dict(vars(cfg.vocab)),
        schema=dict(vars(cfg.schema)),
        trigger_mode=cfg.trigger_mode,
        seed=cfg.gen_seed,
        count=len(instances),
        scenario_counts=counts,
        positive_rates=rates,
        bayes_auc=bayes,
        compat_digest=data_compat_digest(cfg),
        profiles=profiles,
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
    return {"version": 1, **asdict(m), "scenario_counts": {str(k): v for k, v in m.scenario_counts.items()}}


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


def _id_error(name: str, value, bound: int, count: int | None = None) -> str | None:
    """What is wrong with an id, or a list of ``count`` ids, in [0, bound), after ``name``; None if nothing is."""
    if count is None:
        return None if type(value) is int and 0 <= value < bound else f"{name} {value!r} outside [0, {bound})"
    if not (isinstance(value, list) and len(value) == count):
        return f"{name} expected {count} ids"
    return next(filter(None, (_id_error(f"{name} id", v, bound) for v in value)), None)


def _keys_error(obj) -> str:
    """What is wrong with a decoded line that is not an object holding the instance keys."""
    if not isinstance(obj, dict):
        return "instance is not a JSON object"
    missing = _INSTANCE_KEYS - obj.keys()
    return f"missing keys {sorted(missing)}" if missing else f"unexpected keys {sorted(obj.keys() - _INSTANCE_KEYS)}"


def _behavior_error(raw, vocab: VocabSizes, schema: FeatureSchema) -> str | None:
    """What is wrong with a behaviour sequence, entry by entry; None if nothing is."""
    if not (isinstance(raw, list) and 1 <= len(raw) <= schema.max_behavior_len):
        return f"behavior: expected 1..{schema.max_behavior_len} entries"
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            return "behavior: entries are [item, [attrs]] pairs"
        if message := _id_error("behavior: item", entry[0], vocab.items) or _id_error(
            "behavior attrs:", entry[1], vocab.item_attrs, schema.item_attr_count
        ):
            return message
    return None


def _trigger_error(raw, sid: int, manifest: DatasetManifest) -> str | None:
    """What is wrong with the trigger of a row of scenario ``sid``; None if nothing is."""
    vocab, schema = manifest.vocab_sizes(), manifest.feature_schema()
    if manifest.trigger_mode == "recommendation":
        return None if raw is None else "trigger: must be null in a trigger-free dataset"
    if not (isinstance(raw, dict) and "kind" in raw):
        return "trigger: expected an object with a kind"
    kind, expected = raw["kind"], {p.scenario_id: p.trigger_kind for p in manifest.profiles}.get(sid)
    if kind != expected:
        return f"trigger: kind {kind!r} does not match scenario {sid} ({expected})"
    if kind == "image":
        vec = raw.get("vec")
        if not (isinstance(vec, list) and len(vec) == schema.image_dim):
            return f"trigger: vec needs {schema.image_dim} floats"
        if not all(type(v) is float or type(v) is int for v in vec):
            return "trigger: vec entries must be numbers"
        if not all(abs(v) <= _FLOAT_MAX for v in vec):  # false for NaN
            return "trigger: vec entries must be finite numbers"
        return None if raw.keys() == {"kind", "vec"} else "trigger: image payload holds kind and vec only"
    return (
        _id_error("trigger: item", raw.get("item"), vocab.items)
        or _id_error("trigger attrs:", raw.get("attrs"), vocab.trigger_attrs, schema.trigger_attr_count)
        or (None if raw.keys() == {"kind", "item", "attrs"} else "trigger: product payload holds kind, item, attrs only")
    )


def _row_error(obj: dict, names: list[str], manifest: DatasetManifest) -> str | None:
    """The message of the first read rule that ``obj`` breaks in the fields ``names``, taken in order;
    None if it breaks none, as in a field marked on every row because its column did not convert."""
    vocab, schema = manifest.vocab_sizes(), manifest.feature_schema()
    ids = _id_fields(vocab, schema)

    def error(name: str) -> str | None:
        value = obj[name]
        if name in ids:
            return _id_error(f"{name}:", value, *ids[name])
        if name == "behavior":
            return _behavior_error(value, vocab, schema)
        if name == "trigger":
            return _trigger_error(value, obj["scenario"], manifest)
        return f"label: {value!r} is not 0 or 1" if type(value) is bool or value not in (0, 1) else None

    return next(filter(None, map(error, names)), None)


def read_manifest(path: str | Path) -> DatasetManifest:
    """Load a dataset's manifest; any manifest that cannot be decoded, whose
    keys or types cannot build the vocabulary, schema and scenario profiles,
    whose stored compatibility digest is not the one its own vocabulary,
    schema and trigger mode give, or whose profiles name a trigger kind that
    the trigger mode does not allow, raises DataError naming the manifest path."""
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
            ScenarioSettings(
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
        if type(manifest.count) is not int:
            raise TypeError(f"count must be an integer, not {manifest.count!r}")
        if not all(type(p.scenario_id) is int and type(p.trigger_kind) is str for p in profiles):
            raise TypeError("profile scenario ids must be integers and trigger kinds strings")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{mpath}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    if compat_digest_parts(manifest.vocab, manifest.schema, manifest.trigger_mode) != manifest.compat_digest:
        raise DataError(f"{mpath}: compat_digest does not match the manifest's vocab, schema and trigger mode")
    kinds = ("none",) if manifest.trigger_mode == "recommendation" else ("image", "product")
    for p in profiles:
        if p.trigger_kind not in kinds:
            raise DataError(
                f"{mpath}: scenario {p.scenario_id} has trigger kind {p.trigger_kind!r}, "
                f"which {manifest.trigger_mode} mode does not allow"
            )
    return manifest


def _numbers(values: list, width: int | None, types: set, dtype) -> np.ndarray | None:
    """``values`` as one array of shape (n,), or (n, width) for lists of
    ``width`` numbers; None unless every number has a type in ``types``."""
    if width is None:
        flat = values
    elif set(map(type, values)) <= {list} and set(map(len, values)) <= {width}:
        flat = list(chain.from_iterable(values))
    else:
        return None
    try:
        if set(map(type, flat)) <= types:
            return np.fromiter(flat, dtype, len(flat)).reshape((len(values),) if width is None else (len(values), width))
    except OverflowError:  # beyond 64 bits, or beyond the float range
        pass
    return None


def _id_fields(vocab: VocabSizes, schema: FeatureSchema) -> dict[str, tuple[int, int | None]]:
    """Field -> (bound, count) of the fields that hold an id (count None) or a list of ids."""
    return {
        "scenario": (vocab.scenarios, None), "user": (vocab.users, None), "target_item": (vocab.items, None),
        "user_attrs": (vocab.user_attrs, schema.user_attr_count),
        "target_attrs": (vocab.item_attrs, schema.item_attr_count),
        "context": (vocab.context_attrs, schema.context_attr_count),
    }


def _ids(values: list, bound: int, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64 ids of shape (n,), or (n, width) for lists of
    ``width`` ids, and the rows holding an id outside [0, bound). Unless every
    value is an int, or a list of ``width`` ints, every row is marked."""
    n = len(values)
    arr = _numbers(values, width, {int}, np.int64)
    if arr is None:
        return np.zeros((n,) if width is None else (n, width), dtype=np.int64), np.ones(n, dtype=bool)
    outside = (arr < 0) | (arr >= bound)
    return arr, outside if width is None else outside.any(axis=1)


def _behavior_columns(values: list, vocab: VocabSizes, schema: FeatureSchema):
    """``beh_len``, ``beh_items`` and ``beh_attrs`` of the rows'
    ``[[item, [attrs]], ...]`` lists, and the rows that may break a rule."""
    n, m = len(values), schema.max_behavior_len
    pairs = list(chain.from_iterable(values)) if set(map(type, values)) <= {list} else None
    if pairs is None or not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        empty = (np.zeros(n, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, schema.item_attr_count), dtype=np.int64))
        return empty, np.ones(n, dtype=bool)
    lengths = np.array(list(map(len, values)), dtype=np.int64)
    flat = list(chain.from_iterable(pairs))
    items, item_bad = _ids(flat[0::2], vocab.items)
    attrs, attrs_bad = _ids(flat[1::2], vocab.item_attrs, schema.item_attr_count)
    bad = (lengths < 1) | (lengths > m)
    bad[np.repeat(np.arange(n), lengths)[item_bad | attrs_bad]] = True
    return (lengths, items, attrs), bad


def _trigger_columns(values: list, expected: np.ndarray, manifest: DatasetManifest):
    """``trigger_kind``, ``image_vec``, ``trig_item`` and ``trig_attrs`` of
    the rows' trigger objects, and the rows that may break a rule. ``expected`` holds
    each row's kind code by its scenario, -1 where no kind can match."""
    vocab, schema = manifest.vocab_sizes(), manifest.feature_schema()
    n = len(values)
    kind = np.zeros(n, dtype=np.int8)
    image_vec = np.zeros((n, schema.image_dim))
    trig_item = np.zeros(n, dtype=np.int64)
    trig_attrs = np.zeros((n, schema.trigger_attr_count), dtype=np.int64)
    columns = (kind, image_vec, trig_item, trig_attrs)
    if manifest.trigger_mode == "recommendation":
        return columns, np.fromiter(map(is_not, values, repeat(None)), dtype=bool, count=n)
    try:
        got = np.fromiter(map(_KIND_CODES.get, map(dict.get, values, repeat("kind")), repeat(-2)), np.int8, n)
    except TypeError:  # a trigger that is not an object, or a kind that cannot be a key
        return columns, np.ones(n, dtype=bool)
    bad = got != expected
    kind[~bad] = got[~bad]

    def payloads(code: int, *keys: str):
        """The rows of a kind, and their payload values per key; a payload
        with other keys than ``kind`` and these marks its row."""
        rows = np.flatnonzero(kind == code)
        objs = [values[r] for r in rows.tolist()]
        bad[rows[np.array(list(map(len, objs)), dtype=np.int64) != len(keys) + 1]] = True
        return rows, [list(map(dict.get, objs, repeat(key))) for key in keys]

    rows, (vecs,) = payloads(TRIGGER_IMAGE, "vec")
    vecs = _numbers(vecs, schema.image_dim, {int, float}, np.float64)
    if vecs is None:
        bad[rows] = True
    else:
        image_vec[rows] = vecs
        bad[rows[~np.isfinite(vecs).all(axis=1)]] = True
    rows, (items, attrs) = payloads(TRIGGER_PRODUCT, "item", "attrs")
    trig_item[rows], item_bad = _ids(items, vocab.items)
    trig_attrs[rows], attrs_bad = _ids(attrs, vocab.trigger_attrs, schema.trigger_attr_count)
    bad[rows[item_bad | attrs_bad]] = True
    return columns, bad


def _table_of(objs: list[dict], manifest: DatasetManifest) -> tuple[InstanceTable, dict[str, np.ndarray]]:
    """The table of decoded instance objects that hold the instance keys, and
    per field the rows whose value may break a rule: every row that does, found
    column by column. A column that does not convert in one call marks all rows."""
    vocab, schema = manifest.vocab_sizes(), manifest.feature_schema()
    values = {name: list(map(itemgetter(name), objs)) for name in _FIELDS}
    cols, flagged = {}, {}
    for name, (bound, width) in _id_fields(vocab, schema).items():
        cols[name], flagged[name] = _ids(values[name], bound, width)

    if set(map(type, values["label"])) <= {int, float}:  # 0.0 and 1.0 pass, as they do in _row_error
        labels = np.array(values["label"])
        flagged["label"] = (labels != 0) & (labels != 1)
    else:
        labels = np.zeros(len(objs))
        flagged["label"] = np.ones(len(objs), dtype=bool)
    cols["label"] = (labels == 1).astype(np.int64)

    (lengths, items, attrs), flagged["behavior"] = _behavior_columns(values["behavior"], vocab, schema)
    cols.update(beh_start=np.cumsum(lengths) - lengths, beh_len=lengths, beh_items=items, beh_attrs=attrs)

    by_scenario = {p.scenario_id: _KIND_CODES.get(p.trigger_kind, -1) for p in manifest.profiles}
    codes = np.array([by_scenario.get(s, -1) for s in range(vocab.scenarios)] + [-1], dtype=np.int8)
    expected = codes[np.where(flagged["scenario"], vocab.scenarios, cols["scenario"])]  # -1 on a bad scenario
    (kind, image_vec, trig_item, trig_attrs), flagged["trigger"] = _trigger_columns(values["trigger"], expected, manifest)
    table = InstanceTable(trigger_kind=kind, image_vec=image_vec, trig_item=trig_item, trig_attrs=trig_attrs, **cols)
    return table, flagged


def read_jsonl(path: str | Path) -> Dataset:
    """Load and validate a dataset; errors carry the 1-based line number.

    Each line is decoded and its key set checked; the values are then checked
    column by column with numpy. The first line that breaks a rule is named,
    and within it the first field, in the order the fields are written."""
    path = Path(path)
    manifest = read_manifest(path)

    def checked(objs: list[dict]) -> InstanceTable:
        table, flagged = _table_of(objs, manifest)
        rows = np.logical_or.reduce(list(flagged.values()))
        for r in np.flatnonzero(rows).tolist():
            if message := _row_error(objs[r], [name for name in _FIELDS if flagged[name][r]], manifest):
                raise DataError(f"line {r + 1}: {message}")
        if rows.any():
            raise RuntimeError("read_jsonl: the column checks flagged rows that no read rule refuses")
        return table

    def decoded(lines) -> list[dict]:
        objs: list[dict] = []
        for lineno, raw in enumerate(lines, start=1):
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                checked(objs)  # an earlier bad line is reported first
                if not raw.strip():
                    raise DataError(f"line {lineno}: blank line inside dataset") from None
                raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if type(obj) is not dict or obj.keys() != _INSTANCE_KEYS:
                checked(objs)  # an earlier bad value is reported first
                raise DataError(f"line {lineno}: {_keys_error(obj)}")
            objs.append(obj)
        return objs

    try:
        with path.open("r", encoding="utf-8") as fh:
            objs = decoded(fh)
    except UnicodeDecodeError:
        # The text reader decodes whole chunks (line by line would slow every
        # read by about 7%), so the lines of the chunk before the bad byte were
        # never checked. Check them from the bytes, then name the bad line.
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).readlines()
            if before and not before[-1].endswith("\n"):
                before.pop()  # the start of the bad line
            checked(decoded(before))
            raise DataError(f"line {len(before) + 1}: not UTF-8 ({exc.reason})") from exc
        raise
    instances = checked(objs)
    if len(instances) != manifest.count:
        raise DataError(
            f"{path}: holds {len(instances)} instances but the manifest says {manifest.count} (truncated file?)"
        )
    return Dataset(manifest=manifest, instances=instances)


def batch_iter(instances: InstanceTable, batch_size: int, seed: int | None = None, epoch: int = 0):
    """Yield blocks of ``batch_size`` rows as tables; the final short block is
    kept. A seed gives a deterministic per-epoch shuffle, each block gathered
    through the permutation; None keeps file order, in slices."""
    if batch_size < 1:
        raise ValueError(f"batch_iter: batch_size must be positive, got {batch_size}")
    n = len(instances)
    if seed is None:
        for start in range(0, n, batch_size):
            yield instances[start:start + batch_size]
        return
    order = np.random.default_rng([seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield instances[order[start:start + batch_size]]
