"""Run configuration: a flat ``key = value`` file with a typed key registry.

Every key has a documented default; unknown keys are rejected by name.
Values are plain scalars or comma-separated lists. Scenario-specific keys
use the pattern ``scenario.<index>.<field>``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

FIELD_ORDER = ("behavior", "user", "item", "trigger", "context")
TRIGGER_KINDS = ("image", "product", "none")
ABLATION_FLAGS = ("fs", "fr", "fcm", "nl", "st", "gs")


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or inconsistent settings."""


@dataclass(frozen=True)
class VocabSizes:
    users: int
    items: int
    user_attrs: int
    item_attrs: int
    trigger_attrs: int
    context_attrs: int
    scenarios: int


@dataclass(frozen=True)
class FeatureSchema:
    """Per-instance feature counts: attribute slots, behavior capacity, image width."""

    user_attr_count: int
    item_attr_count: int
    trigger_attr_count: int
    context_attr_count: int
    max_behavior_len: int
    image_dim: int

    @property
    def element_count(self) -> int:
        """Feature elements in the assembled vector: one per id embedding and attribute."""
        return self.user_attr_count + self.item_attr_count + self.trigger_attr_count + self.context_attr_count + 4


@dataclass(frozen=True)
class EmbedDims:
    user: int
    item: int
    attr: int
    context: int
    scenario: int
    trigger: int


@dataclass(frozen=True)
class ModelSettings:
    experts: int
    expert_hidden: int
    tower_dims: tuple[int, ...]
    refiner_counts: dict[str, int] = field(hash=False)  # by field name
    refiner_compression: float
    correlation_dim: int
    scale_ceiling: float
    scale_hidden: int
    gumbel_temperature: float
    attention_heads: int
    encoder_layers: int
    ffn_multiplier: int


@dataclass(frozen=True)
class AblationFlags:
    fs: bool = True
    fr: bool = True
    fcm: bool = True
    nl: bool = True
    st: bool = True
    gs: bool = True

    def disable(self, names) -> "AblationFlags":
        updates = {}
        for name in names:
            if name not in ABLATION_FLAGS:
                raise ConfigError(f"unknown ablation flag {name!r}; expected one of {ABLATION_FLAGS}")
            updates[name] = False
        return replace(self, **updates)


@dataclass(frozen=True)
class TrainSettings:
    learning_rate: float
    batch_size: int
    weight_decay: float
    lr_decay: float
    epochs: int
    seed: int
    eval_every: int
    early_stop_patience: int


@dataclass(frozen=True)
class ScenarioSettings:
    """Per-scenario generator settings. ``build_run_config`` fills the unset
    ones: ``traffic_share`` splits the remaining mass, and an empty
    ``field_importance`` or ``label_weights`` is derived (see
    ``_resolve_vectors``)."""

    scenario_id: int
    traffic_share: float | None
    noise_std: float
    trigger_kind: str
    label_bias: float
    behavior_tilt: float
    field_importance: tuple[float, ...]
    label_weights: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    vocab: VocabSizes
    schema: FeatureSchema
    dims: EmbedDims
    model: ModelSettings
    train: TrainSettings
    flags: AblationFlags
    scenarios: tuple[ScenarioSettings, ...]
    gen_count: int
    gen_seed: int

    @property
    def trigger_mode(self) -> str:
        kinds = {s.trigger_kind for s in self.scenarios}
        return "recommendation" if kinds == {"none"} else "search"


# ---------------------------------------------------------------------------
# key registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, tuple[str, str, str]] = {
    # key: (type, default, help)
    "vocab.users": ("int", "120", "user vocabulary size"),
    "vocab.items": ("int", "200", "item vocabulary size"),
    "vocab.user_attrs": ("int", "40", "user attribute vocabulary size"),
    "vocab.item_attrs": ("int", "40", "item attribute vocabulary size"),
    "vocab.trigger_attrs": ("int", "20", "trigger attribute vocabulary size"),
    "vocab.context_attrs": ("int", "20", "context attribute vocabulary size"),
    "vocab.scenarios": ("int", "2", "number of scenarios"),
    "schema.user_attrs": ("int", "2", "user attribute slots per instance"),
    "schema.item_attrs": ("int", "2", "item attribute slots per item"),
    "schema.trigger_attrs": ("int", "1", "trigger attribute slots (must be 0 when all scenarios are trigger-free)"),
    "schema.context_attrs": ("int", "2", "context attribute slots per instance"),
    "schema.max_behavior": ("int", "4", "behavior sequence capacity; shorter sequences are left-padded"),
    "schema.image_dim": ("int", "8", "dense payload width for image triggers"),
    "dim.user": ("int", "8", "user id embedding width"),
    "dim.item": ("int", "8", "item id embedding width"),
    "dim.attr": ("int", "4", "attribute embedding width (user/item/trigger attributes)"),
    "dim.context": ("int", "4", "context attribute embedding width"),
    "dim.scenario": ("int", "4", "scenario embedding width"),
    "dim.trigger": ("int", "8", "trigger head width (must equal schema.image_dim when image triggers occur)"),
    "model.experts": ("int", "4", "expert count of the mixture network layer"),
    "model.expert_hidden": ("int", "256", "hidden and output width of each two-layer expert"),
    "model.tower_dims": ("csv_int", "128,64,32", "hidden widths of scenario-specific and shared towers"),
    "model.refiners": ("csv_int", "1,2,1,1,1", "refiner count per field, order: behavior,user,item,trigger,context"),
    "model.refiner_compression": ("float", "0.5", "refiner output width as a fraction of field width (ceil)"),
    "model.correlation_dim": ("int", "5", "projection width for field correlation"),
    "model.scale_ceiling": ("float", "2.0", "upper bound of feature-scaling multipliers"),
    "model.scale_hidden": ("int", "64", "hidden width of the feature-scaling network"),
    "model.gumbel_temperature": ("float", "0.01", "Gumbel-softmax temperature for refiner selection"),
    "model.attention_heads": ("int", "2", "self-attention heads in the sequence encoder"),
    "model.encoder_layers": ("int", "1", "transformer layers in the sequence encoder"),
    "model.ffn_multiplier": ("int", "2", "feed-forward width multiple of the encoder model width"),
    "train.learning_rate": ("float", "0.05", "Adam learning rate"),
    "train.batch_size": ("int", "512", "mini-batch size"),
    "train.weight_decay": ("float", "1e-6", "decoupled L2 weight decay inside the Adam step"),
    "train.lr_decay": ("float", "1.0", "per-epoch multiplicative learning-rate factor (1.0 = constant)"),
    "train.epochs": ("int", "1", "training epochs"),
    "train.seed": ("int", "0", "seed for init, shuffling, and selection noise"),
    "train.eval_every": ("int", "0", "evaluate every N epochs during training (0 = only at the end)"),
    "train.early_stop_patience": ("int", "0", "stop after N evaluations without AUC improvement (0 = off)"),
    "train.disable": ("csv_str", "", "ablation switches to turn off: any of fs,fr,fcm,nl,st,gs"),
    "gen.count": ("int", "10000", "instances to generate"),
    "gen.seed": ("int", "0", "generator seed; instance i depends only on (seed, i)"),
}

_SCENARIO_FIELDS: dict[str, tuple[str, str, str]] = {
    "traffic_share": ("float_or_empty", "", "probability mass of this scenario (empty = split remainder equally)"),
    "noise_std": ("float", "0.5", "label logit noise standard deviation"),
    "trigger_kind": ("str", "product", "trigger kind: image, product, or none"),
    "label_bias": ("float", "0.0", "additive bias of the label logit"),
    "behavior_tilt": ("float", "1.0", "strength of the scenario tilt of item popularity"),
    "field_importance": ("csv_float", "", "per-element importance mask in [0,1] (empty = auto disjoint)"),
    "label_weights": ("csv_float", "", "per-element label weights (empty = auto from gen.seed)"),
}

# Key ``<section>.<name>`` fills field ``<name>`` of its section's record,
# except where this table names another field.
_RECORDS = {
    "vocab": VocabSizes, "schema": FeatureSchema, "dim": EmbedDims, "model": ModelSettings, "train": TrainSettings,
}
_FIELD_OF_KEY = {
    "schema.user_attrs": "user_attr_count",
    "schema.item_attrs": "item_attr_count",
    "schema.trigger_attrs": "trigger_attr_count",
    "schema.context_attrs": "context_attr_count",
    "schema.max_behavior": "max_behavior_len",
    "model.refiners": "refiner_counts",
}

_SCENARIO_RE = re.compile(r"^scenario\.(\d+)\.([a-z_]+)$")


def config_help_text() -> str:
    """All config keys with defaults, for --help output."""
    lines = ["configuration keys (key = value per line, # comments):"]
    for key, (_, default, help_) in _REGISTRY.items():
        shown = default if default != "" else "(empty)"
        lines.append(f"  {key:<28} default {shown:<12} {help_}")
    lines.append("per-scenario keys (N = scenario index, 0-based):")
    for name, (_, default, help_) in _SCENARIO_FIELDS.items():
        shown = default if default != "" else "(empty)"
        lines.append(f"  scenario.N.{name:<17} default {shown:<12} {help_}")
    return "\n".join(lines)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` starts a comment; keys are not validated here."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _parse_typed(key: str, kind: str, raw: str):
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
        return value

    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return finite(raw)
        if kind == "float_or_empty":
            return None if raw == "" else finite(raw)
        if kind == "str":
            return raw
        if kind == "csv_int":
            return tuple(int(p.strip()) for p in raw.split(",") if p.strip() != "")
        if kind == "csv_float":
            return tuple(finite(p.strip()) for p in raw.split(",") if p.strip() != "")
        if kind == "csv_str":
            return tuple(p.strip() for p in raw.split(",") if p.strip() != "")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc
    raise ConfigError(f"key {key!r}: unknown type {kind}")


def build_run_config(mapping: Mapping[str, str] | None = None, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Resolve defaults, a parsed config file, and override pairs into a RunConfig.

    Overrides win over the file, the file wins over defaults. Unknown keys are
    rejected by name; the same goes for scenario indexes outside
    [0, vocab.scenarios).
    """
    merged: dict[str, str] = {k: default for k, (_, default, _) in _REGISTRY.items()}
    scenario_raw: dict[int, dict[str, str]] = {}
    for source in (mapping or {}), (overrides or {}):
        for key, raw in source.items():
            m = _SCENARIO_RE.match(key)
            if m:
                idx, fname = int(m.group(1)), m.group(2)
                if fname not in _SCENARIO_FIELDS:
                    raise ConfigError(f"unknown key {key!r}")
                scenario_raw.setdefault(idx, {})[fname] = raw
            elif key in _REGISTRY:
                merged[key] = raw
            else:
                raise ConfigError(f"unknown key {key!r}")

    values = {k: _parse_typed(k, _REGISTRY[k][0], raw) for k, raw in merged.items()}
    refiners = values["model.refiners"]
    if len(refiners) != len(FIELD_ORDER):
        raise ConfigError(f"model.refiners: expected {len(FIELD_ORDER)} counts, got {len(refiners)}")
    values["model.refiners"] = dict(zip(FIELD_ORDER, refiners))
    flags = AblationFlags().disable(values.pop("train.disable"))
    gen_count, gen_seed = values.pop("gen.count"), values.pop("gen.seed")
    by_record: dict[str, dict] = {section: {} for section in _RECORDS}
    for key, value in values.items():
        section, name = key.split(".", 1)
        by_record[section][_FIELD_OF_KEY.get(key, name)] = value
    vocab, schema, dims, model, train = (record(**by_record[s]) for s, record in _RECORDS.items())

    for idx in scenario_raw:
        if not (0 <= idx < vocab.scenarios):
            raise ConfigError(f"scenario index {idx} out of range [0, {vocab.scenarios})")
    scenarios = []
    for i in range(vocab.scenarios):
        raw = scenario_raw.get(i, {})
        parsed = {}
        for fname, (kind, default, _) in _SCENARIO_FIELDS.items():
            parsed[fname] = _parse_typed(f"scenario.{i}.{fname}", kind, raw.get(fname, default))
        if parsed["noise_std"] < 0:
            raise ConfigError(f"scenario.{i}.noise_std: must be non-negative, got {parsed['noise_std']}")
        if any(not 0.0 <= v <= 1.0 for v in parsed["field_importance"]):
            raise ConfigError(f"scenario.{i}.field_importance: every value must lie in [0, 1]")
        if parsed["trigger_kind"] not in TRIGGER_KINDS:
            raise ConfigError(
                f"scenario.{i}.trigger_kind: {parsed['trigger_kind']!r} not one of {TRIGGER_KINDS}"
            )
        scenarios.append(ScenarioSettings(scenario_id=i, **parsed))

    cfg = RunConfig(
        vocab=vocab,
        schema=schema,
        dims=dims,
        model=model,
        train=train,
        flags=flags,
        scenarios=tuple(_resolve_shares(scenarios)),
        gen_count=gen_count,
        gen_seed=gen_seed,
    )
    _validate(cfg)
    return replace(cfg, scenarios=_resolve_vectors(cfg))


def _resolve_shares(scenarios: list[ScenarioSettings]) -> list[ScenarioSettings]:
    explicit = [s.traffic_share for s in scenarios if s.traffic_share is not None]
    for share in explicit:
        if not (0.0 < share <= 1.0):
            raise ConfigError(f"traffic_share: {share} outside (0, 1]")
    remainder = 1.0 - sum(explicit)
    unset = sum(1 for s in scenarios if s.traffic_share is None)
    if unset:
        if remainder <= 0:
            raise ConfigError("traffic_share: explicit shares leave no mass for unset scenarios")
        fill = remainder / unset
        scenarios = [s if s.traffic_share is not None else replace(s, traffic_share=fill) for s in scenarios]
    total = sum(s.traffic_share for s in scenarios)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"traffic_share: shares sum to {total!r}, expected 1.0")
    return scenarios


def _resolve_vectors(cfg: RunConfig) -> tuple[ScenarioSettings, ...]:
    """Check the given per-element vectors' lengths and fill the empty ones:
    disjoint round-robin importance masks, and label weights drawn per
    scenario from the generator seed."""
    n_q, n_s = cfg.schema.element_count, cfg.vocab.scenarios
    out = []
    for sc in cfg.scenarios:
        for name in ("field_importance", "label_weights"):
            given = getattr(sc, name)
            if given and len(given) != n_q:
                raise ConfigError(f"scenario.{sc.scenario_id}.{name}: expected {n_q} values, got {len(given)}")
        importance = sc.field_importance or tuple(1.0 if j % n_s == sc.scenario_id else 0.0 for j in range(n_q))
        weights = sc.label_weights
        if not weights:
            rng = np.random.default_rng([cfg.gen_seed, 700_000 + sc.scenario_id])
            magnitude = rng.uniform(1.5, 3.0, size=n_q)
            sign = rng.choice([-1.0, 1.0], size=n_q)
            weights = tuple(float(w) for w in magnitude * sign)
        out.append(replace(sc, field_importance=importance, label_weights=weights))
    return tuple(out)


def _validate(cfg: RunConfig) -> None:
    for name, value in vars(cfg.vocab).items():
        if value <= 0:
            raise ConfigError(f"vocab.{name}: must be positive, got {value}")
    s = cfg.schema
    if min(s.user_attr_count, s.item_attr_count, s.context_attr_count) < 0 or s.trigger_attr_count < 0:
        raise ConfigError("schema attribute counts must be non-negative")
    if s.max_behavior_len < 1:
        raise ConfigError("schema.max_behavior: must be at least 1")
    if s.image_dim < 1:
        raise ConfigError("schema.image_dim: must be at least 1")
    for name, value in vars(cfg.dims).items():
        if value <= 0:
            raise ConfigError(f"dim.{name}: must be positive, got {value}")
    m = cfg.model
    if m.experts < 1 or m.expert_hidden < 1 or m.correlation_dim < 1 or m.scale_hidden < 1:
        raise ConfigError("model widths and counts must be positive")
    if not m.tower_dims:
        raise ConfigError("model.tower_dims: need at least one width")
    if min(m.tower_dims) < 1:
        raise ConfigError(f"model.tower_dims: every width must be at least 1, got {m.tower_dims}")
    if not (0.0 < m.refiner_compression <= 1.0):
        raise ConfigError("model.refiner_compression: must lie in (0, 1]")
    if m.scale_ceiling <= 0 or m.gumbel_temperature <= 0:
        raise ConfigError("model.scale_ceiling and model.gumbel_temperature must be positive")
    if m.attention_heads < 1 or m.encoder_layers < 1 or m.ffn_multiplier < 1:
        raise ConfigError("encoder settings must be positive")
    if any(n < 1 for n in m.refiner_counts.values()):
        raise ConfigError("model.refiners: every count must be at least 1")
    t = cfg.train
    if t.learning_rate <= 0 or t.batch_size < 1 or t.epochs < 0 or t.weight_decay < 0:
        raise ConfigError("train settings out of range")
    if t.lr_decay <= 0:
        raise ConfigError("train.lr_decay: must be positive")
    for key, value in (
        ("train.seed", t.seed), ("train.eval_every", t.eval_every),
        ("train.early_stop_patience", t.early_stop_patience),
        ("gen.count", cfg.gen_count), ("gen.seed", cfg.gen_seed),
    ):
        if value < 0:
            raise ConfigError(f"{key}: must be non-negative, got {value}")

    kinds = {sc.trigger_kind for sc in cfg.scenarios}
    if "none" in kinds and kinds != {"none"}:
        raise ConfigError(
            "trigger_kind: scenarios without triggers cannot be mixed with image/product scenarios"
        )
    if kinds == {"none"} and cfg.schema.trigger_attr_count != 0:
        raise ConfigError("schema.trigger_attrs: must be 0 when every scenario has trigger_kind none")
    if "image" in kinds and cfg.dims.trigger != cfg.schema.image_dim:
        raise ConfigError(
            f"dim.trigger ({cfg.dims.trigger}) must equal schema.image_dim ({cfg.schema.image_dim}) "
            "when image triggers occur"
        )
    item_width = cfg.dims.item + cfg.schema.item_attr_count * cfg.dims.attr
    if item_width % cfg.model.attention_heads != 0:
        raise ConfigError(
            f"model.attention_heads: encoder width {item_width} "
            f"(dim.item + schema.item_attrs * dim.attr) not divisible by {cfg.model.attention_heads}"
        )


# ---------------------------------------------------------------------------
# canonical serialization and digests
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compat_digest_parts(vocab: dict, schema: dict, trigger_mode: str) -> str:
    """Digest of the portion a dataset and a model must agree on."""
    return sha256_hex(canonical_json({"vocab": vocab, "schema": schema, "trigger_mode": trigger_mode}))


def data_compat_digest(cfg: RunConfig) -> str:
    return compat_digest_parts(vars(cfg.vocab), vars(cfg.schema), cfg.trigger_mode)
