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
TRIGGER_MODES = ("search", "recommendation")

# The bound of a key is None or one of these phrases, which say what a value,
# or each value of a list, must do; --help shows them and errors quote them.
POSITIVE, NON_NEGATIVE, UNIT, OPEN_UNIT = "be positive", "be non-negative", "lie in [0, 1]", "lie in (0, 1]"
ONE_OF_TRIGGER_KINDS = f"be one of {', '.join(TRIGGER_KINDS)}"
ONE_OF_ABLATION_FLAGS = f"be one of {', '.join(ABLATION_FLAGS)}"
_HOLDS = {
    POSITIVE: lambda v: v > 0,
    NON_NEGATIVE: lambda v: v >= 0,
    UNIT: lambda v: 0 <= v <= 1,
    OPEN_UNIT: lambda v: 0 < v <= 1,
    ONE_OF_TRIGGER_KINDS: lambda v: v in TRIGGER_KINDS,
    ONE_OF_ABLATION_FLAGS: lambda v: v in ABLATION_FLAGS,
}


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
        return replace(self, **{name: False for name in names})


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

_REGISTRY: dict[str, tuple[str, str, object, str]] = {
    # key: (type, default, bound, help)
    "vocab.users": ("int", "120", POSITIVE, "user vocabulary size"),
    "vocab.items": ("int", "200", POSITIVE, "item vocabulary size"),
    "vocab.user_attrs": ("int", "40", POSITIVE, "user attribute vocabulary size"),
    "vocab.item_attrs": ("int", "40", POSITIVE, "item attribute vocabulary size"),
    "vocab.trigger_attrs": ("int", "20", POSITIVE, "trigger attribute vocabulary size"),
    "vocab.context_attrs": ("int", "20", POSITIVE, "context attribute vocabulary size"),
    "vocab.scenarios": ("int", "2", POSITIVE, "number of scenarios"),
    "schema.user_attrs": ("int", "2", NON_NEGATIVE, "user attribute slots per instance"),
    "schema.item_attrs": ("int", "2", NON_NEGATIVE, "item attribute slots per item"),
    "schema.trigger_attrs": ("int", "1", NON_NEGATIVE, "trigger attribute slots (0 when no scenario has triggers)"),
    "schema.context_attrs": ("int", "2", NON_NEGATIVE, "context attribute slots per instance"),
    "schema.max_behavior": ("int", "4", POSITIVE, "behavior sequence capacity; shorter sequences are left-padded"),
    "schema.image_dim": ("int", "8", POSITIVE, "dense payload width for image triggers"),
    "dim.user": ("int", "8", POSITIVE, "user id embedding width"),
    "dim.item": ("int", "8", POSITIVE, "item id embedding width"),
    "dim.attr": ("int", "4", POSITIVE, "attribute embedding width (user/item/trigger attributes)"),
    "dim.context": ("int", "4", POSITIVE, "context attribute embedding width"),
    "dim.scenario": ("int", "4", POSITIVE, "scenario embedding width"),
    "dim.trigger": ("int", "8", POSITIVE, "trigger head width (must equal schema.image_dim when image triggers occur)"),
    "model.experts": ("int", "4", POSITIVE, "expert count of the mixture network layer"),
    "model.expert_hidden": ("int", "256", POSITIVE, "hidden and output width of each two-layer expert"),
    "model.tower_dims": ("csv_int", "128,64,32", POSITIVE, "hidden widths of scenario-specific and shared towers"),
    "model.refiners": ("per_field_int", "1,2,1,1,1", POSITIVE, "refiners of behavior,user,item,trigger,context"),
    "model.refiner_compression": ("float", "0.5", OPEN_UNIT, "refiner width as a fraction of field width (ceil)"),
    "model.correlation_dim": ("int", "5", POSITIVE, "projection width for field correlation"),
    "model.scale_ceiling": ("float", "2.0", POSITIVE, "upper bound of feature-scaling multipliers"),
    "model.scale_hidden": ("int", "64", POSITIVE, "hidden width of the feature-scaling network"),
    "model.gumbel_temperature": ("float", "0.01", POSITIVE, "Gumbel-softmax temperature for refiner selection"),
    "model.attention_heads": ("int", "2", POSITIVE, "self-attention heads in the sequence encoder"),
    "model.encoder_layers": ("int", "1", POSITIVE, "transformer layers in the sequence encoder"),
    "model.ffn_multiplier": ("int", "2", POSITIVE, "feed-forward width multiple of the encoder model width"),
    "train.learning_rate": ("float", "0.05", POSITIVE, "Adam learning rate"),
    "train.batch_size": ("int", "512", POSITIVE, "mini-batch size"),
    "train.weight_decay": ("float", "1e-6", NON_NEGATIVE, "decoupled L2 weight decay inside the Adam step"),
    "train.lr_decay": ("float", "1.0", POSITIVE, "per-epoch multiplicative learning-rate factor (1.0 = constant)"),
    "train.epochs": ("int", "1", NON_NEGATIVE, "training epochs"),
    "train.seed": ("int", "0", NON_NEGATIVE, "seed for init, shuffling, and selection noise"),
    "train.eval_every": ("int", "0", NON_NEGATIVE, "evaluate every N epochs during training (0 = only at the end)"),
    "train.early_stop_patience": (
        "int", "0", NON_NEGATIVE, "stop after N evaluations without AUC gain (0 = off; needs train.eval_every > 0)"
    ),
    "train.disable": ("csv_str", "", ONE_OF_ABLATION_FLAGS, "ablation switches to turn off"),
    "gen.count": ("int", "10000", NON_NEGATIVE, "instances to generate"),
    "gen.seed": ("int", "0", NON_NEGATIVE, "generator seed; instance i depends only on (seed, i)"),
}

_SCENARIO_FIELDS: dict[str, tuple[str, str, object, str]] = {
    "traffic_share": ("float_or_empty", "", OPEN_UNIT, "traffic mass of this scenario (empty = split the rest)"),
    "noise_std": ("float", "0.5", NON_NEGATIVE, "label logit noise standard deviation"),
    "trigger_kind": ("str", "product", ONE_OF_TRIGGER_KINDS, "kind of the trigger that starts a request"),
    "label_bias": ("float", "0.0", None, "additive bias of the label logit"),
    "behavior_tilt": ("float", "1.0", None, "strength of the scenario tilt of item popularity"),
    "field_importance": ("csv_float", "", UNIT, "per-element importance mask (empty = auto disjoint)"),
    "label_weights": ("csv_float", "", None, "per-element label weights (empty = auto from gen.seed)"),
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
# per record type: its field names to their keys
_KEY_OF_FIELD = {
    record: {_FIELD_OF_KEY.get(key, key.split(".", 1)[1]): key for key in _REGISTRY if key.startswith(f"{section}.")}
    for section, record in _RECORDS.items()
}

_SCENARIO_RE = re.compile(r"^scenario\.(\d+)\.([a-z_]+)$")

# What one value of a kind must be; a list kind's values are checked one by one.
_VALUE_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "str": ("a string", lambda v: type(v) is str),
}
_VALUE_KIND = {
    "float_or_empty": "float", "csv_int": "int", "per_field_int": "int", "csv_float": "float", "csv_str": "str",
}


def config_help_text() -> str:
    """All config keys with their defaults and bounds, for --help output."""
    def lines(entries):
        for key, (_, default, bound, help_) in entries:
            shown = (default or "(empty)") + ("" if bound is None else f", must {bound}")
            yield f"  {key:<28} default {shown:<32} {help_}"

    return "\n".join([
        "configuration keys (key = value per line, # comments):",
        *lines(_REGISTRY.items()),
        "per-scenario keys (N = scenario index, 0-based):",
        *lines((f"scenario.N.{name}", entry) for name, entry in _SCENARIO_FIELDS.items()),
    ])


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
    """``raw`` read as ``kind``; its type and bound are left to ``check_settings``."""
    read = {"int": int, "float": float, "str": str}[_VALUE_KIND.get(kind, kind)]
    try:
        if kind in ("int", "float", "float_or_empty", "str"):
            return None if kind == "float_or_empty" and raw == "" else read(raw)
        values = tuple(read(p.strip()) for p in raw.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc
    # counts that are not one per field stay a tuple, which check_settings refuses
    return dict(zip(FIELD_ORDER, values)) if kind == "per_field_int" and len(values) == len(FIELD_ORDER) else values


def check_settings(values: Mapping[str, object]) -> None:
    """Refuse, with a ConfigError that names the key, a value whose type or
    bound its registry entry does not allow. ``values`` maps config keys
    (``scenario.<index>.<field>`` for scenario fields) to typed values, as
    ``build_run_config`` parses them or a settings record holds them."""
    for key, value in values.items():
        kind, _, bound, _ = _REGISTRY[key] if key in _REGISTRY else _SCENARIO_FIELDS[key.rsplit(".", 1)[1]]
        if kind == "per_field_int":
            if type(value) is not dict or set(value) != set(FIELD_ORDER):
                raise ConfigError(f"{key}: expected one count for each of {', '.join(FIELD_ORDER)}, got {value!r}")
            items = list(value.values())
        elif kind.startswith("csv_"):
            if type(value) not in (list, tuple) or kind == "csv_int" and not value:
                raise ConfigError(f"{key}: expected a {'non-empty ' if kind == 'csv_int' else ''}list, got {value!r}")
            items = value
        else:
            items = () if kind == "float_or_empty" and value is None else (value,)
        what, has_kind = _VALUE_TYPES[_VALUE_KIND.get(kind, kind)]
        for item in items:
            if not has_kind(item):
                raise ConfigError(f"{key}: {item!r} is not {what}")
            if bound is not None and not _HOLDS[bound](item):
                raise ConfigError(f"{key}: must {bound}, got {item!r}")


def check_records(
    vocab: VocabSizes, schema: FeatureSchema, trigger_mode: str, dims: EmbedDims | None = None,
    model: ModelSettings | None = None, profiles: tuple[ScenarioSettings, ...] = (),
) -> None:
    """Refuse, with a ConfigError that names the key, settings records read
    from a file (a dataset manifest or a checkpoint spec): each field by
    ``check_settings``, then the trigger mode and the rules between keys
    that these records decide."""
    values = {
        _KEY_OF_FIELD[type(record)][name]: value
        for record in (vocab, schema, dims, model) if record is not None
        for name, value in vars(record).items()
    }
    for p in profiles:
        values |= {f"scenario.{p.scenario_id}.{name}": v for name, v in vars(p).items() if name != "scenario_id"}
    check_settings(values)
    if trigger_mode not in TRIGGER_MODES:
        raise ConfigError(f"trigger_mode: must be one of {', '.join(TRIGGER_MODES)}, got {trigger_mode!r}")
    _check_across(schema, trigger_mode, dims, model, profiles)


def _check_across(schema, trigger_mode, dims, model, profiles) -> None:
    """Rules between keys that a manifest or a spec can break as well as a config."""
    if trigger_mode == "recommendation" and schema.trigger_attr_count != 0:
        raise ConfigError("schema.trigger_attrs: must be 0 when every scenario has trigger_kind none")
    if model is not None:
        item_width = dims.item + schema.item_attr_count * dims.attr
        if item_width % model.attention_heads != 0:
            raise ConfigError(
                f"model.attention_heads: encoder width {item_width} "
                f"(dim.item + schema.item_attrs * dim.attr) not divisible by {model.attention_heads}"
            )
    for sc in profiles:
        for name in ("field_importance", "label_weights"):
            given = getattr(sc, name)
            if given and len(given) != schema.element_count:
                raise ConfigError(
                    f"scenario.{sc.scenario_id}.{name}: expected {schema.element_count} values, got {len(given)}"
                )


def build_run_config(mapping: Mapping[str, str] | None = None, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Resolve defaults, a parsed config file, and override pairs into a RunConfig.

    Overrides win over the file, the file wins over defaults. Unknown keys are
    rejected by name; the same goes for scenario indexes outside
    [0, vocab.scenarios).
    """
    merged: dict[str, str] = {k: default for k, (_, default, _, _) in _REGISTRY.items()}
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
    n_s = values["vocab.scenarios"]
    for idx in scenario_raw:
        if not (0 <= idx < n_s):
            raise ConfigError(f"scenario index {idx} out of range [0, {n_s})")
    for i in range(n_s):
        for fname, (kind, default, _, _) in _SCENARIO_FIELDS.items():
            key = f"scenario.{i}.{fname}"
            values[key] = _parse_typed(key, kind, scenario_raw.get(i, {}).get(fname, default))
    check_settings(values)
    scenarios = [
        ScenarioSettings(scenario_id=i, **{fname: values.pop(f"scenario.{i}.{fname}") for fname in _SCENARIO_FIELDS})
        for i in range(n_s)
    ]
    flags = AblationFlags().disable(values.pop("train.disable"))
    gen_count, gen_seed = values.pop("gen.count"), values.pop("gen.seed")
    by_record: dict[str, dict] = {section: {} for section in _RECORDS}
    for key, value in values.items():
        section, name = key.split(".", 1)
        by_record[section][_FIELD_OF_KEY.get(key, name)] = value
    vocab, schema, dims, model, train = (record(**by_record[s]) for s, record in _RECORDS.items())

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
    """Fill the empty per-element vectors: disjoint round-robin importance
    masks, and label weights drawn per scenario from the generator seed."""
    n_q, n_s = cfg.schema.element_count, cfg.vocab.scenarios
    out = []
    for sc in cfg.scenarios:
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
    """Rules between keys; ``check_settings`` has checked each key alone."""
    t = cfg.train
    if t.early_stop_patience > 0 and t.eval_every == 0:
        raise ConfigError(
            f"train.early_stop_patience: {t.early_stop_patience} needs train.eval_every above 0; "
            "without evaluations during training no epoch counts towards it"
        )
    kinds = {sc.trigger_kind for sc in cfg.scenarios}
    if "none" in kinds and kinds != {"none"}:
        raise ConfigError(
            "trigger_kind: scenarios without triggers cannot be mixed with image/product scenarios"
        )
    if "image" in kinds and cfg.dims.trigger != cfg.schema.image_dim:
        raise ConfigError(
            f"dim.trigger ({cfg.dims.trigger}) must equal schema.image_dim ({cfg.schema.image_dim}) "
            "when image triggers occur"
        )
    _check_across(cfg.schema, cfg.trigger_mode, cfg.dims, cfg.model, cfg.scenarios)


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
