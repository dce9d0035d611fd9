"""Multi-scenario ranking model.

A shared encoder bottom turns one mini-batch of instances into the
concatenated per-field vector: transformer-encoded behaviors pooled by
trigger attention, then user, target item, trigger, and context fields.
On top sit the adaptive feature stages (scaling, refinement, correlation),
a scenario-gated expert mixture, and per-scenario towers fused with a
shared tower whose weight comes from scenario-embedding similarity.

The baselines (hard sharing, shared bottom, expert mixture) are head
presets of the same ``MariaModel`` class: the full model with stages
removed, over the same bottom, so that comparisons isolate the head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import features as ft
from .autodiff import Graph, Value
from .config import (
    FIELD_ORDER,
    AblationFlags,
    ConfigError,
    EmbedDims,
    FeatureSchema,
    ModelSettings,
    RunConfig,
    VocabSizes,
    check_records,
)
from .datagen import TRIGGER_IMAGE, TRIGGER_NONE, TRIGGER_PRODUCT, InstanceTable
from .layers import EmbeddingTable, Fcn, SequenceEncoder, additive_mask, fcn_bank, trigger_attention

BASELINE_KINDS = ("hard_sharing", "shared_bottom", "mmoe")
MODEL_KINDS = ("maria",) + BASELINE_KINDS


@dataclass
class Batch:
    """Numpy index arrays for one mini-batch; graph-free and reusable."""

    size: int
    scenario: np.ndarray          # (B,)
    user: np.ndarray              # (B,)
    user_attrs: np.ndarray        # (B, L)
    beh_items: np.ndarray         # (B, m) left-padded with the reserved row
    beh_attrs: np.ndarray         # (B, m, P)
    valid: np.ndarray             # (B, m) 0/1 floats
    target: np.ndarray            # (B,)
    target_attrs: np.ndarray      # (B, P)
    is_image: np.ndarray          # (B,) bools; all False outside image scenarios
    image_vecs: np.ndarray        # (B, image_dim) zeros for non-image rows
    trig_items: np.ndarray        # (B,) zeros for non-product rows
    trig_attrs: np.ndarray        # (B, O) padded for image rows
    context: np.ndarray           # (B, N_c)
    labels: np.ndarray            # (B,) floats


def make_batch(instances: InstanceTable, vocab: VocabSizes, schema: FeatureSchema, trigger_mode: str) -> Batch:
    """Index arrays of one block of rows.

    Behaviour sequences are left-padded to ``max_behavior_len`` with the
    reserved item and attribute rows; trigger payloads are read only on rows
    of their kind. A row whose behaviour length is outside [1, m], or whose
    trigger does not fit ``trigger_mode``, raises ValueError with its index.
    """
    b, m = len(instances), schema.max_behavior_len
    lengths, kind = instances.beh_len, instances.trigger_kind
    bad_length = (lengths < 1) | (lengths > m)
    bad_trigger = kind != TRIGGER_NONE if trigger_mode == "recommendation" else kind == TRIGGER_NONE
    if bad_length.any() or bad_trigger.any():
        i = int(np.argmax(bad_length | bad_trigger))
        if bad_length[i]:
            raise ValueError(f"instance {i}: behavior length {lengths[i]} outside [1, {m}]")
        if trigger_mode == "recommendation":
            raise ValueError(f"instance {i}: trigger present in a trigger-free model")
        raise ValueError(f"instance {i}: missing trigger in a trigger-driven model")

    beh_items, beh_attrs, valid = instances.padded_behavior(m, vocab.items, vocab.item_attrs)
    is_image = kind == TRIGGER_IMAGE
    is_product = kind == TRIGGER_PRODUCT
    return Batch(
        size=b, scenario=instances.scenario, user=instances.user, user_attrs=instances.user_attrs,
        beh_items=beh_items, beh_attrs=beh_attrs, valid=valid.astype(np.float64),
        target=instances.target_item, target_attrs=instances.target_attrs,
        is_image=is_image,
        image_vecs=np.where(is_image[:, None], instances.image_vec, 0.0),
        trig_items=np.where(is_product, instances.trig_item, 0),
        trig_attrs=np.where(is_product[:, None], instances.trig_attrs, vocab.trigger_attrs),
        context=instances.context, labels=instances.label.astype(np.float64),
    )


@dataclass
class BottomOutput:
    q: Value
    e_user: Value
    e_item: Value
    e_scenario: Value


class EncoderBottom:
    """Embedding tables, behavior encoder, and trigger pooling shared by all model kinds."""

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        vocab: VocabSizes,
        schema: FeatureSchema,
        dims: EmbedDims,
        settings: ModelSettings,
        trigger_mode: str,
        name: str = "bottom",
    ):
        self.graph = graph
        self.vocab, self.schema, self.dims = vocab, schema, dims
        self.trigger_mode = trigger_mode
        self.item_width = dims.item + schema.item_attr_count * dims.attr
        t = f"{name}.tables"
        d, s, v = dims, schema, vocab

        def optional_table(count: int, rows: int, dim: int, table: str) -> EmbeddingTable | None:
            return EmbeddingTable(graph, rng, rows, dim, f"{t}.{table}") if count else None

        # +1 rows reserve a padding id for tables that appear in padded slots
        self.users = EmbeddingTable(graph, rng, v.users, d.user, f"{t}.user")
        self.items = EmbeddingTable(graph, rng, v.items + 1, d.item, f"{t}.item")
        self.user_attr_tab = optional_table(s.user_attr_count, v.user_attrs, d.attr, "user_attr")
        self.item_attr_tab = optional_table(s.item_attr_count, v.item_attrs + 1, d.attr, "item_attr")
        self.trigger_attr_tab = optional_table(s.trigger_attr_count, v.trigger_attrs + 1, d.attr, "trigger_attr")
        self.context_tab = optional_table(s.context_attr_count, v.context_attrs, d.context, "context")
        self.scenario_tab = EmbeddingTable(graph, rng, vocab.scenarios, dims.scenario, f"{t}.scenario")
        self.encoder = SequenceEncoder(
            graph, rng, self.item_width, schema.max_behavior_len,
            settings.attention_heads, settings.encoder_layers, settings.ffn_multiplier,
            f"{name}.encoder",
        )
        if trigger_mode == "search":
            self.trigger_head_width = dims.trigger
            proj_in = dims.item + schema.trigger_attr_count * dims.attr
            self.trigger_proj = Fcn(graph, rng, proj_in, [dims.trigger], ["linear"], f"{name}.trigger_proj")
        else:
            self.trigger_head_width = self.item_width
            self.trigger_proj = None
        # The trigger's attention query over the encoded behaviours; the
        # "trigger_sim" name keeps it in the "trigger" parameter group.
        self.query_net = Fcn(graph, rng, self.trigger_head_width, [self.item_width], ["linear"], f"{name}.trigger_sim")
        # Element widths per field in FIELD_ORDER; a schema without context
        # slots has no context field.
        widths = [
            [self.item_width],
            [d.user] + [d.attr] * s.user_attr_count,
            [d.item] + [d.attr] * s.item_attr_count,
            [d.trigger] + [d.attr] * s.trigger_attr_count if trigger_mode == "search" else [self.item_width],
            [d.context] * s.context_attr_count,
        ]
        self.layout = ft.FieldLayout([(n, w) for n, w in zip(FIELD_ORDER, widths) if w])

    def _flat_attrs(self, table: EmbeddingTable, ids: np.ndarray) -> Value:
        """Embeddings of the attribute ids on the last axis of ``ids``, laid side by side."""
        emb = table.lookup(ids)
        return ad.reshape(emb, ids.shape[:-1] + (ids.shape[-1] * table.dim,))

    def _with_attrs(self, head: Value, table: EmbeddingTable | None, ids: np.ndarray) -> Value:
        """``head`` followed by the flattened attribute embeddings; ``head`` alone without a table."""
        if table is None:
            return head
        return ad.concat([head, self._flat_attrs(table, ids)], axis=-1)

    def _trigger_head(self, batch: Batch) -> Value:
        img_idx = np.flatnonzero(batch.is_image)
        prod_idx = np.flatnonzero(~batch.is_image)

        def product_head(items: np.ndarray, attrs: np.ndarray) -> Value:
            return self.trigger_proj.forward(self._with_attrs(self.items.lookup(items), self.trigger_attr_tab, attrs))

        if len(img_idx) == 0:
            return product_head(batch.trig_items, batch.trig_attrs)
        if len(prod_idx) == 0:
            return self.graph.constant(batch.image_vecs)
        stacked = ad.concat(
            [
                self.graph.constant(batch.image_vecs[img_idx]),
                product_head(batch.trig_items[prod_idx], batch.trig_attrs[prod_idx]),
            ],
            axis=0,
        )
        inverse = np.empty(batch.size, dtype=np.int64)
        inverse[np.concatenate([img_idx, prod_idx])] = np.arange(batch.size)
        return ad.take_rows(stacked, inverse)

    def encode(self, batch: Batch) -> BottomOutput:
        # Op order matters: the backward sweep adds into the shared item table in it.
        e_user = self.users.lookup(batch.user)
        user_field = self._with_attrs(e_user, self.user_attr_tab, batch.user_attrs)
        seq = self._with_attrs(self.items.lookup(batch.beh_items), self.item_attr_tab, batch.beh_attrs)
        mask = additive_mask(seq.graph, batch.valid)  # the encoder's and the pooling's
        encoded = self.encoder.forward(seq, mask)
        e_item = self.items.lookup(batch.target)
        item_field = self._with_attrs(e_item, self.item_attr_tab, batch.target_attrs)

        if self.trigger_mode == "search":
            head = self._trigger_head(batch)
            trig_field = self._with_attrs(head, self.trigger_attr_tab, batch.trig_attrs)
        else:
            head = item_field
            trig_field = item_field

        pooled = trigger_attention(head, encoded, self.query_net, mask)

        values = {"behavior": pooled, "user": user_field, "item": item_field, "trigger": trig_field}
        if self.context_tab is not None:
            values["context"] = self._flat_attrs(self.context_tab, batch.context)
        e_scenario = self.scenario_tab.lookup(batch.scenario)
        q = ad.concat([values[f.name] for f in self.layout.fields], axis=-1)
        return BottomOutput(q=q, e_user=e_user, e_item=e_item, e_scenario=e_scenario)


@dataclass
class ForwardResult:
    score: Value              # (B,) click probabilities
    alpha: Value | None       # (B, element_count) scaling multipliers, None when scaling is off
    trace: dict               # eval-time extras, e.g. refiner choices per field


def _grouped_towers(towers: list[Fcn], x: Value, scenario: np.ndarray) -> Value:
    """Run each row through its scenario's tower, preserving row order: the
    rows are gathered once in scenario order, each layer runs every
    present tower as one row-segment node, and one gather restores the order."""
    present, sizes = np.unique(scenario, return_counts=True)
    if present.size < 2:  # one scenario, or no rows at all
        return towers[int(present[0]) if present.size else 0].forward(x)
    order = np.argsort(scenario, kind="stable")
    used = [towers[int(s)] for s in present]
    h = fcn_bank(used, ad.take_rows(x, order), lambda rows, ws, bs: ad.affine_segments(rows, ws, bs, sizes))
    inverse = np.empty(scenario.size, dtype=np.int64)
    inverse[order] = np.arange(scenario.size)
    return ad.take_rows(h, inverse)


class _MixtureHead:
    """Scenario-gated expert mixture over the fused feature vector."""

    def __init__(self, graph, rng, in_width: int, settings: ModelSettings, scenario_dim: int, gated: bool, name="moe"):
        h = settings.expert_hidden
        count = settings.experts if gated else 1
        self.experts = [
            Fcn(graph, rng, in_width, [h, h], ["relu", "relu"], f"{name}.expert{j}") for j in range(count)
        ]
        self.gate = Fcn(graph, rng, scenario_dim, [count], ["linear"], f"{name}.gate") if gated else None
        self.out_width = h

    def forward(self, fused: Value, e_scenario: Value) -> Value:
        if self.gate is None:
            return self.experts[0].forward(fused)
        gates = ad.softmax_last(self.gate.forward(e_scenario))
        outs = fcn_bank(self.experts, fused, ad.affine_stack)  # (experts, rows, width)
        return ad.weighted_sum(outs, [ad.slice_last(gates, j, j + 1) for j in range(len(self.experts))])


class MariaModel:
    """One ranker for every model kind; ``kind`` picks the head preset.

    maria: the adaptive stages ``flags`` leave on, an expert mixture (gated
    under ``flags.nl``, one expert otherwise), per-scenario towers, and the
    shared tower under ``flags.st``.
    mmoe: a gated expert mixture, then per-scenario towers.
    shared_bottom: per-scenario towers on the raw field vector.
    hard_sharing: one tower for every scenario.

    Baselines ignore ``flags`` and record the defaults. Modules are built in
    one fixed order (bottom, fs, fr, fcm, mixture, towers, shared, head), so
    each kind draws the same initial values and names as its parameters.
    """

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        vocab: VocabSizes,
        schema: FeatureSchema,
        dims: EmbedDims,
        settings: ModelSettings,
        flags: AblationFlags,
        trigger_mode: str,
        kind: str = "maria",
    ):
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        maria = kind == "maria"
        if not maria:
            flags = AblationFlags()
        self.kind = kind
        self.graph = graph
        self.vocab, self.schema, self.dims = vocab, schema, dims
        self.settings, self.flags, self.trigger_mode = settings, flags, trigger_mode
        self.bottom = EncoderBottom(graph, rng, vocab, schema, dims, settings, trigger_mode)
        layout = self.layout = self.bottom.layout

        self.fs = (
            ft.FeatureScaling(
                graph, rng, layout, dims.user, dims.item, dims.scenario,
                settings.scale_hidden, settings.scale_ceiling, "adaptive.fs",
            )
            if maria and flags.fs else None
        )
        self.fr = (
            ft.FieldRefinement(
                graph, rng, layout, dims.scenario, settings.refiner_counts,
                settings.refiner_compression, settings.gumbel_temperature, flags.gs, "adaptive.fr",
            )
            if maria and flags.fr else None
        )
        self.fcm = (
            ft.FieldCorrelation(graph, rng, layout, settings.correlation_dim, "adaptive.fcm")
            if maria and flags.fcm else None
        )
        width = (self.fr.out_width if self.fr else layout.width) + (self.fcm.out_width if self.fcm else 0)
        self.mixture = None
        if kind in ("maria", "mmoe"):
            self.mixture = _MixtureHead(graph, rng, width, settings, dims.scenario, gated=flags.nl)
            width = self.mixture.out_width

        tw = list(settings.tower_dims)
        acts = ["relu"] * len(tw)
        tower_count = 1 if kind == "hard_sharing" else vocab.scenarios
        self.towers = [Fcn(graph, rng, width, tw, acts, f"towers.scenario{s}") for s in range(tower_count)]
        self.shared_tower = Fcn(graph, rng, width, tw, acts, "towers.shared") if maria and flags.st else None
        self.head = Fcn(graph, rng, tw[-1], [1], ["sigmoid"], "head")

    def _coupling(self, scenario: np.ndarray) -> Value:
        """Per-row weight of the shared tower: mean scenario-embedding dot
        product against every other scenario; zero when there is only one."""
        n_s = self.vocab.scenarios
        if n_s == 1:
            return self.graph.constant(np.zeros((scenario.size, 1)))
        s_mat = self.scenario_tab.weights
        gram = ad.matmul(s_mat, ad.transpose_last2(s_mat))
        off_diag = self.graph.constant(1.0 - np.eye(n_s))
        coupling = ad.scale(ad.sum_last(ad.mul(gram, off_diag), keepdims=True), 1.0 / (n_s - 1))
        return ad.take_rows(coupling, scenario)

    @property
    def scenario_tab(self) -> EmbeddingTable:
        return self.bottom.scenario_tab

    def forward(self, batch: Batch, mode: str = "train") -> ForwardResult:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        out = self.bottom.encode(batch)
        trace: dict = {}
        h, alpha = ft.adaptive_features(
            out.q, out.e_user, out.e_item, out.e_scenario,
            self.fs, self.fr, self.fcm, mode, trace if mode == "eval" else None,
        )
        if self.mixture is not None:
            h = self.mixture.forward(h, out.e_scenario)
        if len(self.towers) == 1:
            tower_out = self.towers[0].forward(h)
        else:
            tower_out = _grouped_towers(self.towers, h, batch.scenario)
        if self.shared_tower is not None:
            shared = self.shared_tower.forward(h)
            tower_out = ad.add(tower_out, ad.mul(shared, self._coupling(batch.scenario)))
        score = ad.reshape(self.head.forward(tower_out), (batch.size,))
        return ForwardResult(score=score, alpha=alpha, trace=trace)

    def named_parameters(self) -> list[tuple[str, Value]]:
        return list(self.graph.params.items())

    def parameter_values(self) -> list[Value]:
        return [v for _, v in self.named_parameters()]

    def parameter_summary(self) -> dict[str, int]:
        summary = {group: 0 for group, _ in _SUMMARY_GROUPS}
        for name, value in self.named_parameters():
            summary[group_of_parameter(name)] += value.size
        summary["total"] = sum(summary.values())
        return summary

    def spec(self) -> dict:
        """Everything ``model_from_spec`` needs to rebuild the same structure."""
        return {
            "kind": self.kind,
            "vocab": asdict(self.vocab),
            "schema": asdict(self.schema),
            "dims": asdict(self.dims),
            "model": asdict(self.settings),
            "flags": asdict(self.flags),
            "trigger_mode": self.trigger_mode,
        }


class BaselineModel(MariaModel):
    """Constructor preset for the baseline kinds; all logic is MariaModel's."""

    forward = MariaModel.forward  # bench/spans.py patches forward in this class's own namespace

    def __init__(self, graph, rng, vocab, schema, dims, settings, kind: str, trigger_mode: str):
        if kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINE_KINDS}")
        super().__init__(graph, rng, vocab, schema, dims, settings, AblationFlags(), trigger_mode, kind)


_SUMMARY_GROUPS = (
    ("embeddings", "bottom.tables."),
    ("sequence_encoder", "bottom.encoder."),
    ("trigger", "bottom.trigger"),
    ("feature_scaling", "adaptive.fs."),
    ("field_refinement", "adaptive.fr."),
    ("field_correlation", "adaptive.fcm."),
    ("mixture", "moe."),
    ("scenario_towers", "towers.scenario"),
    ("shared_tower", "towers.shared"),
    ("head", "head."),
)


def group_of_parameter(name: str) -> str:
    for group, prefix in _SUMMARY_GROUPS:
        if name.startswith(prefix):
            return group
    raise ValueError(f"parameter {name!r} matches no summary group")


def build_model(graph: Graph, cfg: RunConfig, kind: str = "maria", seed: int | None = None) -> MariaModel:
    """Construct a model of the given kind from a resolved run config."""
    rng = np.random.default_rng(cfg.train.seed if seed is None else seed)
    return MariaModel(graph, rng, cfg.vocab, cfg.schema, cfg.dims, cfg.model, cfg.flags, cfg.trigger_mode, kind)


def model_from_spec(graph: Graph, spec: dict, seed: int = 0) -> MariaModel:
    """Rebuild a model with the exact structure recorded by ``spec()``; a
    setting that a config file could not hold, or a flag that is unknown or
    not a bool, raises ConfigError naming its key."""
    raw = dict(spec["model"])
    raw["tower_dims"] = tuple(raw["tower_dims"])
    vocab, schema, dims = VocabSizes(**spec["vocab"]), FeatureSchema(**spec["schema"]), EmbedDims(**spec["dims"])
    settings = ModelSettings(**raw)
    check_records(vocab, schema, spec["trigger_mode"], dims, settings)
    known = vars(AblationFlags())
    for name, value in spec["flags"].items():
        if name not in known:
            raise ConfigError(f"flags.{name}: unknown flag; expected one of {', '.join(known)}")
        if type(value) is not bool:
            raise ConfigError(f"flags.{name}: {value!r} is not a bool")
    return MariaModel(
        graph, np.random.default_rng(seed), vocab, schema, dims, settings,
        AblationFlags(**spec["flags"]), spec["trigger_mode"], spec["kind"],
    )


def bce_loss(score: Value, labels: np.ndarray) -> Value:
    """Summed binary cross-entropy; predictions are clipped away from 0 and 1
    and every clipped entry bumps ``graph.clamp_events``. The upper bound is
    1 - 1e-12 in float64; in float32, where that rounds to 1.0 and log(1 - p)
    would be log 0, it is the largest float32 below 1."""
    graph = score.graph
    dtype = score.data.dtype
    lo = 1e-12
    hi = 1.0 - 1e-12 if dtype == np.float64 else float(np.nextafter(dtype.type(1.0), dtype.type(0.0)))
    graph.clamp_events += int(np.sum((score.data < lo) | (score.data > hi)))
    p = ad.clamp(score, lo, hi)
    y = graph.constant(np.asarray(labels, dtype=np.float64))
    log_p = ad.log(p)
    log_not = ad.log(ad.shift(ad.scale(p, -1.0), 1.0))
    not_y = ad.shift(ad.scale(y, -1.0), 1.0)
    ll = ad.add(ad.mul(y, log_p), ad.mul(not_y, log_not))
    return ad.scale(ad.sum_all(ll), -1.0)
