"""Scenario-adaptive feature transforms over a concatenated field vector.

The assembled input is a single (batch, width) vector made of the fields
behavior summary, user, target item, trigger and, when the schema has
context slots, context. A FieldLayout maps byte-for-byte where each field
and each feature element (one id embedding, one attribute embedding, ...)
lives. It is fixed when the model is built, and each transform below keeps
what it needs of it from its constructor:

* feature scaling: one learned multiplier per feature element, conditioned
  on a frozen view of the input plus user/item/scenario embeddings;
* field refinement: per field, a bank of compressing refiners with a
  scenario-conditioned selector (Gumbel-softmax sampled during training,
  argmax one-hot at evaluation);
* field correlation: fields projected to a shared width, all pairwise dot
  products appended as explicit interaction features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Value
from .layers import Fcn, glorot_uniform


@dataclass(frozen=True)
class FieldSpec:
    name: str
    offset: int
    element_widths: tuple[int, ...]

    @property
    def width(self) -> int:
        return sum(self.element_widths)


class FieldLayout:
    """Byte map of the concatenated vector: named fields laid end to end in
    the order given, each made of feature elements of the given widths."""

    def __init__(self, parts: Sequence[tuple[str, Sequence[int]]]):
        fields = []
        offset = 0
        for name, widths in parts:
            widths = tuple(widths)
            if not widths or min(widths) < 1:
                raise ValueError(f"field {name!r}: needs at least one element, each at least 1 wide")
            fields.append(FieldSpec(name, offset, widths))
            offset += sum(widths)
        self.fields = tuple(fields)
        self.width = offset
        self.element_widths = [w for f in self.fields for w in f.element_widths]

    @property
    def element_count(self) -> int:
        return len(self.element_widths)

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


class FeatureScaling:
    """Per-element multiplicative scaling, bounded by a configurable ceiling.

    The scale network sees a gradient-frozen copy of the assembled vector
    (so scaling cannot reshape the representation it conditions on) next to
    the live user, target-item and scenario embeddings. Each multiplier is
    ceiling * sigmoid(net output), hence in (0, ceiling).
    """

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        layout: FieldLayout,
        user_dim: int,
        item_dim: int,
        scenario_dim: int,
        hidden: int,
        ceiling: float = 2.0,
        name: str = "fs",
    ):
        self.ceiling = float(ceiling)
        self.widths = layout.element_widths
        in_dim = layout.width + user_dim + item_dim + scenario_dim
        self.net = Fcn(graph, rng, in_dim, [hidden, layout.element_count], ["relu", "linear"], f"{name}.net")

    def forward(self, q: Value, e_u: Value, e_x: Value, e_s: Value) -> tuple[Value, Value]:
        net_in = ad.concat([ad.stop_gradient(q), e_u, e_x, e_s], axis=-1)
        alpha = ad.scale(ad.sigmoid(self.net.forward(net_in)), self.ceiling)
        return ad.mul_groups(q, alpha, self.widths), alpha


def refiner_width(field_width: int, compression: float) -> int:
    return max(1, math.ceil(field_width * compression))


class FieldRefinement:
    """Per-field refiner banks with scenario-conditioned hard selection.

    Each refiner compresses its field through one affine+relu layer. A
    selector scores the refiners from [field || scenario embedding]; the
    sigmoid of those scores feeds the Gumbel-softmax directly. Training uses
    the sampled soft weights; evaluation picks argmax deterministically, so
    the slots of unselected refiners are exactly zero. A field with one
    refiner has no selector and draws no Gumbel noise: its weight would be
    exactly 1.0, so the field refines to its refiner's output.
    """

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        layout: FieldLayout,
        scenario_dim: int,
        refiner_counts: dict[str, int],
        compression: float = 0.5,
        temperature: float = 0.01,
        use_gumbel: bool = True,
        name: str = "fr",
    ):
        self.temperature = float(temperature)
        self.use_gumbel = use_gumbel
        self.fields = layout.fields
        self.counts: dict[str, int] = {}
        self.selectors: dict[str, Fcn] = {}
        self.refiners: dict[str, list[Fcn]] = {}
        self.out_widths: dict[str, int] = {}
        for f in layout.fields:
            n = refiner_counts[f.name]
            rw = refiner_width(f.width, compression)
            self.counts[f.name] = n
            if n > 1:
                self.selectors[f.name] = Fcn(
                    graph, rng, f.width + scenario_dim, [n], ["linear"], f"{name}.{f.name}.selector"
                )
            else:  # the unread draw keeps every later parameter's start where it was
                glorot_uniform(rng, (f.width + scenario_dim, n), f.width + scenario_dim, n)
            self.refiners[f.name] = [
                Fcn(graph, rng, f.width, [rw], ["relu"], f"{name}.{f.name}.refiner{k}") for k in range(n)
            ]
            self.out_widths[f.name] = n * rw

    @property
    def out_width(self) -> int:
        return sum(self.out_widths.values())

    def refine_field(
        self,
        field_name: str,
        field_value: Value,
        e_s: Value,
        mode: str,
        trace: dict | None = None,
    ) -> Value:
        if field_name not in self.selectors:
            if trace is not None and mode == "eval":
                trace.setdefault("refiner_choice", {})[field_name] = np.zeros(field_value.shape[:-1], dtype=np.intp)
            return self.refiners[field_name][0].forward(field_value)
        selector = self.selectors[field_name]
        scores = ad.sigmoid(selector.forward(ad.concat([field_value, e_s], axis=-1)))
        if not self.use_gumbel:
            beta = ad.softmax_last(scores)
        elif mode == "train":
            beta = ad.gumbel_softmax(scores, self.temperature)
        else:
            beta = ad.argmax_one_hot(scores)
        if trace is not None and mode == "eval":
            trace.setdefault("refiner_choice", {})[field_name] = beta.data.argmax(axis=-1)
        slots = []
        for k, refiner in enumerate(self.refiners[field_name]):
            slots.append(ad.mul(refiner.forward(field_value), ad.slice_last(beta, k, k + 1)))
        return ad.concat(slots, axis=-1)

    def forward(self, q_s: Value, e_s: Value, mode: str, trace: dict | None = None) -> Value:
        refined = []
        for f in self.fields:
            piece = ad.slice_last(q_s, f.offset, f.offset + f.width)
            refined.append(self.refine_field(f.name, piece, e_s, mode, trace))
        return ad.concat(refined, axis=-1)


class FieldCorrelation:
    """Pairwise dot products between fields projected to a common width."""

    def __init__(
        self,
        graph: Graph,
        rng: np.random.Generator,
        layout: FieldLayout,
        projection_dim: int,
        name: str = "fcm",
    ):
        self.projection_dim = projection_dim
        self.fields = layout.fields
        self.projections: dict[str, Fcn] = {
            f.name: Fcn(graph, rng, f.width, [projection_dim], ["linear"], f"{name}.{f.name}")
            for f in layout.fields
        }
        n = len(layout.fields)
        self.out_width = n * (n - 1) // 2

    def forward(self, q_s: Value) -> Value:
        projected = []
        for f in self.fields:
            piece = ad.slice_last(q_s, f.offset, f.offset + f.width)
            projected.append(self.projections[f.name].forward(piece))
        return ad.pair_dots(projected)


def adaptive_features(
    q: Value,
    e_u: Value,
    e_x: Value,
    e_s: Value,
    fs: FeatureScaling | None,
    fr: FieldRefinement | None,
    fcm: FieldCorrelation | None,
    mode: str,
    trace: dict | None = None,
) -> tuple[Value, Value | None]:
    """Compose scaling, refinement and correlation; any stage may be disabled.

    Returns the fused feature vector and the scale multipliers (None when
    scaling is off). Correlation reads the scaled fields, not the refined
    ones, so the two branches stay parallel.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"adaptive_features: mode must be 'train' or 'eval', got {mode!r}")
    alpha = None
    q_s = q
    if fs is not None:
        q_s, alpha = fs.forward(q, e_u, e_x, e_s)
    q_r = fr.forward(q_s, e_s, mode, trace) if fr is not None else q_s
    if fcm is not None:
        q_c = fcm.forward(q_s)
        return ad.concat([q_r, q_c], axis=-1), alpha
    return q_r, alpha
