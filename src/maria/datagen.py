"""Synthetic multi-scenario click-log generator.

Instances are drawn from a known ground-truth model so that ranking quality
has a computable ceiling: each scenario scores a masked, weighted sum of
per-element signals, squashes it through a sigmoid after adding noise, and
samples the binary label. Instance ``i`` of a run depends only on
``(seed, i)``, so any prefix of a dataset is stable under count changes.

Signals come from a keyed hash, not from the RNG, so the same user or item
carries the same latent value in every instance it appears in. That is what
makes the task learnable from embeddings.

Each instance draws, in a fixed order, from its own stream: that of
``default_rng([seed, i])``. The streams are seeded and stepped for all rows
at once, as columns of numpy's SeedSequence hash and PCG64 generator, and
their outputs become uniforms and bounded integers as numpy makes them
(``_draw_columns``). The normal noise, the label uniform after it, and the
rare row whose bounded draw numpy might reject, come from one numpy
generator whose state is set per row. Everything else is built once for all
rows, column by column: scenario and item ids, entity attributes and
signals (once per distinct user or item), the signal matrix, logits, labels
and the table. Scenario and item ids come from a search in cumulative sums
built once per run; the ids drawn and the stream state after them equal
those of ``rng.choice(n, size, p=...)``, which runs the same search inside.
The columns hold the bits that computing each instance on its own gives:
``tests/helpers.py`` keeps that per-instance generator as the reference.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import sys
from array import array
from dataclasses import asdict, dataclass, replace
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
    check_records,
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


@dataclass(frozen=True, eq=False)
class InstanceTable:
    """Instances column by column: the one in-memory form of an instance.
    Rows exist only as the JSON objects of the file format, which
    ``_table_of`` reads into columns and ``_objects_of`` writes back out.

    Row ``i``'s behaviour sequence, oldest first, is entries ``beh_start[i]``
    to ``beh_start[i] + beh_len[i]`` of the flat ``beh_items`` and
    ``beh_attrs``, which slices and gathers share: they copy only the per-row
    columns. A row's trigger is its ``trigger_kind`` (``TRIGGER_NONE``,
    ``TRIGGER_IMAGE`` or ``TRIGGER_PRODUCT``) with the payload in ``image_vec``
    or in ``trig_item`` and ``trig_attrs``; rows of the other kinds hold zeros
    there. Indexing with a slice, an index array or a mask gives a table; a
    scalar key is refused, so row ``i`` on its own is ``table[i:i + 1]``.
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

    def __len__(self) -> int:
        return len(self.label)

    def __getitem__(self, key) -> InstanceTable:
        if not isinstance(key, slice) and np.ndim(key) == 0:  # an int makes 0-d columns, a bool adds an axis
            raise TypeError(
                f"InstanceTable keys are slices, index arrays or masks, not {type(key).__name__}: "
                "row i on its own is table[i:i + 1]"
            )
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
    vocab: VocabSizes
    schema: FeatureSchema
    trigger_mode: str
    seed: int
    count: int
    scenario_counts: dict[int, int]
    positive_rates: dict[str, float]
    bayes_auc: dict[str, float | None]
    compat_digest: str
    profiles: tuple[ScenarioSettings, ...]


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


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (O'Neill, 2014),
# run on arrays of streams, one stream per row.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # the 128-bit LCG multiplier


def _entropy_rows(seed: int, count: int) -> np.ndarray:
    """Row ``i`` is ``[seed, i]`` as ``SeedSequence`` reads a list of ints:
    each int as its 32-bit words, least significant first, and 0 as one word
    (an index below 2**32 is one word). ``_seed_pcg64`` hashes these rows as
    ``SeedSequence`` hashes the list, so every row has the same width."""
    words = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    rows = np.empty((count, len(words) + 1), dtype=np.uint32)
    rows[:, :-1] = words
    rows[:, -1] = np.arange(count)
    return rows


def _seed_pcg64(entropy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state of ``PCG64(SeedSequence(row))`` for every row of the uint32
    ``entropy`` at once, as uint64 halves: (state high, state low, increment
    high, increment low). The hash constants follow only from the row width,
    so they are Python ints shared by all rows."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    words = list(entropy.T)
    pool = [hashmix(words[k] if k < len(words) else np.zeros(len(entropy), np.uint32)) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, halves = _INIT_B, []  # generate_state(4, uint64): eight words, two per uint64, low first
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, v2, v3 = (halves[2 * j] | halves[2 * j + 1] << 32 for j in range(4))
    inc_hi, inc_lo = v2 << 1 | v3 >> 63, v3 << 1 | 1  # inc = (v2:v3) << 1 | 1
    lo = inc_lo + seed_lo  # state = inc + seed, then one step
    hi, lo, _ = _pcg64_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the 128-bit LCG on uint64 halves, and the XSL-RR output
    of the new state: the next ``random_raw`` of each stream."""
    a0, a1 = lo & _M32, lo >> 32  # lo * _PCG_LO in full needs its 32-bit limbs
    p00, p01, p10 = a0 * (_PCG_LO & _M32), a0 * (_PCG_LO >> 32), a1 * (_PCG_LO & _M32)
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * (_PCG_LO >> 32) + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = hi * _PCG_LO + lo * _PCG_HI + carry + inc_hi + (new_lo < inc_lo)
    x, rot = new_hi ^ new_lo, new_hi >> 58
    return new_hi, new_lo, x >> rot | x << (64 - rot & 63)


def _unit(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Generator.random()`` of each 64-bit output."""
    return np.multiply(raw >> 11, 1.0 / 9007199254740992.0, out=out)


def _pcg64_state(state_hi: int, state_lo: int, inc_hi: int, inc_lo: int, has_uint32: int = 0, uinteger: int = 0) -> dict:
    """``PCG64.state`` of a 128-bit state and increment given as 64-bit halves."""
    return {
        "bit_generator": "PCG64", "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": has_uint32, "uinteger": uinteger,
    }


def _lemire(raw: np.ndarray, half: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``integers(0, bound)`` from the low (``half`` 0) or high 32 bits of
    each output by Lemire's method (ACM TOMACS, 2019), and the rows whose
    draw numpy would test for rejection: those whose product's low half is
    below ``bound``. A bound of 2**32 or more flags every row, since every
    low half is below it; numpy draws a bound above 2**32 from 64 bits."""
    bound = min(bound, 2**32)
    product = (raw >> 32 if half else raw & _M32) * bound
    return (product >> 32).astype(np.int64), (product & _M32) < bound


def _draw_columns(cfg: RunConfig, share_cdf: np.ndarray, kinds: np.ndarray, noise_std: np.ndarray):
    """Every instance's draws from the stream of ``default_rng([seed, i])``,
    in this order: the scenario uniform, the user, the behaviour length, the
    uniforms of the behaviour items, the target and a product trigger (each
    row's ``length + 1 + product`` of them in ``flat``, row after row), the
    image vector, the context ids, the noise and the label uniform. ``kinds``
    and ``noise_std`` hold each scenario's trigger kind code and noise.

    The streams are seeded and stepped as columns, and their outputs become
    draws as numpy makes them: ``random()`` as ``_unit``, ``uniform(-1, 1)``
    as ``-1 + 2 * random()``, and a bounded integer by ``_lemire`` over 32-bit
    halves, where a fresh output gives its low half and keeps the high half
    for the next bounded draw (a uniform never touches that half, and a range
    of 1 draws nothing). One numpy generator, its state set per row, makes
    the rest: the normal noise and the label uniform after it, since numpy
    keeps the ziggurat tables in C, and the whole of any row that ``_lemire``
    flags.
    """
    vocab, schema = cfg.vocab, cfg.schema
    n, max_len, image_dim = cfg.gen_count, schema.max_behavior_len, schema.image_dim
    head = [b for b in (vocab.users, max_len) if b > 1]  # the ranges of the bounded draws before the uniforms
    bounds = head + ([vocab.context_attrs] * schema.context_attr_count if vocab.context_attrs > 1 else [])
    lead, words = (len(head) + 1) // 2, (len(bounds) + 1) // 2  # outputs their halves take: the head's, all

    seeded = _seed_pcg64(_entropy_rows(cfg.gen_seed, n))
    hi, lo, inc_hi, inc_lo = seeded
    first = []
    for _ in range(1 + lead):  # the scenario uniform and the output the head's halves take, if any
        hi, lo, out = _pcg64_step(hi, lo, inc_hi, inc_lo)
        first.append(out)
    scenario = share_cdf.searchsorted(_unit(first[0]), side="right")
    head_draws = [_lemire(first[1], half, bound) for half, bound in enumerate(head)]
    user = head_draws[0][0] if vocab.users > 1 else np.zeros(n, dtype=np.int64)
    beh_len = 1 + head_draws[-1][0] if max_len > 1 else np.ones(n, dtype=np.int64)
    whole = np.zeros(n, dtype=bool)  # rows numpy draws from the start
    for _, flagged in head_draws:
        whole |= flagged
    kind = kinds[scenario]
    size = beh_len + 1 + (kind == TRIGGER_PRODUCT)
    tail_at = 1 + lead + size + image_dim * (kind == TRIGGER_IMAGE)  # the first output after the uniforms
    after = tail_at + words - lead  # outputs before the noise
    noisy = noise_std[scenario] > 0
    steps = (after + ~noisy).max(initial=len(first))  # a noise-free row's label is the output after them
    state_hi, state_lo = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)  # the state at the noise
    raw = np.empty((steps, n), dtype=np.uint64)  # step k's outputs are row k; used transposed
    raw[:len(first)] = first
    for k in range(len(first), steps):
        hi, lo, raw[k] = _pcg64_step(hi, lo, inc_hi, inc_lo)
        at = after == k + 1
        state_hi[at], state_lo[at] = hi[at], lo[at]
    raw, rows = raw.T, np.arange(n)

    def word(q: int) -> np.ndarray:
        """The output that bounded draws 2q and 2q + 1 take their halves from."""
        return raw[:, 1 + q] if q < lead else raw[rows, tail_at + q - lead]

    uniforms = np.empty((n, max_len + 2))  # entries past a row's own uniforms are never read
    width = min(max_len + 2, steps - 1 - lead)
    _unit(raw[:, 1 + lead:1 + lead + width], out=uniforms[:, :width])
    image_vec = np.zeros((n, image_dim))
    image_rows = np.flatnonzero(kind == TRIGGER_IMAGE)
    image_at = (1 + lead + size[image_rows])[:, None] + np.arange(image_dim)
    image_vec[image_rows] = -1.0 + 2.0 * _unit(raw[image_rows[:, None], image_at])
    context = np.zeros((n, schema.context_attr_count), dtype=np.int64)
    for j in range(len(head), len(bounds)):
        context[:, j - len(head)], flagged = _lemire(word(j // 2), j % 2, bounds[j])
        whole |= flagged
    noise, label_draws = np.zeros(n), np.empty(n)
    quiet = np.flatnonzero(~noisy)
    label_draws[quiet] = _unit(raw[quiet, after[quiet]])

    rng = np.random.Generator(np.random.PCG64(0))  # its state is set per row
    bitgen = rng.bit_generator
    odd = len(bounds) % 2  # then the last bounded draw left its output's high half buffered
    buffered = word(words - 1) >> 32 if odd else np.zeros(n, dtype=np.uint64)
    numpy_noise = np.flatnonzero(noisy & ~whole)
    draws = array("d")  # raw doubles: a list of Python floats would leave its heap behind
    for block in np.split(numpy_noise, range(1024, len(numpy_noise), 1024)):  # few Python ints at a time
        for *state, high in zip(*(c[block].tolist() for c in (state_hi, state_lo, inc_hi, inc_lo, buffered))):
            bitgen.state = _pcg64_state(*state, odd, high)
            draws.append(rng.standard_normal())
            draws.append(rng.random())
    z, label_draws[numpy_noise] = np.frombuffer(draws).reshape(-1, 2).T
    noise[numpy_noise] = 0.0 + noise_std[scenario[numpy_noise]] * z  # what normal(0, std) computes
    for i, *state in zip(*(c[whole].tolist() for c in (rows, *seeded))):
        bitgen.state = _pcg64_state(*state)
        scenario[i] = sid = share_cdf.searchsorted(rng.random(), side="right")
        user[i] = rng.integers(0, vocab.users)
        beh_len[i] = length = rng.integers(1, max_len + 1)
        rng.random(out=uniforms[i, :length + 1 + (kinds[sid] == TRIGGER_PRODUCT)])
        if kinds[sid] == TRIGGER_IMAGE:
            image_vec[i] = rng.uniform(-1.0, 1.0, image_dim)
        context[i] = rng.integers(0, vocab.context_attrs, size=schema.context_attr_count)
        if noise_std[sid] > 0:
            noise[i] = rng.normal(0.0, noise_std[sid])
        label_draws[i] = rng.random()
    size = beh_len + 1 + (kinds[scenario] == TRIGGER_PRODUCT)
    flat = uniforms[np.arange(max_len + 2) < size[:, None]]
    return scenario, user, beh_len, flat, image_vec, context, noise, label_draws


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
    n = cfg.gen_count
    shares = np.array([p.traffic_share for p in profiles], dtype=np.float64)
    share_cdf = _cdf(shares / shares.sum(), "traffic_share")

    pop_logits = np.array(
        [[stable_unit("pop", p.scenario_id, it) for it in range(vocab.items)] for p in profiles]
    )
    item_cdfs = []
    for p, row in zip(profiles, pop_logits):
        tilted = np.exp(p.behavior_tilt * row - np.max(p.behavior_tilt * row))
        item_cdfs.append(_cdf(tilted / tilted.sum(), f"scenario.{p.scenario_id} item popularity"))

    kinds = np.array([_KIND_CODES.get(p.trigger_kind, TRIGGER_NONE) for p in profiles], dtype=np.int8)
    noise_std = np.array([p.noise_std for p in profiles], dtype=np.float64)
    draws = _draw_columns(cfg, share_cdf, kinds, noise_std)
    scenario, user, beh_len, flat, image_vec, context, noise, label_draws = draws
    trigger_kind = kinds[scenario]
    sizes = beh_len + 1 + (trigger_kind == TRIGGER_PRODUCT)
    first = np.cumsum(sizes) - sizes
    ids = np.empty(len(flat), dtype=np.int64)
    flat_sid = np.repeat(scenario, sizes)
    for sid, item_cdf in enumerate(item_cdfs):
        at = flat_sid == sid
        ids[at] = item_cdf.searchsorted(flat[at], side="right")
    beh_items = ids[np.arange(len(flat)) - np.repeat(first, sizes) < np.repeat(beh_len, sizes)]
    target = ids[first + beh_len]

    unit = lru_cache(maxsize=None)(stable_unit)
    item_signal = np.array([stable_unit("item", it) for it in range(vocab.items)])
    attr_sizes = {
        "uattr": (schema.user_attr_count, vocab.user_attrs),
        "iattr": (schema.item_attr_count, vocab.item_attrs),
        "tattr": (schema.trigger_attr_count, vocab.trigger_attrs),
    }

    def entities(kind: str, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per key, the attribute ids of a user or item, and the signals of it
        and of them; each distinct key is hashed once."""
        count, size = attr_sizes[kind]
        uniq, inverse = np.unique(keys, return_inverse=True)
        attrs = [_attr_ids(kind, key, count, size) for key in uniq.tolist()]
        heads = [unit("user", key) for key in uniq.tolist()] if kind == "uattr" else item_signal[uniq].tolist()
        signals = [[head, *(unit(kind, a) for a in row)] for head, row in zip(heads, attrs)]
        return (
            np.array(attrs, dtype=np.int64).reshape(len(uniq), count)[inverse],
            np.array(signals, dtype=np.float64).reshape(len(uniq), count + 1)[inverse],
        )

    user_attrs, user_signals = entities("uattr", user)
    item_attrs, item_signals = entities("iattr", np.concatenate([beh_items, target]))
    beh_attrs, target_attrs = np.split(item_attrs, [len(beh_items)])
    target_signals = item_signals[len(beh_items):]

    beh_start = np.cumsum(beh_len) - beh_len
    beh_mean = np.empty(n)
    beh_signal = item_signal[beh_items]
    for length in np.unique(beh_len).tolist():
        rows = np.flatnonzero(beh_len == length)
        # np.mean's pairwise sum over each row; a running sum differs from it
        # in the last bit once a sequence holds 8 or more items.
        beh_mean[rows] = beh_signal[beh_start[rows, None] + np.arange(length)].sum(axis=1) / length

    trigger_signals = np.zeros((n, 1 + schema.trigger_attr_count))  # the head, then the trigger attrs
    none = trigger_kind == TRIGGER_NONE
    trigger_signals[none, 0] = target_signals[none, 0]
    image_rows = np.flatnonzero(trigger_kind == TRIGGER_IMAGE)
    trigger_signals[image_rows, 0] = image_vec[image_rows].sum(axis=1) / schema.image_dim
    trig_item = np.zeros(n, dtype=np.int64)
    trig_attrs = np.zeros((n, schema.trigger_attr_count), dtype=np.int64)
    product_rows = np.flatnonzero(trigger_kind == TRIGGER_PRODUCT)
    trig_item[product_rows] = ids[first[product_rows] + beh_len[product_rows] + 1]
    trig_attrs[product_rows], trigger_signals[product_rows] = entities("tattr", trig_item[product_rows])

    keys, inverse = np.unique(context.ravel(), return_inverse=True)
    context_signals = np.array([unit("cattr", a) for a in keys.tolist()], dtype=np.float64)[inverse]

    phi = np.concatenate(
        [beh_mean[:, None], user_signals, target_signals, trigger_signals, context_signals.reshape(context.shape)],
        axis=1,
    )

    clean_logit = np.empty(n)
    for sid, p in enumerate(profiles):
        rows = np.flatnonzero(scenario == sid)
        masked = np.asarray(p.field_importance, dtype=np.float64) * phi[rows]
        weights = np.asarray(p.label_weights, dtype=np.float64)[:, None]
        # One dot product per row, as each row's weights @ (mask * phi) took;
        # a matrix-vector product rounds differently.
        clean_logit[rows] = np.matmul(masked[:, None, :], weights)[:, 0, 0] + p.label_bias
    noisy = np.where(noise_std[scenario] > 0, clean_logit + noise, clean_logit)
    label = (label_draws < 1.0 / (1.0 + np.exp(-noisy))).astype(np.int64)
    clean_probs = 1.0 / (1.0 + np.exp(-clean_logit))

    instances = InstanceTable(
        scenario=scenario, user=user, user_attrs=user_attrs, beh_start=beh_start, beh_len=beh_len,
        beh_items=beh_items, beh_attrs=beh_attrs, target_item=target, target_attrs=target_attrs,
        trigger_kind=trigger_kind, image_vec=image_vec, trig_item=trig_item, trig_attrs=trig_attrs,
        context=context, label=label,
    )
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
        vocab=cfg.vocab,
        schema=cfg.schema,
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

def _objects_of(table: InstanceTable):
    """Each row of ``table``, in order, as the JSON object of its line: the
    inverse of ``_table_of``. Every value is a Python int, float or list."""
    pos = table._behavior_positions()
    pairs = list(map(list, zip(table.beh_items[pos].tolist(), table.beh_attrs[pos].tolist())))
    triggers = (
        None if kind == TRIGGER_NONE else {"kind": "image", "vec": vec} if kind == TRIGGER_IMAGE
        else {"kind": "product", "item": item, "attrs": attrs}
        for kind, vec, item, attrs in zip(
            table.trigger_kind.tolist(), table.image_vec.tolist(), table.trig_item.tolist(), table.trig_attrs.tolist()
        )
    )
    rows = zip(
        table.scenario.tolist(), table.user.tolist(), table.user_attrs.tolist(), table.beh_len.tolist(),
        table.target_item.tolist(), table.target_attrs.tolist(), triggers, table.context.tolist(), table.label.tolist(),
    )
    start = 0
    for scenario, user, user_attrs, length, target, target_attrs, trigger, context, label in rows:
        yield {
            "scenario": scenario, "user": user, "user_attrs": user_attrs, "behavior": pairs[start:start + length],
            "target_item": target, "target_attrs": target_attrs, "trigger": trigger, "context": context,
            "label": label,
        }
        start += length


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

    A manifest whose ``count`` or ``scenario_counts`` differ from the rows'
    raises ValueError, naming both, before either file is opened.
    """
    path = Path(path)
    m, scenario = dataset.manifest, dataset.instances.scenario
    per = {int(s): int(n) for s, n in zip(*np.unique(scenario, return_counts=True))}
    if len(scenario) != m.count or per != {s: n for s, n in m.scenario_counts.items() if n}:
        raise ValueError(
            f"write_jsonl: {len(scenario)} instances with scenario counts {per}, "
            f"but the manifest says {m.count} with {m.scenario_counts}"
        )
    manifest = (json.dumps(manifest_to_json(m), indent=2) + "\n").encode("utf-8")
    with atomic_writer(manifest_path(path)) as mfh:
        with atomic_writer(path) as fh:
            encode = json.JSONEncoder(separators=(",", ":")).encode
            fh.writelines((encode(obj) + "\n").encode("utf-8") for obj in _objects_of(dataset.instances))
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
    vocab, schema = manifest.vocab, manifest.schema
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
    vocab, schema = manifest.vocab, manifest.schema
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
    whose settings a config file could not hold (``config.check_records``),
    whose profiles' scenario ids are not 0..``vocab.scenarios`` - 1 each
    once, whose stored compatibility digest is not the one its own
    vocabulary, schema and trigger mode give, or whose profiles name a
    trigger kind that the trigger mode does not allow, raises DataError
    naming the manifest path."""
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
                **p | {"field_importance": tuple(p["field_importance"]), "label_weights": tuple(p["label_weights"])}
            )
            for p in doc["profiles"]
        )
        manifest = DatasetManifest(
            vocab=VocabSizes(**doc["vocab"]),
            schema=FeatureSchema(**doc["schema"]),
            trigger_mode=doc["trigger_mode"],
            seed=doc["seed"],
            count=doc["count"],
            scenario_counts={int(k): v for k, v in doc["scenario_counts"].items()},
            positive_rates=doc["positive_rates"],
            bayes_auc=doc["bayes_auc"],
            compat_digest=doc["compat_digest"],
            profiles=profiles,
        )
        if type(manifest.count) is not int:
            raise TypeError(f"count must be an integer, not {manifest.count!r}")
        if not all(type(p.scenario_id) is int for p in profiles):
            raise TypeError("profile scenario ids must be integers")
        check_records(manifest.vocab, manifest.schema, manifest.trigger_mode, profiles=profiles)
        ids = sorted(p.scenario_id for p in profiles)
        if ids != list(range(manifest.vocab.scenarios)):
            raise ValueError(f"profile scenario ids {ids} are not 0..{manifest.vocab.scenarios - 1}, each once")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{mpath}: malformed manifest ({type(exc).__name__}: {exc})") from exc
    if compat_digest_parts(vars(manifest.vocab), vars(manifest.schema), manifest.trigger_mode) != manifest.compat_digest:
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
    vocab, schema = manifest.vocab, manifest.schema
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
    vocab, schema = manifest.vocab, manifest.schema
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
