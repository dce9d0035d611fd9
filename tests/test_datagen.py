"""Generator determinism, ground-truth behavior, and file round-trips."""

import collections
import dataclasses
import functools
import hashlib
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_generate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maria import autodiff as ad
from maria import datagen
from maria.benchmark import benchmark_config
from maria.config import ConfigError, build_run_config
from maria.datagen import DataError


def small_cfg(**over):
    base = {
        "vocab.users": "30", "vocab.items": "50", "vocab.user_attrs": "15",
        "vocab.item_attrs": "15", "vocab.trigger_attrs": "10", "vocab.context_attrs": "10",
        "gen.count": "400", "gen.seed": "3",
    }
    base.update(over)
    return build_run_config(base)


def test_scenario_shares_respected():
    cfg = small_cfg(**{
        "gen.count": "800",
        "scenario.0.traffic_share": "0.8",
        "scenario.1.traffic_share": "0.2",
    })
    dataset, _ = datagen.generate(cfg)
    counts = dataset.manifest.scenario_counts
    assert counts[0] + counts[1] == 800
    assert abs(counts[1] / 800 - 0.2) < 0.06


def test_generation_is_deterministic_and_prefix_stable():
    cfg = small_cfg(**{"gen.count": "100"})
    a, probs_a = datagen.generate(cfg)
    b, probs_b = datagen.generate(cfg)
    assert a.instances == b.instances
    assert np.array_equal(probs_a, probs_b)

    shorter, probs_s = datagen.generate(small_cfg(**{"gen.count": "40"}))
    assert shorter.instances == a.instances[:40]
    assert np.array_equal(probs_s, probs_a[:40])


def test_zero_weights_give_coin_flip_labels():
    n_q = 2 + 2 + 1 + 2 + 4
    zeros = ",".join("0" for _ in range(n_q))
    cfg = small_cfg(**{
        "gen.count": "600",
        "scenario.0.label_weights": zeros, "scenario.1.label_weights": zeros,
        "scenario.0.noise_std": "0", "scenario.1.noise_std": "0",
    })
    dataset, clean = datagen.generate(cfg)
    assert np.all(clean == 0.5)
    assert abs(dataset.manifest.positive_rates["overall"] - 0.5) < 0.07
    assert dataset.manifest.bayes_auc["overall"] is None or abs(dataset.manifest.bayes_auc["overall"] - 0.5) < 0.1


def test_label_bias_shifts_positive_rate():
    cfg_hi = small_cfg(**{"scenario.0.label_bias": "2.0", "scenario.1.label_bias": "2.0"})
    cfg_lo = small_cfg(**{"scenario.0.label_bias": "-2.0", "scenario.1.label_bias": "-2.0"})
    hi, _ = datagen.generate(cfg_hi)
    lo, _ = datagen.generate(cfg_lo)
    assert hi.manifest.positive_rates["overall"] > lo.manifest.positive_rates["overall"] + 0.3


def test_noise_degrades_achievable_auc():
    quiet = small_cfg(**{
        "gen.count": "3000",
        "scenario.0.noise_std": "0", "scenario.1.noise_std": "0",
    })
    loud = small_cfg(**{
        "gen.count": "3000",
        "scenario.0.noise_std": "3.0", "scenario.1.noise_std": "3.0",
    })
    quiet_ds, _ = datagen.generate(quiet)
    loud_ds, _ = datagen.generate(loud)
    assert quiet_ds.manifest.bayes_auc["overall"] > loud_ds.manifest.bayes_auc["overall"] + 0.03
    assert quiet_ds.manifest.bayes_auc["overall"] > 0.8


def test_sigmoids_saturate_without_overflow_warnings():
    cfg = small_cfg(**{"gen.count": "50", "scenario.0.label_bias": "-800", "scenario.1.label_bias": "800"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dataset, clean_probs = datagen.generate(cfg)
        out = ad.sigmoid(ad.Graph(seed=0).parameter([-800.0, 0.0, 800.0])).data
    labels = {}
    for obj in datagen._objects_of(dataset.instances):
        labels.setdefault(obj["scenario"], set()).add(obj["label"])
    assert labels == {0: {0}, 1: {1}}
    assert set(clean_probs.tolist()) == {0.0, 1.0}
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_auto_importance_masks_are_disjoint():
    cfg = small_cfg(**{"vocab.scenarios": "3"})
    stacked = np.array([sc.field_importance for sc in cfg.scenarios])
    assert stacked.shape == (3, cfg.schema.element_count)
    assert np.all(stacked.sum(axis=0) == 1.0)  # each element belongs to exactly one scenario
    with pytest.raises(ConfigError, match="field_importance"):
        small_cfg(**{"scenario.0.field_importance": "1,0"})


def test_instances_respect_vocab_and_schema():
    cfg = small_cfg()
    dataset, _ = datagen.generate(cfg)
    for obj in datagen._objects_of(dataset.instances[:50]):
        assert 0 <= obj["user"] < cfg.vocab.users
        assert len(obj["user_attrs"]) == cfg.schema.user_attr_count
        assert 1 <= len(obj["behavior"]) <= cfg.schema.max_behavior_len
        assert all(0 <= it < cfg.vocab.items for it, _ in obj["behavior"])
        assert obj["trigger"]["kind"] == "product"
        assert len(obj["trigger"]["attrs"]) == cfg.schema.trigger_attr_count
        assert len(obj["context"]) == cfg.schema.context_attr_count
        assert obj["label"] in (0, 1)


def test_image_and_recommendation_modes():
    img_cfg = small_cfg(**{
        "scenario.0.trigger_kind": "image", "scenario.1.trigger_kind": "image",
        "dim.trigger": "8", "schema.image_dim": "8", "gen.count": "30",
    })
    img_ds, _ = datagen.generate(img_cfg)
    triggers = [o["trigger"] for o in datagen._objects_of(img_ds.instances)]
    assert all(t["kind"] == "image" and len(t["vec"]) == 8 for t in triggers)

    rec_cfg = small_cfg(**{
        "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0", "gen.count": "30",
    })
    rec_ds, _ = datagen.generate(rec_cfg)
    assert rec_ds.manifest.trigger_mode == "recommendation"
    assert all(o["trigger"] is None for o in datagen._objects_of(rec_ds.instances))


_MIXES = {
    "product": {},
    "image_product": {"scenario.0.trigger_kind": "image", "dim.trigger": "8", "schema.image_dim": "8"},
    "recommendation": {
        "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none", "schema.trigger_attrs": "0",
    },
}


@pytest.mark.parametrize("mix, gathered", [
    ("product", False), ("image_product", False), ("recommendation", False), ("image_product", True),
], ids=["product", "image_product", "recommendation", "gathered"])
def test_write_read_round_trip(tmp_path, mix, gathered):
    cfg = small_cfg(**{"gen.count": "120", **_MIXES[mix]})
    dataset, _ = datagen.generate(cfg)
    if gathered:  # every third row, last first: the rows' behaviour entries are not in row order
        rows = dataset.instances[np.arange(0, 120, 3)[::-1]]
        counts = {s: int(np.sum(rows.scenario == s)) for s in dataset.manifest.scenario_counts}
        dataset = datagen.Dataset(dataclasses.replace(dataset.manifest, count=len(rows), scenario_counts=counts), rows)
    path = tmp_path / "train.jsonl"
    datagen.write_jsonl(dataset, path)
    assert (tmp_path / "train.jsonl.manifest.json").exists()
    loaded = datagen.read_jsonl(path)
    assert loaded.instances == dataset.instances
    assert loaded.manifest == dataset.manifest
    manifest = datagen.read_manifest(path)
    assert (manifest.vocab, manifest.schema) == (cfg.vocab, cfg.schema)  # the records, not their dicts


def test_a_manifest_that_does_not_count_the_rows_is_refused_before_any_file_opens(tmp_path):
    dataset, _ = datagen.generate(small_cfg(**{"gen.count": "60"}))
    m, rows = dataset.manifest, dataset.instances
    sliced = datagen.Dataset(m, rows[:20])
    swapped = dict(zip(m.scenario_counts, reversed(m.scenario_counts.values())))
    assert swapped != m.scenario_counts
    for bad, says in [
        (sliced, "20 instances with scenario counts .* but the manifest says 60"),
        (datagen.Dataset(dataclasses.replace(m, scenario_counts=swapped), rows), "60 instances .* says 60 with"),
    ]:
        with pytest.raises(ValueError, match=says):
            datagen.write_jsonl(bad, tmp_path / "d.jsonl")
        assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_the_old_data_and_manifest(tmp_path, monkeypatch):
    path = tmp_path / "train.jsonl"
    old, _ = datagen.generate(small_cfg(**{"gen.count": "30"}))
    datagen.write_jsonl(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new, _ = datagen.generate(small_cfg(**{"gen.count": "40", "gen.seed": "9"}))

    real = datagen._objects_of

    def fail_midway(table):
        for k, obj in enumerate(real(table)):
            if k == 20:
                raise RuntimeError("midway")
            yield obj

    monkeypatch.setattr(datagen, "_objects_of", fail_midway)
    with pytest.raises(RuntimeError, match="midway"):
        datagen.write_jsonl(new, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert datagen.read_jsonl(path).instances == old.instances

    monkeypatch.setattr(datagen, "_objects_of", real)
    datagen.write_jsonl(new, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl", "train.jsonl.manifest.json"]
    assert datagen.read_jsonl(path).manifest == new.manifest


def test_written_dataset_and_manifest_bytes_are_pinned(tmp_path):
    # A small image/product dataset and its manifest, byte for byte: the keyed
    # hashes, the attribute catalogs and serialization must all leave them be.
    dataset, _ = datagen.generate(small_cfg(**{"gen.count": "64", "scenario.0.trigger_kind": "image"}))
    path = tmp_path / "pin.jsonl"
    datagen.write_jsonl(dataset, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "07d0e110de13cbc8f4353dab7e215d001c76916bcc65676edab1fe740b50afae"
    )
    assert hashlib.sha256(datagen.manifest_path(path).read_bytes()).hexdigest() == (
        "790a90e5014de13a804994bd4e0f058d2b25b92c4311577ec15008e7e1973cc3"
    )


# (recipe, data file sha256, manifest sha256, clean_probs.tobytes() sha256)
_GENERATION_PINS = [
    (lambda: benchmark_config(512, 7),
     "3fe894cd71986a2fdd826ab380059b2b5d0d25c33c2312e7d88ab7eb9da82aa7",
     "a8463e503d6d850749e6abc3ca3ebb4613d0d7aeecbe2c3e71ba36635099a3db",
     "0874c8fce655088aacc6b8bd478c4edb6ba2b9faded59bd1c5b2ddde14ae25b0"),
    (lambda: small_cfg(**{
        "gen.count": "200", "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0",
    }),
     "7d645814ecb1acb717f3720d9726f46fceb346b52b8f13bd4b638a30c5d7d08a",
     "99daca2a9e87c0c848d0b05d8ac3cf1196149bf7baf446d67133dcc274a0b120",
     "642f85025a07877cf39d4d09742a8a5ebb2c0bcefeb0b5a480a4a0371eca341d"),
    (lambda: small_cfg(**{"gen.count": "200", "scenario.0.noise_std": "0", "scenario.1.trigger_kind": "image"}),
     "187101db11c1781d7070a50fff31ff662faa8ebf1469456d7367b89e7c50c45d",
     "ff8e1951685bd65096d9709626266a3c3d627f28b974f148b1abb967a1999f60",
     "7ff45cf1fa74899855c887729128e8609ff83404dbf84ffd3fef650edc5a2302"),
    # Fractional masks: weights @ (masks * phi) rounds differently from a
    # product with weights pre-multiplied by the masks.
    (lambda: small_cfg(**{
        "gen.count": "200",
        "scenario.0.field_importance": "0.3,0.7,0.1,0.9,0.35,0.65,0.2,0.8,0.45,0.55,0.15",
        "scenario.1.field_importance": "0.6,0.4,0.85,0.15,0.5,0.25,0.75,0.05,0.95,0.33,0.67",
    }),
     "892c8edaf88bcdbea369e3e790feed00969e5c6e127b315ad3b5fe60b4fcae91",
     "e2aac935bf8d358e27fbdc2290a19a8cc87cd430867afcfd9d81c679f4a47f34",
     "cc79a5f78bacee631562f43b34afc71300a74b7019e438b15be4dacdebf64560"),
    # Behaviour sequences up to 10 long: the behaviour mean must be np.mean's
    # pairwise sum, which a running sum matches only below 8 values.
    (lambda: small_cfg(**{"gen.count": "300", "schema.max_behavior": "10"}),
     "1ea2161101ac3d0b63e57e5bf49a35a1b93042d3574bd47f6b3008ba2ae8fe2d",
     "14fe8ab5a3291b345e3b2366496ad5d5162c3c23a9126faf338cdb50002523b3",
     "697ad3b92d5d352cbf453ad3b4c380f953b59421b5d25f7a3882326622969118"),
]


@pytest.mark.parametrize(
    "make_cfg, data_sha, manifest_sha, probs_sha", _GENERATION_PINS,
    ids=["benchmark", "trigger_free", "noise_free", "fractional_importance", "long_behavior"],
)
def test_generated_bytes_are_pinned(tmp_path, make_cfg, data_sha, manifest_sha, probs_sha):
    dataset, clean_probs = datagen.generate(make_cfg())
    path = tmp_path / "pin.jsonl"
    datagen.write_jsonl(dataset, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == data_sha
    assert hashlib.sha256(datagen.manifest_path(path).read_bytes()).hexdigest() == manifest_sha
    assert hashlib.sha256(clean_probs.tobytes()).hexdigest() == probs_sha


@st.composite
def _recipes(draw):
    """Config overrides of a small recipe: recommendation or search mode with
    an image/product mix, attribute and context slots down to 0, sequences up
    to 12 long, noise-free scenarios, and counts down to 0 and 1."""
    scenarios = draw(st.integers(1, 4))
    search = draw(st.booleans())
    slots = st.integers(0, 3).map(str)
    image_dim = str(draw(st.integers(1, 9)))
    over = {
        "vocab.scenarios": str(scenarios),
        **{f"vocab.{k}": str(draw(st.integers(1, 30))) for k in ("users", "items", "user_attrs", "item_attrs",
                                                                    "trigger_attrs", "context_attrs")},
        "schema.user_attrs": draw(slots), "schema.item_attrs": draw(slots), "schema.context_attrs": draw(slots),
        "schema.trigger_attrs": draw(st.integers(0, 2).map(str)) if search else "0",
        "schema.max_behavior": str(draw(st.integers(1, 12))),
        "schema.image_dim": image_dim, "dim.trigger": image_dim,
        "gen.count": str(draw(st.sampled_from([0, 1]) | st.integers(2, 60))),
        # One word, two or three, or more than SeedSequence's pool of four holds
        "gen.seed": str(draw(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**70) | st.integers(2**96, 2**200))),
    }
    for s in range(scenarios):
        over[f"scenario.{s}.trigger_kind"] = draw(st.sampled_from(["image", "product"])) if search else "none"
        over[f"scenario.{s}.noise_std"] = draw(st.sampled_from(["0", "0.5", "3"]))
        over[f"scenario.{s}.label_bias"] = draw(st.sampled_from(["0", "-1.5", "800", "-800"]))
        over[f"scenario.{s}.behavior_tilt"] = draw(st.sampled_from(["0", "1", "4"]))
    if scenarios > 1 and draw(st.booleans()):
        over["scenario.0.traffic_share"] = "1e-9"  # a scenario that draws no rows
    if draw(st.booleans()):
        n_q = build_run_config(over).schema.element_count
        for s in range(scenarios):
            fractions = st.lists(st.sampled_from(["0", "0.15", "0.35", "0.5", "0.9", "1"]), min_size=n_q, max_size=n_q)
            over[f"scenario.{s}.field_importance"] = ",".join(draw(fractions))
    return over


@settings(max_examples=80, deadline=None)
@given(over=_recipes())
@example(over={"gen.count": "0"})
@example(over={"gen.count": "5", "gen.seed": str(2**64 + 7)})
@example(over={"gen.count": "5", "gen.seed": str(2**160 + 2**96 + 11)})
@example(over={"gen.count": "30", "vocab.users": str(2**32 + 1)})  # numpy draws this range from 64 bits
@example(over={"gen.count": "1", "vocab.scenarios": "3"})
@example(over={"gen.count": "40", "scenario.0.traffic_share": "1e-9", "scenario.1.trigger_kind": "image"})
@example(over={"gen.count": "60", "schema.max_behavior": "12", "scenario.0.noise_std": "0"})
def test_generate_equals_the_per_instance_reference(over):
    # generate draws per instance and builds the columns once; the reference
    # computes every instance on its own. Columns, clean_probs and manifest
    # must match bit for bit.
    cfg = build_run_config(over)
    (dataset, probs), (want, want_probs) = datagen.generate(cfg), reference_generate(cfg)
    for name in datagen.InstanceTable._ROW_COLUMNS + ("beh_items", "beh_attrs"):
        got, ref = getattr(dataset.instances, name), getattr(want.instances, name)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), name
    assert (probs.dtype, probs.tobytes()) == (want_probs.dtype, want_probs.tobytes())
    assert json.dumps(datagen.manifest_to_json(dataset.manifest)) == json.dumps(datagen.manifest_to_json(want.manifest))


def _assert_equals_reference(cfg):
    # The fuzz's comparison, for a config it cannot reach by overrides alone.
    (dataset, probs), (want, want_probs) = datagen.generate(cfg), reference_generate(cfg)
    for name in datagen.InstanceTable._ROW_COLUMNS + ("beh_items", "beh_attrs"):
        got, ref = getattr(dataset.instances, name), getattr(want.instances, name)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), name
    assert (probs.dtype, probs.tobytes()) == (want_probs.dtype, want_probs.tobytes())


@pytest.mark.parametrize(
    "seed", [0, *(int("9E3779B9" * words, 16) for words in range(1, 6))], ids=["0", *(f"{w}words" for w in range(1, 6))]
)
def test_seeded_streams_equal_default_rng(seed):
    # SeedSequence hashes one to five words of seed plus the index; four and
    # five fill its pool of four words and reach the loop that mixes in the
    # words beyond it. Then 20 outputs of each stream, as random_raw gives them.
    indices = [0, 1, 2**16, 2**32 - 1]
    rows = datagen._entropy_rows(seed, 1).repeat(len(indices), axis=0)
    rows[:, -1] = indices
    state = datagen._seed_pcg64(rows)
    hi, lo, inc_hi, inc_lo = state
    outputs = []
    for _ in range(20):
        hi, lo, out = datagen._pcg64_step(hi, lo, inc_hi, inc_lo)
        outputs.append(out)
    for r, i in enumerate(indices):
        bitgen = np.random.default_rng([seed, i]).bit_generator
        assert datagen._pcg64_state(*(int(c[r]) for c in state)) == bitgen.state, i
        assert [int(out[r]) for out in outputs] == bitgen.random_raw(20).tolist(), i


def test_a_bounded_draw_in_lemires_rejection_zone_is_drawn_by_numpy(monkeypatch):
    # Row 2's stream is replaced by one whose second output, the word of the
    # user draw, has a low half of 0. Lemire's product for a range of 30 then
    # has a low half of 0, below (2**32 - 30) % 30 = 16, so numpy rejects the
    # draw and draws again.
    mult = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
    inc = (0x1234 << 64) | 0x5679  # odd
    state = 0xDEADBEEF00000000  # high half 0: the XSL-RR output is the low half, unrotated
    for _ in range(2):  # two steps back: the scenario output, then this one
        state = (state - inc) * pow(mult, -1, 2**128) % 2**128
    halves = (state >> 64, state & (2**64 - 1), inc >> 64, inc & (2**64 - 1))
    crafted = datagen._pcg64_state(*halves)
    cfg = small_cfg(**{"gen.count": "6"})
    seed_pcg64, default_rng = datagen._seed_pcg64, np.random.default_rng

    def seeded(entropy):
        columns = seed_pcg64(entropy)
        for column, value in zip(columns, halves):
            column[2] = value
        return columns

    def rng_of(seed):
        rng = default_rng(seed)
        if seed == [cfg.gen_seed, 2]:
            rng.bit_generator.state = crafted
            assert rng.bit_generator.random_raw(2)[1] & 0xFFFFFFFF == 0
            rng.bit_generator.state = crafted
        return rng

    monkeypatch.setattr(datagen, "_seed_pcg64", seeded)
    monkeypatch.setattr(np.random, "default_rng", rng_of)
    _assert_equals_reference(cfg)


def test_generate_builds_the_same_generators_whatever_the_count(monkeypatch):
    # The streams are seeded and stepped as columns: building a numpy
    # generator per instance would show here as counts that grow with it.
    cfgs = [small_cfg(**{"gen.count": str(count)}) for count in (10, 300)]
    built = collections.Counter()
    for name in ("SeedSequence", "PCG64", "Generator", "default_rng"):
        def counted(*args, _name=name, _make=getattr(np.random, name), **kwargs):
            built[_name] += 1
            return _make(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counted)
    counts = []
    for cfg in cfgs:
        built.clear()
        datagen.generate(cfg)
        counts.append(dict(built))
    assert counts[0] == counts[1] and sum(counts[0].values()) <= 2, counts


@settings(max_examples=60, deadline=None)
@given(
    weights=st.one_of(
        # with zero entries among them
        st.lists(st.just(0.0) | st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40)
        .filter(lambda w: sum(w) > 0),
        # the generator's tilted popularity: softmax of tilt * hashed logits
        st.tuples(st.integers(1, 300), st.floats(min_value=0.0, max_value=6.0), st.integers(0, 5)).map(
            lambda t: np.exp(t[1] * np.array([datagen.stable_unit("pop", t[2], k) for k in range(t[0])]))
        ),
    ),
    size=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_choice_equals_cdf_searchsorted(weights, size, seed):
    # The generator replaces Generator.choice(n, p=p) by a search in the
    # normalised cumulative sum, which is what numpy's choice runs inside.
    # If a numpy release changes choice, this says why the byte pins broke.
    p = np.asarray(weights, dtype=np.float64)
    p = p / p.sum()
    cdf = datagen._cdf(p, "p")
    ref, ours = np.random.default_rng(seed), np.random.default_rng(seed)
    assert ref.choice(p.size, p=p) == cdf.searchsorted(ours.random(), side="right")
    assert np.array_equal(ref.choice(p.size, size=size, p=p), cdf.searchsorted(ours.random(size), side="right"))
    assert ref.random() == ours.random()


def test_image_vec_floats_survive_round_trip(tmp_path):
    cfg = small_cfg(**{
        "scenario.0.trigger_kind": "image", "scenario.1.trigger_kind": "image",
        "dim.trigger": "8", "schema.image_dim": "8", "gen.count": "25",
    })
    dataset, _ = datagen.generate(cfg)
    path = tmp_path / "img.jsonl"
    datagen.write_jsonl(dataset, path)
    loaded = datagen.read_jsonl(path)
    got, want = loaded.instances.image_vec, dataset.instances.image_vec
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())  # bitwise float round trip


def write_small(tmp_path, count=8):
    cfg = small_cfg(**{"gen.count": str(count)})
    dataset, _ = datagen.generate(cfg)
    path = tmp_path / "d.jsonl"
    datagen.write_jsonl(dataset, path)
    return path


def test_read_errors_carry_line_numbers(tmp_path):
    path = write_small(tmp_path)
    lines = path.read_text().splitlines()

    corrupted = "\n".join(lines[:2] + ["{not json"] + lines[3:]) + "\n"
    path.write_text(corrupted)
    with pytest.raises(DataError, match="line 3"):
        datagen.read_jsonl(path)

    obj = json.loads(lines[1])
    obj["user"] = 10_000
    path.write_text("\n".join([lines[0], json.dumps(obj)] + lines[2:]) + "\n")
    with pytest.raises(DataError, match=r"line 2.*user"):
        datagen.read_jsonl(path)

    obj = json.loads(lines[0])
    obj["surprise"] = 1
    path.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
    with pytest.raises(DataError, match=r"line 1.*surprise"):
        datagen.read_jsonl(path)

    obj = json.loads(lines[0])
    del obj["label"]
    path.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
    with pytest.raises(DataError, match=r"line 1.*label"):
        datagen.read_jsonl(path)


def test_truncated_file_detected(tmp_path):
    path = write_small(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError, match="manifest says 8"):
        datagen.read_jsonl(path)


def test_missing_manifest_detected(tmp_path):
    path = write_small(tmp_path)
    datagen.manifest_path(path).unlink()
    with pytest.raises(DataError, match="manifest"):
        datagen.read_jsonl(path)


def test_trigger_validation_on_read(tmp_path):
    path = write_small(tmp_path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["trigger"] = None
    path.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
    with pytest.raises(DataError, match=r"line 1.*trigger"):
        datagen.read_jsonl(path)


@pytest.mark.parametrize("later", [b"{not json", b"[1, 2]", b"   ", b'{"user": 1}', b'{"user": 1\xff}'])
def test_an_earlier_bad_value_is_reported_before_a_later_bad_line(tmp_path, later):
    # Values are checked column by column once the lines are decoded; a later
    # line that does not decode must not hide a bad value above it. The file
    # spans several 8 KB chunks of the text reader, and the later line sits in
    # the last one.
    path = write_small(tmp_path, count=60)
    lines = path.read_bytes().splitlines()
    obj = json.loads(lines[1])
    obj["user"] = -1
    lines[1], lines[-2] = json.dumps(obj).encode(), later
    assert len(b"\n".join(lines[:-2])) > 8192
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError) as err:
        datagen.read_jsonl(path)
    assert str(err.value) == "line 2: user: -1 outside [0, 30)"


@pytest.mark.parametrize(
    "line_3, message",
    [
        (b"{not json", "line 3: invalid JSON (Expecting property name enclosed in double quotes)"),
        (None, "line 3: user: -1 outside [0, 30)"),
    ],
)
def test_a_bad_line_before_a_bad_byte_in_the_same_chunk_is_reported_first(tmp_path, line_3, message):
    # The text reader decodes 8 KB chunks, and a chunk that does not decode
    # fails before any of its lines reach the line loop.
    path = write_small(tmp_path, count=30)
    lines = path.read_bytes().splitlines()
    if line_3 is None:
        obj = json.loads(lines[2])
        obj["user"] = -1
        line_3 = json.dumps(obj).encode()
    lines[2] = line_3
    lines[6] = lines[6][:1] + b"\xff" + lines[6][2:]
    assert len(b"\n".join(lines[:7])) < 8192
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError) as err:
        datagen.read_jsonl(path)
    assert str(err.value) == message


def _set_trigger(key, value):
    def mutate(obj):
        obj["trigger"][key] = value
    return mutate


# (trigger kind of the mutated line, mutation, message after "line N: ")
_READ_RULES = [
    ("product", lambda o: o.clear() or o.update(a=1), "missing keys ['behavior', 'context', 'label', 'scenario', "
     "'target_attrs', 'target_item', 'trigger', 'user', 'user_attrs']"),
    ("product", lambda o: o.pop("context"), "missing keys ['context']"),
    ("product", lambda o: o.update(extra=1, more=2), "unexpected keys ['extra', 'more']"),
    ("product", lambda o: o.update(scenario=7), "scenario: 7 outside [0, 2)"),
    ("product", lambda o: o.update(scenario="0"), "scenario: '0' outside [0, 2)"),
    ("product", lambda o: o.update(user=-1), "user: -1 outside [0, 30)"),
    ("product", lambda o: o.update(user_attrs=[1]), "user_attrs: expected 2 ids"),
    ("product", lambda o: o.update(user_attrs=[1, "x"]), "user_attrs: id 'x' outside [0, 15)"),
    ("product", lambda o: o.update(behavior=[]), "behavior: expected 1..4 entries"),
    ("product", lambda o: o.update(behavior=[[1]]), "behavior: entries are [item, [attrs]] pairs"),
    ("product", lambda o: o.update(behavior=[[50, [1, 2]]]), "behavior: item 50 outside [0, 50)"),
    ("product", lambda o: o.update(behavior=[[1, [1, 15]]]), "behavior attrs: id 15 outside [0, 15)"),
    ("product", lambda o: o.update(behavior=[[1, None]]), "behavior attrs: expected 2 ids"),
    ("product", lambda o: o.update(target_item=2.5), "target_item: 2.5 outside [0, 50)"),
    ("product", lambda o: o.update(target_attrs=[1, 2, 3]), "target_attrs: expected 2 ids"),
    ("product", lambda o: o.update(trigger=None), "trigger: expected an object with a kind"),
    ("product", lambda o: o.update(trigger={"item": 1}), "trigger: expected an object with a kind"),
    ("image", _set_trigger("kind", "product"), "trigger: kind 'product' does not match scenario 0 (image)"),
    ("image", _set_trigger("vec", [0.5]), "trigger: vec needs 8 floats"),
    ("image", _set_trigger("vec", [0.5] * 7 + ["a"]), "trigger: vec entries must be numbers"),
    ("image", _set_trigger("x", 1), "trigger: image payload holds kind and vec only"),
    ("product", _set_trigger("item", 99), "trigger: item 99 outside [0, 50)"),
    ("product", _set_trigger("attrs", [10]), "trigger attrs: id 10 outside [0, 10)"),
    ("product", _set_trigger("attrs", 3), "trigger attrs: expected 1 ids"),
    ("product", _set_trigger("vec", []), "trigger: product payload holds kind, item, attrs only"),
    ("product", lambda o: o.update(context=[0, 10]), "context: id 10 outside [0, 10)"),
    ("product", lambda o: o.update(label=2), "label: 2 is not 0 or 1"),
    ("product", lambda o: o.update(label=None), "label: None is not 0 or 1"),
]


def _mutated_file(tmp_path, kind, mutate):
    """A 12-line image/product file whose last line of ``kind`` went through
    ``mutate``, so that every earlier line passes; returns it and that line's index."""
    cfg = small_cfg(**{
        "scenario.0.trigger_kind": "image", "scenario.1.trigger_kind": "product",
        "dim.trigger": "8", "schema.image_dim": "8", "gen.count": "12",
    })
    dataset, _ = datagen.generate(cfg)
    path = tmp_path / "d.jsonl"
    datagen.write_jsonl(dataset, path)
    lines = path.read_text().splitlines()
    k = int(np.flatnonzero(dataset.instances.scenario == ("image", "product").index(kind))[-1])
    obj = json.loads(lines[k])
    mutate(obj)
    lines[k] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    return path, k


@pytest.mark.parametrize("kind, mutate, message", _READ_RULES)
def test_each_read_rule_names_its_line(tmp_path, kind, mutate, message):
    path, k = _mutated_file(tmp_path, kind, mutate)
    with pytest.raises(DataError) as err:
        datagen.read_jsonl(path)
    assert str(err.value) == f"line {k + 1}: {message}"


def _set_vec_entry(value):
    def mutate(obj):
        obj["trigger"]["vec"][3] = value
    return mutate


@pytest.mark.parametrize("kind, mutate, message", [
    # Python's json reads NaN and Infinity; such a vector made every score NaN
    ("image", _set_vec_entry(float("nan")), "trigger: vec entries must be finite numbers"),
    ("image", _set_vec_entry(float("inf")), "trigger: vec entries must be finite numbers"),
    ("image", _set_vec_entry(-float("inf")), "trigger: vec entries must be finite numbers"),
    ("image", _set_vec_entry(True), "trigger: vec entries must be numbers"),
    # true and false are ints to Python: "user": true read as user 1
    ("product", lambda o: o.update(user=True), "user: True outside [0, 30)"),
    ("product", lambda o: o.update(scenario=False), "scenario: False outside [0, 2)"),
    ("product", lambda o: o["context"].__setitem__(1, True), "context: id True outside [0, 10)"),
    ("product", lambda o: o["behavior"][0].__setitem__(0, False), "behavior: item False outside [0, 50)"),
    ("product", _set_trigger("item", True), "trigger: item True outside [0, 50)"),
    ("product", lambda o: o.update(label=True), "label: True is not 0 or 1"),
    ("product", lambda o: o.update(label=False), "label: False is not 0 or 1"),
])
def test_non_finite_vectors_and_booleans_are_refused(tmp_path, kind, mutate, message):
    path, k = _mutated_file(tmp_path, kind, mutate)
    with pytest.raises(DataError) as err:
        datagen.read_jsonl(path)
    assert str(err.value) == f"line {k + 1}: {message}"


def test_read_rules_outside_the_instance_object(tmp_path):
    path = write_small(tmp_path)
    lines = path.read_text().splitlines()
    for bad, message in [("[1, 2]", "instance is not a JSON object"), ("   ", "blank line inside dataset")]:
        path.write_text("\n".join(lines[:4] + [bad] + lines[5:]) + "\n")
        with pytest.raises(DataError) as err:
            datagen.read_jsonl(path)
        assert str(err.value) == f"line 5: {message}"

    rec_cfg = small_cfg(**{
        "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0", "gen.count": "5",
    })
    dataset, _ = datagen.generate(rec_cfg)
    datagen.write_jsonl(dataset, path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    obj["trigger"] = {"kind": "product", "item": 1, "attrs": []}
    path.write_text("\n".join(lines[:2] + [json.dumps(obj)] + lines[3:]) + "\n")
    with pytest.raises(DataError) as err:
        datagen.read_jsonl(path)
    assert str(err.value) == "line 3: trigger: must be null in a trigger-free dataset"


def test_batch_iter_partitions_and_shuffles():
    cfg = small_cfg(**{"gen.count": "53"})
    dataset, _ = datagen.generate(cfg)
    # the label column numbers the rows, so each block shows the positions it gathered
    table = dataclasses.replace(dataset.instances, label=np.arange(53))

    def positions(**order):
        blocks = list(datagen.batch_iter(table, 10, **order))
        assert [len(b) for b in blocks] == [10, 10, 10, 10, 10, 3]
        pos = np.concatenate([b.label for b in blocks])
        for block, at in zip(blocks, np.split(pos, [10, 20, 30, 40, 50])):
            assert block == table[at]  # every column of the gathered rows
        return pos.tolist()

    assert positions() == list(range(53))  # no seed keeps order
    e0, e1, e0_again = positions(seed=5, epoch=0), positions(seed=5, epoch=1), positions(seed=5, epoch=0)
    assert e0 == e0_again
    assert e0 != e1
    assert sorted(e0) == sorted(e1) == list(range(53))  # each epoch covers every row once
    assert e0 == np.random.default_rng([5, 0]).permutation(53).tolist()

    with pytest.raises(ValueError, match="batch_size"):
        list(datagen.batch_iter(dataset.instances, 0))


@pytest.mark.parametrize(
    "key", [0, -1, True, np.int64(2), np.bool_(True), np.array(1)],
    ids=["int", "negative_int", "bool", "numpy_int", "numpy_bool", "zero_d_array"],
)
def test_a_scalar_key_is_refused(key):
    # An int would index every column to a scalar and a bool add an axis to
    # it; neither gives a table.
    table = datagen.generate(small_cfg(**{"gen.count": "5"}))[0].instances
    with pytest.raises(TypeError, match=r"not \w+: row i on its own is table\[i:i \+ 1\]"):
        table[key]
    with pytest.raises(TypeError, match="not int"):  # iteration asks for table[0]; rows are _objects_of's
        list(table)
    assert table[1:2] == table[np.array([1])] == table[np.arange(5) == 1]
    assert len(table[1:2]) == 1


def test_stable_unit_range_and_determinism():
    vals = [datagen.stable_unit("item", k) for k in range(200)]
    assert all(-1.0 <= v <= 1.0 for v in vals)
    assert datagen.stable_unit("item", 7) == datagen.stable_unit("item", 7)
    assert datagen.stable_unit("item", 7) != datagen.stable_unit("user", 7)
    assert abs(float(np.mean(vals))) < 0.2  # roughly centered


def test_a_nan_popularity_is_refused():
    # choice refused a NaN probability vector; the CDF search would not, so
    # generate checks each vector itself.
    cfg = small_cfg(**{"gen.count": "5"})
    tilted = dataclasses.replace(cfg.scenarios[1], behavior_tilt=float("nan"))
    cfg = dataclasses.replace(cfg, scenarios=(cfg.scenarios[0], tilted))
    with pytest.raises(ValueError, match="scenario.1 item popularity: probabilities must be finite and non-negative"):
        datagen.generate(cfg)


# ---------------------------------------------------------------------------
# reader parity: read_jsonl's column checks against the line validator
# ---------------------------------------------------------------------------

_FUZZ_CFGS = {
    "search": small_cfg(**{
        "scenario.0.trigger_kind": "image", "scenario.1.trigger_kind": "product",
        "dim.trigger": "4", "schema.image_dim": "4", "schema.max_behavior": "3", "gen.count": "10",
    }),
    "recommendation": small_cfg(**{
        "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0", "schema.max_behavior": "3", "gen.count": "10",
    }),
}


@functools.lru_cache(maxsize=None)
def _fuzz_source(mode):
    """The data lines and manifest bytes of a small generated file."""
    dataset, _ = datagen.generate(_FUZZ_CFGS[mode])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.jsonl"
        datagen.write_jsonl(dataset, path)
        return tuple(path.read_bytes().splitlines()), datagen.manifest_path(path).read_bytes()


def _instance_parser(manifest: datagen.DatasetManifest):
    """Per-file instance validator: resolves the manifest's vocab, schema and
    trigger kinds once, and formats a message only for a check that fails.
    ``parse(obj, lineno)`` returns the instance object as the reader's
    table writes it back out, or raises ``line N: ...``."""
    vocab = manifest.vocab
    schema = manifest.schema
    n_scenarios, n_users, n_items = vocab.scenarios, vocab.users, vocab.items
    max_len, image_dim = schema.max_behavior_len, schema.image_dim
    kind_by_scenario = {p.scenario_id: p.trigger_kind for p in manifest.profiles}
    trigger_free = manifest.trigger_mode == "recommendation"

    def ids(raw, lineno, name, count, bound):
        if not (isinstance(raw, list) and len(raw) == count):
            raise DataError(f"line {lineno}: {name}: expected {count} ids")
        for v in raw:
            if not (type(v) is int and 0 <= v < bound):
                raise DataError(f"line {lineno}: {name}: id {v!r} outside [0, {bound})")
        return list(raw)

    def parse(obj, lineno: int) -> dict:
        if not isinstance(obj, dict):
            raise DataError(f"line {lineno}: instance is not a JSON object")
        if obj.keys() != datagen._INSTANCE_KEYS:
            missing = datagen._INSTANCE_KEYS - obj.keys()
            if missing:
                raise DataError(f"line {lineno}: missing keys {sorted(missing)}")
            raise DataError(f"line {lineno}: unexpected keys {sorted(obj.keys() - datagen._INSTANCE_KEYS)}")

        sid = obj["scenario"]
        if not (type(sid) is int and 0 <= sid < n_scenarios):
            raise DataError(f"line {lineno}: scenario: {sid!r} outside [0, {n_scenarios})")
        user = obj["user"]
        if not (type(user) is int and 0 <= user < n_users):
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
            if not (type(item) is int and 0 <= item < n_items):
                raise DataError(f"line {lineno}: behavior: item {item!r} outside [0, {n_items})")
            behavior.append([item, ids(attrs, lineno, "behavior attrs", schema.item_attr_count, vocab.item_attrs)])

        target = obj["target_item"]
        if not (type(target) is int and 0 <= target < n_items):
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
                if not all(type(v) is float or type(v) is int for v in vec):
                    raise DataError(f"line {lineno}: trigger: vec entries must be numbers")
                if not all(abs(v) <= datagen._FLOAT_MAX for v in vec):  # false for NaN
                    raise DataError(f"line {lineno}: trigger: vec entries must be finite numbers")
                if raw_trig.keys() != {"kind", "vec"}:
                    raise DataError(f"line {lineno}: trigger: image payload holds kind and vec only")
                trigger = {"kind": "image", "vec": list(map(float, vec))}
            else:
                item = raw_trig.get("item")
                if not (type(item) is int and 0 <= item < n_items):
                    raise DataError(f"line {lineno}: trigger: item {item!r} outside [0, {n_items})")
                attrs = ids(raw_trig.get("attrs"), lineno, "trigger attrs", schema.trigger_attr_count, vocab.trigger_attrs)
                if raw_trig.keys() != {"kind", "item", "attrs"}:
                    raise DataError(f"line {lineno}: trigger: product payload holds kind, item, attrs only")
                trigger = {"kind": "product", "item": item, "attrs": attrs}

        context = ids(obj["context"], lineno, "context", schema.context_attr_count, vocab.context_attrs)
        label = obj["label"]
        if type(label) is bool or label not in (0, 1):
            raise DataError(f"line {lineno}: label: {label!r} is not 0 or 1")

        return {
            "scenario": sid,
            "user": user,
            "user_attrs": user_attrs,
            "behavior": behavior,
            "target_item": target,
            "target_attrs": target_attrs,
            "trigger": trigger,
            "context": context,
            "label": label,
        }

    return parse


def _line_reader(path):
    """The reader the column checks replaced: the line validator on every line."""
    manifest = datagen.read_manifest(path)
    parse = _instance_parser(manifest)
    rows = []
    for lineno, line in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            raw = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"line {lineno}: not UTF-8 ({exc.reason})") from exc
        if not raw.strip():
            raise DataError(f"line {lineno}: blank line inside dataset")
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        rows.append(parse(obj, lineno))
    if len(rows) != manifest.count:
        raise DataError(f"{path}: holds {len(rows)} instances but the manifest says {manifest.count} (truncated file?)")
    return rows


def _id_slots(obj, vocab):
    """(container, key, bound) of every id of a decoded line."""
    slots = [(obj, "scenario", vocab.scenarios), (obj, "user", vocab.users), (obj, "target_item", vocab.items)]
    for name, bound in (("user_attrs", vocab.user_attrs), ("target_attrs", vocab.item_attrs),
                        ("context", vocab.context_attrs)):
        slots += [(obj[name], i, bound) for i in range(len(obj[name]))]
    for entry in obj["behavior"]:
        slots += [(entry, 0, vocab.items)] + [(entry[1], i, vocab.item_attrs) for i in range(len(entry[1]))]
    trig = obj["trigger"]
    if trig is not None and trig["kind"] == "product":
        slots += [(trig, "item", vocab.items)] + [(trig["attrs"], i, vocab.trigger_attrs) for i in range(len(trig["attrs"]))]
    return slots


def _dicts(obj):
    return [d for d in (obj, obj.get("trigger")) if isinstance(d, dict) and d]


_ODD_VALUES = [2**70, "x", 1.5, None, [], {}, True, False, [1], -1, 10**400, float("nan"), float("inf"), 1.0, 0]


def _is_image(obj):
    return _has_trigger(obj) and obj["trigger"].get("kind") == "image"


def _has_trigger(obj):
    return isinstance(obj.get("trigger"), dict)


def _wrong_type(draw, obj, cfg):
    slots = [(c, k) for c, k, _ in _id_slots(obj, cfg.vocab)] + [(obj, k) for k in obj]
    if _has_trigger(obj):
        trig = obj["trigger"]
        slots += [(trig, k) for k in trig] + [(trig["vec"], i) for i in range(len(trig.get("vec", [])))]
    container, key = draw(st.sampled_from(slots))
    container[key] = draw(st.sampled_from(_ODD_VALUES))


def _out_of_range(draw, obj, cfg):
    container, key, bound = draw(st.sampled_from(_id_slots(obj, cfg.vocab)))
    container[key] = draw(st.sampled_from([bound, -1, bound + 3]))


def _set(key, values):
    def edit(draw, obj, cfg):
        obj[key] = draw(st.sampled_from(values(obj, cfg)))
    return edit


def _set_in_trigger(key, values):
    def edit(draw, obj, cfg):
        obj["trigger"][key] = draw(st.sampled_from(values))
    return edit


def _vec_entry(draw, obj, cfg):
    vec = obj["trigger"]["vec"]
    vec[draw(st.integers(0, len(vec) - 1))] = draw(st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), 10**400, "a", True, None, 10**20]))


def _drop_key(draw, obj, cfg):
    target = draw(st.sampled_from(_dicts(obj)))
    del target[draw(st.sampled_from(sorted(target)))]


def _add_key(draw, obj, cfg):
    draw(st.sampled_from(_dicts(obj)))[draw(st.sampled_from(["extra", "kind", "vec", "item", "attrs"]))] = 1


def _too_long(obj, cfg):
    return [obj["behavior"][0]] * (cfg.schema.max_behavior_len + 1)


# (edit, which lines it applies to); each edit changes one decoded line in place
_OBJECT_EDITS = [
    (_drop_key, None),
    (_add_key, None),
    (_wrong_type, None),
    (_out_of_range, None),
    (_set("trigger", lambda o, c: [None, {"kind": "image", "vec": [0.5] * 4}, {"kind": "product", "item": 1, "attrs": [1]},
                                   {"kind": "none"}, {"item": 1}, [], "image"]), None),
    (_set_in_trigger("kind", ["image", "product", "none", None, 1, ["product"]]), _has_trigger),
    (_set_in_trigger("vec", [[0.5] * 3, [0.5] * 5, "x", None, [[0.5]] * 4]), _is_image),
    (_vec_entry, _is_image),
    (_set("behavior", lambda o, c: [[], _too_long(o, c)]), None),
    (_set("behavior", lambda o, c: [[[1]], [[1, [1]]], [o["behavior"][0], "x"], [[1, [1, 2], 3]], {"a": 1}]), None),
    (_set("label", lambda o, c: [2, -1, 0.5, True, False, None, "1", [1]]), None),
    (_set("label", lambda o, c: [1.0, 0.0]), None),  # still a valid line
]


def _edit_objects(draw, lines, cfg, picks, same_line=False):
    """Apply the object edits ``picks`` in turn, each to a line it applies to,
    and with ``same_line`` to the line of the edit before while it applies.
    An edit that does not find the shape it needs on an already edited line
    leaves that line as it was."""
    k = None
    for pick in picks:
        change, applies = _OBJECT_EDITS[pick]
        fits = [i for i, raw in enumerate(lines) if applies is None or applies(json.loads(raw))]
        if not (same_line and k in fits):
            k = draw(st.sampled_from(fits or range(len(lines))))
        obj = json.loads(lines[k])
        if fits:
            try:
                change(draw, obj, cfg)
            except (KeyError, TypeError, IndexError):
                continue
        lines[k] = json.dumps(obj).encode()


def _edit_text(name):
    """Edits of the line's bytes: name -> edit(draw, raw) returning the lines that replace it."""
    def truncate(draw, raw):
        return [raw[:draw(st.integers(0, len(raw) - 1))]]

    def blank(draw, raw):
        return [draw(st.sampled_from([b"", b"   ", b"\t"]))]

    def utf8(draw, raw):
        at = draw(st.integers(0, len(raw)))
        return [raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xe2\x82"])) + raw[at:]]

    def number(draw, raw):
        found = draw(st.sampled_from(list(_NUMBER.finditer(raw))))
        token = draw(st.sampled_from([b"1e999", b"NaN", b"-Infinity", b"true", b"1.0", b"01", b"1e2", b"-0"]))
        return [raw[:found.start()] + token + raw[found.end():]]

    def spaces(draw, raw):  # still one valid line
        return [draw(st.sampled_from([b"  " + raw, raw + b"  ", raw + b"\r", b"\t" + raw + b" "]))]

    def tail(draw, raw):  # text after the object
        return [raw + draw(st.sampled_from([b"x", b" {}", b",", b"\x0c", b"\xc2\xa0"]))]

    def lines(draw, raw):  # one line fewer or one more
        return draw(st.sampled_from([[], [raw, raw]]))

    return {"truncate": truncate, "blank": blank, "utf-8": utf8, "number": number, "spaces": spaces, "tail": tail,
            "lines": lines}[name]


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_EDITS = ["clean", "objects"] + list(range(len(_OBJECT_EDITS))) + ["truncate", "blank", "utf-8", "number", "spaces", "tail", "lines"]


@settings(max_examples=500, deadline=None)
@given(mode=st.sampled_from(sorted(_FUZZ_CFGS)), edit=st.sampled_from(_EDITS), data=st.data())
def test_read_jsonl_matches_the_line_validator(mode, edit, data):
    """One edit to one line of a small file, or 2-3 object edits on one line
    or on several ("objects"), which sets rules of one row against each other:
    read_jsonl must raise the line validator's DataError text, or return the
    validator's rows."""
    cfg = _FUZZ_CFGS[mode]
    lines, manifest = _fuzz_source(mode)
    lines = list(lines)
    if isinstance(edit, int):
        _edit_objects(data.draw, lines, cfg, [edit])
    elif edit == "objects":
        picks = data.draw(st.lists(st.integers(0, len(_OBJECT_EDITS) - 1), min_size=2, max_size=3))
        _edit_objects(data.draw, lines, cfg, picks, same_line=data.draw(st.booleans()))
    elif edit != "clean":
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k:k + 1] = _edit_text(edit)(data.draw, lines[k])

    def outcome(reader, path):
        try:
            return reader(path)
        except DataError as exc:
            return str(exc)

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        datagen.manifest_path(path).write_bytes(manifest)
        want = outcome(_line_reader, path)
        got = outcome(lambda p: list(datagen._objects_of(datagen.read_jsonl(p).instances)), path)
    assert got == want
