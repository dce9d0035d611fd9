"""Generator determinism, ground-truth behavior, and file round-trips."""

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
from hypothesis import given, settings
from hypothesis import strategies as st

from maria import autodiff as ad
from maria import datagen
from maria.benchmark import benchmark_config
from maria.config import ConfigError, build_run_config
from maria.datagen import DataError, TriggerImage, TriggerProduct


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
    labels = {inst.scenario: set() for inst in dataset.instances}
    for inst in dataset.instances:
        labels[inst.scenario].add(inst.label)
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
    for inst in dataset.instances[:50]:
        assert 0 <= inst.user < cfg.vocab.users
        assert len(inst.user_attrs) == cfg.schema.user_attr_count
        assert 1 <= len(inst.behavior) <= cfg.schema.max_behavior_len
        assert all(0 <= it < cfg.vocab.items for it, _ in inst.behavior)
        assert isinstance(inst.trigger, TriggerProduct)
        assert len(inst.trigger.attrs) == cfg.schema.trigger_attr_count
        assert len(inst.context) == cfg.schema.context_attr_count
        assert inst.label in (0, 1)


def test_image_and_recommendation_modes():
    img_cfg = small_cfg(**{
        "scenario.0.trigger_kind": "image", "scenario.1.trigger_kind": "image",
        "dim.trigger": "8", "schema.image_dim": "8", "gen.count": "30",
    })
    img_ds, _ = datagen.generate(img_cfg)
    assert all(isinstance(i.trigger, TriggerImage) and len(i.trigger.vec) == 8 for i in img_ds.instances)

    rec_cfg = small_cfg(**{
        "scenario.0.trigger_kind": "none", "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0", "gen.count": "30",
    })
    rec_ds, _ = datagen.generate(rec_cfg)
    assert rec_ds.manifest.trigger_mode == "recommendation"
    assert all(i.trigger is None for i in rec_ds.instances)


def test_write_read_round_trip(tmp_path):
    cfg = small_cfg(**{"gen.count": "120"})
    dataset, _ = datagen.generate(cfg)
    path = tmp_path / "train.jsonl"
    datagen.write_jsonl(dataset, path)
    assert (tmp_path / "train.jsonl.manifest.json").exists()
    loaded = datagen.read_jsonl(path)
    assert loaded.instances == dataset.instances
    assert loaded.manifest == dataset.manifest


def test_failed_write_leaves_the_old_data_and_manifest(tmp_path, monkeypatch):
    path = tmp_path / "train.jsonl"
    old, _ = datagen.generate(small_cfg(**{"gen.count": "30"}))
    datagen.write_jsonl(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new, _ = datagen.generate(small_cfg(**{"gen.count": "40", "gen.seed": "9"}))

    real = datagen._instance_to_json
    written = []

    def fail_midway(inst):
        if len(written) == 20:
            raise RuntimeError("midway")
        written.append(inst)
        return real(inst)

    monkeypatch.setattr(datagen, "_instance_to_json", fail_midway)
    with pytest.raises(RuntimeError, match="midway"):
        datagen.write_jsonl(new, path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert datagen.read_jsonl(path).instances == old.instances

    monkeypatch.setattr(datagen, "_instance_to_json", real)
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
    for a, b in zip(dataset.instances, loaded.instances):
        assert a.trigger.vec == b.trigger.vec  # bitwise float round trip


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
    k = max(i for i, inst in enumerate(dataset.instances) if inst.scenario == ("image", "product").index(kind))
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


def _line_reader(path):
    """The reader the column checks replaced: the line validator on every line."""
    manifest = datagen.read_manifest(path)
    parse = datagen._instance_parser(manifest)
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
    return [obj] + ([obj["trigger"]] if obj["trigger"] is not None else [])


_ODD_VALUES = [2**70, "x", 1.5, None, [], {}, True, False, [1], -1, 10**400, float("nan"), float("inf"), 1.0, 0]


def _is_image(obj):
    return isinstance(obj["trigger"], dict) and obj["trigger"].get("kind") == "image"


def _has_trigger(obj):
    return isinstance(obj["trigger"], dict)


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
_EDITS = ["clean"] + list(range(len(_OBJECT_EDITS))) + ["truncate", "blank", "utf-8", "number", "spaces", "tail", "lines"]


@settings(max_examples=500, deadline=None)
@given(mode=st.sampled_from(sorted(_FUZZ_CFGS)), edit=st.sampled_from(_EDITS), data=st.data())
def test_read_jsonl_matches_the_line_validator(mode, edit, data):
    """One edit to one line of a small file: read_jsonl must raise the line
    validator's DataError text, or return the validator's rows."""
    cfg = _FUZZ_CFGS[mode]
    lines, manifest = _fuzz_source(mode)
    lines = list(lines)
    if isinstance(edit, int):
        change, applies = _OBJECT_EDITS[edit]
        fits = [i for i, raw in enumerate(lines) if applies is None or applies(json.loads(raw))]
        k = data.draw(st.sampled_from(fits or range(len(lines))))
        obj = json.loads(lines[k])
        if fits:
            change(data.draw, obj, cfg)
        lines[k] = json.dumps(obj).encode()
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
        got = outcome(lambda p: list(datagen.read_jsonl(p).instances), path)
    assert got == want
