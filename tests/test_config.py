"""Config registry: parsing, validation, precedence, digests."""

import copy
import json
import re

import numpy as np
import pytest

from maria import checkpoint, config, datagen
from maria.autodiff import Graph
from maria.checkpoint import CheckpointError
from maria.config import FIELD_ORDER, ConfigError, build_run_config, parse_config_file
from maria.datagen import DataError
from maria.model import build_model


def test_defaults_build_and_expose_expected_values():
    cfg = build_run_config()
    assert cfg.vocab.scenarios == 2
    assert cfg.model.tower_dims == (128, 64, 32)
    assert cfg.model.refiner_counts == {"behavior": 1, "user": 2, "item": 1, "trigger": 1, "context": 1}
    assert cfg.train.learning_rate == 0.05
    assert cfg.flags.fs and cfg.flags.gs
    assert cfg.trigger_mode == "search"
    assert len(cfg.scenarios) == 2
    assert abs(sum(s.traffic_share for s in cfg.scenarios) - 1.0) <= 1e-12


def test_schema_element_count_formula():
    cfg = build_run_config(overrides={
        "schema.user_attrs": "3", "schema.item_attrs": "2",
        "schema.trigger_attrs": "2", "schema.context_attrs": "5",
    })
    assert cfg.schema.element_count == 3 + 2 + 2 + 5 + 4


def test_parse_file_comments_blank_lines_and_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "train.epochs = 3   # trailing comment\n"
        "vocab.users = 77\n"
    )
    mapping = parse_config_file(path)
    assert mapping == {"train.epochs": "3", "vocab.users": "77"}
    cfg = build_run_config(mapping, overrides={"train.epochs": "9"})
    assert cfg.train.epochs == 9  # override wins
    assert cfg.vocab.users == 77


def test_parse_file_rejects_malformed_and_duplicate_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.epochs 3\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(bad)
    dup = tmp_path / "dup.cfg"
    dup.write_text("train.epochs = 1\ntrain.epochs = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(dup)


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="train.learningrate"):
        build_run_config({"train.learningrate": "0.1"})
    with pytest.raises(ConfigError, match="scenario.0.colour"):
        build_run_config({"scenario.0.colour": "red"})


def test_scenario_index_bounds_checked():
    with pytest.raises(ConfigError, match="scenario index 5"):
        build_run_config({"scenario.5.noise_std": "0.1"})


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="train.epochs"):
        build_run_config({"train.epochs": "three"})
    with pytest.raises(ConfigError, match="model.tower_dims"):
        build_run_config({"model.tower_dims": "128,sixty"})


def test_traffic_share_fill_and_validation():
    cfg = build_run_config({"vocab.scenarios": "3", "scenario.0.traffic_share": "0.5"})
    shares = [s.traffic_share for s in cfg.scenarios]
    assert shares[0] == 0.5
    assert abs(shares[1] - 0.25) <= 1e-12 and abs(shares[2] - 0.25) <= 1e-12

    with pytest.raises(ConfigError, match="traffic_share"):
        build_run_config({
            "scenario.0.traffic_share": "0.9",
            "scenario.1.traffic_share": "0.3",
        })
    with pytest.raises(ConfigError, match="traffic_share"):
        build_run_config({"scenario.0.traffic_share": "1.5", "scenario.1.traffic_share": "0.1"})


def test_trigger_kind_homogeneity_rules():
    with pytest.raises(ConfigError, match="mixed"):
        build_run_config({"scenario.0.trigger_kind": "none"})
    with pytest.raises(ConfigError, match="schema.trigger_attrs"):
        build_run_config({
            "scenario.0.trigger_kind": "none",
            "scenario.1.trigger_kind": "none",
        })
    cfg = build_run_config({
        "scenario.0.trigger_kind": "none",
        "scenario.1.trigger_kind": "none",
        "schema.trigger_attrs": "0",
    })
    assert cfg.trigger_mode == "recommendation"
    with pytest.raises(ConfigError, match="trigger_kind"):
        build_run_config({"scenario.0.trigger_kind": "banner"})


def test_image_triggers_pin_trigger_width():
    with pytest.raises(ConfigError, match="image_dim"):
        build_run_config({"scenario.0.trigger_kind": "image", "dim.trigger": "6", "schema.image_dim": "8"})
    cfg = build_run_config({"scenario.0.trigger_kind": "image", "dim.trigger": "8", "schema.image_dim": "8"})
    assert cfg.dims.trigger == cfg.schema.image_dim


def test_attention_head_divisibility_checked():
    # encoder width = dim.item + schema.item_attrs * dim.attr = 8 + 2*4 = 16
    build_run_config({"model.attention_heads": "4"})
    with pytest.raises(ConfigError, match="attention_heads"):
        build_run_config({"model.attention_heads": "3"})


def test_disable_flags():
    cfg = build_run_config({"train.disable": "fr,gs"})
    assert not cfg.flags.fr and not cfg.flags.gs
    assert cfg.flags.fs and cfg.flags.fcm and cfg.flags.nl and cfg.flags.st
    with pytest.raises(ConfigError, match="xx"):
        build_run_config({"train.disable": "xx"})


def _spec_digest(cfg, kind="maria"):
    return config.sha256_hex(config.canonical_json(build_model(Graph(seed=0), cfg, kind=kind).spec()))


def test_digests_track_structure_not_training():
    base = build_run_config()
    same = build_run_config({"train.learning_rate": "0.9"})
    other = build_run_config({"model.experts": "7"})
    assert _spec_digest(base) == _spec_digest(same)
    assert _spec_digest(base) != _spec_digest(other)
    assert _spec_digest(base, kind="maria") != _spec_digest(base, kind="mmoe")
    # baselines record the default flags, so an ablation leaves their spec alone
    ablated = build_run_config({"train.disable": "fs"})
    assert _spec_digest(base) != _spec_digest(ablated)
    assert _spec_digest(base, kind="mmoe") == _spec_digest(ablated, kind="mmoe")
    # data compatibility ignores model internals entirely
    assert config.data_compat_digest(base) == config.data_compat_digest(other)
    vocab_change = build_run_config({"vocab.items": "999"})
    assert config.data_compat_digest(base) != config.data_compat_digest(vocab_change)


def test_help_text_covers_every_key():
    text = config.config_help_text()
    for key in config._REGISTRY:
        assert key in text
    assert "scenario.N.trigger_kind" in text
    assert re.search(r"\n  model\.refiner_compression +default 0\.5, must lie in \(0, 1\] ", text)


def test_every_key_states_a_bound_or_none():
    for key, entry in [*config._REGISTRY.items(), *config._SCENARIO_FIELDS.items()]:
        assert len(entry) == 4, key
        bound = entry[2]
        assert bound is None or bound in config._HOLDS, key


_BOUNDED = [(key, entry) for key, entry in config._REGISTRY.items() if entry[2] is not None] + [
    (f"scenario.0.{name}", entry) for name, entry in config._SCENARIO_FIELDS.items() if entry[2] is not None
]
_JUST_OUTSIDE = {config.POSITIVE: 0, config.NON_NEGATIVE: -1, config.OPEN_UNIT: 0, config.UNIT: -0.5}


def _outside(kind: str, bound):
    """A value of ``kind`` just outside ``bound``, typed as a settings record holds it."""
    one = _JUST_OUTSIDE.get(bound, "bogus")
    if kind in ("float", "float_or_empty"):
        return float(one)
    if kind == "per_field_int":
        return dict.fromkeys(FIELD_ORDER, 1) | {"user": one}
    if kind.startswith("csv_"):
        return [float(one) if kind == "csv_float" else one]
    return one


def _as_config_text(value) -> str:
    if type(value) is dict:
        value = [value[name] for name in FIELD_ORDER]
    return ",".join(map(str, value)) if type(value) is list else str(value)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A small model's spec and parameters, and a dataset's manifest."""
    root = tmp_path_factory.mktemp("bounds")
    small = {"model.expert_hidden": "8", "model.tower_dims": "4", "model.scale_hidden": "4", "gen.count": "8"}
    cfg = build_run_config(small)
    model = build_model(Graph(seed=0), cfg)
    dataset, _ = datagen.generate(cfg)
    datagen.write_jsonl(dataset, root / "d.jsonl")
    manifest = json.loads(datagen.manifest_path(root / "d.jsonl").read_text())
    return root, model.spec(), [(n, v.data) for n, v in model.named_parameters()], manifest


@pytest.mark.parametrize("key, entry", _BOUNDED, ids=[key for key, _ in _BOUNDED])
def test_a_value_outside_its_bound_is_refused_naming_its_key_by_config_spec_and_manifest(written, key, entry):
    kind, _, bound, _ = entry
    value = _outside(kind, bound)
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        build_run_config({key: _as_config_text(value)})
    root, spec, params, manifest = written
    section, name = key.split(".", 1)
    name = config._FIELD_OF_KEY.get(key, name)
    spec_section = {"vocab": "vocab", "schema": "schema", "dim": "dims", "model": "model"}.get(section)
    if spec_section:
        spec = copy.deepcopy(spec)
        spec[spec_section][name] = value
        checkpoint.save_checkpoint(root / "m.ckpt", spec, params)
        with pytest.raises(CheckpointError, match=rf"spec cannot build a model \(ConfigError: {re.escape(key)}: "):
            checkpoint.load_model(root / "m.ckpt")
    if section in ("vocab", "schema", "scenario"):
        doc = copy.deepcopy(manifest)
        if section == "scenario":
            doc["profiles"][0][name.split(".")[1]] = value
        else:
            doc[section][name] = value
        doc["compat_digest"] = config.compat_digest_parts(doc["vocab"], doc["schema"], doc["trigger_mode"])
        datagen.manifest_path(root / "e.jsonl").write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"malformed manifest \(ConfigError: {re.escape(key)}: "):
            datagen.read_manifest(root / "e.jsonl")


def test_per_element_vectors_and_generator_seed_resolved_when_the_config_is_built():
    cfg = build_run_config({"vocab.scenarios": "3", "gen.seed": "4", "scenario.2.label_weights": ",".join(["1"] * 11)})
    n_q = cfg.schema.element_count
    assert all(len(sc.field_importance) == len(sc.label_weights) == n_q for sc in cfg.scenarios)
    rng = np.random.default_rng([4, 700_001])
    magnitude = rng.uniform(1.5, 3.0, size=n_q)
    assert cfg.scenarios[1].label_weights == tuple((magnitude * rng.choice([-1.0, 1.0], size=n_q)).tolist())
    assert cfg.scenarios[2].label_weights == (1.0,) * n_q
    with pytest.raises(ConfigError, match="gen.seed: must be non-negative"):
        build_run_config({"gen.seed": "-1"})
    for name in ("field_importance", "label_weights"):
        with pytest.raises(ConfigError, match=rf"scenario\.1\.{name}: expected 11 values, got 2"):
            build_run_config({f"scenario.1.{name}": "1,0"})


@pytest.mark.parametrize("key, raw", [
    ("model.tower_dims", "0"),
    ("model.tower_dims", "8,-2"),
    ("gen.count", "-3"),
    ("train.seed", "-1"),
    ("train.eval_every", "-1"),
    ("train.early_stop_patience", "-2"),
])
def test_out_of_range_sizes_seeds_and_intervals_are_refused_by_key(key, raw):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
        build_run_config({key: raw})


def test_early_stop_patience_without_evaluations_is_refused_naming_both_keys():
    # Patience counts evaluations during training; with none it never stopped a run.
    with pytest.raises(ConfigError, match=r"^train\.early_stop_patience: 2 needs train\.eval_every above 0"):
        build_run_config({"train.early_stop_patience": "2"})
    with pytest.raises(ConfigError, match=r"train\.eval_every"):
        build_run_config({"train.early_stop_patience": "1", "train.eval_every": "0"})
    cfg = build_run_config({"train.early_stop_patience": "2", "train.eval_every": "1"})
    assert (cfg.train.early_stop_patience, cfg.train.eval_every) == (2, 1)


# key, a valid value other than its default, where it lands in the RunConfig, the value expected there
_FILLS = [
    ("vocab.users", "121", "vocab.users", 121),
    ("vocab.items", "201", "vocab.items", 201),
    ("vocab.user_attrs", "41", "vocab.user_attrs", 41),
    ("vocab.item_attrs", "41", "vocab.item_attrs", 41),
    ("vocab.trigger_attrs", "21", "vocab.trigger_attrs", 21),
    ("vocab.context_attrs", "21", "vocab.context_attrs", 21),
    ("vocab.scenarios", "3", "vocab.scenarios", 3),
    ("schema.user_attrs", "3", "schema.user_attr_count", 3),
    ("schema.item_attrs", "3", "schema.item_attr_count", 3),
    ("schema.trigger_attrs", "2", "schema.trigger_attr_count", 2),
    ("schema.context_attrs", "3", "schema.context_attr_count", 3),
    ("schema.max_behavior", "5", "schema.max_behavior_len", 5),
    ("schema.image_dim", "9", "schema.image_dim", 9),
    ("dim.user", "9", "dims.user", 9),
    ("dim.item", "10", "dims.item", 10),
    ("dim.attr", "6", "dims.attr", 6),
    ("dim.context", "5", "dims.context", 5),
    ("dim.scenario", "5", "dims.scenario", 5),
    ("dim.trigger", "9", "dims.trigger", 9),
    ("model.experts", "5", "model.experts", 5),
    ("model.expert_hidden", "32", "model.expert_hidden", 32),
    ("model.tower_dims", "16,8", "model.tower_dims", (16, 8)),
    ("model.refiners", "2,1,1,1,3", "model.refiner_counts",
     {"behavior": 2, "user": 1, "item": 1, "trigger": 1, "context": 3}),
    ("model.refiner_compression", "0.25", "model.refiner_compression", 0.25),
    ("model.correlation_dim", "3", "model.correlation_dim", 3),
    ("model.scale_ceiling", "3.0", "model.scale_ceiling", 3.0),
    ("model.scale_hidden", "16", "model.scale_hidden", 16),
    ("model.gumbel_temperature", "0.5", "model.gumbel_temperature", 0.5),
    ("model.attention_heads", "4", "model.attention_heads", 4),
    ("model.encoder_layers", "2", "model.encoder_layers", 2),
    ("model.ffn_multiplier", "3", "model.ffn_multiplier", 3),
    ("train.learning_rate", "0.1", "train.learning_rate", 0.1),
    ("train.batch_size", "64", "train.batch_size", 64),
    ("train.weight_decay", "0.001", "train.weight_decay", 0.001),
    ("train.lr_decay", "0.5", "train.lr_decay", 0.5),
    ("train.epochs", "2", "train.epochs", 2),
    ("train.seed", "3", "train.seed", 3),
    ("train.eval_every", "1", "train.eval_every", 1),
    ("train.early_stop_patience", "2", "train.early_stop_patience", 2),
    ("train.disable", "fr", "flags.fr", False),
    ("gen.count", "7", "gen_count", 7),
    ("gen.seed", "5", "gen_seed", 5),
    ("scenario.1.traffic_share", "0.3", "scenarios.1.traffic_share", 0.3),
    ("scenario.1.noise_std", "0.25", "scenarios.1.noise_std", 0.25),
    ("scenario.1.trigger_kind", "image", "scenarios.1.trigger_kind", "image"),
    ("scenario.1.label_bias", "0.5", "scenarios.1.label_bias", 0.5),
    ("scenario.1.behavior_tilt", "2.0", "scenarios.1.behavior_tilt", 2.0),
    ("scenario.1.field_importance", ",".join(["1"] * 11), "scenarios.1.field_importance", (1.0,) * 11),
    ("scenario.1.label_weights", ",".join(["2"] * 11), "scenarios.1.label_weights", (2.0,) * 11),
]


def _at(cfg, path: str):
    for part in path.split("."):
        cfg = cfg[int(part)] if part.isdigit() else getattr(cfg, part)
    return cfg


# keys that a row's value needs set as well
_WITH = {"train.early_stop_patience": {"train.eval_every": "1"}}  # patience counts evaluations


def test_every_key_fills_its_own_field():
    keys = {key for key, *_ in _FILLS}
    assert keys == set(config._REGISTRY) | {f"scenario.1.{name}" for name in config._SCENARIO_FIELDS}
    default = build_run_config()
    for key, raw, path, expected in _FILLS:
        assert _at(default, path) != expected, key
        assert _at(build_run_config({key: raw, **_WITH.get(key, {})}), path) == expected, key
