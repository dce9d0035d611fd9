"""Config registry: parsing, validation, precedence, digests."""

import pytest

from maria import config
from maria.autodiff import Graph
from maria.config import ConfigError, build_run_config, parse_config_file
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
