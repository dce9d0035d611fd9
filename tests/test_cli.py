"""End-to-end command exercises: files on disk, exit codes, JSON output."""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maria import autodiff, benchmark, checkpoint, cli, config, datagen, training
from maria.autodiff import Graph
from maria.datagen import manifest_path
from maria.model import build_model

TINY = [
    "--set", "vocab.users=20", "--set", "vocab.items=30",
    "--set", "vocab.user_attrs=10", "--set", "vocab.item_attrs=10",
    "--set", "vocab.trigger_attrs=8", "--set", "vocab.context_attrs=8",
    "--set", "schema.max_behavior=3",
    "--set", "dim.user=4", "--set", "dim.item=4", "--set", "dim.attr=3",
    "--set", "model.experts=2", "--set", "model.expert_hidden=12",
    "--set", "model.tower_dims=12,6", "--set", "model.scale_hidden=8",
    "--set", "model.correlation_dim=3",
    "--set", "train.epochs=1", "--set", "train.learning_rate=0.01",
    "--set", "train.batch_size=64",
]


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_files(tmp_path, capsys):
    train = tmp_path / "train.jsonl"
    heldout = tmp_path / "eval.jsonl"
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(train), "--count", "240", "--seed", "1")
    assert code == 0
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(heldout), "--count", "120", "--seed", "7")
    assert code == 0
    return train, heldout


def test_gen_data_writes_files_and_repeats_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code, out, _ = run(capsys, "gen-data", *TINY, "--out", str(a), "--count", "100", "--seed", "4")
    assert code == 0 and "100 instances" in out
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(b), "--count", "100", "--seed", "4")
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 100
    manifest_a = json.loads((tmp_path / "a.jsonl.manifest.json").read_text())
    manifest_b = json.loads((tmp_path / "b.jsonl.manifest.json").read_text())
    assert manifest_a == manifest_b
    assert manifest_a["count"] == 100


def test_gen_data_json_digest_matches_config(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code, text, _ = run(capsys, "gen-data", *TINY, "--out", str(out), "--count", "50", "--json")
    assert code == 0
    doc = json.loads(text)
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    cfg = config.build_run_config({}, {**overrides, "gen.count": "50"})
    assert doc["manifest"]["compat_digest"] == config.data_compat_digest(cfg)


def test_flag_precedence_file_then_set_then_flag(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("gen.count = 90\ngen.seed = 2  # comment\n")
    out = tmp_path / "p.jsonl"
    code, _, _ = run(capsys, "gen-data", "--config", str(cfg_file), "--out", str(out))
    assert code == 0 and len(out.read_text().splitlines()) == 90
    code, _, _ = run(capsys, "gen-data", "--config", str(cfg_file), "--set", "gen.count=40", "--out", str(out))
    assert code == 0 and len(out.read_text().splitlines()) == 40
    code, _, _ = run(
        capsys, "gen-data", "--config", str(cfg_file), "--set", "gen.count=40", "--count", "15", "--out", str(out)
    )
    assert code == 0 and len(out.read_text().splitlines()) == 15


def test_config_errors_exit_2_and_name_the_key(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen-data", "--out", str(tmp_path / "x.jsonl"),
        "--set", "scenario.0.traffic_share=0.5", "--set", "scenario.1.traffic_share=0.6",
    )
    assert code == 2 and "traffic_share" in err
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "x.jsonl"), "--set", "no.such.key=1")
    assert code == 2 and "no.such.key" in err
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "x.jsonl"), "--set", "malformed")
    assert code == 2 and "key=value" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("scenario.0.label_bias", "nan", "is not a finite number"),
        ("scenario.0.label_bias", "-inf", "is not a finite number"),
        ("scenario.1.label_weights", "1,2,nan,1,1,1,1,1,1,1,1", "is not a finite number"),
        ("scenario.0.field_importance", "1,0,1,0,1,0,inf,0,1,0,1", "is not a finite number"),
        ("scenario.0.noise_std", "nan", "is not a finite number"),
        ("scenario.1.noise_std", "-0.5", "must be non-negative"),
        ("scenario.0.field_importance", "5,-3,1,1,1,1,1,1,1,1,1", "must lie in [0, 1]"),
        ("scenario.0.traffic_share", "inf", "is not a finite number"),
        ("train.learning_rate", "nan", "is not a finite number"),
        ("model.scale_ceiling", "inf", "is not a finite number"),
    ],
)
def test_non_finite_or_negative_noise_config_exits_2_and_names_the_key(tmp_path, capsys, key, value, message):
    out = tmp_path / "x.jsonl"
    code, _, err = run(capsys, "gen-data", "--out", str(out), "--count", "20", "--set", f"{key}={value}")
    assert code == 2, err
    assert key in err and message in err
    assert not out.exists()


def test_a_wrong_length_label_weights_fails_before_any_file_is_read(tmp_path, capsys):
    code, _, err = run(
        capsys, "train", "--data", str(tmp_path / "nope.jsonl"), "--model-out", str(tmp_path / "m.ckpt"),
        "--set", "scenario.0.label_weights=1,2",
    )
    assert code == 2
    assert err == "error: scenario.0.label_weights: expected 11 values, got 2\n"


def test_missing_data_file_exits_3(tmp_path, capsys):
    code, _, err = run(
        capsys, "train", *TINY, "--data", str(tmp_path / "nope.jsonl"), "--model-out", str(tmp_path / "m.ckpt")
    )
    assert code == 3 and "nope.jsonl" in err


def _truncate(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


def _without_profiles(raw: bytes) -> bytes:
    doc = json.loads(raw)
    del doc["profiles"]
    return json.dumps(doc).encode("utf-8")


def _string_vocab_size(raw: bytes) -> bytes:
    doc = json.loads(raw)
    doc["vocab"]["items"] = str(doc["vocab"]["items"])
    return json.dumps(doc).encode("utf-8")


def _count_as(value):
    def corrupt(raw: bytes) -> bytes:
        doc = json.loads(raw)
        doc["count"] = value
        return json.dumps(doc).encode("utf-8")
    return corrupt


def _scenario_1_without_triggers(raw: bytes) -> bytes:
    """Scenario 1 made trigger-free in a search-mode dataset: its profile in
    the manifest, or the trigger of each of its lines in the data file."""
    if b'"profiles"' in raw:  # the manifest
        doc = json.loads(raw)
        doc["profiles"][1]["trigger_kind"] = "none"
        return json.dumps(doc).encode("utf-8")
    rows = [json.loads(line) for line in raw.splitlines()]
    for row in rows:
        if row["scenario"] == 1:
            row["trigger"] = {"kind": "none", "item": 1, "attrs": [1]}
    return "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")


def _profile_with_unknown_key(raw: bytes) -> bytes:
    doc = json.loads(raw)
    doc["profiles"][0]["bogus"] = 1
    return json.dumps(doc).encode("utf-8")


def _manifest_with(section: str | None, key, value):
    """The manifest with ``doc[section][key]`` set to ``value``: ``section``
    None edits the top level, "profiles" the first profile. The compatibility
    digest is recomputed, so only the value's own check can refuse it."""
    def corrupt(raw: bytes) -> bytes:
        doc = json.loads(raw)
        if section is None:
            doc[key] = value
        else:
            (doc[section][0] if section == "profiles" else doc[section])[key] = value
        doc["compat_digest"] = config.compat_digest_parts(doc["vocab"], doc["schema"], doc["trigger_mode"])
        return json.dumps(doc).encode("utf-8")
    return corrupt


def _bad_byte_on_line_3(raw: bytes) -> bytes:
    lines = raw.split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][2:]
    return b"\n".join(lines)


@pytest.mark.parametrize(
    "target, corrupt, message",
    [
        ("manifest", _truncate, "unreadable manifest"),
        ("manifest", lambda raw: b"[1, 2]", "manifest is not a JSON object"),
        ("manifest", _without_profiles, "malformed manifest (KeyError: 'profiles')"),
        ("manifest", _string_vocab_size, "malformed manifest (ConfigError: vocab.items: '30' is not an integer)"),
        ("manifest", lambda raw: raw.replace(b'"vocab"', b'"voc\xffab"'), "unreadable manifest"),
        # a count of "20" read as "holds 20 instances but the manifest says 20"; 20.0 loaded
        ("manifest", _count_as("20"), "malformed manifest (TypeError: count must be an integer, not '20')"),
        ("manifest", _count_as(20.0), "malformed manifest (TypeError: count must be an integer, not 20.0)"),
        ("manifest", _count_as(True), "malformed manifest (TypeError: count must be an integer, not True)"),
        ("manifest", _profile_with_unknown_key, "unexpected keyword argument 'bogus'"),
        ("manifest", _manifest_with("schema", "user_attr_count", -1), "schema.user_attrs: must be non-negative, got -1"),
        ("manifest", _manifest_with("schema", "image_dim", 0), "schema.image_dim: must be positive, got 0"),
        ("manifest", _manifest_with(None, "trigger_mode", "bogus"), "trigger_mode: must be one of search, recommendation"),
        ("manifest", _manifest_with("profiles", "noise_std", -1), "scenario.0.noise_std: must be non-negative, got -1"),
        ("manifest", _manifest_with("profiles", "traffic_share", 7), "scenario.0.traffic_share: must lie in (0, 1], got 7"),
        ("manifest", _manifest_with("profiles", "field_importance", [5] * 11), "scenario.0.field_importance: must lie in"),
        ("manifest", _manifest_with("profiles", "field_importance", [1, 0]), "scenario.0.field_importance: expected 11"),
        ("manifest", _manifest_with("profiles", "label_weights", [float("nan")] * 11),
         "scenario.0.label_weights: nan is not a finite number"),
        # the first profile takes the second one's id, or an id past the last scenario
        ("manifest", _manifest_with("profiles", "scenario_id", 1), "profile scenario ids [1, 1] are not 0..1, each once"),
        ("manifest", _manifest_with("profiles", "scenario_id", 2), "profile scenario ids [1, 2] are not 0..1, each once"),
        ("data", _bad_byte_on_line_3, "line 3: not UTF-8"),
        # the rows agree with the edited profile, so only the manifest check can catch it
        ("both", _scenario_1_without_triggers, "scenario 1 has trigger kind 'none', which search mode does not allow"),
    ],
    ids=[
        "truncated_manifest", "list_manifest", "manifest_without_profiles", "string_vocab_size",
        "manifest_not_utf8", "string_count", "float_count", "bool_count", "profile_with_unknown_key",
        "negative_attr_count", "no_image_width", "unknown_trigger_mode", "negative_noise", "share_above_1",
        "importance_above_1", "importance_of_two_elements", "nan_label_weights",
        "duplicate_scenario_id", "scenario_id_past_the_last", "data_not_utf8",
        "trigger_kind_outside_search_mode",
    ],
)
def test_eval_of_a_corrupt_dataset_exits_3(tmp_path, capsys, target, corrupt, message):
    data = tmp_path / "d.jsonl"
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(data), "--count", "20")
    assert code == 0
    ckpt = tmp_path / "m.ckpt"
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    checkpoint.save_model(ckpt, build_model(Graph(seed=0), config.build_run_config({}, overrides)))
    mpath = tmp_path / "d.jsonl.manifest.json"
    for path in {"manifest": [mpath], "data": [data], "both": [mpath, data]}[target]:
        path.write_bytes(corrupt(path.read_bytes()))
    code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(data))
    assert code == 3, err
    assert message in err
    assert str(data if target == "data" else mpath) in err


def test_eval_of_a_manifest_whose_vocab_was_edited_exits_3(tmp_path, capsys):
    # Raising vocab.items lets an out-of-range item pass line validation; the
    # stored compatibility digest, recomputed, shows the edit.
    data = tmp_path / "d.jsonl"
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(data), "--count", "20")
    assert code == 0
    ckpt = tmp_path / "m.ckpt"
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    checkpoint.save_model(ckpt, build_model(Graph(seed=0), config.build_run_config({}, overrides)))
    mpath = tmp_path / "d.jsonl.manifest.json"
    doc = json.loads(mpath.read_text())
    assert doc["vocab"]["items"] == 30
    doc["vocab"]["items"] = 60
    mpath.write_text(json.dumps(doc))
    lines = data.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["target_item"] = 55
    data.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
    code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(data))
    assert code == 3, err
    assert err.count("\n") == 1
    assert str(mpath) in err and "compat_digest does not match" in err


def test_eval_reports_the_same_bytes_for_the_writers_form_and_json_dumps_form(tmp_path, capsys):
    # The writer's lines take datagen's column path; the same rows re-encoded
    # with json.dumps' default separators take its json path.
    writers = tmp_path / "w.jsonl"
    assert run(capsys, "gen-data", *TINY, "--out", str(writers), "--count", "40")[0] == 0
    ckpt = tmp_path / "m.ckpt"
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    checkpoint.save_model(ckpt, build_model(Graph(seed=0), config.build_run_config({}, overrides)))
    spaced = tmp_path / "s.jsonl"
    spaced.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in writers.read_text().splitlines()))
    manifest_path(spaced).write_bytes(manifest_path(writers).read_bytes())
    manifest = datagen.read_manifest(writers)
    assert datagen._template_table(writers.read_bytes(), manifest) is not None
    assert datagen._template_table(spaced.read_bytes(), manifest) is None

    outputs = []
    for data in (writers, spaced):
        for flag in ((), ("--json",)):
            code, out, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(data), *flag)
            assert code == 0, err
            outputs.append(out)
    assert outputs[:2] == outputs[2:]

    errors = []
    for data in (writers, spaced):  # line 7's user one past the vocabulary, in each form
        lines = data.read_bytes().splitlines(keepends=True)
        lines[6] = re.sub(rb'("user": ?)\d+', rb"\g<1>20", lines[6], count=1)
        data.write_bytes(b"".join(lines))
        code, out, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(data))
        assert (code, out) == (3, "")
        errors.append(err)
    assert errors == [f"error: {data}: line 7: user: 20 outside [0, 20)\n" for data in (writers, spaced)]


@functools.lru_cache(maxsize=None)
def _eval_inputs() -> dict[str, bytes]:
    """Bytes of a tiny dataset, its manifest and a checkpoint trained on it."""
    with tempfile.TemporaryDirectory() as d:
        data, ckpt = Path(d) / "d.jsonl", Path(d) / "m.ckpt"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen-data", *TINY, "--out", str(data), "--count", "40", "--seed", "5"]) == 0
            assert cli.main(["train", *TINY, "--data", str(data), "--model-out", str(ckpt)]) == 0
        return {"data": data.read_bytes(), "manifest": manifest_path(data).read_bytes(), "checkpoint": ckpt.read_bytes()}


# a JSON key (followed by its colon) or a JSON number; the checkpoint's
# header is JSON, and its binary part matches here and there too
_TOKEN = re.compile(rb'"[A-Za-z_]+"(?=:)|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')
_NEW_KEYS = [b'"x"', b'""', b'"count"', b'"scenario"']
_NEW_VALUES = [b"0", b"-1", b"7", b"1.5", b"1e999", b"-1e999", b"18446744073709551616", b"NaN", b"true", b"null", b'"1"', b"[]"]


@st.composite
def _damage(draw):
    """One file of the eval inputs, truncated, with one byte flipped, or with
    one key or number replaced."""
    target = draw(st.sampled_from(sorted(_eval_inputs())))
    raw = _eval_inputs()[target]
    how = draw(st.sampled_from(["truncate", "flip", "edit"]))
    if how == "truncate":
        return target, raw[:draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return target, raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1:]
    token = draw(st.sampled_from(list(_TOKEN.finditer(raw))))
    new = draw(st.sampled_from(_NEW_KEYS if token.group().startswith(b'"') else _NEW_VALUES))
    return target, raw[:token.start()] + new + raw[token.end():]


def _eval_damaged(target: str, raw: bytes) -> tuple[int, str]:
    files = {**_eval_inputs(), target: raw}
    with tempfile.TemporaryDirectory() as d:
        data, ckpt = Path(d) / "d.jsonl", Path(d) / "m.ckpt"
        data.write_bytes(files["data"])
        manifest_path(data).write_bytes(files["manifest"])
        ckpt.write_bytes(files["checkpoint"])
        err = io.StringIO()
        # A flipped exponent bit in a weight overflows in the forward pass; the
        # warning it raises is kept out of the test output.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True):
            code = cli.main(["eval", "--model", str(ckpt), "--data", str(data)])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_damage())
def test_eval_of_damaged_inputs_exits_0_2_or_3_with_one_error_line(damage):
    code, err = _eval_damaged(*damage)
    assert code in (0, 2, 3), err
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith("error: "), err


def _first_record(raw: bytes) -> int:
    """Offset of a checkpoint's first parameter record: magic, version,
    digest, header length, header and parameter count come before it."""
    at = len(checkpoint.MAGIC) + 4 + 32
    (hlen,) = struct.unpack_from("<I", raw, at)
    return at + 4 + hlen + 4


def _with_first_dims(*dims: int):
    def damage(raw: bytes) -> bytes:
        at = _first_record(raw)
        (nlen,) = struct.unpack_from("<H", raw, at)
        at += 2 + nlen
        assert raw[at] == len(dims)
        return raw[:at + 1] + struct.pack(f"<{len(dims)}I", *dims) + raw[at + 1 + 4 * len(dims):]
    return damage


def _first_name_not_utf8(raw: bytes) -> bytes:
    at = _first_record(raw) + 2
    return raw[:at] + b"\xff" + raw[at + 1:]


def _list_scenario_id(raw: bytes) -> bytes:
    doc = json.loads(raw)
    doc["profiles"][0]["scenario_id"] = []
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize(
    "target, damage, message",
    [
        # 2**62 bytes of data: the read's buffer could not be allocated
        ("checkpoint", _with_first_dims(2**31, 2**28), "m.ckpt: truncated checkpoint while reading"),
        # more bytes than an int64 holds: the product wrapped to a negative length
        ("checkpoint", _with_first_dims(2**32 - 1, 2**32 - 1), "m.ckpt: truncated checkpoint while reading"),
        ("checkpoint", _first_name_not_utf8, "parameter name is not UTF-8"),
        ("manifest", _list_scenario_id, "profile scenario ids must be integers"),
    ],
    ids=["huge_dims", "overflowing_dims", "name_not_utf8", "list_scenario_id"],
)
def test_eval_of_damaged_inputs_found_by_the_fuzz_exits_3(target, damage, message):
    code, err = _eval_damaged(target, damage(_eval_inputs()[target]))
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
def test_eval_of_a_checkpoint_value_float32_cannot_hold_exits_3(value):
    raw = _eval_inputs()["checkpoint"]
    at = _first_record(raw)
    (nlen,) = struct.unpack_from("<H", raw, at)
    name = raw[at + 2:at + 2 + nlen].decode("utf-8")
    at += 2 + nlen
    at += 1 + 4 * raw[at]  # rank and dims: the first float follows
    code, err = _eval_damaged("checkpoint", raw[:at] + struct.pack("<d", value) + raw[at + 8:])
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("error: ") and f"parameter {name!r} holds {value!r}" in err


@pytest.mark.parametrize(
    "argv",
    [["train", "--data", "d.jsonl", "--model-out", "m.ckpt"], ["eval", "--model", "m.ckpt", "--data", "d.jsonl"]],
    ids=["train", "eval"],
)
def test_workers_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_train_names_the_eval_file_that_breaks_a_read_rule(data_files, tmp_path, capsys):
    # The training and the held-out file go through the same reader; its
    # error says which of the two is bad.
    train, heldout = data_files
    bad = tmp_path / "b.jsonl"
    lines = heldout.read_text().splitlines()
    obj = json.loads(lines[4])
    obj["user"] = -1
    bad.write_text("\n".join(lines[:4] + [json.dumps(obj)] + lines[5:]) + "\n")
    manifest_path(bad).write_bytes(manifest_path(heldout).read_bytes())
    code, out, err = run(
        capsys, "train", *TINY, "--data", str(train), "--eval-data", str(bad), "--model-out", str(tmp_path / "m.ckpt"),
    )
    assert (code, out) == (3, "")
    assert err == f"error: {bad}: line 5: user: -1 outside [0, 20)\n"


def test_train_eval_round_trip(data_files, tmp_path, capsys):
    train, heldout = data_files
    ckpt = tmp_path / "model.ckpt"
    code, text, _ = run(
        capsys, "train", *TINY, "--data", str(train), "--eval-data", str(heldout),
        "--model-out", str(ckpt), "--json",
    )
    assert code == 0
    trained = json.loads(text)
    assert trained["kind"] == "maria"
    assert trained["eval_split"] == "eval"
    assert len(trained["epoch_losses"]) == 1
    assert ckpt.exists()
    metrics_doc = json.loads((tmp_path / "model.ckpt.metrics.json").read_text())
    assert metrics_doc == trained

    code, text, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(heldout), "--json")
    assert code == 0
    evaluated = json.loads(text)
    assert evaluated["auc"] == pytest.approx(trained["eval"]["auc"], abs=1e-12)
    assert evaluated["per_scenario"] == trained["eval"]["per_scenario"]
    assert set(evaluated["refiner_hist"]) == {"behavior", "user", "item", "trigger", "context"}


def _strict_json(text: str):
    """``json.loads`` that refuses NaN and the infinities, as a strict parser does."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_train_without_epochs_reports_no_final_loss(data_files, tmp_path, capsys):
    train, _ = data_files
    ckpt = tmp_path / "model.ckpt"
    code, text, _ = run(
        capsys, "train", *TINY, "--set", "train.epochs=0", "--data", str(train), "--model-out", str(ckpt), "--json",
    )
    assert code == 0
    doc = _strict_json(text)
    assert doc["steps"] == 0 and doc["final_loss"] is None
    assert _strict_json((tmp_path / "model.ckpt.metrics.json").read_text()) == doc


def test_eval_of_no_instances_reports_no_loss(data_files, tmp_path, capsys):
    train, _ = data_files
    ckpt, empty = tmp_path / "model.ckpt", tmp_path / "empty.jsonl"
    assert run(capsys, "train", *TINY, "--data", str(train), "--model-out", str(ckpt))[0] == 0
    assert run(capsys, "gen-data", *TINY, "--out", str(empty), "--count", "0")[0] == 0
    code, text, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(empty), "--json")
    assert code == 0
    doc = _strict_json(text)
    assert doc["count"] == 0 and doc["loss"] is None and doc["auc"] is None
    code, text, _ = run(capsys, "eval", "--model", str(ckpt), "--data", str(empty))
    assert code == 0 and text.startswith("instances 0  loss n/a  auc n/a")


def test_train_exits_1_on_a_non_finite_gradient(data_files, tmp_path, capsys, monkeypatch):
    backward = autodiff.backward

    def poisoned_backward(loss):
        backward(loss)
        loss.graph.nodes[0].grad.flat[0] = np.inf

    monkeypatch.setattr(autodiff, "backward", poisoned_backward)
    train, _ = data_files
    code, _, err = run(capsys, "train", *TINY, "--data", str(train), "--model-out", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert "(embeddings) became non-finite at step 0" in err  # node 0 is the first table
    assert not (tmp_path / "m.ckpt").exists()


def test_train_baseline_and_disable(data_files, tmp_path, capsys):
    train, heldout = data_files
    code, text, _ = run(
        capsys, "train", *TINY, "--data", str(train), "--model-out", str(tmp_path / "mmoe.ckpt"),
        "--baseline", "mmoe", "--json",
    )
    assert code == 0
    assert json.loads(text)["kind"] == "mmoe"

    code, text, _ = run(
        capsys, "train", *TINY, "--data", str(train), "--model-out", str(tmp_path / "bare.ckpt"),
        "--disable", "fs,fr,fcm,nl,st,gs", "--json",
    )
    assert code == 0
    bare = json.loads(text)
    code, text, _ = run(
        capsys, "train", *TINY, "--data", str(train), "--model-out", str(tmp_path / "full.ckpt"), "--json"
    )
    assert code == 0
    assert bare["parameters"] < json.loads(text)["parameters"]
    assert bare["eval"]["refiner_hist"] == {}


@pytest.mark.parametrize("settings, eval_data, message", [
    (["train.early_stop_patience=1"], True, "train.early_stop_patience: 1 needs train.eval_every above 0"),
    (["train.early_stop_patience=1", "train.eval_every=1"], False, "train.early_stop_patience: 1 needs --eval-data"),
])
def test_train_refuses_early_stopping_that_could_never_stop(data_files, tmp_path, capsys, settings, eval_data, message):
    # Before, either run trained every epoch and reported stopped_early false.
    train, heldout = data_files
    sets = [arg for item in settings for arg in ("--set", item)]
    more = ["--eval-data", str(heldout)] if eval_data else []
    ckpt = tmp_path / "m.ckpt"
    code, _, err = run(capsys, "train", *TINY, *sets, "--data", str(train), *more, "--model-out", str(ckpt))
    assert code == 2 and message in err
    assert not ckpt.exists()


def test_incompatible_data_exits_2(data_files, tmp_path, capsys):
    train, _ = data_files
    code, _, err = run(
        capsys, "train", *TINY, "--set", "vocab.items=31", "--data", str(train),
        "--model-out", str(tmp_path / "m.ckpt"),
    )
    assert code == 2 and "incompatible" in err


def test_eval_rejects_mismatched_dataset(data_files, tmp_path, capsys):
    train, _ = data_files
    ckpt = tmp_path / "m.ckpt"
    code, _, _ = run(capsys, "train", *TINY, "--data", str(train), "--model-out", str(ckpt), "--json")
    assert code == 0
    other = tmp_path / "other.jsonl"
    code, _, _ = run(capsys, "gen-data", *TINY, "--set", "vocab.items=31", "--out", str(other), "--count", "40")
    assert code == 0
    code, _, err = run(capsys, "eval", "--model", str(ckpt), "--data", str(other))
    assert code == 2 and "incompatible" in err


def test_eval_of_a_checkpoint_whose_parameter_shape_differs_from_its_model_exits_3(tmp_path, capsys):
    """A checkpoint of the trigger scorer that pooled by ``[trigger;
    behaviour] -> 1`` holds ``bottom.trigger_sim.w0`` as (t + d, 1); the
    model its spec builds has the trigger query, (t, d). It is refused."""
    data, path = tmp_path / "d.jsonl", tmp_path / "m.ckpt"
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(data), "--count", "40")
    assert code == 0
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    model = build_model(Graph(seed=0), config.build_run_config({}, overrides))
    params = [(n, v.data) for n, v in model.named_parameters()]
    t, d = model.bottom.query_net.weights[0].shape
    old = [(n, np.zeros((t + d, 1)) if n == "bottom.trigger_sim.w0" else a) for n, a in params]
    checkpoint.save_checkpoint(path, model.spec(), old)
    code, _, err = run(capsys, "eval", "--model", str(path), "--data", str(data))
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{path}: parameter 'bottom.trigger_sim.w0': saved shape ({t + d}, 1), model expects ({t}, {d})" in err


def test_eval_of_a_checkpoint_holding_a_one_refiner_fields_selector_exits_3(tmp_path, capsys):
    """A checkpoint saved when every field built a selector also holds the
    selector records of its one-refiner fields; the model its spec builds
    has none. It is refused, and the extra records are named."""
    data, path = tmp_path / "d.jsonl", tmp_path / "m.ckpt"
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(data), "--count", "40")
    assert code == 0
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    model = build_model(Graph(seed=0), config.build_run_config({}, overrides))
    lone = [f for f, n in model.fr.counts.items() if n == 1]
    assert lone and all(f not in model.fr.selectors for f in lone)
    dead = [(f"adaptive.fr.{f}.selector.{p}", np.zeros(1)) for f in lone for p in ("w0", "b0")]
    checkpoint.save_checkpoint(path, model.spec(), [(n, v.data) for n, v in model.named_parameters()] + dead)
    code, _, err = run(capsys, "eval", "--model", str(path), "--data", str(data))
    assert code == 3, err
    assert err.count("\n") == 1 and err.startswith("error: ")
    extra = sorted(n for n, _ in dead)
    assert f"{path}: parameter names disagree with the saved architecture: missing [], extra {extra}" in err


def test_eval_of_a_checkpoint_whose_spec_cannot_build_a_model_exits_3(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    code, _, _ = run(capsys, "gen-data", *TINY, "--out", str(data), "--count", "40")
    assert code == 0
    overrides = dict(p.split("=", 1) for p in TINY[1::2])
    model = build_model(Graph(seed=0), config.build_run_config({}, overrides))
    params = [(n, v.data) for n, v in model.named_parameters()]

    def eval_with(spec):
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(path, spec, params)
        return run(capsys, "eval", "--model", str(path), "--data", str(data))

    code, _, _ = eval_with(model.spec())
    assert code == 0
    unknown_kind = {**model.spec(), "kind": "bogus"}
    missing_key = {k: v for k, v in model.spec().items() if k != "vocab"}
    unknown_field = model.spec()
    unknown_field["model"]["bogus_width"] = 3
    wrong_type = model.spec()
    wrong_type["model"]["refiner_counts"] = [1, 2]
    missing_model_field = model.spec()
    del missing_model_field["model"]["ffn_multiplier"]
    no_heads = model.spec()
    no_heads["model"]["attention_heads"] = 0
    no_expert_width = model.spec()
    no_expert_width["model"]["expert_hidden"] = 0

    def with_model(name, value):
        spec = model.spec()
        spec["model"][name] = value
        return spec

    for spec, cause in (
        (unknown_kind, "ValueError"), (missing_key, "KeyError"),
        (unknown_field, "TypeError"), (wrong_type, "model.refiners: expected one count for each of"),
        (missing_model_field, "TypeError"),
        (no_heads, "model.attention_heads: must be positive"), (no_expert_width, "model.expert_hidden: must be positive"),
        (with_model("encoder_layers", 0), "model.encoder_layers: must be positive"),
        (with_model("ffn_multiplier", 0), "model.ffn_multiplier: must be positive"),
        (with_model("scale_hidden", 0), "model.scale_hidden: must be positive"),
        (with_model("refiner_counts", {}), "model.refiners: expected one count for each of"),
        (with_model("experts", 0), "model.experts: must be positive"),
        (with_model("correlation_dim", 3.0), "model.correlation_dim: 3.0 is not an integer"),
        # encoder width 4 + 2 * 3 = 10
        (with_model("attention_heads", 3), "model.attention_heads: encoder width 10"),
        # "no" is truthy, so as it stood it would have built feature scaling
        ({**model.spec(), "flags": {**model.spec()["flags"], "fs": "no"}}, "flags.fs: 'no' is not a bool"),
        ({**model.spec(), "flags": {**model.spec()["flags"], "nl": 0}}, "flags.nl: 0 is not a bool"),
        ({**model.spec(), "flags": {"bogus": False}}, "flags.bogus: unknown flag"),
    ):
        code, _, err = eval_with(spec)
        assert code == 3, err
        assert "spec cannot build a model" in err and cause in err

    header = b'{"spec": {}}'  # passes its digest, but has no meta
    raw = tmp_path / "raw.ckpt"
    raw.write_bytes(
        checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + hashlib.sha256(header).digest()
        + struct.pack("<I", len(header)) + header + struct.pack("<I", 0)
    )
    code, _, err = run(capsys, "eval", "--model", str(raw), "--data", str(data))
    assert code == 3 and "KeyError" in err


def test_gradcheck_pass_fail_and_bad_group(capsys):
    args = [
        "gradcheck", *TINY, "--count", "6", "--seed", "3", "--coords", "1",
    ]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "ok" in out and "FAIL" not in out

    code, out, err = run(capsys, *args, "--corrupt-group", "mixture", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["failing"] == ["mixture"]
    assert doc["per_group"]["mixture"] > 1e-2
    assert "mixture" in err

    code, _, err = run(capsys, *args, "--corrupt-group", "bogus")
    assert code == 2 and "bogus" in err


def test_gradcheck_reports_the_harness_on_a_float64_graph(capsys):
    code, out, _ = run(capsys, "gradcheck", *TINY, "--count", "6", "--seed", "3", "--coords", "1", "--json")
    assert code == 0
    overrides = dict(p.split("=", 1) for p in TINY[1::2]) | {"gen.count": "6", "gen.seed": "3", "train.seed": "3"}
    cfg = config.build_run_config({}, overrides)
    graph = Graph(seed=3, dtype=np.float64)
    expected = training.gradient_check(graph, build_model(graph, cfg), datagen.generate(cfg)[0].instances, coords_per_tensor=1)
    doc = json.loads(out)
    assert (doc["per_group"], doc["overall"], doc["coords"]) == (expected.per_group, expected.overall, expected.coords)


@pytest.mark.parametrize(
    "flag, value",
    [("--coords", "0"), ("--coords", "-1"), ("--count", "0")],
    ids=["no_coords", "negative_coords", "empty_batch"],
)
def test_gradcheck_refuses_a_size_below_one(capsys, flag, value):
    code, _, err = run(capsys, "gradcheck", *TINY, flag, value)
    assert code == 2
    assert err == f"error: {flag} must be at least 1, got {value}\n"


@pytest.mark.parametrize("variants", ["wo_fs", ",", "wo_fs,wo_fr"])
def test_ablate_refuses_variants_without_full_before_reading_data(tmp_path, capsys, variants):
    # the data files do not exist: the list is refused before anything is read or trained
    code, _, err = run(
        capsys, "ablate", *TINY, "--data", str(tmp_path / "none.jsonl"),
        "--eval-data", str(tmp_path / "none.jsonl"), "--variants", variants,
    )
    assert code == 2
    assert err == "error: --variants: the list must include full, which every gain is measured against\n"


def test_ablate_json_gains(data_files, capsys):
    train, heldout = data_files
    code, text, _ = run(
        capsys, "ablate", *TINY, "--data", str(train), "--eval-data", str(heldout),
        "--variants", "full,wo_st", "--json",
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc["results"]) == {"full", "wo_st"}
    assert "total_gain" in doc["gains"]["wo_st"]
    assert doc["results"]["wo_st"]["parameters"] < doc["results"]["full"]["parameters"]

    code, _, err = run(
        capsys, "ablate", *TINY, "--data", str(train), "--eval-data", str(heldout), "--variants", "wo_zz"
    )
    assert code == 2 and "wo_zz" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", "x.jsonl"])  # --model-out missing
    capsys.readouterr()
    assert exc.value.code == 2
    assert cli.main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("count", [4, 9])
def test_quickstart_runs_where_eval_metrics_are_undefined(tmp_path, count):
    # 4 rows leave an empty eval log; 9 leave one eval row, whose Bayes AUC,
    # AUC and PCOC are undefined.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "quickstart.py"), "--count", str(count), "--workdir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "eval bayes auc n/a" in proc.stdout


@pytest.mark.parametrize("eval_count", [0, 1])
def test_run_benchmark_reports_where_the_eval_bayes_auc_is_undefined(eval_count):
    # an empty eval log, or one row: its Bayes AUC, like every eval AUC, is undefined
    lines = []
    report = benchmark.run_benchmark(
        kinds=("hard_sharing",), seeds=(0,), train_count=40, eval_count=eval_count, log_fn=lines.append
    )
    assert report.eval_bayes is None and report.train_bayes is not None
    assert lines[0].endswith("eval bayes auc n/a")
    assert f"train bayes auc {report.train_bayes:.4f}, eval bayes auc n/a" in report.summary()
    assert json.loads(json.dumps(report.to_dict()))["eval_bayes"] is None


def test_help_enumerates_config_keys():
    proc = subprocess.run(
        [sys.executable, "-m", "maria.cli", "train", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for key in ("vocab.users", "train.learning_rate", "scenario.N.trigger_kind", "gen.seed"):
        assert key in proc.stdout
