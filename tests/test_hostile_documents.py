"""One hostile-document property for each JSON input of the CLI.

The scenario spec, the model file, the corpus manifest and `--config` each
declare their fields' kinds as one table, checked by `core.check_field`. Here
hypothesis takes a valid document, replaces one field drawn from that table
(or the whole document) with a hostile JSON value, and runs `cli.main`
in-process: it must return 0 or 2, raise nothing and warn nothing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ausentinel import ingest, model, simgen
from ausentinel.cli import build_parser, main
from ausentinel.core import N_AUS
from ausentinel.model import N_CLASSES, N_HIDDEN, ModelParams

# Raw JSON texts: the wrong kind for most fields, `true` for an integer, the
# non-finite numbers `json` reads, huge and negative numbers, an integer too
# long to decode, nesting too deep to decode and a list of 10^6 elements.
HOSTILE = ('"text"', "true", "null", "1.5", "[]", "{}", "[1, 2]", "NaN", "Infinity",
           "-Infinity", "1e308", "-1e308", "-1", "9" * 5000,
           "[" * 100_000 + "]" * 100_000, "[" + ",".join(["0"] * 1_000_000) + "]")

# Fields no table holds: objects and lists whose entries are checked one by
# one, and fields that must equal a literal.
NOT_IN_A_TABLE = {"errors", "profile", "occlusion_windows", "amplitudes",
                  "error_type", "catalog_hash", "activation"}

_HOLE = "\x00hole\x00"  # where the hostile text goes in a dumped document


def _with(doc, path, raw: str) -> str:
    """`doc` as JSON text with the value at `path` (keys and list indices;
    empty for the whole document) replaced by the raw JSON text `raw`."""
    if not path:
        return raw
    doc = json.loads(json.dumps(doc))
    at = doc
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = _HOLE
    return json.dumps(doc).replace(json.dumps(_HOLE), raw)


def _run(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def _no_string_for(is_string: bool, raw: str) -> None:
    """A string field is not handed a string, which could name a file that
    does not exist (exit 1, a runtime failure)."""
    assume(not (is_string and raw.startswith('"')))


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """A one-trial spec, a corpus simulated from it, a model and a stream."""
    root = tmp_path_factory.mktemp("hostile")
    spec = {"participants": 2, "trials_per_participant": 1, "seed": 1, "trial_len_s": 6.0,
            "errors": [{"error_type": "physical", "perceived_error_start_s": 2.0,
                        "predictable": False}],
            "profile": {"attack_s": 1.0}}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(root / "spec.json"), "--out",
                 str(root / "corpus")]) == 0
    model.save(ModelParams(w1=np.zeros((N_AUS, N_HIDDEN)), b1=np.zeros(N_HIDDEN),
                           w2=np.zeros((N_HIDDEN, N_CLASSES)), b2=np.array([0.0, 5.0])),
               root / "model.json")
    shutil.copytree(root / "corpus", root / "edited")
    return {"root": root, "spec": spec, "stream": root / "corpus" / "frames" / "p00_t00.jsonl",
            "manifest": json.loads((root / "corpus" / "manifest.json").read_text()),
            "model": json.loads((root / "model.json").read_text())}


def test_every_field_is_in_a_table(env):
    # A field added to a document but to no table would skip the checker.
    for cls, table in ((simgen.ScenarioSpec, simgen._SPEC_FIELDS),
                       (simgen.ReactionProfile, simgen._PROFILE_FIELDS),
                       (simgen.ErrorPlan, simgen._PLAN_FIELDS)):
        assert {f.name for f in dataclasses.fields(cls)} <= set(table) | NOT_IN_A_TABLE, cls
    assert set(env["model"]) <= set(model._FIELDS) | set(model._SHAPES) | NOT_IN_A_TABLE
    assert set(env["manifest"]["trials"][0]) <= set(ingest._TRIAL_FIELDS)


_SPEC_PATHS = ([(name,) for name in simgen._SPEC_FIELDS]
               + [("profile", name) for name in simgen._PROFILE_FIELDS]
               + [("errors", 0, name) for name in simgen._PLAN_FIELDS] + [()])


_RAW = st.sampled_from(HOSTILE)


# The examples are faults this property found: each was a traceback, exit 1.
@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(_SPEC_PATHS), raw=_RAW)
@example(path=("baseline_noise",), raw="1e308")
def test_a_hostile_scenario_spec_is_exit_0_or_2(env, path, raw):
    spec = env["root"] / "hostile_spec.json"
    spec.write_text(_with(env["spec"], path, raw))
    assert _run(["simulate", "--spec", str(spec), "--out", str(env["root"] / "out")]) in (0, 2)


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from([(name,) for name in [*model._FIELDS, *model._SHAPES]] + [()]),
       raw=_RAW)
def test_a_hostile_model_file_is_exit_0_or_2(env, path, raw):
    doc = env["root"] / "hostile_model.json"
    doc.write_text(_with(env["model"], path, raw))
    assert _run(["detect", "--model", str(doc), "--input", str(env["stream"]),
                 "--out", os.devnull]) in (0, 2)


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from([("trials", 0, name) for name in ingest._TRIAL_FIELDS] + [()]),
       raw=_RAW)
@example(path=("trials", 0, "trial_start"), raw="1e308")
@example(path=("trials", 0, "trial_start"), raw="-1e308")
@example(path=("trials", 0, "trial_start"), raw="9" * 400)
def test_a_hostile_corpus_manifest_is_exit_0_or_2(env, path, raw):
    _no_string_for(bool(path) and ingest._TRIAL_FIELDS[path[-1]] == (str,), raw)
    corpus = env["root"] / "edited"
    (corpus / "manifest.json").write_text(_with(env["manifest"], path, raw))
    assert _run(["detect", "--model", str(env["root"] / "model.json"),
                 "--corpus", str(corpus), "--out", os.devnull]) in (0, 2)


def _command_argv(env, command: str) -> list[str]:
    root = env["root"]
    return {
        "train": ["train", "--corpus", str(root / "corpus"), "--out", str(root / "m.json")],
        "detect": ["detect", "--model", str(root / "model.json"), "--input",
                   str(env["stream"]), "--out", os.devnull],
        "evaluate": ["evaluate", "--corpus", str(root / "corpus")],
        "simulate": ["simulate", "--spec", str(root / "spec.json"), "--out", str(root / "out")],
        "analyze": ["analyze", "--corpus", str(root / "corpus")],
    }[command]


# Each command's flags by dest, the table a `--config` file is checked by;
# None stands for the whole document.
_FLAGS = {(command, action.dest): action for command, sub in build_parser()[1].items()
          for action in sub._actions if action.dest not in ("help", "config")}
_FLAGS.update({(command, None): None for command in build_parser()[1]})


@settings(max_examples=60, deadline=None)
@given(flag=st.sampled_from(sorted(_FLAGS, key=str)), raw=_RAW)
@example(flag=("detect", "trial_start"), raw="1e308")
@example(flag=("detect", "trial_start"), raw="-1e308")
@example(flag=("train", "learning_rate"), raw="1e308")
@example(flag=("evaluate", "learning_rate"), raw="1e308")
def test_a_hostile_config_file_is_exit_0_or_2(env, flag, raw):
    command, dest = flag
    action = _FLAGS[flag]
    _no_string_for(action is not None and action.type is None and action.nargs != 0, raw)
    # Two epochs keep training short; a replaced field may be the epochs.
    valid = {"epochs": 2} if command in ("train", "evaluate") else {}
    config = env["root"] / "config.json"
    config.write_text(_with(valid, (dest,) if dest else (), raw))
    assert _run(_command_argv(env, command) + ["--config", str(config)]) in (0, 2)


# Five ways a JSON input fails to be read, as the bytes its file holds: None
# is no file, "dir" a directory in its place.
_UNREADABLE = {"missing": None, "directory": "dir", "bad-utf8": b"\xff{}",
               "truncated": b"[", "too-deep": b"[" * 100_000 + b"]" * 100_000}


@pytest.mark.parametrize("case", list(_UNREADABLE))
@pytest.mark.parametrize("document", ["config", "model", "spec", "manifest"])
def test_an_unreadable_json_input_is_refused(env, tmp_path, capsys, document, case):
    root = env["root"]
    corpus = tmp_path / "corpus"
    path = tmp_path / f"{document}.json"
    argv = {"config": ["analyze", "--corpus", str(root / "corpus"), "--config", str(path)],
            "model": ["detect", "--model", str(path), "--input", str(env["stream"]),
                      "--out", os.devnull],
            "spec": ["simulate", "--spec", str(path), "--out", str(tmp_path / "out")],
            "manifest": ["analyze", "--corpus", str(corpus)]}[document]
    if document == "manifest":
        shutil.copytree(root / "corpus", corpus)
        path = corpus / "manifest.json"
        path.unlink()
    content = _UNREADABLE[case]
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    # A file the package cannot open is a runtime failure (exit 1), but for
    # --config and a corpus without a manifest; one it cannot decode is a
    # contract error (exit 2) naming the input.
    if document == "manifest":
        rc, said = {"missing": (2, f"error: no manifest.json in {corpus}\n"),
                    "directory": (1, "error: [Errno ")}.get(
                        case, (2, "error: unreadable manifest.json: "))
    elif document == "config" or case not in ("missing", "directory"):
        what = {"config": "config", "model": "model", "spec": "scenario"}[document]
        rc, said = 2, f"error: unreadable {what} file {path}: "
    else:
        rc, said = 1, "error: [Errno "
    assert _run(argv) == rc
    assert capsys.readouterr().err.startswith(said)
