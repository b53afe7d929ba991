"""Command-line surface: parsing, config merge, and the full pipeline."""

import gc
import hashlib
import io
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from ausentinel.cli import build_parser, main
from conftest import PINNED_COMMANDS


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A simulated corpus plus a model trained on it, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scenario.json"
    spec_path.write_text(json.dumps({
        "participants": 4,
        "trials_per_participant": 3,
        "seed": 20,
        "trial_len_s": 30.0,
        "errors": [
            {"error_type": "physical", "perceived_error_start_s": 8.0},
            {"error_type": "concept", "perceived_error_start_s": 16.0},
            {"error_type": "none"},
        ],
    }))
    corpus = root / "corpus"
    model = root / "model.json"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--out", str(model),
                 "--epochs", "120"]) == 0
    return {"root": root, "spec": spec_path, "corpus": corpus, "model": model}


def test_parser_covers_all_commands():
    parser, subs = build_parser()
    assert set(subs) == {"train", "detect", "evaluate", "simulate", "analyze"}
    args = parser.parse_args([
        "detect", "--model", "m.json", "--input", "s.jsonl", "--format", "csv",
        "--window-len", "7", "--threshold", "4.5", "--merge-gap", "2",
        "--warmup", "3", "--min-confidence", "0.6", "--fps", "30",
        "--aggregator", "max", "--trial-id", "live", "--trial-start", "1.5",
    ])
    assert args.command == "detect" and args.window_len == 7
    args = parser.parse_args([
        "evaluate", "--corpus", "c", "--finetune-per-participant",
        "--finetune-epochs", "40", "--finetune-learning-rate", "0.05",
    ])
    assert args.finetune_per_participant is True


def test_flag_defaults_are_the_librarys():
    # Each flag with a library counterpart defaults to it, of the same kind,
    # in every command that has it; and evaluate's fine-tune is the one recipe.
    from ausentinel.detector import WindowConfig
    from ausentinel.ingest import ERROR_BUDGET, ArbitrationPolicy
    from ausentinel.model import TrainConfig, finetune_recipe

    policy, window, hyper = ArbitrationPolicy(), WindowConfig(), TrainConfig()
    recipe = finetune_recipe(hyper)
    library = {
        "min_confidence": policy.min_confidence, "fps": policy.fps,
        "aggregator": policy.aggregator, "window_len": window.window_len,
        "threshold": window.threshold, "merge_gap": window.merge_gap,
        "warmup": window.warmup, "epochs": hyper.epochs,
        "learning_rate": hyper.learning_rate, "seed": hyper.seed,
        "error_budget": ERROR_BUDGET, "finetune_epochs": recipe.epochs,
        "finetune_learning_rate": recipe.learning_rate,
    }
    _, subs = build_parser()
    seen = set()
    for command, sub in subs.items():
        for action in sub._actions:
            if action.dest in library:
                want = library[action.dest]
                assert (action.default, type(action.default)) == (want, type(want)), \
                    (command, action.dest)
                seen.add(action.dest)
    assert seen == set(library)


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command, dest, value, message", [
    ("evaluate", "epochs", -1, "epochs must be >= 0"),
    ("evaluate", "window_len", 0, "window_len must be >= 1"),
    ("evaluate", "threshold", 99.0, "threshold must be in (0, window_len=11]"),
    ("evaluate", "seed", -1, "seed must be >= 0"),
    ("train", "learning_rate", 0.0, "learning_rate must be > 0 and finite"),
    ("detect", "window_len", 0, "window_len must be >= 1"),
])
def test_bad_settings_are_refused_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                          where, command, dest, value,
                                                          message):
    # Each was once refused only after the whole corpus had been read.
    from ausentinel import cli, evaluation

    def never(*args, **kwargs):
        raise AssertionError("read input before every setting was checked")

    for name in ("read_corpus", "load"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(evaluation, "loocv_folds", never)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({dest: value}))
    given = {"flag": [f"--{dest.replace('_', '-')}", str(value)],
             "config": ["--config", str(config)]}[where]
    out = tmp_path / "out"
    argv = {"train": ["--out", str(out)], "detect": ["--model", "m.json", "--out", str(out)],
            "evaluate": ["--report-json", str(out)]}[command]
    assert main([command, "--corpus", str(tmp_path / "corpus"), *argv, *given]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_argparse_rejects_missing_required():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", "m.json"])  # no --corpus
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["detect", "--model", "m", "--input", "a", "--corpus", "b"])


def test_simulate_and_train_outputs(cli_env, capsys):
    assert (cli_env["corpus"] / "manifest.json").exists()
    assert (cli_env["corpus"] / "annotations.csv").exists()
    doc = json.loads(cli_env["model"].read_text())
    assert doc["version"] == 1 and doc["epochs"] == 120


def test_train_report(cli_env, tmp_path, capsys):
    report = tmp_path / "train.json"
    rc = main(["train", "--corpus", str(cli_env["corpus"]),
               "--out", str(tmp_path / "m.json"),
               "--epochs", "5", "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trained on 12 trials" in out
    doc = json.loads(report.read_text())
    assert len(doc["epochs"]) == 5
    assert doc["final_loss"] == doc["epochs"][-1]["loss"]


def test_detect_over_corpus(cli_env, tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    rc = main(["detect", "--model", str(cli_env["model"]),
               "--corpus", str(cli_env["corpus"]), "--out", str(events_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["timesteps"] == 12 * 90
    events = [json.loads(line) for line in events_path.read_text().splitlines()]
    assert len(events) == summary["events"]
    assert summary["events"] >= 4  # every seeded error trial should fire
    for ev in events:
        assert set(ev) == {"trial_id", "detected_at", "estimated_start",
                           "detected_t_seconds", "estimated_t_seconds",
                           "score", "merged"}


def test_detect_single_stream(cli_env, tmp_path, capsys):
    stream = cli_env["corpus"] / "frames" / "p00_t00.jsonl"
    rc = main(["detect", "--model", str(cli_env["model"]),
               "--input", str(stream), "--trial-id", "p00_t00",
               "--out", str(tmp_path / "ev.jsonl")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["timesteps"] == 90


def test_detect_from_stdin(cli_env, capsys, monkeypatch):
    text = (cli_env["corpus"] / "frames" / "p00_t01.jsonl").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc = main(["detect", "--model", str(cli_env["model"])])
    assert rc == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary["timesteps"] == 90
    # events (if any) went to stdout as JSONL
    for line in captured.out.strip().splitlines():
        if line:
            json.loads(line)


def _detect_over_tcp(model, payload: bytes, events_path, *, flags=(), hold_open=False):
    """Run `detect --listen` in a thread, send it `payload`; returns its exit code.

    With `hold_open` the peer keeps its end open until `detect` returns."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    result = {}

    def serve():
        result["rc"] = main(["detect", "--model", str(model),
                             "--listen", f"127.0.0.1:{port}",
                             "--out", str(events_path), *flags])

    server = threading.Thread(target=serve)
    server.start()
    client = None
    for _ in range(100):
        try:
            client = socket.create_connection(("127.0.0.1", port), timeout=1.0)
            break
        except OSError:
            time.sleep(0.05)
    assert client is not None, "detector never started listening"
    client.sendall(payload)
    if not hold_open:
        client.close()
    server.join(timeout=20)
    client.close()
    assert not server.is_alive()
    return result["rc"]


def test_detect_listen_tcp(cli_env, tmp_path):
    events_path = tmp_path / "ev.jsonl"
    payload = (cli_env["corpus"] / "frames" / "p00_t00.jsonl").read_bytes()
    assert _detect_over_tcp(cli_env["model"], payload, events_path) == 0
    assert events_path.exists()


@pytest.mark.parametrize("idle", [True, False], ids=["idle-peer", "closing-peer"])
def test_detect_listen_ends_the_stream_of_an_idle_peer_as_at_a_close(
        tmp_path, capsys, caplog, monkeypatch, idle):
    # The peer sends two timesteps of frames and a last line without its
    # newline, then either goes quiet with its end open or closes it. Once
    # LISTEN_IDLE_S has passed, the quiet peer's stream ends as the closed
    # one does: the same events, summary and skipped last line.
    from ausentinel import cli
    from ausentinel.core import StreamStats

    monkeypatch.setattr(cli, "LISTEN_IDLE_S", 0.3)
    model, events = tmp_path / "model.json", tmp_path / "events.jsonl"
    _always_firing_model(model)
    lines = "".join(_frame_line("cam_a", k) + "\n" for k in range(20))
    payload = (lines + _frame_line("cam_a", 20)[:30]).encode()
    with caplog.at_level("WARNING"):
        rc = _detect_over_tcp(model, payload, events, hold_open=idle,
                              flags=["--window-len", "1", "--threshold", "0.5"])
    assert rc == 0
    # Timestep 1 closes only when the builder finishes.
    assert [json.loads(line)["detected_at"] for line in events.read_text().splitlines()] \
        == [0, 1]
    summary = _summary(capsys.readouterr().err)
    assert set(summary) == set(vars(StreamStats()))
    assert (summary["frames_read"], summary["timesteps"], summary["records_skipped"]) \
        == (20, 2, 1)
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert [m.split(":")[0] for m in warned] == [
        *(["stream ended idle"] if idle else []),
        "skipping malformed record at line 21", "skipped 1 malformed records"]
    if idle:
        assert warned[0] == "stream ended idle: nothing received for 0.3 s"


def test_detect_listen_closes_its_socket_when_the_stream_fails(tmp_path, capsys):
    model = tmp_path / "model.json"
    _always_firing_model(model)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _detect_over_tcp(model, b"not json\n", tmp_path / "events.jsonl")
        gc.collect()
    assert rc == 2
    assert "unreadable first record" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("address", [
    "127.0.0.1:70000", "127.0.0.1:\u00b2", "127.0.0.1:", "127.0.0.1:-1", "127.0.0.1: 80",
    "127.0.0.1:" + "9" * 5000,
], ids=["past-65535", "superscript-digit", "empty", "negative", "space", "5000-digits"])
def test_detect_listen_refuses_a_port_outside_0_to_65535(tmp_path, capsys, monkeypatch,
                                                         address, where):
    # 70000 was an OverflowError from bind(), and the superscript two passed
    # str.isdigit() into a ValueError from int(): tracebacks, exit 1.
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket opened for a refused address")

    monkeypatch.setattr(socket, "socket", no_socket)
    model = tmp_path / "model.json"
    _always_firing_model(model)
    if where == "flag":
        flags = ["--listen", address]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"listen": address}))
        flags = ["--config", str(tmp_path / "config.json")]
    assert main(["detect", "--model", str(model), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: --listen wants host:port")


def _count_matches(monkeypatch) -> list:
    """Count calls to `evaluation.match`, one list item per call."""
    from ausentinel import evaluation

    calls = []
    real = evaluation.match

    def counted(events, gt):
        calls.append(1)
        return real(events, gt)

    monkeypatch.setattr(evaluation, "match", counted)
    return calls


def test_evaluate_with_model(cli_env, tmp_path, capsys, monkeypatch):
    rj = tmp_path / "report.json"
    rc_csv = tmp_path / "report.csv"
    matches = _count_matches(monkeypatch)
    rc = main(["evaluate", "--corpus", str(cli_env["corpus"]),
               "--model", str(cli_env["model"]),
               "--report-json", str(rj), "--report-csv", str(rc_csv)])
    assert rc == 0
    assert len(matches) == 12  # the score and the report's rows share one match per trial
    report = json.loads(rj.read_text())
    assert report["mode"] == "model"
    assert report["score"]["n_trials"] == 12
    assert rc_csv.read_text().startswith("scope,")


def test_evaluate_loocv_with_finetune(cli_env, tmp_path, capsys, monkeypatch):
    rj = tmp_path / "report.json"
    matches = _count_matches(monkeypatch)
    rc = main(["evaluate", "--corpus", str(cli_env["corpus"]),
               "--epochs", "60", "--finetune-per-participant",
               "--finetune-epochs", "20", "--report-json", str(rj)])
    assert rc == 0
    # LOOCV scores all 12 trials; the base and the fine-tuned models each score
    # the 8 trials left after every participant's adapt trial.
    assert len(matches) == 12 + 8 + 8
    report = json.loads(rj.read_text())
    assert report["mode"] == "loocv"
    assert "finetune" in report
    assert "fine-tuning: mean delay" in capsys.readouterr().out


def _keep_trials(corpus, keep):
    """Drop from the manifest each trial whose id `keep` refuses."""
    path = corpus / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["trials"] = [t for t in manifest["trials"] if keep(t["trial_id"])]
    path.write_text(json.dumps(manifest))


_QUICK_FINETUNE = ["--epochs", "1", "--finetune-per-participant", "--finetune-epochs", "1"]


def test_evaluate_finetune_passes_over_a_participant_with_one_trial(cli_env, tmp_path):
    # p03 keeps one trial: its fold is fine-tuned on nothing and scores
    # nothing after, and the comparison lists the three other participants.
    from ausentinel.evaluation import loocv_folds
    from ausentinel.ingest import read_corpus
    from ausentinel.model import TrainConfig, finetune_recipe

    corpus = tmp_path / "corpus"
    shutil.copytree(cli_env["corpus"], corpus)
    _keep_trials(corpus, lambda trial_id: trial_id[:3] != "p03" or trial_id == "p03_t00")
    report = tmp_path / "report.json"
    assert main(["evaluate", "--corpus", str(corpus), *_QUICK_FINETUNE,
                 "--report-json", str(report)]) == 0
    rows = json.loads(report.read_text())["finetune"]["per_participant"]
    assert [(r["participant_id"], r["adapt_trial_id"], len(r["tuned_delays_s"]))
            for r in rows] == [("p00", "p00_t00", 2), ("p01", "p01_t00", 2),
                               ("p02", "p02_t00", 2)]
    hyper = TrainConfig(epochs=1)
    folds = loocv_folds(read_corpus(corpus), hyper, finetune_hyper=finetune_recipe(hyper))
    assert [(f.participant_id, f.tuned is None, len(f.tuned_scored)) for f in folds] == [
        ("p00", False, 2), ("p01", False, 2), ("p02", False, 2), ("p03", True, 0)]


def test_evaluate_finetune_of_one_trial_per_participant_is_exit_2(cli_env, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_env["corpus"], corpus)
    _keep_trials(corpus, lambda trial_id: trial_id.endswith("_t00"))
    assert main(["evaluate", "--corpus", str(corpus), *_QUICK_FINETUNE]) == 2
    assert capsys.readouterr().err.endswith(
        "error: fine-tuning comparison needs a participant with at least 2 trials\n")


def test_evaluate_finetune_says_when_no_held_out_detection_matched(cli_env, tmp_path,
                                                                  capsys):
    # No window of an untrained model reaches the top threshold, so neither
    # model has a delay to compare.
    report = tmp_path / "report.json"
    assert main(["evaluate", "--corpus", str(cli_env["corpus"]), *_QUICK_FINETUNE,
                 "--threshold", "11", "--report-json", str(report)]) == 0
    assert capsys.readouterr().out.endswith(
        "fine-tuning: no matched held-out detections to compare\n")
    finetune = json.loads(report.read_text())["finetune"]
    assert (finetune["base_mean_delay_s"], finetune["tuned_mean_delay_s"]) == (None, None)


def test_evaluate_finetune_reuses_the_loocv_folds(cli_env, tmp_path, monkeypatch):
    from ausentinel import evaluation

    calls = []
    loocv_folds = evaluation.loocv_folds

    def counted(*args, **kwargs):
        calls.append(1)
        return loocv_folds(*args, **kwargs)

    monkeypatch.setattr(evaluation, "loocv_folds", counted)
    corpus = ["evaluate", "--corpus", str(cli_env["corpus"]), "--epochs", "60"]
    finetune = ["--finetune-per-participant", "--finetune-epochs", "20"]
    model = ["--model", str(cli_env["model"])]
    # One LOOCV pass for LOOCV or fine-tuning, none to score a fixed model alone.
    for argv, passes in ((corpus + finetune, 1), (corpus + model + finetune, 1),
                         (corpus + model, 0)):
        calls.clear()
        assert main(argv + ["--report-json", str(tmp_path / "report.json")]) == 0, argv
        assert len(calls) == passes, argv


def test_detect_out_empty_writes_to_stdout_and_leaves_it_open(cli_env, tmp_path, capsys):
    # `--out ""` wrote to stdout and then closed it, under the caller of main.
    stream = cli_env["corpus"] / "frames" / "p00_t00.jsonl"
    argv = ["detect", "--model", str(cli_env["model"]), "--input", str(stream)]
    events = tmp_path / "ev.jsonl"
    assert main(argv + ["--out", str(events)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv + ["--out", ""]) == 0
    assert not sys.stdout.closed
    out = capsys.readouterr().out
    assert out and out == events.read_text()


def test_detect_skips_a_non_finite_time(tmp_path, capsys, caplog):
    # A "t": NaN line used to pass read_stream and crash the timestep builder.
    from ausentinel.model import init_params, save

    model = tmp_path / "model.json"
    save(init_params(0), model)
    good = {"source_id": "cam_a", "confidence": 0.9, "au": [0.5] * 17,
            "occ": [False] * 17}
    lines = [json.dumps(dict(good, t=k / 30.0)) for k in range(5)]
    lines.append(json.dumps(dict(good, t=float("nan"))))
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING"):
        rc = main(["detect", "--model", str(model), "--input", str(stream),
                   "--out", str(tmp_path / "events.jsonl")])
    assert rc == 0
    assert "skipped 1 malformed records" in caplog.text
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["timesteps"] == 1


def _always_firing_model(path):
    # All-zero weights: every timestep scores the output biases alone
    # (weight ~0.993), so an event fires as soon as the window fills.
    import numpy as np

    from ausentinel.core import N_AUS
    from ausentinel.model import N_CLASSES, N_HIDDEN, ModelParams, save

    save(ModelParams(w1=np.zeros((N_AUS, N_HIDDEN)), b1=np.zeros(N_HIDDEN),
                     w2=np.zeros((N_HIDDEN, N_CLASSES)), b2=np.array([0.0, 5.0])), path)


def _frame_line(src, k):
    return json.dumps({"source_id": src, "t": k / 30.0, "confidence": 0.9,
                       "au": [0.5] * 17, "occ": [False] * 17})


def test_detect_refuses_a_first_frame_far_past_trial_start(tmp_path, capsys):
    # A lone frame at t=1e9 once set detect building ~3e9 gap timesteps.
    model, events = tmp_path / "model.json", tmp_path / "events.jsonl"
    _always_firing_model(model)
    stream = tmp_path / "stream.jsonl"
    line = json.loads(_frame_line("cam_a", 0))
    stream.write_text(json.dumps(dict(line, t=1e4)) + "\n")
    rc = main(["detect", "--model", str(model), "--input", str(stream),
               "--trial-start", "5.0", "--out", str(events)])
    assert rc == 2
    assert "first frame at t=10000.0 lies more than 600 s past trial start 5.0" \
        in capsys.readouterr().err
    assert events.read_text() == ""


def _frames_at(*times, src="cam_a"):
    return [json.dumps(dict(json.loads(_frame_line(src, 0)), t=t)) for t in times]


# Huge but finite times each overflowed the rounding of a frame's slot: an
# OverflowError traceback, exit 1.
@pytest.mark.parametrize("lines, start, message", [
    (_frames_at(0.0), ["--trial-start", "1e308"], "frame at t=0.0 precedes trial start"),
    (_frames_at(0.0), ["--trial-start=-1e308"],
     "first frame at t=0.0 lies more than 600 s past trial start -1e+308"),
    (_frames_at(0.0), {"trial_start": 1e308}, "frame at t=0.0 precedes trial start"),
    (_frames_at(0.0), {"trial_start": -1e308}, "past trial start -1e+308"),
    (_frames_at(1e308), [], "first frame at t=1e+308 lies more than 600 s past trial start 0.0"),
    # A new source mid-stream: the readers bound no source's first frame.
    (_frames_at(*(k / 30 for k in range(20))) + _frames_at(-1e308, src="cam_b"), [],
     "frame at t=-1e+308 precedes trial start"),
], ids=["start-huge", "start-huge-negative", "config-start-huge",
        "config-start-huge-negative", "first-frame-huge", "new-source-huge-negative"])
def test_detect_refuses_a_huge_but_finite_time(tmp_path, capsys, lines, start, message):
    model, events = tmp_path / "model.json", tmp_path / "events.jsonl"
    _always_firing_model(model)
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    if isinstance(start, dict):
        (tmp_path / "config.json").write_text(json.dumps(start))
        start = ["--config", str(tmp_path / "config.json")]
    rc = main(["detect", "--model", str(model), "--input", str(stream),
               "--out", str(events), *start])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert events.read_text() == ""


def test_detect_keeps_going_while_a_camera_is_silent(tmp_path, capsys, monkeypatch):
    # Both cameras for 2 s; cam_b goes silent while cam_a runs 3 s more;
    # then cam_b's held-back frames arrive and both run 1 s more.
    model, events = tmp_path / "model.json", tmp_path / "events.jsonl"
    _always_firing_model(model)
    both = [_frame_line(src, k) for k in range(60) for src in ("cam_a", "cam_b")]
    alone = [_frame_line("cam_a", k) for k in range(60, 150)]
    backlog = [_frame_line("cam_b", k) for k in range(60, 150)]
    tail = [_frame_line(src, k) for k in range(150, 180) for src in ("cam_a", "cam_b")]
    lines = [line + "\n" for line in both + alone + backlog + tail]
    seen = {}

    def feed():
        for i, line in enumerate(lines):
            if i == len(both) + len(alone):  # cam_b speaks again
                seen["events"] = events.read_text().splitlines()
            yield line

    monkeypatch.setattr("sys.stdin", feed())
    assert main(["detect", "--model", str(model), "--out", str(events)]) == 0
    # Timestep 10 closes while cam_b is silent (its last is timestep 5).
    assert [json.loads(e)["detected_at"] for e in seen["events"]] == [10]
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["timesteps"] == 18
    assert summary["frames_read"] == len(lines)
    # cam_b's frames more than a second behind cam_a came too late to count.
    assert 0 < summary["late_frames"] < len(backlog)
    assert summary["records_skipped"] == summary["values_clamped"] == 0
    assert summary["duplicate_frames"] == 0


@pytest.mark.parametrize("bad", ['{"t": ' + "9" * 5000 + "}", "[" * 200_000],
                         ids=["huge-int", "deep-nesting"])
def test_detect_skips_lines_the_decoder_cannot_take(bad, tmp_path, capsys):
    # An over-long integer and over-deep nesting both ended detect with a
    # traceback; each is one malformed record now.
    model = tmp_path / "model.json"
    _always_firing_model(model)
    good = [_frame_line("cam_a", k) for k in range(5)]
    stream = tmp_path / "stream.jsonl"
    stream.write_text("\n".join(good[:3] + [bad] + good[3:]) + "\n")
    rc = main(["detect", "--model", str(model), "--input", str(stream),
               "--out", str(tmp_path / "events.jsonl")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (summary["frames_read"], summary["records_skipped"]) == (5, 1)
    # As the first line, it makes the stream unreadable: a clean error.
    stream.write_text("\n".join([bad] + good) + "\n")
    rc = main(["detect", "--model", str(model), "--input", str(stream)])
    assert rc == 2
    assert "unreadable first record" in capsys.readouterr().err


def test_non_finite_logits_stop_detect_after_earlier_events(tmp_path, capsys):
    # Huge weights score all-zero AU rows by the output biases alone (every
    # weight ~0.993, so events fire), but overflow on the first non-zero row.
    import numpy as np

    from conftest import make_trial
    from ausentinel.core import N_AUS, ModelIntegrityError
    from ausentinel.detector import run_trial
    from ausentinel.model import N_CLASSES, N_HIDDEN, ModelParams, load, save

    model = tmp_path / "model.json"
    save(ModelParams(w1=np.full((N_AUS, N_HIDDEN), 1e200), b1=np.zeros(N_HIDDEN),
                     w2=np.full((N_HIDDEN, N_CLASSES), 1e200),
                     b2=np.array([0.0, 5.0])), model)
    n_zero = 20  # timesteps of all-zero frames before the first non-zero one

    def frame(k, au):
        return json.dumps({"source_id": "cam_a", "t": k / 30.0, "confidence": 0.9,
                           "au": [au] * 17, "occ": [False] * 17})

    zeros = [frame(k, 0.0) for k in range(10 * n_zero)]
    ones = [frame(k, 1.0) for k in range(10 * n_zero, 10 * (n_zero + 3))]
    prefix, stream = tmp_path / "prefix.jsonl", tmp_path / "stream.jsonl"
    prefix.write_text("\n".join(zeros) + "\n")
    stream.write_text("\n".join(zeros + ones) + "\n")

    want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
    assert main(["detect", "--model", str(model), "--input", str(prefix),
                 "--out", str(want)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["detect", "--model", str(model), "--input", str(stream),
                   "--out", str(got)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "non-finite logits" in err
    # The error is the whole report: numpy's overflow warning stays silent.
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    events = [json.loads(line) for line in got.read_text().splitlines()]
    assert [e["detected_at"] for e in events] == list(range(10, n_zero))
    assert got.read_bytes() == want.read_bytes()

    au = np.zeros((n_zero + 3, N_AUS))
    au[n_zero:] = 1.0
    with pytest.raises(ModelIntegrityError, match="non-finite logits"):
        run_trial(make_trial(au), load(model))


def test_analyze_report(cli_env, tmp_path, capsys):
    rj = tmp_path / "aus.json"
    rc = main(["analyze", "--corpus", str(cli_env["corpus"]),
               "--report", str(rj)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "significant" in out
    report = json.loads(rj.read_text())
    assert len(report["aus"]) == 17
    assert report["reactions"]["n_annotated"] == 8


# The SHA-256 of every file `conftest.PINNED_COMMANDS` writes.
_PINNED_OUTPUTS = {
    "model.json": "c66d5984b6e02807326db65a449180745b71c5336bc5640084a547fffaf037d1",
    "train.json": "36554c09bd9be475b2ef6cc9170e25727f666f81a6e0e86e7584e52b7c3e8e9e",
    "model_report.json": "b8a3977ad619dc838737371286a31610976904b8892b59698763aab1a1535f35",
    "model_report.csv": "fbe572711de0e40fef92f085806e3b32b9a6e28a589c559d0d3032999004f440",
    "model_finetune_report.json":
        "97c65c5e25860ef6a8b1615968f78ee2c6659835bb0c7b15fca472c4f262dfe4",
    "loocv_report.json": "f28a733449f183315941118e337be17cd930747fbb2990b9b9b83f8c82b42c3e",
    "loocv_report.csv": "f25cfa75c2c96c0b73e484396709b8e7b307c46e11e1e7934fc1aa0c52d125a2",
    "analyze.json": "efca237d3417ac5abb9e7544c75b7adc1c9bffb39f3c4636d1fb6cc8471f4b62",
    "events.jsonl": "a82b5555d0378e6105827367fed222149792e1e2ede5f747942ac6463f3f91b7",
}


def pinned_digests(root) -> dict:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in _PINNED_OUTPUTS}


def test_cli_writes_pinned_bytes(pinned_cli_runs):
    for cpus, (root, rcs, _, _) in pinned_cli_runs.items():
        for argv, rc in zip(PINNED_COMMANDS, rcs, strict=True):
            assert rc == 0, (cpus, argv)
        assert pinned_digests(root) == _PINNED_OUTPUTS, cpus


def test_config_file_sets_defaults(cli_env, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 3}))
    report = tmp_path / "r.json"
    rc = main(["train", "--corpus", str(cli_env["corpus"]),
               "--out", str(tmp_path / "m.json"),
               "--config", str(config), "--report", str(report)])
    assert rc == 0
    assert len(json.loads(report.read_text())["epochs"]) == 3
    # an explicit flag beats the config value
    rc = main(["train", "--corpus", str(cli_env["corpus"]),
               "--out", str(tmp_path / "m2.json"),
               "--config", str(config), "--epochs", "2",
               "--report", str(report)])
    assert rc == 0
    assert len(json.loads(report.read_text())["epochs"]) == 2


@pytest.mark.parametrize("flags, config, named", [
    (["--input", "INPUT"], {"corpus": "CORPUS"}, "--input and --corpus"),
    ([], {"input": "INPUT", "listen": "127.0.0.1:1"}, "--input and --listen"),
], ids=["flag-and-config", "config-alone"])
def test_config_cannot_open_a_second_detect_source(cli_env, tmp_path, capsys,
                                                   flags, config, named):
    # The config once filled a second source as a default, and `detect` ran
    # the corpus, ignoring --input.
    values = {"INPUT": str(cli_env["corpus"] / "frames" / "p00_t00.jsonl"),
              "CORPUS": str(cli_env["corpus"])}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: values.get(v, v) for k, v in config.items()}))
    events = tmp_path / "events.jsonl"
    rc = main(["detect", "--model", str(cli_env["model"]), "--out", str(events),
               *[values.get(f, f) for f in flags], "--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: {named} are mutually exclusive, "
                                       "on the command line and in --config together\n")
    assert not events.exists()


def test_config_rejects_unknown_key(cli_env, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"window_length": 7}))
    rc = main(["detect", "--model", str(cli_env["model"]),
               "--input", "whatever", "--config", str(config)])
    assert rc == 2
    assert "is not a detect flag" in capsys.readouterr().err


@pytest.mark.parametrize("override, kind", [
    ({"finetune_per_participant": "false"}, "true or false"),
    ({"epochs": 1.5}, "an integer"),
    ({"seed": True}, "an integer"),
    ({"learning_rate": True}, "a finite number"),
    ({"learning_rate": "0.1"}, "a finite number"),
    ({"model": 5}, "a string"),
    ({"learning_rate": math.nan}, "a finite number"),
    ({"threshold": math.inf}, "a finite number"),
    ({"min_confidence": 10 ** 400}, "a finite number"),
], ids=["switch-text", "int-float", "int-bool", "float-bool", "float-text", "string-number",
        "float-nan", "float-inf", "float-int-huge"])
def test_config_refuses_a_value_of_the_wrong_json_type(tmp_path, capsys, override, kind):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(override))
    rc = main(["evaluate", "--corpus", str(tmp_path / "none"), "--config", str(config)])
    assert rc == 2
    (key,) = override
    assert f"config key {key!r} must be {kind}" in capsys.readouterr().err


# Every float flag of every command, and the flags each command requires.
_FLOAT_FLAGS = [(command, action.option_strings[0], action.dest)
                for command, sub in build_parser()[1].items()
                for action in sub._actions if isinstance(action.default, float)]
_REQUIRED = {"train": ["--corpus", "c", "--out", "m"], "detect": ["--model", "m"],
             "evaluate": ["--corpus", "c"], "simulate": ["--spec", "s", "--out", "o"],
             "analyze": ["--corpus", "c"]}


@pytest.mark.parametrize("command, flag, dest", _FLOAT_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _ in _FLOAT_FLAGS])
def test_float_flags_refuse_a_non_finite_value(tmp_path, capsys, command, flag, dest):
    config = tmp_path / "config.json"
    for text in ("nan", "inf", "-inf"):
        with pytest.raises(SystemExit) as exc:
            main([command, *_REQUIRED[command], f"{flag}={text}"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number, got {text!r}" in capsys.readouterr().err
        config.write_text(json.dumps({dest: float(text)}))  # NaN, Infinity, -Infinity
        assert main([command, *_REQUIRED[command], "--config", str(config)]) == 2
        assert f"config key {dest!r} must be a finite number" in capsys.readouterr().err


def test_config_takes_each_kind_of_flag(tmp_path):
    from ausentinel.cli import _apply_config

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"finetune_per_participant": True, "epochs": 2,
                                  "learning_rate": 1, "model": "m.json"}))
    parser, subs = build_parser()
    argv = ["evaluate", "--corpus", "c", "--config", str(config)]
    args = _apply_config(parser, subs, parser.parse_args(argv), argv)
    assert (args.finetune_per_participant, args.epochs, args.model) == (True, 2, "m.json")
    assert args.learning_rate == 1.0 and isinstance(args.learning_rate, float)


def test_fps_must_be_timestep_multiple(cli_env, capsys):
    stream = cli_env["corpus"] / "frames" / "p00_t00.jsonl"
    rc = main(["detect", "--model", str(cli_env["model"]),
               "--input", str(stream), "--fps", "25"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "evaluate"])
@pytest.mark.parametrize("fps, via_config", [("1203", False), ("1e308", False), ("1e308", True)],
                         ids=["flag-past-the-bound", "flag-huge", "config-huge"])
def test_fps_beyond_any_camera_is_exit_2(two_trial_corpus, tmp_path, capsys, command, fps,
                                         via_config):
    model = tmp_path / "model.json"
    _always_firing_model(model)
    detect = ["detect", "--model", str(model), "--input", os.devnull]
    argv = detect if command == "detect" else ["evaluate", "--corpus", str(two_trial_corpus)]
    if via_config:
        (tmp_path / "config.json").write_text(json.dumps({"fps": float(fps)}))
        argv = argv + ["--config", str(tmp_path / "config.json")]
    else:
        argv = argv + ["--fps", fps]
    assert main(argv) == 2
    assert "--fps" in capsys.readouterr().err
    assert main(detect + ["--fps", "1200"]) == 0  # the bound itself is a camera rate


@pytest.mark.parametrize("argv", [
    ["train", "--out", os.devnull, "--learning-rate", "1e308"],
    ["evaluate", "--learning-rate", "1e308"],
    ["evaluate", "--finetune-per-participant", "--finetune-epochs", "3",
     "--finetune-learning-rate", "1e308"],
], ids=["train", "evaluate", "evaluate-finetune"])
def test_a_diverging_learning_rate_is_exit_2(cli_env, capsys, argv):
    # numpy's overflow warning once came first: under -W error a traceback, exit 1.
    assert main(argv + ["--corpus", str(cli_env["corpus"]), "--epochs", "3"]) == 2
    assert "training diverged at learning rate 1e+308" in capsys.readouterr().err


def test_missing_files_fail_cleanly(tmp_path, capsys):
    rc = main(["detect", "--model", str(tmp_path / "missing.json"),
               "--input", str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "corrupt.json"
    bad.write_text("{]")
    rc = main(["detect", "--model", str(bad),
               "--input", str(tmp_path / "missing.jsonl")])
    assert rc == 2


def test_evaluate_missing_corpus(tmp_path, capsys):
    rc = main(["evaluate", "--corpus", str(tmp_path / "nope")])
    assert rc == 2
    assert "manifest" in capsys.readouterr().err


def _stream_with_a_bad_byte() -> bytes:
    """Ten good JSONL frames; the fourth holds a 0xff byte in its confidence."""
    lines = [_frame_line("cam_a", k).encode() for k in range(10)]
    lines[3] = lines[3].replace(b'"confidence": 0.9', b'"confidence": 0.\xff')
    return b"\n".join(lines) + b"\n"


def _summary(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


def test_detect_input_replaces_undecodable_bytes(tmp_path, capsys):
    model, stream = tmp_path / "model.json", tmp_path / "stream.jsonl"
    _always_firing_model(model)
    stream.write_bytes(_stream_with_a_bad_byte())
    rc = main(["detect", "--model", str(model), "--input", str(stream),
               "--out", str(tmp_path / "events.jsonl")])
    assert rc == 0
    summary = _summary(capsys.readouterr().err)
    assert (summary["frames_read"], summary["records_skipped"]) == (9, 1)


def test_detect_listen_replaces_undecodable_bytes(tmp_path, capsys):
    model = tmp_path / "model.json"
    _always_firing_model(model)
    rc = _detect_over_tcp(model, _stream_with_a_bad_byte(), tmp_path / "events.jsonl")
    assert rc == 0
    summary = _summary(capsys.readouterr().err)
    assert (summary["frames_read"], summary["records_skipped"]) == (9, 1)


def test_detect_stdin_replaces_undecodable_bytes(tmp_path):
    # A strict UTF-8 stdin, as PYTHONIOENCODING=utf-8 or a UTF-8 locale sets it.
    import ausentinel

    model = tmp_path / "model.json"
    _always_firing_model(model)
    src = os.path.dirname(os.path.dirname(ausentinel.__file__))
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ausentinel", "detect", "--model", str(model)],
                          input=_stream_with_a_bad_byte(), capture_output=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    summary = _summary(proc.stderr.decode())
    assert (summary["frames_read"], summary["records_skipped"]) == (9, 1)


def test_detect_skips_a_csv_field_past_the_size_limit(tmp_path, capsys):
    # A 140 000-character field made csv.reader raise out of detect.
    from ausentinel.core import AuFrame, N_AUS
    from ausentinel.ingest import write_frames_csv

    model, stream = tmp_path / "model.json", tmp_path / "stream.csv"
    _always_firing_model(model)
    write_frames_csv(stream, [AuFrame("cam_a", k / 30.0, [0.5] * N_AUS, 0.9)
                              for k in range(10)])
    lines = stream.read_text().splitlines(keepends=True)
    lines.insert(4, "x" * 140_000 + lines[4])
    stream.write_text("".join(lines))
    rc = main(["detect", "--model", str(model), "--input", str(stream),
               "--format", "csv", "--out", str(tmp_path / "events.jsonl")])
    assert rc == 0
    summary = _summary(capsys.readouterr().err)
    assert (summary["frames_read"], summary["records_skipped"]) == (10, 1)


def test_evaluate_replaces_undecodable_bytes_in_a_corpus_file(cli_env, tmp_path, caplog):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_env["corpus"], corpus)
    frames = corpus / "frames" / "p00_t00.jsonl"
    data = frames.read_bytes()
    at = data.index(b'"confidence":0.', 2000) + len(b'"confidence":0.')
    frames.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with caplog.at_level("WARNING"):
        rc = main(["evaluate", "--corpus", str(corpus), "--model", str(cli_env["model"])])
    assert rc == 0
    assert caplog.text.count("skipping malformed record") == 1


@pytest.fixture(scope="module")
def two_trial_corpus(tmp_path_factory):
    """A simulated corpus of one participant's two trials, the first annotated."""
    root = tmp_path_factory.mktemp("two_trials")
    spec = root / "scenario.json"
    spec.write_text(json.dumps({
        "participants": 1, "trials_per_participant": 2, "seed": 3, "trial_len_s": 20.0,
        "errors": [{"error_type": "physical", "perceived_error_start_s": 8.0},
                   {"error_type": "none"}],
    }))
    assert main(["simulate", "--spec", str(spec), "--out", str(root / "corpus")]) == 0
    return root / "corpus"


def _edit_manifest(change):
    def corrupt(corpus):
        path = corpus / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(change(manifest)))
    return corrupt


def _edit_trial(key, value=None, at=0):
    def change(manifest):
        entry = manifest["trials"][at]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        return manifest
    return _edit_manifest(change)


def _insert_byte(name, after):
    def corrupt(corpus):
        data = (corpus / name).read_bytes()
        at = data.index(after) + len(after)
        (corpus / name).write_bytes(data[:at] + b"\xff" + data[at:])
    return corrupt


def _annotation_cell(at, value):
    def corrupt(corpus):
        path = corpus / "annotations.csv"
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[at] = value
        path.write_text(header + "\n" + ",".join(cells) + "\n")
    return corrupt


def _edit_frames(change):
    def corrupt(corpus):
        path = corpus / "frames" / "p00_t00.jsonl"
        path.write_text("".join(change(path.read_text().splitlines(True))))
    return corrupt


def _without_the_first_frame_file(corrupt):
    """`corrupt`, then the first trial's frame file deleted: a check made
    only once the frame files are read fails on that file first (exit 1)."""
    def both(corpus):
        corrupt(corpus)
        (corpus / "frames" / "p00_t00.jsonl").unlink()
    return both


@pytest.mark.parametrize("corrupt, named", [
    (_edit_manifest(lambda manifest: [1, 2]), "manifest.json"),
    (_edit_manifest(lambda manifest: dict(manifest, trials=5)), "trials"),
    (_edit_trial("participant_id"), "participant_id"),
    (_edit_trial("trial_start", "x"), "trial_start"),
    (_edit_trial("trial_start", "0.5"), "trial_start"),
    (_edit_trial("trial_start", True), "trial_start"),
    (_edit_trial("trial_start", 10 ** 400), "trial_start"),
    (_edit_trial("frames", 3), "frames"),
    # Once refused only after every frame file was read, naming no entry.
    (_without_the_first_frame_file(_edit_trial("error_type", "bogus", at=1)),
     "manifest.json trial 1 error_type 'bogus' is not one of"),
    (_insert_byte("manifest.json", b'"trials"'), "manifest.json"),
    (_insert_byte("annotations.csv", b"\np00"), "annotations.csv"),
    (_annotation_cell(3, "x"), "reaction_start"),
    (_annotation_cell(1, "p" * 200_000), "field larger than field limit"),
    # These three once named no file, line or trial.
    (_annotation_cell(3, "999"),
     "annotations.csv: line 2: trial p00_t00: reaction_start 999 > "),
    (_annotation_cell(3, "-1"),
     "annotations.csv: line 2: trial p00_t00: annotation indices must be non-negative"),
    (_annotation_cell(5, "60"), "trial p00_t00: annotation indices exceed trial length 60"),
    # These two once named no file.
    (_edit_frames(lambda lines: [lines[0].replace('"AU01"', '"AU99"')] + lines[1:]),
     "p00_t00.jsonl: line 1: stream catalog does not match the canonical AU ordering"),
    (_edit_frames(lambda lines: lines[:5] + ["garbage\n"] * 11 + lines[5:]),
     "p00_t00.jsonl: line 16: error budget exceeded (11 malformed records)"),
], ids=["manifest-list", "trials-number", "no-participant-id", "trial-start-text",
        "trial-start-number-text", "trial-start-bool", "trial-start-400-digits",
        "frames-number", "unknown-error-type", "manifest-byte", "annotations-byte",
        "reaction-start-text", "annotations-field-past-the-size-limit", "reversed-interval",
        "negative-index", "index-past-the-trial", "frames-catalog",
        "frames-past-the-error-budget"])
def test_evaluate_refuses_a_malformed_corpus(two_trial_corpus, tmp_path, capsys,
                                            corrupt, named):
    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    corrupt(corpus)
    rc = main(["evaluate", "--corpus", str(corpus), "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and named in err


def test_a_trial_past_an_hour_is_exit_2_naming_its_file(two_trial_corpus, tmp_path, capsys):
    # 100 frames 599 s apart: `detect --corpus` built 177 904 timesteps
    # (106.6 MB at peak) and exited 0.
    from ausentinel.core import N_AUS, AuFrame
    from ausentinel.ingest import write_frames_jsonl

    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    path = corpus / "frames" / "p00_t00.jsonl"
    write_frames_jsonl(path, [AuFrame("cam_a", 599.0 * k, [1.0] * N_AUS, 0.9)
                              for k in range(100)])
    model = tmp_path / "model.json"
    _always_firing_model(model)
    events = tmp_path / "ev.jsonl"
    assert main(["detect", "--model", str(model), "--corpus", str(corpus),
                 "--out", str(events)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: trial spans 177904 timesteps, "
                                       "longer than 3600 s\n")
    assert events.read_text() == ""


@pytest.mark.parametrize("command", ["detect", "train", "evaluate", "analyze"])
@pytest.mark.parametrize("start, message", [
    (1e308, "frame at t=0.0 precedes trial start"),
    (-1e308, "first frame at t=0.0 lies more than 600 s past trial start -1e+308"),
], ids=["huge", "huge-negative"])
def test_a_huge_manifest_trial_start_is_exit_2(two_trial_corpus, tmp_path, capsys, command,
                                               start, message):
    # Each was an OverflowError traceback, exit 1, after numpy's overflow warning.
    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    _edit_trial("trial_start", start)(corpus)
    model = tmp_path / "model.json"
    _always_firing_model(model)
    argv = {"detect": ["--model", str(model), "--out", str(tmp_path / "ev.jsonl")],
            "train": ["--out", str(model)]}.get(command, [])
    assert main([command, "--corpus", str(corpus), *argv]) == 2
    assert message in capsys.readouterr().err


def test_detect_over_corpus_prints_the_stream_summary(cli_env, two_trial_corpus,
                                                      tmp_path, capsys):
    from ausentinel.ingest import read_stream

    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    path = corpus / "frames" / "p00_t00.jsonl"
    lines = path.read_text().splitlines()
    lines[50:50] = ["garbage", lines[49]]  # a skipped record, then a repeated frame
    path.write_text("\n".join(lines) + "\n")
    frames = sum(sum(1 for _ in read_stream(f))
                 for f in sorted((corpus / "frames").iterdir()))
    args = ["detect", "--model", str(cli_env["model"]), "--out", str(tmp_path / "ev.jsonl")]
    assert main(args + ["--input", str(corpus / "frames" / "p00_t01.jsonl")]) == 0
    stream = _summary(capsys.readouterr().err)
    assert main(args + ["--corpus", str(corpus)]) == 0
    summary = _summary(capsys.readouterr().err)
    assert summary.keys() == stream.keys()
    assert summary["timesteps"] == 2 * 60
    assert (summary["records_skipped"], summary["duplicate_frames"]) == (1, 1)
    assert summary["frames_read"] == frames


def test_detect_over_corpus_honours_the_error_budget(cli_env, two_trial_corpus,
                                                      tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    path = corpus / "frames" / "p00_t00.jsonl"
    lines = path.read_text().splitlines()
    lines[50:50] = ["garbage"] * 11
    path.write_text("\n".join(lines) + "\n")
    args = ["detect", "--model", str(cli_env["model"]), "--corpus", str(corpus),
            "--out", str(tmp_path / "ev.jsonl")]
    assert main(args + ["--error-budget", "100"]) == 0
    assert _summary(capsys.readouterr().err)["records_skipped"] == 11
    assert main(args) == 2
    assert "error budget exceeded (11 malformed records)" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_detect_refuses_a_negative_error_budget(cli_env, tmp_path, capsys, where):
    # It once acted as 0: exit 0 on a clean stream, and "error budget
    # exceeded" at the first malformed record.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"error_budget": -3}))
    budget = {"flag": ["--error-budget", "-3"], "config": ["--config", str(config)]}[where]
    events = tmp_path / "ev.jsonl"
    assert main(["detect", "--model", str(cli_env["model"]), "--out", str(events),
                 "--input", str(cli_env["corpus"] / "frames" / "p00_t00.jsonl"),
                 *budget]) == 2
    assert capsys.readouterr().err == "error: --error-budget must be >= 0, got -3\n"
    assert not events.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("dest, value, message", [
    ("finetune_epochs", -1, "--finetune-epochs must be >= 0, got -1"),
    ("finetune_learning_rate", 0.0, "--finetune-learning-rate must be > 0, got 0"),
    ("finetune_learning_rate", -0.5, "--finetune-learning-rate must be > 0, got -0.5"),
])
def test_evaluate_checks_the_finetune_flags_before_reading(tmp_path, capsys, monkeypatch,
                                                           where, dest, value, message):
    # They were once checked after the whole LOOCV pass had printed its
    # table, and the error named `epochs` or `learning_rate`.
    from ausentinel import cli, evaluation

    def never(*args, **kwargs):
        raise AssertionError("ran before the fine-tune flags were checked")

    monkeypatch.setattr(cli, "read_corpus", never)
    monkeypatch.setattr(evaluation, "loocv_folds", never)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({dest: value}))
    given = {"flag": [f"--{dest.replace('_', '-')}", str(value)],
             "config": ["--config", str(config)]}[where]
    report = tmp_path / "report.json"
    assert main(["evaluate", "--corpus", str(tmp_path / "corpus"), "--finetune-per-participant",
                 "--report-json", str(report), *given]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not report.exists()


def test_detect_over_corpus_stamps_the_manifest_trial_start(two_trial_corpus, tmp_path,
                                                           capsys):
    from ausentinel.core import AuFrame
    from ausentinel.ingest import read_stream, write_frames_jsonl

    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    path = corpus / "frames" / "p00_t00.jsonl"
    write_frames_jsonl(path, [AuFrame(f.source_id, f.t + 2.5, f.au, f.confidence)
                              for f in list(read_stream(path))])
    manifest = json.loads((corpus / "manifest.json").read_text())
    manifest["trials"] = [dict(manifest["trials"][0], trial_start=2.5)]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    model = tmp_path / "model.json"
    _always_firing_model(model)
    args = ["detect", "--model", str(model)]
    assert main(args + ["--corpus", str(corpus), "--out", str(tmp_path / "batch.jsonl")]) == 0
    assert main(args + ["--input", str(path), "--trial-start", "2.5",
                        "--trial-id", "p00_t00", "--out", str(tmp_path / "live.jsonl")]) == 0
    capsys.readouterr()
    batch = (tmp_path / "batch.jsonl").read_bytes()
    assert batch == (tmp_path / "live.jsonl").read_bytes()
    first = json.loads(batch.splitlines()[0])
    assert first["detected_t_seconds"] == 2.5 + first["detected_at"] / 3.0


def _model_edit(**change):
    return lambda text: json.dumps(dict(json.loads(text), **change))


def _model_seed(raw: str):
    return lambda text: text.replace('"seed":0', '"seed":' + raw)


@pytest.mark.parametrize("command, corrupt, named", [
    ("detect", lambda text: "[" * 100_000, "unreadable model file"),
    ("detect", _model_seed("9" * 5000), "unreadable model file"),
    ("detect", _model_seed("1e400"), "seed"),
    ("detect", _model_seed("true"), "seed"),
    ("detect", _model_edit(version=True), "version"),
    ("detect", _model_edit(version=1.0), "version"),
    ("detect", _model_edit(epochs=1.5), "epochs"),
    ("detect", _model_edit(learning_rate="0.3"), "learning_rate"),
    ("detect", _model_edit(b2=["1", "2"]), "b2"),
    ("detect", _model_edit(b2=[True, False]), "b2"),
    ("detect", _model_edit(b2=[1e308, 10 ** 400]), "b2"),
    ("train", None, "seed must be >= 0"),
    ("evaluate", None, "seed must be >= 0"),
], ids=["nesting", "integer-digits", "seed-huge", "seed-bool", "version-bool",
        "version-float", "epochs-float", "learning-rate-text", "weights-text",
        "weights-bool", "weights-huge", "train-seed-negative", "evaluate-seed-negative"])
def test_a_model_file_or_seed_of_the_wrong_type_is_exit_2(two_trial_corpus, tmp_path, capsys,
                                                         command, corrupt, named):
    model = tmp_path / "model.json"
    _always_firing_model(model)
    if command == "detect":
        model.write_text(corrupt(model.read_text()))
        argv = ["detect", "--model", str(model), "--input", os.devnull]
    else:
        argv = [command, "--corpus", str(two_trial_corpus), "--seed", "-1"]
        if command == "train":
            argv += ["--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


# A schedule whose one trial reacts, so generation uses every profile field.
_REACTING = '[{"error_type": "physical", "perceived_error_start_s": 5.0}]'


def _spec_text(**raw) -> bytes:
    """A one-trial scenario spec whose fields are the given raw JSON texts."""
    fields = {"participants": "1", "trials_per_participant": "1", "seed": "1",
              "errors": '[{"error_type": "none"}]', **raw}
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}").encode()


@pytest.mark.parametrize("flag, content, named", [
    ("--spec", b'{"seed": 1, \xff}', ""),
    ("--config", b"{\xff}", ""),
    ("--spec", b"5", ""),
    ("--spec", _spec_text(participants="1e400"), ""),
    ("--spec", _spec_text(trial_len_s="1e400"), "trial_len_s"),
    ("--spec", _spec_text(baseline_noise="1e400"), "baseline_noise"),
    # Jitter wider than the intensity scale: rng.uniform overflowed, exit 1.
    ("--spec", _spec_text(baseline_noise="1e308"),
     "baseline_noise must be a finite number >= 0 and <= 5"),
    ("--spec", _spec_text(errors='[{"error_type": "physical", '
                                 '"perceived_error_start_s": 1e400}]'),
     "perceived_error_start_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"attack_s": 1e400}'), "attack_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"decay_frac": 1e400}'), "decay_frac"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"onset_latency_mean_s": "x"}'),
     "onset_latency_mean_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"duration_sd_s": -1.0}'),
     "duration_sd_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"amplitudes": [1]}'), "amplitudes"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"amplitudes": {"AU01": 1e400}}'),
     "amplitudes AU01"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"predictable": "yes"}'),
     "predictable"),
    ("--spec", _spec_text(novelty_effect='"false"'), "novelty_effect"),
    ("--spec", _spec_text(errors='[{"error_type": "none", "predictable": "no"}]'),
     "predictable"),
    ("--spec", _spec_text(novelty_efect="true"), "novelty_efect"),
    ("--spec", _spec_text(seed="7.9"), "seed"),
    ("--spec", _spec_text(seed="-1"), "seed"),
    ("--spec", _spec_text(participants='"2"'), "participants"),
    ("--spec", _spec_text(participants="true"), "participants"),
    ("--spec", _spec_text(occlusion_windows="[[1]]"), "occlusion_windows"),
    ("--spec", _spec_text(trial_len_s="1e308"), "trial_len_s"),
    # Longer than core.MAX_TRIAL_S: a length no array can hold, and one that
    # would ask for 3.8 GiB. Both are refused before anything is allocated.
    ("--spec", _spec_text(trial_len_s="1e300"), "trial_len_s"),
    ("--spec", _spec_text(trial_len_s="1e7"), "trial_len_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"attack_s": 1e308}'), "attack_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"decay_frac": 1e308}'), "decay_frac"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"duration_min_s": 1e308, '
                                                    '"duration_max_s": 1e308, '
                                                    '"duration_mean_s": 1e308}'),
     "duration_max_s"),
    ("--spec", _spec_text(errors=_REACTING, profile='{"decay_frac": 1.5}'), "decay_frac"),
], ids=["spec-byte", "config-byte", "spec-number", "participants-inf", "trial-len-inf",
        "noise-inf", "noise-huge", "error-start-inf", "profile-attack-inf", "profile-decay-inf",
        "profile-latency-text", "profile-sd-negative", "profile-amplitudes-list",
        "profile-amplitude-inf", "profile-predictable-text", "novelty-text",
        "plan-predictable-text", "unknown-key", "seed-float", "seed-negative",
        "participants-text", "participants-bool", "occlusion-window-short",
        "trial-len-huge", "trial-len-past-any-array", "trial-len-past-an-hour",
        "profile-attack-huge", "profile-decay-huge",
        "profile-durations-huge", "profile-decay-past-one"])
def test_simulate_refuses_a_malformed_spec_or_config(tmp_path, capsys, flag, content, named):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    spec = tmp_path / "spec.json"
    spec.write_bytes(_spec_text())
    args = ["simulate", "--out", str(tmp_path / "out"), "--spec"]
    args += [str(bad)] if flag == "--spec" else [str(spec), "--config", str(bad)]
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ")
    assert named in err  # the field at fault, where the spec has one
