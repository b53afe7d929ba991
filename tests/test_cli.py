"""Command-line surface: parsing, config merge, and the full pipeline."""

import io
import json
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


def _detect_over_tcp(model, payload: bytes, events_path):
    """Run `detect --listen` in a thread, send it `payload`; returns its exit code."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    result = {}

    def serve():
        result["rc"] = main(["detect", "--model", str(model),
                             "--listen", f"127.0.0.1:{port}",
                             "--out", str(events_path)])

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
    client.close()
    server.join(timeout=20)
    assert not server.is_alive()
    return result["rc"]


def test_detect_listen_tcp(cli_env, tmp_path):
    events_path = tmp_path / "ev.jsonl"
    payload = (cli_env["corpus"] / "frames" / "p00_t00.jsonl").read_bytes()
    assert _detect_over_tcp(cli_env["model"], payload, events_path) == 0
    assert events_path.exists()


def test_evaluate_with_model(cli_env, tmp_path, capsys):
    rj = tmp_path / "report.json"
    rc_csv = tmp_path / "report.csv"
    rc = main(["evaluate", "--corpus", str(cli_env["corpus"]),
               "--model", str(cli_env["model"]),
               "--report-json", str(rj), "--report-csv", str(rc_csv)])
    assert rc == 0
    report = json.loads(rj.read_text())
    assert report["mode"] == "model"
    assert report["score"]["n_trials"] == 12
    assert rc_csv.read_text().startswith("scope,")


def test_evaluate_loocv_with_finetune(cli_env, tmp_path, capsys):
    rj = tmp_path / "report.json"
    rc = main(["evaluate", "--corpus", str(cli_env["corpus"]),
               "--epochs", "60", "--finetune-per-participant",
               "--finetune-epochs", "20", "--report-json", str(rj)])
    assert rc == 0
    report = json.loads(rj.read_text())
    assert report["mode"] == "loocv"
    assert "finetune" in report
    assert "fine-tuning: mean delay" in capsys.readouterr().out


def test_evaluate_finetune_reuses_the_loocv_folds(cli_env, tmp_path, monkeypatch):
    from ausentinel import cli, evaluation

    calls = []
    loocv_folds = evaluation.loocv_folds

    def counted(*args, **kwargs):
        calls.append(1)
        return loocv_folds(*args, **kwargs)

    monkeypatch.setattr(cli, "loocv_folds", counted)
    monkeypatch.setattr(evaluation, "loocv_folds", counted)
    argv = ["evaluate", "--corpus", str(cli_env["corpus"]), "--epochs", "60",
            "--finetune-per-participant", "--finetune-epochs", "20"]
    reused = tmp_path / "reused.json"
    assert main(argv + ["--report-json", str(reused)]) == 0
    assert len(calls) == 1

    # The earlier path: finetune_comparison runs a LOOCV pass of its own.
    real = evaluation.finetune_comparison

    def own_folds(*args, folds=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "finetune_comparison", own_folds)
    retrained = tmp_path / "retrained.json"
    assert main(argv + ["--report-json", str(retrained)]) == 0
    assert len(calls) == 3
    assert reused.read_bytes() == retrained.read_bytes()


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


def test_config_rejects_unknown_key(cli_env, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"window_length": 7}))
    rc = main(["detect", "--model", str(cli_env["model"]),
               "--input", "whatever", "--config", str(config)])
    assert rc == 2
    assert "is not a detect flag" in capsys.readouterr().err


def test_fps_must_be_timestep_multiple(cli_env, capsys):
    stream = cli_env["corpus"] / "frames" / "p00_t00.jsonl"
    rc = main(["detect", "--model", str(cli_env["model"]),
               "--input", str(stream), "--fps", "25"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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


def _edit_trial(key, value=None):
    def change(manifest):
        entry = manifest["trials"][0]
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


@pytest.mark.parametrize("corrupt, named", [
    (_edit_manifest(lambda manifest: [1, 2]), "manifest.json"),
    (_edit_manifest(lambda manifest: dict(manifest, trials=5)), "trials"),
    (_edit_trial("participant_id"), "participant_id"),
    (_edit_trial("trial_start", "x"), "trial_start"),
    (_edit_trial("frames", 3), "frames"),
    (_insert_byte("manifest.json", b'"trials"'), "manifest.json"),
    (_insert_byte("annotations.csv", b"\np00"), "annotations.csv"),
    (_annotation_cell(3, "x"), "reaction_start"),
    (_annotation_cell(1, "p" * 200_000), "field larger than field limit"),
], ids=["manifest-list", "trials-number", "no-participant-id", "trial-start-text",
        "frames-number", "manifest-byte", "annotations-byte", "reaction-start-text",
        "annotations-field-past-the-size-limit"])
def test_evaluate_refuses_a_malformed_corpus(two_trial_corpus, tmp_path, capsys,
                                            corrupt, named):
    corpus = tmp_path / "corpus"
    shutil.copytree(two_trial_corpus, corpus)
    corrupt(corpus)
    rc = main(["evaluate", "--corpus", str(corpus), "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and named in err


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


def _spec_text(**raw) -> bytes:
    """A one-trial scenario spec whose fields are the given raw JSON texts."""
    fields = {"participants": "1", "trials_per_participant": "1", "seed": "1",
              "errors": '[{"error_type": "none"}]', **raw}
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}").encode()


@pytest.mark.parametrize("flag, content", [
    ("--spec", b'{"seed": 1, \xff}'),
    ("--config", b"{\xff}"),
    ("--spec", b"5"),
    ("--spec", _spec_text(participants="1e400")),
    ("--spec", _spec_text(trial_len_s="1e400")),
    ("--spec", _spec_text(baseline_noise="1e400")),
    ("--spec", _spec_text(errors='[{"error_type": "physical", '
                                 '"perceived_error_start_s": 1e400}]')),
], ids=["spec-byte", "config-byte", "spec-number", "participants-inf", "trial-len-inf",
        "noise-inf", "error-start-inf"])
def test_simulate_refuses_a_malformed_spec_or_config(tmp_path, capsys, flag, content):
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
