"""Command-line surface: parsing, config merge, and the full pipeline."""

import io
import json
import socket
import threading
import time

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


def test_detect_listen_tcp(cli_env, tmp_path):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    events_path = tmp_path / "ev.jsonl"
    result = {}

    def serve():
        result["rc"] = main(["detect", "--model", str(cli_env["model"]),
                             "--listen", f"127.0.0.1:{port}",
                             "--out", str(events_path)])

    server = threading.Thread(target=serve)
    server.start()
    payload = (cli_env["corpus"] / "frames" / "p00_t00.jsonl").read_bytes()
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
    assert result["rc"] == 0
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
