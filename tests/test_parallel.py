"""The offline commands in one process or in a pool of worker processes.

`core.map_in_order` decodes corpus files and runs LOOCV folds in one
process per CPU of the affinity mask, and in-process when there is one.
These tests force one and two workers by patching `core.usable_cpus`, and
check that every byte written, every log record, every counter and every
error is the same either way, and that no worker outlives a command.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ausentinel
from ausentinel import core
from ausentinel.cli import main
from ausentinel.core import GroundTruth, StreamFormatError, StreamStats
from ausentinel.evaluation import loocv_folds
from ausentinel.ingest import read_corpus
from ausentinel.model import TrainConfig
from conftest import FIXTURES, WORKER_COUNTS, load_fixture_script, make_trial, use_cpus
from test_cli import _PINNED_OUTPUTS, pinned_digests

_SPEC = {
    "participants": 3, "trials_per_participant": 2, "seed": 11, "trial_len_s": 12.0,
    "errors": [{"error_type": "physical", "perceived_error_start_s": 4.0},
               {"error_type": "concept", "perceived_error_start_s": 6.0}],
}


# This process's thread count just after each of its forks (Linux only).
_threads_at_fork: list[int] = []


def _count_threads() -> None:
    with open("/proc/self/stat") as fh:  # field 20 is the thread count
        _threads_at_fork.append(int(fh.read().rpartition(")")[2].split()[17]))


if os.path.exists("/proc/self/stat"):
    os.register_at_fork(after_in_parent=_count_threads)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 3x2 simulated corpus of 12 s trials; copy it before changing it."""
    root = tmp_path_factory.mktemp("pool")
    (root / "spec.json").write_text(json.dumps(_SPEC))
    assert main(["simulate", "--spec", str(root / "spec.json"),
                 "--out", str(root / "corpus")]) == 0
    return root / "corpus"


def _copy(corpus, tmp_path) -> Path:
    return Path(shutil.copytree(corpus, tmp_path / "corpus"))


def test_offline_lock_recipe_on_one_and_two_workers(tmp_path, monkeypatch):
    generate = load_fixture_script("offline_lock")
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        work = tmp_path / f"cpus{cpus}"
        work.mkdir()
        rebuilt = generate.build(work)
        for name, data in rebuilt.items():
            assert data == (FIXTURES / "offline_lock" / name).read_bytes(), (cpus, name)


def test_cli_pinned_bytes_and_output_on_one_and_two_workers(pinned_cli_runs):
    printed = {}
    for cpus, (root, rcs, out, err) in pinned_cli_runs.items():
        assert set(rcs) == {0}, cpus
        assert pinned_digests(root) == _PINNED_OUTPUTS, cpus
        printed[cpus] = out, err
    assert printed[1] == printed[2]


def test_degenerate_folds_warn_once_each_in_fold_order(monkeypatch, caplog):
    # Two thirds of every trial is error-labelled, so each fold's training
    # set has fewer no-error than error timesteps; the counts name the fold.
    rng = np.random.default_rng(0)
    trials = [make_trial(rng.random((n, 17)), GroundTruth(0, 2 * n // 3 - 1, 0),
                         trial_id=f"t{k}", participant_id=f"p{k}")
              for k, n in enumerate((30, 33, 36))]
    want = [f"only {ok} no-error timesteps for {err} error timesteps; "
            "undersampling degenerates to the full no-error set"
            for err, ok in ((46, 23), (44, 22), (42, 21))]
    models = {}
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level("WARNING"):
            folds = loocv_folds(trials, TrainConfig(epochs=5))
        assert [r.getMessage() for r in caplog.records] == want
        assert {r.name for r in caplog.records} == {"ausentinel.model"}
        models[cpus] = [fold.params.w1.tobytes() + fold.params.b2.tobytes()
                        for fold in folds]
    assert models[1] == models[2]


def test_each_fold_fine_tunes_right_after_it_trains(monkeypatch, caplog):
    # Two thirds of every trial is error-labelled, so every fold's training
    # set and every adapt trial (the first by trial id, listed second here)
    # has fewer no-error than error timesteps; the counts name the fold.
    rng = np.random.default_rng(1)
    trials = [make_trial(rng.random((n, 17)), GroundTruth(0, 2 * n // 3 - 1, 0),
                         trial_id=f"p{k}_t{j}", participant_id=f"p{k}")
              for k, sizes in enumerate(((30, 39), (33, 42), (36, 45)))
              for j, n in reversed(list(enumerate(sizes)))]
    want = [f"only {ok} no-error timesteps for {err} error timesteps; "
            "undersampling degenerates to the full no-error set"
            for err, ok in ((104, 52), (20, 10), (100, 50), (22, 11), (96, 48), (24, 12))]
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level("WARNING"):
            folds = loocv_folds(trials, TrainConfig(epochs=5), finetune_hyper=TrainConfig(epochs=5))
        assert [r.getMessage() for r in caplog.records] == want, cpus
        assert [t.trial_id for fold in folds for t, _ in fold.tuned_scored] == [
            "p0_t1", "p1_t1", "p2_t1"]


def _fold_bytes(folds) -> list:
    """Each fold's models and events, as bytes and exact reprs."""
    def model(params):
        if params is None:
            return None
        return (b"".join(getattr(params, name).tobytes() for name in ("w1", "b1", "w2", "b2")),
                params.seed, params.epochs, repr(params.learning_rate))

    return [(fold.participant_id, model(fold.params), model(fold.tuned),
             repr([events for _, events in fold.scored]),
             repr([events for _, events in fold.tuned_scored])) for fold in folds]


def test_no_trial_crosses_the_pool(corpus, monkeypatch):
    # A fold's task returns models and events; every trial in its pairs is
    # the caller's own object, whether the fold ran here or in a worker.
    trials = read_corpus(corpus)
    seen = {}
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        folds = loocv_folds(trials, TrainConfig(epochs=60), finetune_hyper=TrainConfig(epochs=20))
        for fold in folds:
            held_out = [t for t in trials if t.participant_id == fold.participant_id]
            assert [t for t, _ in fold.scored] == held_out
            assert all(mine is theirs for (mine, _), theirs in zip(fold.scored, held_out))
            assert all(any(t is own for own in held_out[1:]) for t, _ in fold.tuned_scored)
            assert len(fold.tuned_scored) == len(held_out) - 1
        seen[cpus] = _fold_bytes(folds)
    assert seen[1] == seen[2]
    assert any(events != "[]" for fold in seen[1] for events in fold[3:])


def test_an_unannotated_adapt_trial_is_exit_2_before_the_table(corpus, tmp_path, monkeypatch,
                                                               capsys):
    # p01's first trial loses its annotation, so fine-tuning the second fold
    # finds no error timestep; that fold's failure stops the command before
    # anything is printed.
    corpus = _copy(corpus, tmp_path)
    lines = (corpus / "annotations.csv").read_text().splitlines(True)
    (corpus / "annotations.csv").write_text(
        "".join(line for line in lines if not line.startswith("p01_t00,")))
    printed = {}
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        rc = main(["evaluate", "--corpus", str(corpus), "--epochs", "5",
                   "--finetune-per-participant", "--finetune-epochs", "5"])
        printed[cpus] = capsys.readouterr()
        assert rc == 2
    assert printed[1] == printed[2]
    assert printed[1] == ("", "error: corpus has no error-labeled timesteps; "
                              "undersampling rule needs >= 1\n")


def test_a_fold_without_error_timesteps_is_exit_2_as_before(corpus, tmp_path, monkeypatch,
                                                             capsys):
    # Only p01's trials keep their annotations, so the fold that holds p01
    # out trains on no error timestep at all; it is the second fold.
    corpus = _copy(corpus, tmp_path)
    lines = (corpus / "annotations.csv").read_text().splitlines(True)
    (corpus / "annotations.csv").write_text(
        "".join(lines[:1] + [line for line in lines[1:] if ",p01," in line]))
    printed = {}
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        rc = main(["evaluate", "--corpus", str(corpus), "--epochs", "5"])
        printed[cpus] = capsys.readouterr()
        assert rc == 2
    assert printed[1] == printed[2]
    assert printed[1].err == ("error: corpus has no error-labeled timesteps; "
                              "undersampling rule needs >= 1\n")


def test_an_unreadable_first_line_keeps_its_error(corpus, tmp_path, monkeypatch):
    corpus = _copy(corpus, tmp_path)
    frames = corpus / "frames" / "p01_t00.jsonl"
    lines = frames.read_text().splitlines(True)
    frames.write_text("{not json\n" + "".join(lines[1:]))
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        with pytest.raises(StreamFormatError) as exc:
            read_corpus(corpus)
        assert exc.value.line_no == 1
        assert str(exc.value) == (f"{frames}: line 1: unreadable first record: "
                                  "Expecting property name enclosed in double quotes: "
                                  "line 1 column 2 (char 1)")


def test_files_with_skipped_lines_keep_their_warnings_and_counters(corpus, tmp_path,
                                                                   monkeypatch, caplog):
    # Two files hold garbage lines, so their workers read them with
    # read_stream, between files that decode clean.
    corpus = _copy(corpus, tmp_path)
    for name, line_no in (("p00_t01.jsonl", 5), ("p02_t00.jsonl", 9)):
        path = corpus / "frames" / name
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:line_no] + ["garbage\n"] + lines[line_no:]))
    seen = {}
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        stats = StreamStats()
        caplog.clear()
        with caplog.at_level("WARNING"):
            trials = read_corpus(corpus, stats=stats)
        seen[cpus] = ([r.getMessage() for r in caplog.records], vars(stats),
                      [(t.trial_id, t.au.tobytes(), t.valid_face.tolist(), t.trial_start)
                       for t in trials])
    assert seen[1] == seen[2]
    messages, counters, _ = seen[1]
    assert [m.split(": ")[:2] for m in messages] == [
        [str(corpus / "frames" / "p00_t01.jsonl"), "skipping malformed record at line 6"],
        [str(corpus / "frames" / "p02_t00.jsonl"), "skipping malformed record at line 10"]]
    frame_lines = sum(len(path.read_text().splitlines()) - 1  # less the catalog header
                      for path in (corpus / "frames").iterdir())
    assert (counters["records_skipped"], counters["frames_read"]) == (2, frame_lines - 2)


def test_a_mismatched_annotation_is_refused_before_any_frame_file_is_read(
        corpus, tmp_path, monkeypatch, capsys):
    # The first trial's frame file is gone and the last row names another
    # participant: the mismatch (exit 2) comes first, not the missing file
    # (exit 1), as the manifest and annotations are checked before decoding.
    corpus = _copy(corpus, tmp_path)
    (corpus / "frames" / "p00_t00.jsonl").unlink()
    path = corpus / "annotations.csv"
    *rows, last = path.read_text().splitlines(True)
    trial_id, _, rest = last.split(",", 2)
    path.write_text("".join(rows) + f"{trial_id},p99,{rest}")
    for cpus in WORKER_COUNTS:
        use_cpus(monkeypatch, cpus)
        assert main(["evaluate", "--corpus", str(corpus), "--epochs", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: trial {trial_id}: manifest/annotation participant_id mismatch\n")


def test_two_tasks_fork_on_two_cpus_whatever_their_size(corpus, tmp_path, monkeypatch):
    # Usable CPUs and the task count alone choose: the 3x2 corpus of 12 s
    # trials and 1-epoch folds fork min(tasks, CPUs) workers, and one CPU
    # or one task forks none.
    forks = []
    forked = core._forked

    def spy(task, n, workers):
        forks.append((n, workers))
        return forked(task, n, workers)

    monkeypatch.setattr(core, "_forked", spy)
    one_trial = _copy(corpus, tmp_path)
    manifest = json.loads((one_trial / "manifest.json").read_text())
    manifest["trials"] = manifest["trials"][:1]
    (one_trial / "manifest.json").write_text(json.dumps(manifest))
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        loocv_folds(read_corpus(corpus), TrainConfig(epochs=1))
        assert len(read_corpus(one_trial)) == 1
    assert forks == [(6, 2), (3, 2)]


# Two forced CPUs, and `no_child_left()`, for a script run by `_run_fresh`.
_TWO_CPUS = (
    "import json, os, signal, time\n"
    "from ausentinel import core\n"
    "core.usable_cpus = lambda: 2\n"
    "def no_child_left():\n"
    "    try:\n"
    "        os.waitpid(-1, os.WNOHANG)\n"
    "    except ChildProcessError:\n"
    "        return True\n"
    "    return False\n"
)


def _run_fresh(code: str, *args) -> subprocess.CompletedProcess:
    """Run `code` on `args` in a fresh interpreter whose stdout is block-buffered."""
    src = Path(ausentinel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="Linux /proc only")
def test_workers_fork_from_a_process_of_one_thread(corpus, monkeypatch, capsys):
    # Python 3.12 and later warn (an error in this suite) when os.fork runs
    # in a process of more than one thread, as a worker's fork would with
    # OpenBLAS's threads running. OpenBLAS stops them before a fork, so the
    # parent is down to its one thread then, as Python counts it.
    use_cpus(monkeypatch, 2)
    blas = np.ones((200, 200))
    blas @ blas  # OpenBLAS's threads run from here
    _threads_at_fork.clear()
    assert main(["evaluate", "--corpus", str(corpus), "--epochs", "5"]) == 0
    capsys.readouterr()
    assert _threads_at_fork == [1] * 4  # 2 decoding workers, 2 training workers


def test_no_worker_outlives_a_command(corpus, tmp_path):
    # `evaluate` once to success and once to exit 2, in a fresh interpreter
    # with two workers; after each, the process must have no child left.
    failing = _copy(corpus, tmp_path)
    (failing / "annotations.csv").write_text(
        (failing / "annotations.csv").read_text().splitlines(True)[0])
    code = _TWO_CPUS + (
        "import resource, sys\n"
        "from ausentinel.cli import main\n"
        "print('before the pool')\n"
        "seen = []\n"
        "for corpus in sys.argv[1:]:\n"
        "    rc = main(['evaluate', '--corpus', corpus, '--epochs', '5'])\n"
        "    seen.append([rc, no_child_left()])\n"
        "workers_ran = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0\n"
        "print(json.dumps([seen, workers_ran]))\n"
    )
    done = _run_fresh(code, corpus, failing)
    assert done.returncode == 0, done.stderr
    seen, workers_ran = json.loads(done.stdout.splitlines()[-1])
    assert seen == [[0, True], [2, True]]
    assert workers_ran
    # stdout is a pipe, so block-buffered: a worker that flushed its copy of
    # the buffer would print the line again.
    assert done.stdout.count("before the pool") == 1


def test_a_dead_worker_is_a_child_process_error_and_leaves_no_child():
    # Task `dying` runs in worker `dying`, which dies before returning it;
    # the other worker's outcomes outgrow a pipe's buffer (64 KiB), so it
    # must not wait on a pipe nobody reads.
    code = _TWO_CPUS + (
        "def task(dying, i):\n"
        "    if i == dying:\n"
        "        os._exit(3)\n"
        "    return b'x' * 100_000\n"
        "seen = []\n"
        "for dying in (0, 1):\n"
        "    try:\n"
        "        raised = len(list(core.map_in_order(lambda i: task(dying, i), 4)))\n"
        "    except ChildProcessError as exc:\n"
        "        raised = str(exc)\n"
        "    seen.append([raised, no_child_left()])\n"
        "print(json.dumps(seen))\n"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [f"worker {w} ended before returning task {w} (exit code 3)", True] for w in (0, 1)]


def test_an_interrupted_pool_leaves_no_worker():
    # Task 1 interrupts the parent while worker 0 is still in task 2, a
    # minute long: the parent kills it rather than wait for it.
    code = _TWO_CPUS + (
        "def task(i):\n"
        "    if i == 1:\n"
        "        os.kill(os.getppid(), signal.SIGINT)\n"
        "    elif i == 2:\n"
        "        time.sleep(60)\n"
        "    return i\n"
        "start = time.monotonic()\n"
        "try:\n"
        "    ended = list(core.map_in_order(task, 4))\n"
        "except KeyboardInterrupt:\n"
        "    ended = 'interrupted'\n"
        "print(json.dumps([ended, no_child_left(), time.monotonic() - start < 30]))\n"
    )
    done = _run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["interrupted", True, True]


def test_each_worker_warning_reaches_stderr_once(corpus, tmp_path):
    # Two files hold garbage lines, so two workers warn; the parent alone
    # writes their records, in manifest order, and no worker writes its own.
    corpus = _copy(corpus, tmp_path)
    for name, line_no in (("p00_t01.jsonl", 5), ("p02_t00.jsonl", 9)):
        path = corpus / "frames" / name
        lines = path.read_text().splitlines(True)
        path.write_text("".join(lines[:line_no] + ["garbage\n"] + lines[line_no:]))
    code = _TWO_CPUS + (
        "import sys\n"
        "from ausentinel.cli import main\n"
        "sys.exit(main(['evaluate', '--corpus', sys.argv[1], '--epochs', '5']))\n"
    )
    done = _run_fresh(code, corpus)
    assert done.returncode == 0, done.stderr
    skipped = [line.split(": ")[:3] for line in done.stderr.splitlines()
               if "skipping malformed record" in line]
    assert skipped == [
        ["WARNING ausentinel.ingest", str(corpus / "frames" / "p00_t01.jsonl"),
         "skipping malformed record at line 6"],
        ["WARNING ausentinel.ingest", str(corpus / "frames" / "p02_t00.jsonl"),
         "skipping malformed record at line 10"]]


def test_a_dead_worker_is_exit_1_with_one_error_line(corpus):
    # The second fold's worker dies before it returns the fold.
    code = _TWO_CPUS + (
        "import sys\n"
        "from ausentinel import evaluation\n"
        "from ausentinel.cli import main\n"
        "fold_work = evaluation._fold_work\n"
        "def dying(corpus, held, *rest):\n"
        "    if held[0].participant_id == 'p01':\n"
        "        os._exit(3)\n"
        "    return fold_work(corpus, held, *rest)\n"
        "evaluation._fold_work = dying\n"
        "sys.exit(main(['evaluate', '--corpus', sys.argv[1], '--epochs', '5']))\n"
    )
    done = _run_fresh(code, corpus)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: worker 1 ended before returning task 1 (exit code 3)\n"

