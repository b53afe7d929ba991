"""Shared fixtures: pinned synthetic corpora, trained models, a batch oracle.

The expensive artifacts (the 20x3 pinned corpus and a model trained on it)
are session-scoped so the acceptance tests and unit tests share one build.
"""

from __future__ import annotations

import importlib.util
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from ausentinel import core
from ausentinel.cli import main
from ausentinel.core import N_AUS, GroundTruth, StreamStats, Timestep, TrialRecord
from ausentinel.detector import WindowConfig
from ausentinel.evaluation import loocv_folds
from ausentinel.ingest import ArbitrationPolicy, TimestepBuilder
from ausentinel.model import TrainConfig, finetune_recipe, train
from ausentinel.simgen import ErrorPlan, ScenarioSpec, generate

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:2d} {label}: {status}")


FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_script(name: str):
    """Import fixtures/<name>/generate.py, the recipe that wrote that fixture."""
    path = FIXTURES / name / "generate.py"
    spec = importlib.util.spec_from_file_location(f"{name}_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def frames_to_timesteps(frames, policy: ArbitrationPolicy | None = None,
                        trial_start: float = 0.0,
                        stats: StreamStats | None = None) -> list[Timestep]:
    """The batch oracle: a whole frame collection through the live builder.

    Frames are stably sorted by timestamp first, so per-source order is
    preserved; `ingest.read_corpus` must produce exactly this, and count the
    same duplicate frames on `stats`.
    """
    builder = TimestepBuilder(policy, trial_start, stats)
    out: list[Timestep] = []
    for frame in sorted(frames, key=lambda f: f.t):
        out.extend(builder.add(frame))
    out.extend(builder.finish())
    return out


def timesteps_to_matrix(timesteps) -> tuple[np.ndarray, np.ndarray]:
    """A builder's timesteps as a trial holds them: its (n, 17) AU matrix and
    (n,) valid_face mask. Their indices must run 0..n-1."""
    assert [ts.index for ts in timesteps] == list(range(len(timesteps)))
    return (np.array([ts.au for ts in timesteps]).reshape(-1, N_AUS),
            np.array([ts.valid_face for ts in timesteps], dtype=bool))


PINNED_SEED = 42
STATS_SEED = 4
TRAIN_HYPER = TrainConfig(epochs=400, learning_rate=0.3, seed=0)


def pinned_scenario(seed: int) -> ScenarioSpec:
    """The 20x3 benchmark scenario: one error per trial, three error kinds."""
    return ScenarioSpec(
        participants=20,
        trials_per_participant=3,
        seed=seed,
        errors=(
            ErrorPlan("physical", 18.0),
            ErrorPlan("concept", 27.0),
            ErrorPlan("generalization", 33.0),
        ),
    )


@pytest.fixture(scope="session")
def pinned_corpus():
    return generate(pinned_scenario(PINNED_SEED)).records()


@pytest.fixture(scope="session")
def pinned_params(pinned_corpus):
    return train(pinned_corpus, TRAIN_HYPER)


@pytest.fixture(scope="session")
def window_cfg():
    return WindowConfig()


@pytest.fixture(scope="session")
def pinned_folds(pinned_corpus, window_cfg):
    """LOOCV folds of the pinned corpus and the seconds they took to compute.

    Criteria 6 and 7 share this one pass, as `evaluate` does.
    """
    t0 = time.perf_counter()
    folds = loocv_folds(pinned_corpus, TRAIN_HYPER, window_cfg, finetune_recipe(TRAIN_HYPER))
    return folds, time.perf_counter() - t0


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small fast corpus (4 participants x 2 trials, 30 s) for unit tests."""
    spec = ScenarioSpec(
        participants=4,
        trials_per_participant=2,
        seed=5,
        errors=(ErrorPlan("physical", 8.0), ErrorPlan("none")),
        trial_len_s=30.0,
    )
    return generate(spec).records()


def make_trial(au: np.ndarray, gt: GroundTruth | None = None,
               trial_id: str = "t00", participant_id: str = "p00",
               error_type: str = "physical") -> TrialRecord:
    """Wrap an (n, 17) intensity matrix into a TrialRecord, every row valid."""
    au = np.asarray(au, dtype=np.float64)
    return TrialRecord(trial_id=trial_id, participant_id=participant_id,
                       error_type=error_type, au=au,
                       valid_face=np.ones(len(au), dtype=bool), annotations=gt)


def batch_oracle(weights, cfg: WindowConfig):
    """Brute-force reference detector: full-history window sums, no streaming.

    Returns (detected_at, estimated_start, score, merged) tuples. Sums each
    window in chronological order so float totals are bit-identical to the
    streaming path.
    """
    kept = [(j, float(w)) for j, w in enumerate(weights) if j >= cfg.warmup]
    events = []
    last = None
    for k in range(len(kept)):
        if k + 1 < cfg.window_len:
            continue
        win = kept[k - cfg.window_len + 1 : k + 1]
        score = sum(w for _, w in win)
        if score >= cfg.threshold:
            detected_at = win[-1][0]
            estimated_start = next(ts for ts, w in win if w > 0)
            merged = last is not None and (
                abs(detected_at - last) <= cfg.merge_gap
                or abs(estimated_start - last) <= cfg.merge_gap
            )
            events.append((detected_at, estimated_start, score, merged))
            last = detected_at
    return events


def event_tuples(events):
    return [(e.detected_at, e.estimated_start, e.score, e.merged) for e in events]


WORKER_COUNTS = (1, 2)


def use_cpus(monkeypatch, cpus: int) -> None:
    """Run on `cpus` CPUs."""
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)


# A command sequence that writes every report, the model file and the event
# log, for a corpus with false positives, misses and merged events, and
# (second spec) a one-participant corpus whose flat AUs give the analyze
# report NaN statistics. test_cli pins the bytes it writes.
PIN_SPEC = {
    "participants": 3, "trials_per_participant": 3, "seed": 5, "trial_len_s": 30.0,
    "novelty_effect": True, "occlusion_windows": [[12.0, 13.5]],
    "errors": [{"error_type": "physical", "perceived_error_start_s": 9.0},
               {"error_type": "concept", "perceived_error_start_s": 16.0},
               {"error_type": "none"}],
}
PIN_FLAT_SPEC = {
    "participants": 1, "trials_per_participant": 2, "seed": 3, "trial_len_s": 12.0,
    "baseline_noise": 0,
    "errors": [{"error_type": "physical", "perceived_error_start_s": 3.0},
               {"error_type": "none"}],
}
PINNED_COMMANDS = (
    ["simulate", "--spec", "spec.json", "--out", "corpus"],
    ["train", "--corpus", "corpus", "--out", "model.json", "--report", "train.json",
     "--epochs", "40"],
    ["evaluate", "--corpus", "corpus", "--model", "model.json", "--finetune-per-participant",
     "--epochs", "40", "--finetune-epochs", "20",
     "--report-json", "model_finetune_report.json"],
    ["evaluate", "--corpus", "corpus", "--model", "model.json",
     "--report-json", "model_report.json", "--report-csv", "model_report.csv"],
    ["evaluate", "--corpus", "corpus", "--finetune-per-participant", "--epochs", "40",
     "--finetune-epochs", "20", "--report-json", "loocv_report.json",
     "--report-csv", "loocv_report.csv"],
    ["simulate", "--spec", "flat.json", "--out", "flat"],
    ["analyze", "--corpus", "flat", "--report", "analyze.json"],
    ["detect", "--model", "model.json", "--corpus", "corpus", "--out", "events.jsonl"],
)


@pytest.fixture(scope="session")
def pinned_cli_runs(tmp_path_factory):
    """`PINNED_COMMANDS`, run once on each of `WORKER_COUNTS` CPUs.

    Maps the CPU count to (the directory the commands ran in, their exit
    codes, what they printed to stdout, what they printed to stderr). The
    commands use relative paths, so train.json's path fields are fixed.
    """
    runs = {}
    for cpus in WORKER_COUNTS:
        root = tmp_path_factory.mktemp(f"pinned_cpus{cpus}")
        (root / "spec.json").write_text(json.dumps(PIN_SPEC))
        (root / "flat.json").write_text(json.dumps(PIN_FLAT_SPEC))
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as monkeypatch, redirect_stdout(out), \
                redirect_stderr(err):
            monkeypatch.chdir(root)
            use_cpus(monkeypatch, cpus)
            rcs = [main(argv) for argv in PINNED_COMMANDS]
        runs[cpus] = (root, rcs, out.getvalue(), err.getvalue())
    return runs
