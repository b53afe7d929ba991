"""Acceptance criteria for the error-detection engine.

Each test covers one numbered criterion and registers a PASS/FAIL line that
pytest prints in its terminal summary (see conftest). Tolerances are pinned
here on purpose; loosening them is a contract change, not a test fix.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import scipy.stats

from conftest import (
    ACCEPTANCE_RESULTS,
    STATS_SEED,
    batch_oracle,
    event_tuples,
    make_trial,
    pinned_scenario,
)
from ausentinel.cli import main
from ausentinel.core import AU_IDS, N_AUS, ErrorEvent, GroundTruth, Timestep, timestep_of
from ausentinel.detector import (
    DetectorState,
    WindowConfig,
    detect_sequence,
    run_trial,
    step,
)
from ausentinel.evaluation import (
    detection_delay,
    finetune_comparison,
    internal_delay,
    match,
    score_corpus,
    welch_ttest,
)
from ausentinel.model import (
    N_CLASSES,
    N_HIDDEN,
    TrainConfig,
    classify_timestep,
    corpus_matrices,
    forward,
    init_params,
    loss_and_gradients,
    train,
)
from ausentinel.simgen import DEFAULT_AMPLITUDES, ErrorPlan, ScenarioSpec, generate, perturb


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((num, label, "FAIL"))
        raise
    ACCEPTANCE_RESULTS.append((num, label, "PASS"))


# ---------------------------------------------------------------------------


def test_criterion_01_streaming_matches_batch():
    """Streaming detection equals the batch reference on 100k weight sequences.

    Exhaustive over every sequence of length <= 7 (21845), plus seeded random
    draws of lengths 8..14, totalling exactly 100000 sequences over the weight
    alphabet {0, 0.5, 0.75, 1.0}. Zero mismatches allowed.
    """
    with criterion(1, "streaming equals batch reference"):
        cfg = WindowConfig()
        levels = (0.0, 0.5, 0.75, 1.0)
        checked = 0
        for length in range(8):
            for combo in itertools.product(levels, repeat=length):
                got = event_tuples(detect_sequence(list(combo), cfg))
                assert got == batch_oracle(combo, cfg), combo
                checked += 1
        assert checked == 21845
        rng = np.random.default_rng(1234)
        while checked < 100_000:
            length = int(rng.integers(8, 15))
            weights = [levels[i] for i in rng.integers(0, 4, length)]
            got = event_tuples(detect_sequence(weights, cfg))
            assert got == batch_oracle(weights, cfg), weights
            checked += 1
        assert checked == 100_000


def test_criterion_02_exact_trigger_boundary():
    """Six full-weight timesteps in a window always fire; five never do.

    All C(11,6) placements of six 1.0 weights trigger exactly once, when the
    window is complete, with score exactly 6.0 (no tolerance) and the onset
    estimated at the first; all C(11,5) placements of five stay silent.
    """
    with criterion(2, "six ones fire, five never"):
        cfg = WindowConfig()
        for ones in itertools.combinations(range(11), 6):
            chosen = set(ones)
            weights = [1.0 if i in chosen else 0.0 for i in range(11)]
            events = detect_sequence(weights, cfg)
            assert len(events) == 1, ones
            first = events[0]
            assert first.detected_at == 10
            assert first.estimated_start == ones[0]
            assert first.score == 6.0
            assert first.merged is False
        for ones in itertools.combinations(range(11), 5):
            chosen = set(ones)
            weights = [1.0 if i in chosen else 0.0 for i in range(11)]
            assert detect_sequence(weights, cfg) == []


def test_criterion_03_analytic_gradients():
    """Backprop gradients match central differences on 100 random draws.

    h = 1e-5; every one of the 82 parameters must agree within 1e-4 relative
    error, with the denominator floored at 1e-3 so near-zero gradients are
    judged on absolute agreement instead of amplified roundoff. Draws whose
    hidden pre-activations sit within 1e-3 of the relu kink are redrawn
    (finite differences are undefined across the kink).
    """
    with criterion(3, "gradients match central differences"):
        h = 1e-5
        accepted = 0
        attempt = 0
        while accepted < 100:
            rng = np.random.default_rng([93, attempt])
            attempt += 1
            params = replace(
                init_params(0),
                w1=rng.normal(0.0, 0.4, (N_AUS, N_HIDDEN)),
                b1=rng.normal(0.0, 0.3, N_HIDDEN),
                w2=rng.normal(0.0, 0.6, (N_HIDDEN, N_CLASSES)),
                b2=rng.normal(0.0, 0.3, N_CLASSES),
            )
            X = rng.uniform(0.0, 5.0, (6, N_AUS))
            y = rng.integers(0, 2, 6)
            if np.abs(X @ params.w1 + params.b1).min() < 1e-3:
                continue
            accepted += 1
            _, grads = loss_and_gradients(params, X, y)
            for name in ("w1", "b1", "w2", "b2"):
                arr = getattr(params, name)
                analytic = grads[name]
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    up = arr.copy()
                    up[idx] += h
                    down = arr.copy()
                    down[idx] -= h
                    lp, _ = loss_and_gradients(replace(params, **{name: up}), X, y)
                    lm, _ = loss_and_gradients(replace(params, **{name: down}), X, y)
                    numeric = (lp - lm) / (2.0 * h)
                    denom = max(abs(analytic[idx]), abs(numeric), 1e-3)
                    assert abs(analytic[idx] - numeric) / denom <= 1e-4, (
                        name, idx, analytic[idx], numeric)
        assert accepted == 100


def test_criterion_04_probabilities_normalize(pinned_params):
    """Class probabilities sum to 1 within 1e-9 on 1e5 random intensity vectors,
    and the confidence weighting never lands strictly inside (0, 0.5)."""
    with criterion(4, "outputs normalize; weights skip (0, 0.5)"):
        rng = np.random.default_rng(11)
        X = rng.uniform(0.0, 5.0, (100_000, N_AUS))
        p = forward(pinned_params, X)
        worst = np.abs(p[:, 0] + p[:, 1] - 1.0).max()
        w = classify_timestep(pinned_params, X)
        inside = (0.0 < w) & (w < 0.5)
        assert not inside.any(), (w[inside][:5], p[inside][:5])
        assert worst < 1e-9


def test_criterion_05_balanced_epochs():
    """Class rebalancing holds exactly: on a 100:10 corpus every one of 50
    epochs trains on equal error / no-error counts."""
    with criterion(5, "undersampling balances every epoch"):
        rng = np.random.default_rng(3)
        au = rng.uniform(0.0, 0.4, (110, N_AUS))
        au[50:60, :5] += 3.0
        trial = make_trial(au, GroundTruth(50, 59, 49))
        log: list = []
        train([trial], TrainConfig(epochs=50, learning_rate=0.2, seed=1), log)
        assert len(log) == 50
        for entry in log:
            assert entry["n_error"] == entry["n_no_error"] == 10


def test_criterion_06_population_benchmark(pinned_folds):
    """Leave-one-participant-out on the pinned 20x3 corpus: no misses,
    at most one false positive per trial on average, RMSE detection delay
    within 4 s, full run within five minutes."""
    with criterion(6, "population cross-validation bar"):
        folds, elapsed = pinned_folds  # timed where the fixture computes them
        scored = [pair for fold in folds for pair in fold.scored]
        score = score_corpus(scored)
        assert score.n_trials == 60
        assert score.fn_rate_per_trial == 0.0
        assert score.fp_rate_per_trial <= 1.0
        assert score.rmse_detection_delay_s is not None
        assert score.rmse_detection_delay_s <= 4.0
        assert elapsed <= 300.0, f"LOOCV took {elapsed:.0f}s"


def test_criterion_07_per_person_adaptation(pinned_folds):
    """Fine-tuning on one trial of the held-out participant must not worsen
    the mean detection delay on their remaining trials."""
    with criterion(7, "fine-tuning never worsens mean delay"):
        # Reuses criterion 6's folds, as `evaluate` does.
        cmp_ = finetune_comparison(pinned_folds[0])
        assert cmp_.base_mean_delay_s is not None
        assert cmp_.tuned_mean_delay_s is not None
        assert cmp_.tuned_mean_delay_s <= cmp_.base_mean_delay_s, (
            cmp_.base_mean_delay_s, cmp_.tuned_mean_delay_s)


def test_criterion_08_degenerate_scenarios(pinned_params, window_cfg):
    """Seeded stress scenarios: flattened reactions go silent (pure misses),
    novelty bursts on error-free trials draw false positives, and an
    occlusion-release spike is flagged as a candidate event after the gap."""
    with criterion(8, "stress scenarios behave as designed"):
        # reactions scaled to zero amplitude: annotations stay, faces do not move
        flat = perturb(
            generate(ScenarioSpec(
                participants=3, trials_per_participant=2, seed=421,
                errors=(ErrorPlan("physical", 18.0), ErrorPlan("concept", 30.0)),
            )),
            "amplitude-scale", 0.0,
        )
        for rec in flat.records():
            events = run_trial(rec, pinned_params, window_cfg)
            assert events == [], rec.trial_id
            s = match(events, rec.annotations)
            assert s.false_negatives == 1 and s.false_positives == 0

        # reaction-like bursts at robot-motion onsets, no actual errors
        nov = generate(ScenarioSpec(
            participants=3, trials_per_participant=2, seed=422,
            errors=(ErrorPlan("none"), ErrorPlan("none")), novelty_effect=True,
        ))
        for rec in nov.records():
            s = match(run_trial(rec, pinned_params, window_cfg), rec.annotations)
            assert s.false_positives >= 1, rec.trial_id
        # control: the same population without the novelty artifact stays quiet
        quiet = generate(ScenarioSpec(
            participants=3, trials_per_participant=2, seed=422,
            errors=(ErrorPlan("none"), ErrorPlan("none")),
        ))
        for rec in quiet.records():
            s = match(run_trial(rec, pinned_params, window_cfg), rec.annotations)
            assert s.false_positives == 0, rec.trial_id

        # occlusion: silent during the gap, flagged candidate on release
        occ = generate(ScenarioSpec(
            participants=3, trials_per_participant=2, seed=423,
            errors=(ErrorPlan("none"), ErrorPlan("none")),
            occlusion_windows=((25.0, 31.0),),
        ))
        release = timestep_of(31.0)
        for rec in occ.records():
            events = run_trial(rec, pinned_params, window_cfg)
            assert all(e.detected_at >= release for e in events), rec.trial_id
            unmerged = [e for e in events if not e.merged]
            assert unmerged, rec.trial_id
            assert all(e.estimated_start >= release for e in unmerged)
            s = match(events, rec.annotations)
            assert s.false_positives >= 1


def test_criterion_09_welch_analysis():
    """The self-contained Welch t-test matches an independent reference within
    1e-6 on t, dof, and p for all 17 AUs of the stats corpus; the brow
    lowerer (AU04) is not significant while every reacting AU is."""
    with criterion(9, "Welch matches reference; AU04 stays flat"):
        corpus = generate(pinned_scenario(STATS_SEED)).records()
        results = welch_ttest(corpus)
        X, y = corpus_matrices(corpus)
        for i, au_id in enumerate(AU_IDS):
            ref = scipy.stats.ttest_ind(X[y, i], X[~y, i], equal_var=False)
            r = results[au_id]
            assert abs(r.t - ref.statistic) < 1e-6, au_id
            assert abs(r.dof - ref.df) < 1e-6, au_id
            assert abs(r.p - ref.pvalue) < 1e-6, au_id
        assert not results["AU04"].significant, results["AU04"]
        for au_id in DEFAULT_AMPLITUDES:
            assert results[au_id].significant, au_id
            assert results[au_id].p < 0.05


def test_criterion_10_delay_arithmetic(pinned_corpus, pinned_params, window_cfg):
    """Delay metrics are exact: a detection at timestep 40 against a perceived
    error at 31 is 3.0 s on the nose; delays {3, -1} give RMSE sqrt(5) within
    1e-12; and every emitted event localizes its onset within 10/3 s."""
    with criterion(10, "delay metrics are exact"):
        gt_a = GroundTruth(reaction_start=33, reaction_end=50,
                           perceived_error_start=31)
        event_a = ErrorEvent(detected_at=40, estimated_start=35, score=6.0,
                             merged=False)
        assert detection_delay(event_a, gt_a) == 3.0
        gt_b = GroundTruth(reaction_start=25, reaction_end=45,
                           perceived_error_start=31)
        event_b = ErrorEvent(detected_at=28, estimated_start=26, score=6.0,
                             merged=False)
        assert detection_delay(event_b, gt_b) == -1.0
        au = np.zeros((70, N_AUS))
        scored = [
            (make_trial(au, gt_a, trial_id="a"), [event_a]),
            (make_trial(au, gt_b, trial_id="b", participant_id="p01",
                        error_type="concept"), [event_b]),
        ]
        rmse = score_corpus(scored).rmse_detection_delay_s
        assert abs(rmse - math.sqrt(5)) < 1e-12
        bound = 10 / 3  # window of 11 timesteps spans at most 10 steps
        for trial in pinned_corpus:
            for event in run_trial(trial, pinned_params, window_cfg):
                assert internal_delay(event) <= bound, trial.trial_id


def test_criterion_11_throughput_and_memory(pinned_corpus, pinned_params,
                                            window_cfg):
    """The live path classifies and windows at >= 1000 timesteps/s on one
    core, with detector memory bounded by the window length."""
    with criterion(11, "stream rate and bounded memory"):
        X = np.concatenate([t.au for t in pinned_corpus] * 3, axis=0)
        steps = [Timestep(index=i, au=row) for i, row in enumerate(X)]
        assert len(steps) >= 30_000
        state = DetectorState()
        t0 = time.perf_counter()
        for ts in steps:
            weight = classify_timestep(pinned_params, ts.au[None]).item()
            step(state, ts.index, weight, window_cfg)
        elapsed = time.perf_counter() - t0
        rate = len(steps) / elapsed
        assert rate >= 1000.0, f"{rate:.0f} timesteps/s"
        assert len(state.buffer) <= window_cfg.window_len


def test_criterion_12_reproducible_pipeline(tmp_path, monkeypatch):
    """Two pipeline runs with identical seeds produce byte-identical corpora,
    model files, event logs, and evaluation reports."""
    with criterion(12, "identical seeds give identical bytes"):
        spec_obj = {
            "participants": 4,
            "trials_per_participant": 2,
            "seed": 20,
            "trial_len_s": 30.0,
            "errors": [
                {"error_type": "physical", "perceived_error_start_s": 12.0},
                {"error_type": "none"},
            ],
        }
        artifacts = ("model.json", "events.jsonl", "train.json",
                     "report.json", "report.csv", "aus.json",
                     "corpus/manifest.json", "corpus/annotations.csv",
                     "corpus/frames/p00_t00.jsonl")
        runs = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            (root / "scenario.json").write_text(json.dumps(spec_obj))
            assert main(["simulate", "--spec", "scenario.json",
                         "--out", "corpus"]) == 0
            assert main(["train", "--corpus", "corpus", "--out", "model.json",
                         "--epochs", "120", "--report", "train.json"]) == 0
            assert main(["detect", "--model", "model.json", "--corpus", "corpus",
                         "--out", "events.jsonl"]) == 0
            assert main(["evaluate", "--corpus", "corpus", "--model", "model.json",
                         "--report-json", "report.json",
                         "--report-csv", "report.csv"]) == 0
            assert main(["analyze", "--corpus", "corpus",
                         "--report", "aus.json"]) == 0
            runs.append({rel: (root / rel).read_bytes() for rel in artifacts})
        assert runs[0] == runs[1]
