"""Scoring, cross-validation, fine-tuning protocol, and the Welch oracle."""

import math

import numpy as np
import pytest
import scipy.stats

from conftest import make_trial
from ausentinel import evaluation
from ausentinel.core import ContractError, ErrorEvent, GroundTruth, write_json
from ausentinel.detector import WindowConfig
from ausentinel.evaluation import (
    CorpusScore,
    detection_delay,
    finetune_comparison,
    format_table,
    internal_delay,
    loocv_folds,
    match,
    reaction_diff,
    reaction_stats,
    score_corpus,
    t_two_sided_p,
    welch_from_samples,
    welch_ttest,
    write_report_csv,
)
from ausentinel.model import TrainConfig, finetune_recipe


def ev(detected_at, estimated_start, merged=False):
    return ErrorEvent(detected_at=detected_at, estimated_start=estimated_start,
                      score=6.0, merged=merged)


# ---------------------------------------------------------------------------
# Per-event metrics


def test_delay_examples_are_exact():
    gt = GroundTruth(reaction_start=33, reaction_end=50, perceived_error_start=31)
    assert detection_delay(ev(40, 35), gt) == 3.0
    assert reaction_diff(ev(40, 35), gt) == timestep_diff_s(40, 33)
    assert internal_delay(ev(40, 33)) == 7 / 3


def timestep_diff_s(a, b):
    return (a - b) / 3.0


def test_anticipatory_delay_is_negative():
    gt = GroundTruth(reaction_start=25, reaction_end=45, perceived_error_start=31)
    assert detection_delay(ev(28, 26), gt) == -1.0


# ---------------------------------------------------------------------------
# Matching


def test_match_overlap_is_closed_interval():
    gt = GroundTruth(reaction_start=30, reaction_end=40, perceived_error_start=29)
    # touching the reaction end from the left: still an overlap
    s = match([ev(45, 40)], gt)
    assert len(s.matched_events) == 1 and s.false_positives == 0
    # detected exactly at reaction start
    s = match([ev(30, 20)], gt)
    assert len(s.matched_events) == 1
    # strictly before the reaction: false positive, reaction missed
    s = match([ev(25, 20)], gt)
    assert s.false_positives == 1 and s.false_negatives == 1
    # strictly after the reaction
    s = match([ev(50, 41)], gt)
    assert s.false_positives == 1 and s.false_negatives == 1


def test_match_earliest_hit_supplies_delays():
    gt = GroundTruth(reaction_start=30, reaction_end=60, perceived_error_start=29)
    s = match([ev(35, 31), ev(50, 45)], gt)
    assert len(s.matched_events) == 2
    assert s.detection_delay_s == timestep_diff_s(35, 29)


def test_match_ignores_merged_events():
    gt = GroundTruth(reaction_start=30, reaction_end=60, perceived_error_start=29)
    s = match([ev(35, 31), ev(36, 31, merged=True)], gt)
    assert len(s.matched_events) == 1 and s.false_positives == 0
    # merged events are invisible to scoring even when they miss the reaction
    s = match([ev(10, 5, merged=True)], gt)
    assert s.false_positives == 0 and s.false_negatives == 1


def test_match_without_annotations():
    s = match([ev(10, 5), ev(50, 45)], None)
    assert s.false_positives == 2 and s.false_negatives == 0
    assert s.detection_delay_s is None


def test_match_silent_detector():
    gt = GroundTruth(reaction_start=30, reaction_end=60, perceived_error_start=29)
    s = match([], gt)
    assert s.false_negatives == 1 and s.false_positives == 0


# ---------------------------------------------------------------------------
# Corpus aggregation


def two_trial_scored():
    au = np.zeros((70, 17))
    gt_a = GroundTruth(33, 50, 31)
    gt_b = GroundTruth(25, 45, 31)
    trial_a = make_trial(au, gt_a, trial_id="a", error_type="physical")
    trial_b = make_trial(au, gt_b, trial_id="b", participant_id="p01",
                         error_type="concept")
    return [(trial_a, [ev(40, 35)]), (trial_b, [ev(28, 26)])]


def test_rmse_of_known_delays():
    score = score_corpus(two_trial_scored())
    assert abs(score.rmse_detection_delay_s - math.sqrt(5)) < 1e-12
    assert score.n_trials == 2 and score.n_matched == 2
    assert score.fp_rate_per_trial == 0.0
    assert score.fn_rate_per_trial == 0.0


def test_per_type_partition():
    score = score_corpus(two_trial_scored())
    assert set(score.per_type) == {"physical", "concept"}
    assert score.per_type["physical"].n_trials == 1
    # nested partitions do not recurse further
    assert score.per_type["physical"].per_type == {}


def test_sd_needs_two_samples():
    scored = two_trial_scored()[:1]
    score = score_corpus(scored)
    assert score.sd_fp_per_trial is None
    full = score_corpus(two_trial_scored())
    assert full.sd_fp_per_trial == 0.0


def test_score_corpus_rejects_empty():
    with pytest.raises(ContractError):
        score_corpus([])


def test_report_writers(tmp_path):
    score = score_corpus(two_trial_scored())
    table = format_table(score)
    assert "fp/trial" in table and "RMSE seconds" in table
    write_json(tmp_path / "r.json", score.to_obj())
    text = (tmp_path / "r.json").read_text()
    assert text.endswith("\n") and '"n_trials":2' in text
    write_report_csv(tmp_path / "r.csv", score)
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0].startswith("scope,")
    assert len(lines) >= 2


# ---------------------------------------------------------------------------
# Cross-validation and fine-tuning


def test_loocv_folds_hold_out_each_participant(tiny_corpus):
    hyper = TrainConfig(epochs=60, learning_rate=0.3, seed=0)
    folds = loocv_folds(tiny_corpus, hyper, WindowConfig())
    assert [f.participant_id for f in folds] == sorted(
        {t.participant_id for t in tiny_corpus}
    )
    for fold in folds:
        held_out = {t.participant_id for t, _ in fold.scored}
        assert held_out == {fold.participant_id}
        assert len(fold.scored) == 2


def test_loocv_needs_two_participants(tiny_corpus):
    one = [t for t in tiny_corpus if t.participant_id == "p00"]
    with pytest.raises(ContractError):
        loocv_folds(one, TrainConfig(epochs=1, learning_rate=0.1, seed=0),
                    WindowConfig())


def test_finetune_comparison_protocol(tiny_corpus):
    hyper = TrainConfig(epochs=60, learning_rate=0.3, seed=0)
    cmp_ = finetune_comparison(loocv_folds(tiny_corpus, hyper, WindowConfig(),
                                           TrainConfig(epochs=20, learning_rate=0.1, seed=0)))
    rows = list(cmp_.per_participant)
    assert len(rows) == 4
    for row in rows:
        # adapt on the first trial, evaluate on the remaining one
        assert row["adapt_trial_id"].endswith("_t00")
        assert len(row["base_delays_s"]) == 1
        assert len(row["tuned_delays_s"]) == 1
    assert cmp_.base_score.n_trials == 4
    obj = cmp_.to_obj()
    assert set(obj) >= {"base_mean_delay_s", "tuned_mean_delay_s", "base", "tuned"}


def test_finetune_comparison_default_recipe_comes_from_the_folds(tiny_corpus):
    # 100 epochs at 0.1, from the folds' seed: the one recipe, which
    # criterion 7 uses and `evaluate`'s flags default to. Each tuned model
    # records the recipe it was fine-tuned with.
    hyper = TrainConfig(epochs=60, learning_rate=0.3, seed=2)
    folds = loocv_folds(tiny_corpus, hyper, WindowConfig(), finetune_recipe(hyper))
    finetune_comparison(folds)
    assert [(f.tuned.epochs, f.tuned.learning_rate, f.tuned.seed) for f in folds] == [
        (100, 0.1, 2)] * 4


def test_finetune_comparison_only_aggregates_the_folds(tiny_corpus, monkeypatch):
    # The folds carry every model and event; the comparison trains and runs
    # nothing, and refuses folds that were not fine-tuned.
    hyper = TrainConfig(epochs=20, learning_rate=0.3, seed=0)
    tuned = loocv_folds(tiny_corpus, hyper, WindowConfig(), finetune_recipe(hyper))
    plain = loocv_folds(tiny_corpus, hyper, WindowConfig())
    assert [fold.params.w1.tobytes() for fold in plain] == [
        fold.params.w1.tobytes() for fold in tuned]
    assert {(fold.tuned, fold.tuned_scored) for fold in plain} == {(None, None)}

    def refused(*args):
        raise AssertionError("finetune_comparison trained or ran a model")

    monkeypatch.setattr(evaluation, "finetune", refused)
    monkeypatch.setattr(evaluation, "run_trial", refused)
    assert finetune_comparison(tuned).base_score.n_trials == 4
    with pytest.raises(ContractError, match="fold p00 has no fine-tuned result"):
        finetune_comparison(plain)


# ---------------------------------------------------------------------------
# Welch's t-test


def test_welch_fixed_vectors_match_scipy():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 4.0, 6.0, 8.0]
    ours = welch_from_samples(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert abs(ours.t - ref.statistic) < 1e-6
    assert abs(ours.dof - ref.df) < 1e-6
    assert abs(ours.p - ref.pvalue) < 1e-6


def test_welch_random_vectors_match_scipy():
    rng = np.random.default_rng(23)
    for _ in range(80):
        n_a = int(rng.integers(2, 40))
        n_b = int(rng.integers(2, 40))
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), n_a)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), n_b)
        ours = welch_from_samples(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert abs(ours.t - ref.statistic) < 1e-6
        assert abs(ours.dof - ref.df) < 1e-6
        assert abs(ours.p - ref.pvalue) < 1e-6


def test_t_distribution_tail_against_scipy():
    for t, dof in [(0.0, 5.0), (1.5, 3.2), (-2.7, 18.0), (6.0, 2.0), (0.3, 120.0)]:
        ref = 2.0 * scipy.stats.t.sf(abs(t), dof)
        assert abs(t_two_sided_p(t, dof) - ref) < 1e-9


def test_welch_degenerate_inputs():
    r = welch_from_samples([1.0], [1.0, 2.0, 3.0])
    assert math.isnan(r.t) and not r.significant
    r = welch_from_samples([2.0, 2.0], [3.0, 3.0])
    assert math.isnan(r.p) and not r.significant


def test_welch_ttest_needs_both_classes(tiny_corpus):
    quiet = [t for t in tiny_corpus if t.annotations is None]
    with pytest.raises(ContractError):
        welch_ttest(quiet)


def test_reaction_stats(tiny_corpus):
    stats = reaction_stats(tiny_corpus)
    assert stats["n_annotated"] == 4
    assert stats["reaction_time_mean_s"] is not None
    assert stats["reaction_duration_mean_s"] >= 5.0
