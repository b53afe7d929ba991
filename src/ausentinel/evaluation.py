"""Scoring detector output against coder annotations.

Metrics (all in seconds, one timestep = 1/3 s):

* detection delay — detected timestep minus perceived error start; signed,
  negative when detection precedes full error manifestation.
* reaction time difference — detected timestep minus annotated reaction start.
* internal decision delay — detected timestep minus the detector's own
  estimated error start; bounded by the window length.

An unmerged event is a true positive when [estimated_start, detected_at]
intersects the annotated reaction interval (closed intervals); otherwise it
is a false positive. An annotated reaction with no true positive is a false
negative. The first two metrics aggregate as RMSE across matched trials.

Also here: leave-one-participant-out cross validation, the per-participant
fine-tuning comparison, and a per-AU Welch's t-test with a self-contained
t-distribution CDF (regularized incomplete beta via continued fraction).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ausentinel.core import (
    AU_IDS,
    ContractError,
    ErrorEvent,
    GroundTruth,
    TrialRecord,
    map_in_order,
    timesteps_to_seconds,
)
from ausentinel.detector import WindowConfig, run_trial
from ausentinel.model import ModelParams, TrainConfig, corpus_matrices, finetune, train

logger = logging.getLogger(__name__)

P_SIGNIFICANT = 0.05

# One trial's detector events, ready for scoring.
ScoredTrial = tuple[TrialRecord, list[ErrorEvent]]


def detection_delay(event: ErrorEvent, gt: GroundTruth) -> float:
    """Seconds from perceived error start to detection; negative = early."""
    return timesteps_to_seconds(event.detected_at - gt.perceived_error_start)


def reaction_diff(event: ErrorEvent, gt: GroundTruth) -> float:
    """Seconds from annotated reaction start to detection; signed."""
    return timesteps_to_seconds(event.detected_at - gt.reaction_start)


def internal_delay(event: ErrorEvent) -> float:
    """Seconds between the detector's estimated start and its detection."""
    return timesteps_to_seconds(event.detected_at - event.estimated_start)


@dataclass(frozen=True)
class TrialScore:
    matched_events: tuple  # (ErrorEvent, GroundTruth) pairs
    false_positives: int
    false_negatives: int
    detection_delay_s: float | None
    reaction_diff_s: float | None
    internal_delay_s: float | None


def match(events: list[ErrorEvent], gt: GroundTruth | None) -> TrialScore:
    """Align one trial's events with its annotation.

    Merged events are extensions of prior events and are not scored. The
    earliest true positive supplies the delay measurements; later true
    positives are neither counted nor penalized.
    """
    unmerged = [e for e in events if not e.merged]
    if gt is None:
        return TrialScore((), len(unmerged), 0, None, None, None)
    matched = []
    fps = 0
    for event in unmerged:
        overlaps = (event.estimated_start <= gt.reaction_end
                    and event.detected_at >= gt.reaction_start)
        if overlaps:
            matched.append((event, gt))
        else:
            fps += 1
    if not matched:
        return TrialScore((), fps, 1, None, None, None)
    first = min(matched, key=lambda pair: pair[0].detected_at)[0]
    return TrialScore(
        matched_events=tuple(matched),
        false_positives=fps,
        false_negatives=0,
        detection_delay_s=detection_delay(first, gt),
        reaction_diff_s=reaction_diff(first, gt),
        internal_delay_s=internal_delay(first),
    )


def _rmse(values: list[float]) -> float | None:
    if not values:
        return None
    return math.sqrt(sum(v * v for v in values) / len(values))


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


def _sd(values: list[float]) -> float | None:
    # Sample SD; undefined below two samples.
    if len(values) < 2:
        return None
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class CorpusScore:
    n_trials: int
    n_matched: int
    rmse_detection_delay_s: float | None
    rmse_reaction_diff_s: float | None
    mean_internal_delay_s: float | None
    sd_internal_delay_s: float | None
    fp_rate_per_trial: float
    sd_fp_per_trial: float | None
    fn_rate_per_trial: float
    sd_fn_per_trial: float | None
    per_type: dict
    trial_scores: tuple  # one TrialScore per scored trial, in the order given

    def to_obj(self) -> dict:
        # Every field but the per-type mapping and the per-trial scores,
        # which hold scores of their own.
        obj = {k: v for k, v in vars(self).items() if not isinstance(v, (dict, tuple))}
        if self.per_type:
            obj.update(per_type={k: v.to_obj() for k, v in self.per_type.items()})
        return obj


def _aggregate(trial_scores: list[TrialScore], per_type: dict) -> CorpusScore:
    delays = [s.detection_delay_s for s in trial_scores if s.detection_delay_s is not None]
    diffs = [s.reaction_diff_s for s in trial_scores if s.reaction_diff_s is not None]
    internals = [s.internal_delay_s for s in trial_scores if s.internal_delay_s is not None]
    fps = [float(s.false_positives) for s in trial_scores]
    fns = [float(s.false_negatives) for s in trial_scores]
    return CorpusScore(
        n_trials=len(trial_scores),
        n_matched=len(delays),
        rmse_detection_delay_s=_rmse(delays),
        rmse_reaction_diff_s=_rmse(diffs),
        mean_internal_delay_s=_mean(internals),
        sd_internal_delay_s=_sd(internals),
        fp_rate_per_trial=sum(fps) / len(fps),
        sd_fp_per_trial=_sd(fps),
        fn_rate_per_trial=sum(fns) / len(fns),
        sd_fn_per_trial=_sd(fns),
        per_type=per_type,
        trial_scores=tuple(trial_scores),
    )


def score_corpus(scored: list[ScoredTrial]) -> CorpusScore:
    """Aggregate trial scores: RMSE delays, mean/SD internal delay, FP/FN rates,
    plus a per-error-type breakdown. Each trial is matched once; its
    `TrialScore` is kept in `trial_scores` for callers that report per trial."""
    if not scored:
        raise ContractError("cannot score an empty trial collection")
    trial_scores = [match(events, trial.annotations) for trial, events in scored]
    types = [trial.error_type for trial, _ in scored]
    per_type = {etype: _aggregate([s for s, t in zip(trial_scores, types) if t == etype], {})
                for etype in sorted(set(types))}
    return _aggregate(trial_scores, per_type)


@dataclass(frozen=True)
class Fold:
    """One participant's leave-one-out fold, as `loocv_folds` returns it.

    `params` is trained on every other participant, and `scored` pairs each
    held-out trial, in corpus order, with its events under `params`. Given a
    recipe (`model.finetune_recipe`), `tuned` is `params` fine-tuned on the
    adapt trial (the participant's first by trial id), and `tuned_scored`
    pairs each of their other trials, by trial id, with its events under
    `tuned`. A participant with one trial has nothing left to score: `tuned`
    is None and `tuned_scored` empty. Without a recipe both are None. Every
    trial is the caller's own object.
    """

    participant_id: str
    params: ModelParams
    scored: tuple  # ScoredTrial tuples for the held-out participant
    tuned: ModelParams | None = None
    tuned_scored: tuple | None = None  # ScoredTrial tuples after fine-tuning


def loocv_folds(corpus: list[TrialRecord], hyper: TrainConfig | None = None,
                cfg: WindowConfig | None = None,
                finetune_hyper: TrainConfig | None = None) -> list[Fold]:
    """Leave-one-participant-out folds: train on the rest, detect on the one.

    With `finetune_hyper` (`model.finetune_recipe(hyper)`, or `evaluate`'s
    flags), each fold's model is also fine-tuned on the held-out
    participant's first trial (by trial id) and run again on their other
    trials (see `Fold`); a corpus where no participant has a trial left to
    run again is refused before any fold trains.
    Fold k's `_fold_work` is task k of `core.map_in_order`, which runs the
    folds in up to one process per CPU. A task returns its models and
    event lists only; the trials are paired with them here. Models, log
    records and the first failure come back fold by fold (training, then
    fine-tuning), as running the folds one by one gives them.
    """
    hyper = hyper or TrainConfig()
    cfg = cfg or WindowConfig()
    participants = sorted({t.participant_id for t in corpus})
    if len(participants) < 2:
        raise ContractError("cross validation needs at least 2 participants")
    held_out = [[t for t in corpus if t.participant_id == p] for p in participants]
    by_id = [sorted(trials, key=lambda t: t.trial_id) for trials in held_out]
    if finetune_hyper is not None and all(len(trials) < 2 for trials in by_id):
        raise ContractError("fine-tuning comparison needs a participant with at least 2 trials")
    outcomes = map_in_order(
        lambda k: _fold_work(corpus, held_out[k], by_id[k], hyper, cfg, finetune_hyper),
        len(participants))
    folds = []
    for participant, trials, ordered, (params, events, tuned, tuned_events) in zip(
            participants, held_out, by_id, outcomes):
        tuned_scored = None if tuned_events is None else tuple(zip(ordered[1:], tuned_events))
        folds.append(Fold(participant, params, tuple(zip(trials, events)), tuned, tuned_scored))
    return folds


def _fold_work(corpus, held, ordered, hyper, cfg, finetune_hyper):
    """The model work of the fold that holds out `held`, one participant's
    trials in corpus order (`ordered` is the same by trial id): its model,
    the held-out trials' events in corpus order, and, given a fine-tune
    recipe, the fine-tuned model and the events of the trials after the
    first by id."""
    participant = held[0].participant_id
    train_set = [t for t in corpus if t.participant_id != participant]
    assert not any(t.participant_id == participant for t in train_set)  # leakage
    params = train(train_set, hyper)
    events = [run_trial(t, params, cfg) for t in held]
    if finetune_hyper is None:
        return params, events, None, None
    adapt, *rest = ordered
    if not rest:  # nothing left to evaluate after holding out one trial
        return params, events, None, []
    tuned = finetune(params, [adapt], finetune_hyper)
    return params, events, tuned, [run_trial(t, tuned, cfg) for t in rest]


@dataclass(frozen=True)
class FinetuneComparison:
    """Base vs per-participant fine-tuned model on held-out trials.

    For each participant, the fine-tuned model continues from that
    participant's cross-validation fold model using their first trial (by
    trial id); both models are then scored on the participant's remaining
    trials only.
    """

    base_score: CorpusScore
    tuned_score: CorpusScore
    base_mean_delay_s: float | None
    tuned_mean_delay_s: float | None
    per_participant: tuple

    def to_obj(self) -> dict:
        return {
            "base_mean_delay_s": self.base_mean_delay_s,
            "tuned_mean_delay_s": self.tuned_mean_delay_s,
            "base": self.base_score.to_obj(),
            "tuned": self.tuned_score.to_obj(),
            "per_participant": list(self.per_participant),
        }


def finetune_comparison(folds: list[Fold]) -> FinetuneComparison:
    """Compare each participant's fold model with its fine-tuned copy.

    `folds` come from `loocv_folds` given a fine-tune recipe, which refuses
    a corpus with nothing to compare; a fold without a fine-tuned result is
    refused. The folds hold every event, so nothing is trained or run here.
    """
    base_scored: list[ScoredTrial] = []
    tuned_scored: list[ScoredTrial] = []
    held_out = []  # (participant id, adapt trial id, number of trials scored)
    for fold in folds:
        if fold.tuned_scored is None:
            raise ContractError(f"fold {fold.participant_id} has no fine-tuned result; "
                                "give loocv_folds a fine-tune recipe")
        if not fold.tuned_scored:
            continue  # nothing left to evaluate after holding out one trial
        scored = sorted(fold.scored, key=lambda pair: pair[0].trial_id)
        base_scored.extend(scored[1:])
        tuned_scored.extend(fold.tuned_scored)
        held_out.append((fold.participant_id, scored[0][0].trial_id, len(scored) - 1))
    base_score = score_corpus(base_scored)
    tuned_score = score_corpus(tuned_scored)
    # Both scores list their trials participant by participant, as scored.
    base, tuned = iter(base_score.trial_scores), iter(tuned_score.trial_scores)
    rows = tuple({
        "participant_id": participant_id,
        "adapt_trial_id": adapt_id,
        "base_delays_s": [s.detection_delay_s for s in islice(base, n)],
        "tuned_delays_s": [s.detection_delay_s for s in islice(tuned, n)],
    } for participant_id, adapt_id, n in held_out)
    return FinetuneComparison(
        base_score=base_score,
        tuned_score=tuned_score,
        base_mean_delay_s=_mean([d for row in rows for d in row["base_delays_s"]
                                 if d is not None]),
        tuned_mean_delay_s=_mean([d for row in rows for d in row["tuned_delays_s"]
                                  if d is not None]),
        per_participant=rows,
    )


# ---------------------------------------------------------------------------
# Welch's t-test with a self-contained t-distribution CDF.

def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz's method).
    MAXIT, EPS, FPMIN = 300, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, dof: float) -> float:
    """Two-sided p-value of a t statistic: I_x(ν/2, 1/2), x = ν/(ν+t²)."""
    if not math.isfinite(t) or dof <= 0:
        return math.nan
    return _betainc_reg(dof / 2.0, 0.5, dof / (dof + t * t))


@dataclass(frozen=True)
class WelchResult:
    t: float
    dof: float
    p: float
    significant: bool
    n_error: int
    n_no_error: int
    mean_error: float
    mean_no_error: float


def welch_from_samples(a, b) -> WelchResult:
    """Welch's unequal-variance t-test between two samples (two-sided):
    `a` is the error sample and `b` the no-error sample.

    Undefined cases — fewer than two observations on either side, or zero
    variance in both samples — report NaN statistics and are never
    significant.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, n_b = a.size, b.size
    mean_a = float(a.mean()) if n_a else math.nan
    mean_b = float(b.mean()) if n_b else math.nan
    if n_a < 2 or n_b < 2:
        return WelchResult(math.nan, math.nan, math.nan, False,
                           n_a, n_b, mean_a, mean_b)
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_a == 0.0 and var_b == 0.0:
        return WelchResult(math.nan, math.nan, math.nan, False,
                           n_a, n_b, mean_a, mean_b)
    sa, sb = var_a / n_a, var_b / n_b
    t = (mean_a - mean_b) / math.sqrt(sa + sb)
    dof = (sa + sb) ** 2 / (sa * sa / (n_a - 1) + sb * sb / (n_b - 1))
    p = t_two_sided_p(t, dof)
    return WelchResult(t, dof, p, bool(p < P_SIGNIFICANT),
                       n_a, n_b, mean_a, mean_b)


def welch_ttest(corpus: list[TrialRecord]) -> dict[str, WelchResult]:
    """Per-AU comparison of intensities on error vs. no-error timesteps."""
    X, y = corpus_matrices(corpus)
    if not y.any() or y.all():
        raise ContractError("Welch analysis needs both label classes present")
    results = {}
    for i, au_id in enumerate(AU_IDS):
        results[au_id] = welch_from_samples(X[y, i], X[~y, i])
    return results


def reaction_stats(corpus: list[TrialRecord]) -> dict:
    """Mean/SD of annotated reaction time and duration across a corpus."""
    times = [t.annotations.reaction_time_s() for t in corpus
             if t.annotations is not None]
    durations = [t.annotations.reaction_duration_s() for t in corpus
                 if t.annotations is not None]
    return {
        "n_annotated": len(times),
        "reaction_time_mean_s": _mean(times),
        "reaction_time_sd_s": _sd(times),
        "reaction_duration_mean_s": _mean(durations),
        "reaction_duration_sd_s": _sd(durations),
    }


# ---------------------------------------------------------------------------
# Report output.

def corpus_report(scored: list[ScoredTrial], score: CorpusScore) -> dict:
    """Full evaluation report: corpus score plus per-trial rows.

    `score` is `score_corpus(scored)`, which the caller also prints; its
    per-trial scores fill the rows, so no trial is matched again.
    """
    rows = []
    for (trial, _), s in zip(scored, score.trial_scores):
        rows.append({
            "trial_id": trial.trial_id,
            "participant_id": trial.participant_id,
            "error_type": trial.error_type,
            # The score's fields, less its matched (event, annotation) pairs.
            **{k: v for k, v in vars(s).items() if not isinstance(v, tuple)},
        })
    return {"score": score.to_obj(), "trials": rows}


_CSV_COLUMNS = [
    "scope", "n_trials", "n_matched", "rmse_detection_delay_s",
    "rmse_reaction_diff_s", "mean_internal_delay_s", "sd_internal_delay_s",
    "fp_rate_per_trial", "fn_rate_per_trial",
]


def write_report_csv(path, score: CorpusScore) -> None:
    """Flat per-scope rows (overall + one per error type) for plotting."""
    def row(scope: str, s: CorpusScore) -> list:
        return [scope] + [getattr(s, name) for name in _CSV_COLUMNS[1:]]

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        writer.writerow(row("overall", score))
        for etype, sub in score.per_type.items():
            writer.writerow(row(etype, sub))


def _fmt(value: float | None, width: int = 8) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:{width}.3f}"


def format_table(score: CorpusScore) -> str:
    """Human-readable summary: overall row plus one row per error type."""
    header = (f"{'scope':<16}{'trials':>7}{'matched':>8}{'delay':>9}"
              f"{'rdiff':>9}{'internal':>9}{'fp/trial':>9}{'fn/trial':>9}")
    lines = [header, "-" * len(header)]

    def add(scope: str, s: CorpusScore) -> None:
        lines.append(
            f"{scope:<16}{s.n_trials:>7}{s.n_matched:>8}"
            f"{_fmt(s.rmse_detection_delay_s, 9)}{_fmt(s.rmse_reaction_diff_s, 9)}"
            f"{_fmt(s.mean_internal_delay_s, 9)}{_fmt(s.fp_rate_per_trial, 9)}"
            f"{_fmt(s.fn_rate_per_trial, 9)}"
        )

    add("overall", score)
    for etype, sub in score.per_type.items():
        add(etype, sub)
    lines.append("(delay/rdiff are RMSE seconds; internal is mean seconds)")
    return "\n".join(lines)
