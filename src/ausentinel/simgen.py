"""Synthetic AU-trace generator with exact ground truth.

Trials are built from three additive layers on the timestep grid — baseline
(per-participant resting levels plus uniform jitter), reaction (seeded
attack/sustain/decay envelopes on a reacting-AU subset), and artifact
(novelty bursts, occlusion-release spikes) — clipped to the [0, 5] intensity
range. Reaction timing is calibrated to the source dataset's statistics
(onset latency 0.5 s mean / 0.68 s SD; duration 11.78 s mean / 7.08 s SD,
truncated to keep reactions inside a trial), and the annotated reaction
interval equals the envelope support exactly. AU04 gets no reaction delta by
default, so it behaves as a null feature in discriminability analyses.

Each trial also renders as dual-source 30 fps frame streams whose ingestion
reproduces the trial's timestep record bit-exactly: every frame in a timestep
carries the same AU vector, and the stored record applies the very same
mean-of-frames reduction the ingest path performs. Generation is driven
entirely by explicit seed sequences (seed, participant, trial), so identical
specs yield identical corpora on any platform.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ausentinel.core import (
    AU_IDS,
    ERROR_TYPES,
    N_AUS,
    RATE_HZ,
    AuFrame,
    ContractError,
    GroundTruth,
    TrialRecord,
    timestep_of,
)
from ausentinel.ingest import (
    ArbitrationPolicy,
    aggregate,
    write_annotations,
    write_frames_jsonl,
)

logger = logging.getLogger(__name__)

# Reacting-AU peak deltas (brow raisers, upper lid, lips part, jaw drop).
# AU04 is deliberately absent.
# Peak intensity deltas for the AUs that carry error reactions: brow raisers
# and eye widening (surprise), cheek/lip movements (amusement, smiles at the
# robot), nose wrinkling, and mouth opening. AU04 (brow lowerer) is left out
# on purpose — it is the one face channel that stays flat during these
# reactions, which the statistics tooling is expected to confirm.
DEFAULT_AMPLITUDES: dict[str, float] = {
    "AU01": 2.2,
    "AU02": 1.9,
    "AU05": 1.6,
    "AU06": 1.5,
    "AU07": 1.4,
    "AU09": 1.3,
    "AU12": 1.8,
    "AU20": 1.3,
    "AU25": 2.0,
    "AU26": 2.4,
}

PERTURB_KINDS = ("novelty", "occlusion", "amplitude-scale")

_VALID_CONF = (0.75, 0.98)   # per-timestep confidence ranges, source A
_VALID_CONF_B = (0.55, 0.97)  # source B: usually loses, sometimes wins
_OCCLUDED_CONF = (0.05, 0.45)


@dataclass(frozen=True)
class ReactionProfile:
    """Shape and timing statistics of an injected facial reaction."""

    onset_latency_mean_s: float = 0.5
    onset_latency_sd_s: float = 0.68
    duration_mean_s: float = 11.78
    duration_sd_s: float = 7.08
    duration_min_s: float = 5.0
    duration_max_s: float = 22.0
    attack_s: float = 1.0
    decay_frac: float = 0.35
    predictable: bool = False
    amplitudes: dict = field(default_factory=lambda: dict(DEFAULT_AMPLITUDES))

    def __post_init__(self) -> None:
        if self.duration_min_s <= 0 or self.duration_max_s < self.duration_min_s:
            raise ContractError("duration bounds must satisfy 0 < min <= max")
        for au_id, amp in self.amplitudes.items():
            if au_id not in AU_IDS:
                raise ContractError(f"unknown AU id {au_id!r} in profile")
            if amp < 0:
                raise ContractError("amplitudes must be >= 0")


@dataclass(frozen=True)
class ErrorPlan:
    """One trial's scripted error: what kind and when it manifests."""

    error_type: str
    perceived_error_start_s: float | None = None
    predictable: bool | None = None  # None: inherit from the profile

    def __post_init__(self) -> None:
        if self.error_type not in ERROR_TYPES:
            raise ContractError(f"unknown error type {self.error_type!r}")
        if self.error_type != "none" and self.perceived_error_start_s is None:
            raise ContractError(
                f"{self.error_type} plan needs perceived_error_start_s"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of a synthetic corpus; everything hangs off `seed`."""

    participants: int
    trials_per_participant: int
    seed: int
    errors: tuple  # one ErrorPlan per trial slot, shared across participants
    trial_len_s: float = 60.0
    baseline_noise: float = 0.12
    novelty_effect: bool = False
    occlusion_windows: tuple = ()  # (start_s, end_s) pairs, applied to all trials
    profile: ReactionProfile = field(default_factory=ReactionProfile)

    def __post_init__(self) -> None:
        if self.participants < 1 or self.trials_per_participant < 1:
            raise ContractError("participants and trials_per_participant must be >= 1")
        if len(self.errors) != self.trials_per_participant:
            raise ContractError(
                f"errors schedule has {len(self.errors)} entries for "
                f"{self.trials_per_participant} trials per participant"
            )
        if not 0 < self.trial_len_s < math.inf:
            raise ContractError("trial_len_s must be > 0 and finite")
        if not 0 <= self.baseline_noise < math.inf:
            raise ContractError("baseline_noise must be >= 0 and finite")
        n = self.n_timesteps
        for plan in self.errors:
            if plan.perceived_error_start_s is not None:
                ts = plan.perceived_error_start_s
                if not 0 <= ts < math.inf or timestep_of(ts) >= n:
                    raise ContractError(
                        f"perceived_error_start_s {ts} outside the trial"
                    )
        for lo, hi in self.occlusion_windows:
            if not 0 <= lo < hi <= self.trial_len_s:
                raise ContractError(f"bad occlusion window ({lo}, {hi})")

    @property
    def n_timesteps(self) -> int:
        return int(round(self.trial_len_s * RATE_HZ))


def reaction_envelope(m: int, attack_steps: int, decay_frac: float) -> np.ndarray:
    """Attack/sustain/exponential-decay envelope, strictly positive over m steps."""
    if m < 1:
        raise ContractError("envelope needs at least one timestep")
    a = max(1, attack_steps)
    d = max(1, int(round(decay_frac * m)))
    env = np.minimum((np.arange(m) + 1) / a, 1.0)
    tail_start = m - d
    for j in range(max(tail_start, 0), m):
        env[j] *= math.exp(-3.0 * (j - tail_start + 1) / d)
    return env


@dataclass(frozen=True, eq=False)
class SimTrial:
    """One generated trial: additive layers plus the exact annotation.

    The combined trace is clip(baseline + reaction_delta + artifact_delta,
    0, 5); occluded timesteps keep their trace in the frame streams (the face
    is present, just low-confidence) but are zeroed in the timestep record,
    matching what ingestion produces.
    """

    trial_id: str
    participant_id: str
    error_type: str
    ground_truth: GroundTruth | None
    baseline: np.ndarray        # (n, 17)
    reaction_delta: np.ndarray  # (n, 17)
    artifact_delta: np.ndarray  # (n, 17)
    occluded: np.ndarray        # (n,) bool
    conf_a: np.ndarray          # (n,)
    conf_b: np.ndarray          # (n,)
    frames_per_timestep: int = 10

    @property
    def n_timesteps(self) -> int:
        return self.baseline.shape[0]

    def trace(self) -> np.ndarray:
        return np.clip(self.baseline + self.reaction_delta + self.artifact_delta,
                       0.0, 5.0)

    def record(self) -> TrialRecord:
        """The trial as the ingest pipeline would deliver it, bit-exactly."""
        fpt = self.frames_per_timestep
        policy = ArbitrationPolicy(frames_per_timestep=fpt)
        # The ingest reduction over the fpt identical frames of each
        # timestep with a face; occluded timesteps have no valid tick.
        ticks = np.repeat(self.trace(), fpt, axis=0)
        steps = [
            aggregate(ticks[:0] if hidden else ticks[k * fpt:(k + 1) * fpt], policy, k)
            for k, hidden in enumerate(self.occluded.tolist())
        ]
        return TrialRecord(
            trial_id=self.trial_id,
            participant_id=self.participant_id,
            error_type=self.error_type,
            timesteps=tuple(steps),
            annotations=self.ground_truth,
        )

    def frames(self):
        """Yield the dual-source 30 fps frame stream, interleaved by tick."""
        trace = self.trace()
        fpt = self.frames_per_timestep
        fps = fpt * RATE_HZ
        for k in range(self.n_timesteps):
            au = trace[k].tolist()
            for j in range(fpt):
                t = (k * fpt + j) / fps
                yield AuFrame(source_id="cam_a", t=t, au=au,
                              confidence=float(self.conf_a[k]))
                yield AuFrame(source_id="cam_b", t=t, au=au,
                              confidence=float(self.conf_b[k]))


@dataclass(frozen=True, eq=False)
class SimCorpus:
    spec: ScenarioSpec
    trials: tuple  # SimTrial, participant-major order

    def records(self) -> list[TrialRecord]:
        return [t.record() for t in self.trials]


def _truncated_normal(rng, mean: float, sd: float, lo: float, hi: float) -> float:
    for _ in range(200):
        v = rng.normal(mean, sd)
        if lo <= v <= hi:
            return float(v)
    return float(min(max(mean, lo), hi))


@dataclass(frozen=True)
class _Traits:
    resting: np.ndarray    # (17,) resting AU levels
    emphasis: np.ndarray   # per reacting AU, aligned with sorted profile AUs
    scale: float


def _participant_traits(spec: ScenarioSpec, p_idx: int) -> _Traits:
    rng = np.random.default_rng([spec.seed, p_idx])
    resting = rng.uniform(0.0, 0.25, N_AUS)
    n_reacting = len(spec.profile.amplitudes)
    # Expression style: people express surprise/amusement through different
    # facial channels, so each participant leans on a sparse personal subset
    # of the reacting AUs. A Dirichlet draw concentrates the (mean-1) emphasis
    # on a few channels; a population model has to spread its weights across
    # everyone's channels, which is exactly the slack per-person adaptation
    # recovers.
    if n_reacting:
        emphasis = rng.dirichlet(np.full(n_reacting, 0.5)) * n_reacting
    else:
        emphasis = np.zeros(0)
    # Overall expressiveness: some people react more strongly than others.
    scale = float(rng.uniform(0.75, 1.25))
    return _Traits(resting=resting, emphasis=emphasis, scale=scale)


def _burst(delta: np.ndarray, start_ts: int, m: int, amps: dict,
           emphasis: np.ndarray | None, factor: float, profile: ReactionProfile) -> None:
    """Add one envelope burst in place, clipped to the trial bounds."""
    n = delta.shape[0]
    start = max(0, start_ts)
    m = min(m, n - start)
    if m < 1:
        return
    env = reaction_envelope(m, int(round(profile.attack_s * RATE_HZ)),
                            profile.decay_frac)
    for pos, au_id in enumerate(sorted(amps)):
        i = AU_IDS.index(au_id)
        gain = amps[au_id] * factor
        if emphasis is not None:
            gain *= emphasis[pos]
        delta[start : start + m, i] += gain * env


def _novelty_onsets(trial_len_s: float) -> list[float]:
    # Robot start-of-motion moments; fixed layout, clear of trial edges.
    return [t for t in (6.0, 21.0, 36.0, 51.0) if t + 5.0 < trial_len_s]


def _apply_occlusion(trial: SimTrial, lo_s: float, hi_s: float,
                     release_amp: float, profile: ReactionProfile) -> SimTrial:
    """Occlude [lo_s, hi_s): drop confidence, then spike AUs at release."""
    n = trial.n_timesteps
    lo = timestep_of(lo_s)
    hi = min(timestep_of(hi_s), n)
    if lo >= hi:
        return trial
    occluded = trial.occluded.copy()
    occluded[lo:hi] = True
    conf_a = trial.conf_a.copy()
    conf_b = trial.conf_b.copy()
    span = np.linspace(_OCCLUDED_CONF[0], _OCCLUDED_CONF[1], hi - lo)
    conf_a[lo:hi] = span
    conf_b[lo:hi] = span * 0.9
    artifact = trial.artifact_delta.copy()
    # Re-acquisition overshoot: the extractor spikes right after the face returns.
    _burst(artifact, hi, 8, profile.amplitudes, None, release_amp, profile)
    return replace(trial, occluded=occluded, conf_a=conf_a, conf_b=conf_b,
                   artifact_delta=artifact)


def _generate_trial(spec: ScenarioSpec, p_idx: int, t_idx: int,
                    traits: _Traits) -> SimTrial:
    profile = spec.profile
    plan: ErrorPlan = spec.errors[t_idx]
    n = spec.n_timesteps
    rng = np.random.default_rng([spec.seed, p_idx, t_idx])

    baseline = traits.resting + rng.uniform(0.0, 2.0 * spec.baseline_noise, (n, N_AUS))
    conf_a = rng.uniform(*_VALID_CONF, n)
    conf_b = rng.uniform(*_VALID_CONF_B, n)
    reaction = np.zeros((n, N_AUS))
    gt = None

    if plan.error_type != "none":
        pe_ts = timestep_of(plan.perceived_error_start_s)
        predictable = (profile.predictable if plan.predictable is None
                       else plan.predictable)
        lat_lo = -2.5 if predictable else 0.0
        latency_s = _truncated_normal(rng, profile.onset_latency_mean_s,
                                      profile.onset_latency_sd_s, lat_lo, 3.0)
        duration_s = _truncated_normal(rng, profile.duration_mean_s,
                                       profile.duration_sd_s,
                                       profile.duration_min_s, profile.duration_max_s)
        jitter = float(rng.uniform(0.9, 1.1))
        start_ts = pe_ts + int(round(latency_s * RATE_HZ))
        start_ts = min(max(start_ts, 0), n - 1)
        m = max(1, int(round(duration_s * RATE_HZ)))
        m = min(m, n - start_ts)
        if profile.amplitudes:
            _burst(reaction, start_ts, m, profile.amplitudes, traits.emphasis,
                   traits.scale * jitter, profile)
        gt = GroundTruth(
            reaction_start=start_ts,
            reaction_end=start_ts + m - 1,
            perceived_error_start=pe_ts,
        )

    artifact = np.zeros((n, N_AUS))
    trial = SimTrial(
        trial_id=f"p{p_idx:02d}_t{t_idx:02d}",
        participant_id=f"p{p_idx:02d}",
        error_type=plan.error_type,
        ground_truth=gt,
        baseline=baseline,
        reaction_delta=reaction,
        artifact_delta=artifact,
        occluded=np.zeros(n, dtype=bool),
        conf_a=conf_a,
        conf_b=conf_b,
    )
    if spec.novelty_effect:
        artifact = trial.artifact_delta.copy()
        for onset_s in _novelty_onsets(spec.trial_len_s):
            _burst(artifact, timestep_of(onset_s), 12, profile.amplitudes,
                   traits.emphasis, traits.scale * 0.85, profile)
        trial = replace(trial, artifact_delta=artifact)
    for lo_s, hi_s in spec.occlusion_windows:
        trial = _apply_occlusion(trial, lo_s, hi_s, 1.3, profile)
    return trial


def generate(spec: ScenarioSpec) -> SimCorpus:
    """Build the full corpus for a scenario; identical seeds → identical corpora."""
    trials = []
    for p_idx in range(spec.participants):
        traits = _participant_traits(spec, p_idx)
        for t_idx in range(spec.trials_per_participant):
            trials.append(_generate_trial(spec, p_idx, t_idx, traits))
    return SimCorpus(spec=spec, trials=tuple(trials))


def perturb(corpus: SimCorpus, kind: str, magnitude: float = 1.0) -> SimCorpus:
    """Apply a named contamination to every trial.

    * ``amplitude-scale`` — multiply reaction deltas by `magnitude`
      (0 flattens reactions to baseline while keeping their annotations);
    * ``novelty`` — add reaction-like bursts at fixed robot-motion onsets,
      scaled by `magnitude`;
    * ``occlusion`` — occlude a `magnitude`-second mid-trial window and add
      the re-acquisition intensity spike at release.
    """
    if kind not in PERTURB_KINDS:
        raise ContractError(f"unknown perturbation {kind!r}; use {PERTURB_KINDS}")
    if magnitude < 0:
        raise ContractError("magnitude must be >= 0")
    spec = corpus.spec
    out = []
    for trial in corpus.trials:
        p_idx = int(trial.participant_id[1:])
        traits = _participant_traits(spec, p_idx)
        if kind == "amplitude-scale":
            out.append(replace(trial, reaction_delta=trial.reaction_delta * magnitude))
        elif kind == "novelty":
            artifact = trial.artifact_delta.copy()
            for onset_s in _novelty_onsets(spec.trial_len_s):
                _burst(artifact, timestep_of(onset_s), 12, spec.profile.amplitudes,
                       traits.emphasis, traits.scale * 0.85 * magnitude, spec.profile)
            out.append(replace(trial, artifact_delta=artifact))
        else:  # occlusion
            width = max(2.0, magnitude)
            mid = spec.trial_len_s / 2.0
            out.append(_apply_occlusion(trial, mid, mid + width, 1.3, spec.profile))
    return SimCorpus(spec=spec, trials=tuple(out))


# ---------------------------------------------------------------------------
# Scenario and corpus serialization.

def profile_to_obj(profile: ReactionProfile) -> dict:
    return {
        "onset_latency_mean_s": profile.onset_latency_mean_s,
        "onset_latency_sd_s": profile.onset_latency_sd_s,
        "duration_mean_s": profile.duration_mean_s,
        "duration_sd_s": profile.duration_sd_s,
        "duration_min_s": profile.duration_min_s,
        "duration_max_s": profile.duration_max_s,
        "attack_s": profile.attack_s,
        "decay_frac": profile.decay_frac,
        "predictable": profile.predictable,
        "amplitudes": dict(sorted(profile.amplitudes.items())),
    }


def profile_from_obj(obj: dict) -> ReactionProfile:
    try:
        return ReactionProfile(**obj)
    except TypeError as exc:
        raise ContractError(f"bad reaction profile: {exc}")


def scenario_to_obj(spec: ScenarioSpec) -> dict:
    return {
        "participants": spec.participants,
        "trials_per_participant": spec.trials_per_participant,
        "seed": spec.seed,
        "trial_len_s": spec.trial_len_s,
        "baseline_noise": spec.baseline_noise,
        "novelty_effect": spec.novelty_effect,
        "occlusion_windows": [list(w) for w in spec.occlusion_windows],
        "errors": [
            {k: v for k, v in (
                ("error_type", plan.error_type),
                ("perceived_error_start_s", plan.perceived_error_start_s),
                ("predictable", plan.predictable),
            ) if v is not None}
            for plan in spec.errors
        ],
        "profile": profile_to_obj(spec.profile),
    }


def scenario_from_obj(obj: dict) -> ScenarioSpec:
    if not isinstance(obj, dict):
        raise ContractError("scenario spec must be a JSON object")
    if "seed" not in obj:
        raise ContractError("scenario spec must pin a seed")
    try:
        errors = tuple(ErrorPlan(**e) for e in obj.get("errors", []))
        profile = (profile_from_obj(obj["profile"]) if "profile" in obj
                   else ReactionProfile())
        return ScenarioSpec(
            participants=int(obj["participants"]),
            trials_per_participant=int(obj["trials_per_participant"]),
            seed=int(obj["seed"]),
            errors=errors,
            trial_len_s=float(obj.get("trial_len_s", 60.0)),
            baseline_noise=float(obj.get("baseline_noise", 0.12)),
            novelty_effect=bool(obj.get("novelty_effect", False)),
            occlusion_windows=tuple(
                (float(lo), float(hi)) for lo, hi in obj.get("occlusion_windows", ())
            ),
            profile=profile,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"bad scenario spec: {exc}")


def load_scenario(path) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ContractError(f"unreadable scenario file {path}: {exc}")
    return scenario_from_obj(obj)


def write_corpus(corpus: SimCorpus, out_dir) -> dict:
    """Write manifest.json, frames/<trial>.jsonl, and annotations.csv.

    Output is loadable by the corpus reader and byte-stable for a fixed spec.
    """
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    entries = []
    annotations = {}
    for trial in corpus.trials:
        rel = os.path.join("frames", f"{trial.trial_id}.jsonl")
        write_frames_jsonl(os.path.join(out_dir, rel), trial.frames())
        entries.append({
            "trial_id": trial.trial_id,
            "participant_id": trial.participant_id,
            "error_type": trial.error_type,
            "frames": rel,
            "trial_start": 0.0,
        })
        if trial.ground_truth is not None:
            annotations[trial.trial_id] = {
                "participant_id": trial.participant_id,
                "error_type": trial.error_type,
                "ground_truth": trial.ground_truth,
            }
    manifest = {
        "format": "ausentinel-corpus",
        "version": 1,
        "scenario": scenario_to_obj(corpus.spec),
        "trials": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    if annotations:
        write_annotations(os.path.join(out_dir, "annotations.csv"), annotations)
    return manifest
