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

import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ausentinel.core import (
    AU_IDS,
    AU_INTENSITY_MAX,
    ERROR_TYPES,
    MAX_TRIAL_S,
    N_AUS,
    PERTURB_KINDS,
    RATE_HZ,
    AuFrame,
    ContractError,
    GroundTruth,
    TrialRecord,
    check_field,
    numbers,
    read_json,
    timestep_of,
    write_json,
)
from ausentinel.ingest import (
    ArbitrationPolicy,
    aggregate,
    write_annotations,
    write_frames_jsonl,
)

logger = logging.getLogger(__name__)

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

_VALID_CONF = (0.75, 0.98)   # per-timestep confidence ranges, source A
_VALID_CONF_B = (0.55, 0.97)  # source B: usually loses, sometimes wins
_OCCLUDED_CONF = (0.05, 0.45)


# The kinds of a ReactionProfile's fields (see `core.check_field`): spreads are
# >= 0, the attack and the longest reaction fit in the longest trial, and the
# decay is a fraction of the reaction. `amplitudes` is checked entry by entry.
_PROFILE_FIELDS = {
    "onset_latency_mean_s": (float,),
    "onset_latency_sd_s": (float, 0),
    "duration_mean_s": (float,),
    "duration_sd_s": (float, 0),
    "duration_min_s": (float,),
    "duration_max_s": (float, None, MAX_TRIAL_S),
    "attack_s": (float, 0, MAX_TRIAL_S),
    "decay_frac": (float, 0, 1),
    "predictable": (bool,),
}


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
        # Checked, not converted: the spec writes back as it was given.
        for name, rule in _PROFILE_FIELDS.items():
            check_field(f"profile {name}", getattr(self, name), *rule)
        if self.duration_min_s <= 0 or self.duration_max_s < self.duration_min_s:
            raise ContractError("duration bounds must satisfy 0 < min <= max")
        for au_id, amp in check_field("profile amplitudes", self.amplitudes, dict).items():
            if au_id not in AU_IDS:
                raise ContractError(f"unknown AU id {au_id!r} in profile")
            check_field(f"profile amplitudes {au_id}", amp, float, 0)


# The kinds of an ErrorPlan's fields other than `error_type`, one of
# ERROR_TYPES; each may be unset (None).
_PLAN_FIELDS = {"perceived_error_start_s": (float,), "predictable": (bool,)}


@dataclass(frozen=True)
class ErrorPlan:
    """One trial's scripted error: what kind and when it manifests."""

    error_type: str
    perceived_error_start_s: float | None = None
    predictable: bool | None = None  # None: inherit from the profile

    def __post_init__(self) -> None:
        if self.error_type not in ERROR_TYPES:
            raise ContractError(f"unknown error type {self.error_type!r}")
        for name, rule in _PLAN_FIELDS.items():
            if getattr(self, name) is not None:
                check_field(f"plan {name}", getattr(self, name), *rule)
        if self.perceived_error_start_s is None and self.error_type != "none":
            raise ContractError(f"{self.error_type} plan needs perceived_error_start_s")


# The kinds of a ScenarioSpec's scalar fields. Jitter wider than the intensity
# scale would only saturate every value; `trial_len_s` must also be > 0.
_SPEC_FIELDS = {
    "participants": (int, 1),
    "trials_per_participant": (int, 1),
    "seed": (int, 0),
    "trial_len_s": (float, None, MAX_TRIAL_S),
    "baseline_noise": (float, 0, AU_INTENSITY_MAX),
    "novelty_effect": (bool,),
}


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
        # Numbers are stored as floats, so they write back as floats.
        for name, rule in _SPEC_FIELDS.items():
            object.__setattr__(self, name, check_field(name, getattr(self, name), *rule))
        windows = check_field("occlusion_windows", self.occlusion_windows, list)
        object.__setattr__(self, "occlusion_windows", tuple(
            tuple(map(float, check_field("occlusion_windows entry", w, numbers(2))))
            for w in windows))
        if len(self.errors) != self.trials_per_participant:
            raise ContractError(
                f"errors schedule has {len(self.errors)} entries for "
                f"{self.trials_per_participant} trials per participant"
            )
        if self.trial_len_s <= 0:
            raise ContractError(f"trial_len_s must be > 0, got {self.trial_len_s!r}")
        n = self.n_timesteps
        for plan in self.errors:
            ts = plan.perceived_error_start_s
            # ts * RATE_HZ >= n is timestep_of(ts) >= n, without its overflow.
            if ts is not None and not (0 <= ts and ts * RATE_HZ < n):
                raise ContractError(f"perceived_error_start_s {ts} outside the trial")
        for lo, hi in self.occlusion_windows:
            if not 0 <= lo < hi <= self.trial_len_s:
                raise ContractError(f"bad occlusion window ({lo}, {hi})")

    @property
    def n_timesteps(self) -> int:
        return round(self.trial_len_s * RATE_HZ)


def reaction_envelope(m: int, attack_steps: int, decay_frac: float) -> np.ndarray:
    """Attack/sustain/exponential-decay envelope, strictly positive over m steps."""
    if m < 1:
        raise ContractError("envelope needs at least one timestep")
    a = max(1, attack_steps)
    d = max(1, round(decay_frac * m))
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

    @property
    def n_timesteps(self) -> int:
        return self.baseline.shape[0]

    def trace(self) -> np.ndarray:
        return np.clip(self.baseline + self.reaction_delta + self.artifact_delta,
                       0.0, 5.0)

    def record(self) -> TrialRecord:
        """The trial as the ingest pipeline would deliver it, bit-exactly."""
        policy = ArbitrationPolicy()
        fpt = policy.frames_per_timestep
        # The ingest reduction over the fpt identical frames of each
        # timestep with a face; occluded timesteps have no valid tick.
        ticks = np.repeat(self.trace(), fpt, axis=0)
        au = np.empty((self.n_timesteps, N_AUS))
        for k, hidden in enumerate(self.occluded.tolist()):
            au[k] = aggregate(ticks[:0] if hidden else ticks[k * fpt:(k + 1) * fpt], policy)
        return TrialRecord(
            trial_id=self.trial_id,
            participant_id=self.participant_id,
            error_type=self.error_type,
            au=au,
            valid_face=~self.occluded,
            annotations=self.ground_truth,
        )

    def frames(self):
        """Yield the dual-source 30 fps frame stream, interleaved by tick."""
        trace = self.trace()
        policy = ArbitrationPolicy()
        fpt, fps = policy.frames_per_timestep, policy.fps
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
    env = reaction_envelope(m, round(profile.attack_s * RATE_HZ), profile.decay_frac)
    # A huge factor (a perturb magnitude) overflows to an infinite delta,
    # which the trace clips to the top of the scale; an invalid product
    # (infinity times a zero emphasis) still warns.
    with np.errstate(over="ignore"):
        for pos, au_id in enumerate(sorted(amps)):
            i = AU_IDS.index(au_id)
            gain = amps[au_id] * factor
            if emphasis is not None:
                gain *= emphasis[pos]
            delta[start : start + m, i] += gain * env


def _add_novelty(trial: SimTrial, spec: ScenarioSpec, traits: _Traits,
                 factor: float) -> SimTrial:
    """Add reaction-like bursts, scaled by `factor`, at the robot's start of motion."""
    artifact = trial.artifact_delta.copy()
    # Robot start-of-motion moments; fixed layout, clear of trial edges.
    for onset_s in (6.0, 21.0, 36.0, 51.0):
        if onset_s + 5.0 < spec.trial_len_s:
            _burst(artifact, timestep_of(onset_s), 12, spec.profile.amplitudes,
                   traits.emphasis, traits.scale * 0.85 * factor, spec.profile)
    return replace(trial, artifact_delta=artifact)


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
        m = max(1, round(duration_s * RATE_HZ))
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
        trial = _add_novelty(trial, spec, traits, 1.0)
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
    check_field("magnitude", magnitude, float, 0)
    spec = corpus.spec
    out = []
    for trial in corpus.trials:
        if kind == "amplitude-scale":
            with np.errstate(over="ignore"):  # as in _burst: the trace clips it
                scaled = trial.reaction_delta * magnitude
            out.append(replace(trial, reaction_delta=scaled))
        elif kind == "novelty":
            traits = _participant_traits(spec, int(trial.participant_id[1:]))
            out.append(_add_novelty(trial, spec, traits, magnitude))
        else:  # occlusion
            # A window past the trial's end ends with the trial, so a width
            # beyond the trial's length occludes the same timesteps.
            width = max(2.0, min(magnitude, spec.trial_len_s))
            mid = spec.trial_len_s / 2.0
            out.append(_apply_occlusion(trial, mid, mid + width, 1.3, spec.profile))
    return SimCorpus(spec=spec, trials=tuple(out))


# ---------------------------------------------------------------------------
# Scenario and corpus serialization.

def scenario_to_obj(spec: ScenarioSpec) -> dict:
    """The spec as JSON-ready data, leaving out a plan's unset fields."""
    obj = asdict(spec)
    obj["errors"] = [{k: v for k, v in plan.items() if v is not None}
                     for plan in obj["errors"]]
    return obj


def scenario_from_obj(obj: dict) -> ScenarioSpec:
    """A spec from its decoded JSON; each dataclass checks its own fields."""
    check_field("scenario spec", obj, dict)
    try:
        errors = tuple(ErrorPlan(**check_field("errors entry", plan, dict))
                       for plan in check_field("errors", obj.get("errors", []), list))
        profile = ReactionProfile(**check_field("profile", obj.get("profile", {}), dict))
        return ScenarioSpec(**{**obj, "errors": errors, "profile": profile})
    except TypeError as exc:  # an unknown or missing key
        raise ContractError(f"bad scenario spec: {exc}")


def load_scenario(path) -> ScenarioSpec:
    return scenario_from_obj(read_json(path, f"scenario file {path}"))


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
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    if annotations:
        write_annotations(os.path.join(out_dir, "annotations.csv"), annotations)
    return manifest
