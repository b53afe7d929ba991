"""Sliding-window error filtering over weighted per-timestep classifications.

A box filter sums the last `window_len` (default 11, i.e. 3.67 s) confidence
weights; when the sum reaches `threshold` (default 6) an error is declared at
the newest timestep, with the estimated error start backtracked to the
earliest positive-weight timestep in the window. A detection within
`merge_gap` of the previous detection (by either its detected timestep or its
estimated start) is merged into that prior event rather than counted as new;
merges chain — each merged detection advances the reference timestep.

The detector is streaming: O(window_len) work and memory per timestep, and
its output is identical to evaluating every window of the completed sequence
independently. The window is summed afresh, oldest weight first, at every
timestep rather than kept as a running total: the chronological sum is what
makes six weights of 1.0 score exactly 6.0 (acceptance criterion 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from ausentinel.core import ContractError, ErrorEvent, StreamIntegrityError, TrialRecord
from ausentinel.model import ModelParams, WeightedClassification, classify_timestep


@dataclass(frozen=True)
class WindowConfig:
    window_len: int = 11
    threshold: float = 6.0
    merge_gap: int = 1
    warmup: int = 0

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ContractError("window_len must be >= 1")
        if not 0.0 < self.threshold <= self.window_len:
            raise ContractError(
                f"threshold must be in (0, window_len={self.window_len}]"
            )
        if self.merge_gap < 0:
            raise ContractError("merge_gap must be >= 0")
        if self.warmup < 0:
            raise ContractError("warmup must be >= 0")


@dataclass
class DetectorState:
    """Mutable per-stream state: the weight window plus merge bookkeeping.

    Deliberately holds no event history — memory stays O(window_len) no
    matter how long the stream runs; callers collect emitted events.
    """

    buffer: deque = field(default_factory=deque)  # (timestep, weight), chronological
    expected_next: int | None = None
    last_detected_at: int | None = None
    events_emitted: int = 0
    unmerged_events: int = 0


def merge_rule(state: DetectorState, candidate: ErrorEvent,
               cfg: WindowConfig) -> ErrorEvent:
    """Stamp the merged flag and advance the merge reference.

    A candidate merges when its detected timestep or its estimated start lies
    within merge_gap of the previous detection. Merged or not, the candidate's
    detected timestep becomes the new reference, so consecutive detections
    chain into one event.
    """
    last = state.last_detected_at
    merged = last is not None and (
        abs(candidate.detected_at - last) <= cfg.merge_gap
        or abs(candidate.estimated_start - last) <= cfg.merge_gap
    )
    state.last_detected_at = candidate.detected_at
    state.events_emitted += 1
    if not merged:
        state.unmerged_events += 1
    return replace(candidate, merged=merged)


def step(state: DetectorState, wc: WeightedClassification,
         cfg: WindowConfig) -> ErrorEvent | None:
    """Advance the window by one timestep; return an event if one fires.

    Timesteps must arrive contiguously. Timesteps before `warmup` are
    discarded outright (startup blackout), so the first possible detection
    is at index warmup + window_len - 1.
    """
    if state.expected_next is not None and wc.timestep != state.expected_next:
        raise StreamIntegrityError(
            f"non-contiguous timestep {wc.timestep} (expected {state.expected_next})"
        )
    state.expected_next = wc.timestep + 1
    if wc.timestep < cfg.warmup:
        return None
    state.buffer.append((wc.timestep, wc.weight))
    if len(state.buffer) > cfg.window_len:
        state.buffer.popleft()
    if len(state.buffer) < cfg.window_len:
        return None
    score = sum(w for _, w in state.buffer)
    if score < cfg.threshold:
        return None
    estimated_start = next(ts for ts, w in state.buffer if w > 0)
    candidate = ErrorEvent(
        detected_at=wc.timestep, estimated_start=estimated_start, score=score
    )
    return merge_rule(state, candidate, cfg)


def detect_sequence(weights, cfg: WindowConfig | None = None,
                    start_index: int = 0) -> list[ErrorEvent]:
    """Run the detector over a bare weight sequence (replay/bench path)."""
    cfg = cfg or WindowConfig()
    state = DetectorState()
    events = []
    for offset, w in enumerate(weights):
        w = float(w)
        wc = WeightedClassification(
            timestep=start_index + offset, p_error=w if w > 0 else 0.0, weight=w
        )
        event = step(state, wc, cfg)
        if event is not None:
            events.append(event)
    return events


def run_trial(trial: TrialRecord, params: ModelParams,
              cfg: WindowConfig | None = None) -> list[ErrorEvent]:
    """Classify and filter one trial end to end; pure given its inputs."""
    cfg = cfg or WindowConfig()
    state = DetectorState()
    events = []
    for ts in trial.timesteps:
        event = step(state, classify_timestep(params, ts), cfg)
        if event is not None:
            events.append(event)
    return events


def event_to_obj(trial_id: str, event: ErrorEvent, trial_start: float = 0.0) -> dict:
    """JSONL record shape for emitted events."""
    return {
        "trial_id": trial_id,
        "detected_at": event.detected_at,
        "estimated_start": event.estimated_start,
        "detected_t_seconds": event.detected_t(trial_start),
        "estimated_t_seconds": event.estimated_t(trial_start),
        "score": event.score,
        "merged": event.merged,
    }
