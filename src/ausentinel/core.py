"""Domain types shared by the whole pipeline.

The canonical 17-entry action-unit ordering lives here, together with the
1/3 s timestep clock. Every vector, stream record, and model file indexes
AU intensities in this order; the ordering hash is embedded in serialized
artifacts so mismatched producers are rejected at load time instead of
silently misaligning features.

All types but `StreamStats`, a run's mutable counters, are value objects
and safe to share across threads once built.
They are immutable, except the two built on the live path once per frame and
once per timestep: `AuFrame` and `Timestep` are plain slotted classes (a
frozen dataclass pays for `object.__setattr__` on every field) and are
read-only by convention. A frame carries only what arbitration and
aggregation read, with its AU values as a list of Python floats; they become
a float64 array at the `Timestep`, the first type that does arithmetic on
them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

# Timestep grid: 3 samples per second (10 camera frames at 30 fps).
RATE_HZ = 3.0
TIMESTEP_SECONDS = 1.0 / RATE_HZ

AU_INTENSITY_MIN = 0.0
AU_INTENSITY_MAX = 5.0

# Canonical ordering of the 17-AU intensity set produced by the upstream
# facial extractor. This tuple is the single source of truth for vector
# indexing everywhere in the package.
AU_IDS: tuple[str, ...] = (
    "AU01", "AU02", "AU04", "AU05", "AU06", "AU07", "AU09", "AU10",
    "AU12", "AU14", "AU15", "AU17", "AU20", "AU23", "AU25", "AU26", "AU45",
)
N_AUS = len(AU_IDS)

AU_NAMES: dict[str, str] = {
    "AU01": "inner brow raiser",
    "AU02": "outer brow raiser",
    "AU04": "brow lowerer",
    "AU05": "upper lid raiser",
    "AU06": "cheek raiser",
    "AU07": "lid tightener",
    "AU09": "nose wrinkler",
    "AU10": "upper lip raiser",
    "AU12": "lip corner puller",
    "AU14": "dimpler",
    "AU15": "lip corner depressor",
    "AU17": "chin raiser",
    "AU20": "lip stretcher",
    "AU23": "lip tightener",
    "AU25": "lips part",
    "AU26": "jaw drop",
    "AU45": "blink",
}

ERROR_TYPES = ("physical", "concept", "generalization", "none")


def catalog_hash() -> str:
    """Hex digest pinning the AU ordering; embedded in serialized artifacts."""
    return hashlib.sha256(",".join(AU_IDS).encode("ascii")).hexdigest()


class AusentinelError(Exception):
    """Base class for package errors."""


class ContractError(AusentinelError):
    """Input violates a documented contract (CLI exit code 2)."""


class StreamFormatError(ContractError):
    """A frame stream is unreadable: bad header, or error budget exceeded."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class UnusableCorpusError(ContractError):
    """A training corpus cannot support the rebalancing rule."""


class ModelIntegrityError(ContractError):
    """A model file or parameter set fails validation."""


class StreamIntegrityError(AusentinelError):
    """Timestep stream broke an ordering invariant at runtime."""


@dataclass
class StreamStats:
    """Every counter of a `detect` run, each kept only here (mutable).

    Each layer adds to the one instance it is handed, which may span many
    streams, and `detect` prints every field as its summary:

    - `read_stream` writes `frames_read` and `records_skipped`;
    - `as_au_vector` writes `values_clamped`;
    - `TimestepBuilder` writes `late_frames` and `duplicate_frames`;
    - `read_corpus` writes `frames_read` and `values_clamped` for a trial
      file it decodes as columns, and `duplicate_frames` for every trial (a
      feed sorted by time has no late frames);
    - `detect` writes `timesteps`, `events` and `unmerged_events`.
    """

    frames_read: int = 0
    records_skipped: int = 0
    values_clamped: int = 0
    late_frames: int = 0
    duplicate_frames: int = 0
    timesteps: int = 0
    events: int = 0
    unmerged_events: int = 0


def as_au_vector(values, stats: StreamStats | None = None) -> list[float]:
    """Validate and normalize a 17-entry AU intensity vector.

    `values` is a list, tuple or 1-d array of 17 numbers (anything `float()`
    converts, so numeric strings and bools pass). Entries must be finite;
    values outside [0, 5] are clamped (live estimators occasionally
    overshoot) and tallied on `stats`. Returns a list of 17 Python floats.
    The checks run in plain Python, which for 17 values costs a fraction of
    numpy's per-call overhead, and an in-range vector takes one pass.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()  # a 0-d or 2-d array then fails a check below
    if not isinstance(values, (list, tuple)):
        raise ContractError(
            f"AU vector must be a list of {N_AUS} numbers, got {type(values).__name__}"
        )
    if len(values) != N_AUS:
        raise ContractError(f"AU vector must have exactly {N_AUS} entries, got {len(values)}")
    try:
        au = list(map(float, values))
    except TypeError as exc:
        raise ContractError(f"AU vector entry is not a number: {exc}") from None
    lo, hi = AU_INTENSITY_MIN, AU_INTENSITY_MAX
    # min/max skip a NaN that is not the first entry; it still makes the sum
    # NaN, and 17 in-range values cannot overflow it.
    s = sum(au)
    if lo <= min(au) and max(au) <= hi and s == s:
        return au
    if not all(map(math.isfinite, au)):
        raise ContractError("AU vector contains non-finite values")
    if stats is not None:
        stats.values_clamped += sum(1 for v in au if v < lo or v > hi)
    return [lo if v < lo else hi if v > hi else v for v in au]


def zero_au_vector() -> np.ndarray:
    """All-zero vector: the convention for "no reliable face detection"."""
    return np.zeros(N_AUS, dtype=np.float64)


def timestep_of(t: float, trial_start: float = 0.0) -> int:
    """Map a wall-clock time in seconds onto the 1/3 s timestep grid.

    Returns floor((t - trial_start) * 3). Rejects times before trial start.
    """
    elapsed = t - trial_start
    if elapsed < 0:
        raise ContractError(f"time {t} precedes trial start {trial_start}")
    return int(math.floor(elapsed * RATE_HZ))


def timesteps_to_seconds(n_timesteps: float) -> float:
    """Convert a timestep count (or index difference) to seconds."""
    return n_timesteps / RATE_HZ


@dataclass(eq=False, slots=True)
class AuFrame:
    """One camera-frame observation from a single source.

    `au` holds the 17 intensities as Python floats (see `as_au_vector`);
    they become an array only when a timestep aggregates them. `confidence`
    is the extractor's face-detection confidence: a tick's frame counts only
    when it wins its tick and clears the confidence floor. Frames are
    read-only by convention: nothing changes a field after construction.
    """

    source_id: str
    t: float
    au: list[float]
    confidence: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ContractError(f"frame time {self.t} is not finite")
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(eq=False, slots=True)
class Timestep:
    """One 1/3 s aggregated sample; the classifier's input unit.

    `au` is a float64 array of the 17 intensities; `valid_face` is False
    when no tick of the timestep held a frame above the confidence floor,
    and `au` is then all zero. Read-only by convention, as `AuFrame` is.
    """

    index: int
    t_start: float
    t_end: float
    au: np.ndarray
    valid_face: bool = True

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ContractError(f"negative timestep index {self.index}")


@dataclass(frozen=True)
class GroundTruth:
    """Coder annotations for one trial, in timestep indices.

    `reaction_start` marks the first visible facial change,
    `perceived_error_start` the moment the error is unambiguously occurring.
    For predictable errors the reaction may precede the perceived start.
    """

    reaction_start: int
    reaction_end: int
    perceived_error_start: int

    def __post_init__(self) -> None:
        if self.reaction_start > self.reaction_end:
            raise ContractError(
                f"reaction_start {self.reaction_start} > reaction_end {self.reaction_end}"
            )
        if min(self.reaction_start, self.reaction_end, self.perceived_error_start) < 0:
            raise ContractError("annotation indices must be non-negative")

    def validate_bounds(self, n_timesteps: int) -> None:
        if max(self.reaction_end, self.perceived_error_start) >= n_timesteps:
            raise ContractError(
                f"annotation indices exceed trial length {n_timesteps}"
            )

    def label_array(self, n_timesteps: int) -> np.ndarray:
        """Per-timestep error labels: True inside [reaction_start, reaction_end]."""
        labels = np.zeros(n_timesteps, dtype=bool)
        labels[self.reaction_start : self.reaction_end + 1] = True
        return labels

    def reaction_time_s(self) -> float:
        """Reaction start relative to perceived error start (negative = anticipatory)."""
        return timesteps_to_seconds(self.reaction_start - self.perceived_error_start)

    def reaction_duration_s(self) -> float:
        return timesteps_to_seconds(self.reaction_end - self.reaction_start)


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """An ordered timestep sequence plus optional annotations for one trial."""

    trial_id: str
    participant_id: str
    error_type: str
    timesteps: tuple[Timestep, ...]
    annotations: GroundTruth | None = None

    def __post_init__(self) -> None:
        if self.error_type not in ERROR_TYPES:
            raise ContractError(f"unknown error type {self.error_type!r}")
        for pos, ts in enumerate(self.timesteps):
            if ts.index != pos:
                raise ContractError(
                    f"trial {self.trial_id}: timestep index {ts.index} at position {pos}"
                )
        if self.annotations is not None:
            self.annotations.validate_bounds(len(self.timesteps))

    def __len__(self) -> int:
        return len(self.timesteps)

    def au_matrix(self) -> np.ndarray:
        """Stacked intensities, shape (n_timesteps, 17)."""
        if not self.timesteps:
            return np.zeros((0, N_AUS), dtype=np.float64)
        return np.stack([ts.au for ts in self.timesteps])

    def label_array(self) -> np.ndarray:
        """Per-timestep error labels; all False when unannotated."""
        if self.annotations is None:
            return np.zeros(len(self.timesteps), dtype=bool)
        return self.annotations.label_array(len(self.timesteps))


@dataclass(frozen=True)
class ErrorEvent:
    """Detector output: where an error was detected and where it likely began.

    `merged` marks candidates absorbed into a previous event by the
    one-timestep merge rule; downstream scoring counts unmerged events only.
    """

    detected_at: int
    estimated_start: int
    score: float
    merged: bool = False

    def __post_init__(self) -> None:
        if self.estimated_start > self.detected_at:
            raise ContractError(
                f"estimated_start {self.estimated_start} after detected_at {self.detected_at}"
            )

    def detected_t(self, trial_start: float = 0.0) -> float:
        return trial_start + self.detected_at / RATE_HZ

    def estimated_t(self, trial_start: float = 0.0) -> float:
        return trial_start + self.estimated_start / RATE_HZ
