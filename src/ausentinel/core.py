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

import json
import logging
import math
import os
import pickle
import reprlib
import signal
import sys
from dataclasses import dataclass

import numpy as np

# Timestep grid: 3 samples per second (10 camera frames at 30 fps).
RATE_HZ = 3.0
TIMESTEP_SECONDS = 1.0 / RATE_HZ

# The longest trial a spec or corpus file may hold: one hour, 10 800 timesteps.
# A trial is built whole in memory, so without a bound it asks for any amount.
MAX_TRIAL_S = 3600.0

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

# The contaminations `simulate --perturb` applies (see `simgen.perturb`).
PERTURB_KINDS = ("novelty", "occlusion", "amplitude-scale")


# SHA-256 hex digest of ",".join(AU_IDS). Kept as a literal so that loading
# the package does not load hashlib (and with it OpenSSL's libcrypto); a test
# recomputes it from AU_IDS, so a change to the catalog cannot leave it stale.
_CATALOG_SHA256 = "8e1e4e373ca9af2e277b56f8beccf93e84546a81be77a161289edf2fd2ddbf9c"


def catalog_hash() -> str:
    """Hex digest pinning the AU ordering; embedded in serialized artifacts."""
    return _CATALOG_SHA256


def canonical_json(obj) -> str:
    """`obj` as the package writes all JSON: keys sorted, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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

    def add(self, other: StreamStats) -> None:
        """Add every counter of `other` to this instance's."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


def is_finite_number(value) -> bool:
    """Whether `value` is an int or float (not a bool) that a float holds finitely."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# The kinds of a decoded JSON value, by the Python type `json` gives them, as
# a refusal words them; `numbers(n)` is the kind of a list of n finite numbers.
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}


def numbers(n: int) -> str:
    return f"a list of {n} finite numbers"


def check_field(where: str, value, kind, lo=None, hi=None):
    """`value`, a decoded JSON value, if it is of `kind` (int, float, bool,
    str, list, dict or `numbers(n)`) and within the inclusive bounds `lo` and
    `hi`; a float comes back as a float. Otherwise a ContractError names the
    value as `where`. An int is never a bool nor a float, not even 1.0; a
    float is any finite number but a bool. No other module decides a kind.
    """
    if kind is float:
        fits = is_finite_number(value)
    elif kind is list:  # a tuple too, for the dataclasses built in Python
        fits = isinstance(value, (list, tuple))
    elif kind in _KIND_NAMES:
        fits = type(value) is kind
    else:
        fits = (isinstance(value, (list, tuple)) and kind == numbers(len(value))
                and all(map(is_finite_number, value)))
    if fits and (lo is None or value >= lo) and (hi is None or value <= hi):
        return float(value) if kind is float else value
    bounds = " and ".join(f"{op} {bound:g}" for op, bound in ((">=", lo), ("<=", hi))
                          if bound is not None)
    raise ContractError(f"{where} must be {_KIND_NAMES.get(kind, kind)} {bounds}".rstrip()
                        + f", got {reprlib.repr(value)}")


def read_json(path, what: str):
    """The JSON document in the file at `path`, decoded as UTF-8. A file
    that does not decode (bad UTF-8 or JSON, an integer of too many digits,
    nesting too deep) is a ContractError naming it as `what`; one that
    cannot be opened raises its OSError. Every JSON document file (spec,
    model, manifest, `--config`) is read here; frame streams are not.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ContractError(f"unreadable {what}: {exc}") from None


def write_json(path, obj) -> None:
    """Write `obj` to `path` as one canonical JSON line (model, manifest, report)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")


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
    and `au` is then all zero. Its seconds are `trial_start + index / 3`.
    Read-only by convention, as `AuFrame` is.
    """

    index: int
    au: np.ndarray
    valid_face: bool = True


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
    """One trial: a float64 (n, 17) `au` matrix whose row k is timestep k and
    its (n,) bool `valid_face` mask (see `Timestep`), plus optional annotations."""

    trial_id: str
    participant_id: str
    error_type: str
    au: np.ndarray
    valid_face: np.ndarray
    trial_start: float = 0.0
    annotations: GroundTruth | None = None

    def __post_init__(self) -> None:
        if self.error_type not in ERROR_TYPES:
            raise ContractError(f"unknown error type {self.error_type!r}")
        au, valid = self.au, self.valid_face
        if not (isinstance(au, np.ndarray) and au.dtype == np.float64 and au.ndim == 2
                and au.shape[1] == N_AUS):
            raise ContractError(f"trial {self.trial_id}: au is not a float64 (n, 17) array")
        if not (isinstance(valid, np.ndarray) and valid.dtype == bool
                and valid.shape == (len(au),)):
            raise ContractError(f"trial {self.trial_id}: valid_face is not {len(au)} bools")
        if self.annotations is not None:
            try:
                self.annotations.validate_bounds(len(au))
            except ContractError as exc:
                raise ContractError(f"trial {self.trial_id}: {exc}") from None

    def __len__(self) -> int:
        return len(self.au)

    @property
    def timesteps(self) -> tuple[Timestep, ...]:
        """The rows as `Timestep`s, each `au` a view of its row."""
        return tuple(map(Timestep, range(len(self.au)), self.au, self.valid_face.tolist()))

    def label_array(self) -> np.ndarray:
        """Per-timestep error labels; all False when unannotated."""
        if self.annotations is None:
            return np.zeros(len(self), dtype=bool)
        return self.annotations.label_array(len(self))


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


# ---------------------------------------------------------------------------
# Independent offline tasks, one forked process per CPU.

def usable_cpus() -> int:
    """The number of CPUs in this process's affinity mask (1 on a platform
    that has none to read)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


class _HeldRecords(logging.Handler):
    """Keeps the records it is handed, reduced to their final message, so a
    record holds nothing that cannot be pickled."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args = record.getMessage(), None
        self.records.append(record)

    def outcome(self, task, i: int) -> tuple:
        """Run `task(i)`: (the records it logged, whether it raised, its
        result or its exception)."""
        self.records = []
        try:
            return self.records, False, task(i)
        except Exception as exc:
            return self.records, True, exc


def _forked(task, n: int, workers: int) -> list:
    """The outcomes (see `_HeldRecords.outcome`) of tasks 0 .. n-1, in task
    order, run in `workers` forked processes. A worker holds back all that
    the package logs, from its start to its end. Worker w runs tasks w,
    w + workers, w + 2 * workers, ... and only then writes the list of their
    outcomes, pickled, into a pipe of its own, so no worker waits on the
    parent while it has tasks left. A pipe that ends before its worker's
    list raises ChildProcessError, naming the worker and its first task. If
    reading stops early (that error, or an interrupt), every worker is
    killed. Every worker has been reaped when this returns or raises.
    """
    pids, pipes, lists = [], [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    # The worker leaves only through os._exit: it never
                    # returns into the caller nor flushes its stdio buffers,
                    # so nothing it changes needs restoring.
                    code = 1
                    try:
                        for pipe in pipes:  # the parent's: once it closes them, a write fails
                            pipe.close()
                        held = _HeldRecords()
                        package = logging.getLogger(__name__.partition(".")[0])
                        package.addHandler(held)
                        package.propagate = False  # the parent hands each record on
                        outcomes = [held.outcome(task, i) for i in range(w, n, workers)]
                        out = open(write_end, "wb")  # closed by os._exit if dump fails
                        pickle.dump(outcomes, out)
                        out.close()
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            finally:
                os.close(write_end)  # so the pipe ends when its worker does
        for pipe in pipes:
            try:
                lists.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                break  # `lists` stops at the worker that ended early
    finally:
        for pipe in pipes:
            pipe.close()
        if len(lists) < len(pids):  # stopped early: no list left is read
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if len(lists) < workers:
        w = len(lists)
        raise ChildProcessError(f"worker {w} ended before returning task {w} "
                                f"(exit code {codes[w]})")
    return [lists[i % workers][i // workers] for i in range(n)]


def map_in_order(task, n: int):
    """Yield `task(i)` for i = 0 .. n-1, in that order.

    With W = min(n, `usable_cpus()`) of at least 2, the tasks run in W
    processes forked from this one (see `_forked`), and every worker has
    ended before the first result is yielded. A worker inherits `task` by
    fork, so any callable will do, a closure included, and it is never
    pickled; only each task's result, log records and exception travel
    back, pickled, so each task should return little. A worker that dies
    before returning its tasks (killed, or unable to pickle an outcome)
    raises ChildProcessError here. The process that forks must hold one
    thread then, or Python 3.12 and later warn that the child may deadlock:
    the commands that fork workers run no thread of their own, and numpy's
    OpenBLAS stops its threads before a fork (its own fork handler) and
    starts them again on its next call. What a worker's task logs is handed
    to the package's loggers just before that task's result is yielded, and
    a task that raised has its exception raised there instead.

    Otherwise (one CPU, one task, or no affinity mask) the tasks run here,
    one at a time, as the results are consumed, and log as they run. So
    records, results and the first failure come in task order either way,
    as a serial loop makes them.
    """
    workers = min(n, usable_cpus())
    if workers < 2:
        yield from map(task, range(n))
        return
    for records, failed, value in _forked(task, n, workers):
        for record in records:
            logging.getLogger(record.name).handle(record)
        if failed:
            raise value
        yield value
