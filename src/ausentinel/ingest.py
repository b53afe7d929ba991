"""Frame-stream ingestion: parsing, source arbitration, timestep aggregation.

Frames arrive from one or two camera sources as newline-delimited JSON (or
CSV). Per camera tick the source with higher face-detection confidence wins;
if neither clears the confidence floor the tick is zeroed. Ten arbitrated
frames (at 30 fps) aggregate into one 1/3 s timestep.

The streaming builder guarantees: for any input stream, output timestep
indices are exactly 0..N-1 with no duplicates or holes, and at most
`MAX_SKEW_S` of camera ticks (plus one timestep) wait in it. When every
frame arrives within `MAX_SKEW_S` of the source furthest ahead, and no
source's first frame arrives after a frame of a later tick, the emitted
content is also bit-identical regardless of interleaving. A source further
behind stops holding timesteps back; its frames for timesteps already
emitted are dropped and counted as late.

Live streams (`detect`) go frame by frame: `read_stream` validates each
record into an `AuFrame` whose AU values stay a list of floats, and
`TimestepBuilder` arbitrates and aggregates, making one array per timestep.
That pair is the specification. Corpus files (`read_corpus`) take a batch
path with the same result: each line is only decoded, the record checks run
on whole columns, and whole-trial numpy operations slot, de-duplicate and
arbitrate the frames and aggregate them (`reduce_ticks`), as a builder fed
the frames in time order would. A file that fails any check is read again
by `read_stream`, so malformed records are skipped, counted, logged and
budgeted in one place, and its frames then take the same batch pass.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from ausentinel.core import (
    AU_IDS,
    AU_INTENSITY_MAX,
    AU_INTENSITY_MIN,
    N_AUS,
    RATE_HZ,
    AuFrame,
    ClampCounter,
    ContractError,
    GroundTruth,
    StreamFormatError,
    StreamIntegrityError,
    Timestep,
    TrialRecord,
    as_au_vector,
    zero_au_vector,
)

logger = logging.getLogger(__name__)

# json.loads minus its wrapper: lines arrive stripped, so the two whitespace
# scans it makes around the document are dead work on the per-frame path.
_raw_decode = json.JSONDecoder().raw_decode

# CSV stream header: intensities first, then occurrences, both in catalog order.
CSV_HEADER = (
    ["source_id", "t", "confidence"]
    + [f"{au.lower()}_int" for au in AU_IDS]
    + [f"{au.lower()}_occ" for au in AU_IDS]
)

# The writers mark an AU as occurring when its intensity exceeds this (the
# rule simgen's extractor follows). Readers check only that a record carries
# 17 occurrence entries; nothing downstream reads them.
OCCURRENCE_THRESHOLD = 1.0

ANNOTATION_HEADER = [
    "trial_id",
    "participant_id",
    "error_type",
    "reaction_start",
    "reaction_end",
    "perceived_error_start",
]

AGGREGATORS = ("mean", "last", "max")

# Event-time skew between sources that the builder waits for. A source this
# far behind the one furthest ahead no longer holds timesteps back.
MAX_SKEW_S = 1.0

# A record whose time lies more than this past the latest time its stream has
# yielded is malformed, so one frame can open at most MAX_GAP_S of gap
# timesteps. A trial whose first frame lies more than this past its start is
# refused for the same reason.
MAX_GAP_S = 600.0


@dataclass(frozen=True)
class ArbitrationPolicy:
    """Knobs for source arbitration and frame→timestep aggregation."""

    min_confidence: float = 0.5
    frames_per_timestep: int = 10
    aggregator: str = "mean"

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ContractError(f"min_confidence {self.min_confidence} outside [0, 1]")
        if self.frames_per_timestep < 1:
            raise ContractError("frames_per_timestep must be >= 1")
        if self.aggregator not in AGGREGATORS:
            raise ContractError(f"aggregator must be one of {AGGREGATORS}")

    @property
    def fps(self) -> float:
        return self.frames_per_timestep * RATE_HZ


@dataclass
class StreamStats:
    """Running ingestion counters (mutable; one per stream)."""

    frames_read: int = 0
    records_skipped: int = 0
    values_clamped: int = 0
    sources: set = field(default_factory=set)


def arbitrate(
    frame_a: AuFrame | None,
    frame_b: AuFrame | None,
    policy: ArbitrationPolicy,
) -> AuFrame:
    """Pick the higher-confidence source for one camera tick.

    Ties go to `frame_a` (callers order sources lexicographically, so ties
    resolve to the lexicographically first source id — deterministic). When
    the better confidence does not strictly exceed the floor, the tick is
    zeroed: all-zero AU vector, invalid_face, confidence of the better source.
    """
    if frame_a is None and frame_b is None:
        raise ContractError("arbitrate requires at least one frame")
    if frame_a is None:
        winner = frame_b
    elif frame_b is None:
        winner = frame_a
    else:
        period = 1.0 / policy.fps
        if abs(frame_a.t - frame_b.t) > 1.5 * period:
            raise ContractError(
                f"frames not tick-aligned: t={frame_a.t} vs t={frame_b.t}"
            )
        winner = frame_a if frame_a.confidence >= frame_b.confidence else frame_b
    if winner.confidence > policy.min_confidence and winner.valid_face:
        return winner
    return AuFrame(winner.source_id, winner.t, [0.0] * N_AUS, winner.confidence,
                   valid_face=False)


def aggregate(
    frames: list[AuFrame],
    policy: ArbitrationPolicy,
    index: int,
    trial_start: float = 0.0,
) -> Timestep:
    """Reduce one timestep's arbitrated frames to a single sample.

    Only valid-face frames contribute; with none, the timestep is a zero
    vector flagged invalid (stream gap or sustained low confidence). An empty
    frame list is a gap and reduces the same way. The frames' AU lists become
    one (k, 17) array here; its mean is `np.mean`'s, bit for bit.
    """
    if len(frames) > policy.frames_per_timestep:
        raise ContractError(
            f"{len(frames)} frames in one timestep (max {policy.frames_per_timestep})"
        )
    t_start = trial_start + index / RATE_HZ
    t_end = trial_start + (index + 1) / RATE_HZ
    valid = [f.au for f in frames if f.valid_face]
    if not valid:
        return Timestep(index=index, t_start=t_start, t_end=t_end,
                        au=zero_au_vector(), valid_face=False)
    if policy.aggregator == "last":
        au = np.array(valid[-1], dtype=np.float64)
    else:
        rows = np.fromiter(itertools.chain.from_iterable(valid), np.float64,
                           len(valid) * N_AUS).reshape(len(valid), N_AUS)
        if policy.aggregator == "mean":
            au = np.add.reduce(rows, axis=0) / len(valid)
        else:  # max
            au = np.maximum.reduce(rows, axis=0)
    return Timestep(index=index, t_start=t_start, t_end=t_end, au=au, valid_face=True)


def read_stream(source, format: str = "jsonl", *, error_budget: int = 10,
                stats: StreamStats | None = None):
    """Yield AuFrames from a text stream or path, each AU vector a list.

    JSONL streams may open with a header object ``{"catalog": [...]}``; when
    present it must match the canonical AU ordering. CSV streams must open
    with the exact canonical header.

    Each record is validated in plain Python (see `as_au_vector`). A record
    is malformed when its line is not one JSON object with nothing after it
    (JSONL) or has the wrong column count (CSV); when a field is missing or
    a value does not convert to a number; when the AU vector is not 17
    finite numbers or the occurrence vector not 17 entries; when the
    confidence lies outside [0, 1]; or when its time is not finite, runs
    backward within its source, or lies more than `MAX_GAP_S` past the
    latest time yielded so far. Malformed records are skipped and counted;
    exceeding `error_budget` skips is fatal. AU values outside [0, 5] of
    the records yielded are clamped, not rejected, and counted as
    `values_clamped`. Counters accumulate on `stats` when provided.
    """
    if stats is None:
        stats = StreamStats()
    counter = ClampCounter()
    close = False
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = open(source, "r", encoding="utf-8", newline="")
        close = True
    try:
        if format == "jsonl":
            yield from _read_jsonl(source, error_budget, stats, counter)
        elif format == "csv":
            yield from _read_csv(source, error_budget, stats, counter)
        else:
            raise ContractError(f"unknown stream format {format!r}")
    finally:
        stats.values_clamped += counter.clamped
        if close:
            source.close()


def _check_budget(stats: StreamStats, error_budget: int, line_no: int, exc: Exception) -> None:
    stats.records_skipped += 1
    logger.warning("skipping malformed record at line %d: %s", line_no, exc)
    if stats.records_skipped > error_budget:
        raise StreamFormatError(
            f"error budget exceeded ({stats.records_skipped} malformed records)",
            line_no=line_no,
        )


def _is_catalog_header(obj, line_no: int) -> bool:
    """Whether a stream's first record is its catalog header; a header must
    list the canonical AU ordering."""
    if isinstance(obj, dict) and "catalog" in obj:
        if list(obj["catalog"]) != list(AU_IDS):
            raise StreamFormatError(
                "stream catalog does not match the canonical AU ordering",
                line_no=line_no,
            )
        return True
    return False


# Decoding one line raises JSONDecodeError (a ValueError) for bad JSON, a
# plain ValueError for an integer of more digits than Python converts, and
# RecursionError for deep nesting.
_DECODE_ERRORS = (ValueError, RecursionError)


def _read_jsonl(source, error_budget, stats, counter):
    lines = enumerate(source, start=1)
    for line_no, line in lines:
        line = line.strip()
        if line:
            try:
                obj = json.loads(line)
            except _DECODE_ERRORS as exc:
                raise StreamFormatError(f"unreadable first record: {exc}", line_no=line_no)
            if not _is_catalog_header(obj, line_no):
                lines = itertools.chain([(line_no, line)], lines)  # no header: a frame
            break
    last_t: dict[str, float] = {}
    latest = None  # the latest time yielded
    for line_no, line in lines:
        line = line.strip()
        if not line:
            continue
        clamped = counter.clamped
        # Every check of one record, inline: this loop runs once per frame.
        try:
            obj, end = _raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if not isinstance(obj, dict):
                raise ContractError("record is not an object")
            au, occ = obj["au"], obj["occ"]
            if len(occ) != N_AUS:
                raise ContractError(f"occ must have exactly {N_AUS} entries, got {len(occ)}")
            src = str(obj["source_id"])
            t = float(obj["t"])
            frame = AuFrame(src, t, as_au_vector(au, counter), float(obj["confidence"]))
            prev = last_t.get(src)
            if prev is not None and t < prev:
                raise ContractError(f"time ran backward for {src}")
            if latest is not None and t - latest > MAX_GAP_S:
                raise ContractError(f"time jumped {t - latest:.6g} s ahead")
        except (ContractError, KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            counter.clamped = clamped  # count clamps of yielded records only
            _check_budget(stats, error_budget, line_no, exc)
            continue
        last_t[src] = t
        if latest is None or t > latest:
            latest = t
        stats.frames_read += 1
        if prev is None:
            stats.sources.add(src)
        yield frame


def _read_csv(source, error_budget, stats, counter):
    reader = csv.reader(source)
    last_t: dict[str, float] = {}
    latest = None  # the latest time yielded
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise StreamFormatError(
            "CSV header does not match the canonical AU ordering", line_no=1
        )
    n_columns = len(CSV_HEADER)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        clamped = counter.clamped
        try:
            if len(row) != n_columns:
                raise ContractError(f"expected {n_columns} columns, got {len(row)}")
            src = row[0]
            t = float(row[1])
            # float() parses each AU cell; the occ cells are not read
            frame = AuFrame(src, t, as_au_vector(row[3 : 3 + N_AUS], counter),
                            float(row[2]))
            prev = last_t.get(src)
            if prev is not None and t < prev:
                raise ContractError(f"time ran backward for {src}")
            if latest is not None and t - latest > MAX_GAP_S:
                raise ContractError(f"time jumped {t - latest:.6g} s ahead")
        except (ContractError, TypeError, ValueError) as exc:
            counter.clamped = clamped  # count clamps of yielded records only
            _check_budget(stats, error_budget, line_no, exc)
            continue
        last_t[src] = t
        if latest is None or t > latest:
            latest = t
        stats.frames_read += 1
        if prev is None:
            stats.sources.add(src)
        yield frame


def frame_to_obj(frame: AuFrame) -> dict:
    au = [float(v) for v in frame.au]
    return {
        "source_id": frame.source_id,
        "t": frame.t,
        "confidence": frame.confidence,
        "au": au,
        "occ": [v > OCCURRENCE_THRESHOLD for v in au],
    }


def write_frames_jsonl(path, frames, *, catalog_header: bool = True) -> int:
    """Write frames as JSONL; returns the number of frames written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        if catalog_header:
            fh.write(json.dumps({"catalog": list(AU_IDS)}, separators=(",", ":")) + "\n")
        for frame in frames:
            fh.write(json.dumps(frame_to_obj(frame), sort_keys=True,
                                separators=(",", ":")) + "\n")
            n += 1
    return n


def write_frames_csv(path, frames) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for frame in frames:
            au = [float(v) for v in frame.au]
            writer.writerow(
                [frame.source_id, repr(frame.t), repr(frame.confidence)]
                + [repr(v) for v in au]
                + [int(v > OCCURRENCE_THRESHOLD) for v in au]
            )
            n += 1
    return n


class TimestepBuilder:
    """Streaming frame→timestep assembler for one trial.

    Frames are keyed to camera ticks by slot = round((t - trial_start) * fps),
    which is robust to timestamps carrying float rounding from a k/fps grid.
    A timestep flushes once the watermark has passed it: the latest slot of
    the source furthest behind, but never more than `MAX_SKEW_S` of ticks
    behind the source furthest ahead (a source is seen from its first frame).
    So a stalled or dead camera delays output by at most `MAX_SKEW_S`, and
    at most that many ticks, plus one timestep, wait in the builder. Output
    does not depend on interleaving as long as every frame arrives within
    `MAX_SKEW_S` of the source furthest ahead and no source's first frame
    arrives after a frame of a later tick. Gap timesteps are emitted as
    zero-vector/invalid rather than stalling the clock, keeping downstream
    latency accounting truthful.

    A frame whose timestep was already emitted comes from a source more than
    `MAX_SKEW_S` behind, or from one not seen before. It is dropped and
    counted on `late_frames`, and its slot is not recorded, so it cannot pull
    the watermark back. A first frame more than `MAX_GAP_S` past
    `trial_start` is refused, so no frame opens more than that of gap
    timesteps.
    """

    def __init__(self, policy: ArbitrationPolicy | None = None,
                 trial_start: float = 0.0):
        self.policy = policy or ArbitrationPolicy()
        self.trial_start = trial_start
        self._fps = self.policy.fps
        self._fpt = self.policy.frames_per_timestep
        self._skew_slots = round(MAX_SKEW_S * self._fps)
        self._pending: dict[int, dict[str, AuFrame]] = {}
        self._last_slot: dict[str, int] = {}
        self._lead = -1  # the latest slot recorded, of any source
        self._behind = None  # a source last seen short of the next timestep
        self._finished = False
        self._next_index = 0
        self.duplicate_frames = 0
        self.late_frames = 0

    def add(self, frame: AuFrame) -> list[Timestep]:
        """Absorb one frame; return any timesteps that became final."""
        slot = round((frame.t - self.trial_start) * self._fps)
        if slot < 0:
            raise ContractError(f"frame at t={frame.t} precedes trial start")
        src = frame.source_id
        if self._finished:
            raise StreamIntegrityError(f"frame from {src!r} after the trial finished")
        prev = self._last_slot.get(src)
        if prev is None:
            if not self._last_slot:
                if frame.t - self.trial_start > MAX_GAP_S:
                    raise ContractError(_far_first_frame(frame.t, self.trial_start))
                self._behind = src
        elif slot < prev:
            raise StreamIntegrityError(f"slot ran backward for source {src!r}")
        index = slot // self._fpt
        if index < self._next_index:
            self.late_frames += 1
            return []
        self._last_slot[src] = slot
        if slot > self._lead:
            self._lead = slot
        per_source = self._pending.get(slot)
        if per_source is None:
            self._pending[slot] = {src: frame}
        elif src in per_source:
            self.duplicate_frames += 1  # first frame for a (slot, source) wins
        else:
            per_source[src] = frame
        end = (self._next_index + 1) * self._fpt
        if self._lead - self._skew_slots < end and (
                slot < end or self._last_slot[self._behind] < end):
            # The watermark cannot reach the next timestep's end: the source
            # furthest behind is at most at this frame's slot or `_behind`'s.
            return []
        return self._drain()

    def finish(self) -> list[Timestep]:
        """Flush everything up to the last observed slot; ends the trial."""
        self._finished = True
        out = []
        while self._next_index <= self._lead // self._fpt:
            out.append(self._emit(self._next_index))
        return out

    def _drain(self) -> list[Timestep]:
        """Emit every timestep the watermark has passed."""
        slots = self._last_slot
        self._behind = min(slots, key=slots.__getitem__)
        watermark = max(slots[self._behind], self._lead - self._skew_slots)
        out = []
        while self._next_index < watermark // self._fpt:
            out.append(self._emit(self._next_index))
        return out

    def _emit(self, index: int) -> Timestep:
        fpt = self._fpt
        arbitrated = []
        for slot in range(index * fpt, (index + 1) * fpt):
            per_source = self._pending.pop(slot, None)
            if not per_source:
                continue
            srcs = sorted(per_source)
            winner = per_source[srcs[0]]
            if len(srcs) == 1:
                winner = arbitrate(winner, None, self.policy)
            else:
                for src in srcs[1:]:
                    winner = arbitrate(winner, per_source[src], self.policy)
            arbitrated.append(winner)
        self._next_index = index + 1
        return aggregate(arbitrated, self.policy, index, self.trial_start)


def reduce_ticks(index, offset, ticks, n_timesteps: int,
                 policy: ArbitrationPolicy, trial_start: float = 0.0) -> list[Timestep]:
    """Reduce a trial's valid arbitrated ticks to its timesteps in one pass.

    `ticks[i]` is the AU row at tick `offset[i]` of timestep `index[i]`, in
    (index, offset) order; timesteps without a tick are zero and invalid.
    This is `aggregate` over a whole trial, bit for bit: each reduction runs
    over one timestep's ticks in tick order, and the unused ticks of a
    timestep hold the reduction's exact identity (-0.0 for a sum, -inf for
    a max). Only timesteps that hold ticks are padded.
    """
    au = np.zeros((n_timesteps, N_AUS))
    valid = np.zeros(n_timesteps, dtype=bool)
    if index.size:
        new = np.empty(index.size, dtype=bool)
        new[0] = True
        np.not_equal(index[1:], index[:-1], out=new[1:])
        held = index[new]
        valid[held] = True
        if policy.aggregator == "last":
            au[held] = ticks[np.append(new[1:], True)]
        else:
            mean = policy.aggregator == "mean"
            pad = np.full((held.size, policy.frames_per_timestep, N_AUS),
                          -0.0 if mean else -np.inf)
            pad[np.cumsum(new) - 1, offset] = ticks
            if mean:
                counts = np.diff(np.append(np.flatnonzero(new), index.size))
                au[held] = pad.sum(axis=1) / counts[:, np.newaxis]
            else:
                au[held] = pad.max(axis=1)
    return [
        Timestep(index=k, t_start=trial_start + k / RATE_HZ,
                 t_end=trial_start + (k + 1) / RATE_HZ, au=au[k], valid_face=v)
        for k, v in enumerate(valid.tolist())
    ]


def _far_first_frame(t: float, trial_start: float) -> str:
    return (f"first frame at t={t} lies more than {MAX_GAP_S:g} s "
            f"past trial start {trial_start}")


def _source_ranks(sources: list[str]) -> np.ndarray:
    """Each frame's source as its rank among the trial's sorted source ids."""
    rank = {name: i for i, name in enumerate(sorted(set(sources)))}
    return np.fromiter(map(rank.__getitem__, sources), dtype=np.intp,
                       count=len(sources))


def _columns_to_timesteps(src, t, confidence, au, policy: ArbitrationPolicy,
                          trial_start: float) -> list[Timestep]:
    """Whole-trial `TimestepBuilder`: a trial's frames, as columns, to timesteps.

    The result equals feeding the frames to a builder sorted by time and
    finishing it. Frames are stably sorted by `t`, keyed to slots as the
    builder keys them, and the first frame per (slot, source) is kept. The
    winner of a slot has the highest confidence, ties going to the
    lexicographically first source; the tick is valid iff that confidence
    clears the floor. `src` holds source ranks (`_source_ranks`), and `au`
    is already clamped.
    """
    if not t.size:
        return []
    order = np.argsort(t, kind="stable")
    x = (t[order] - trial_start) * policy.fps
    first = float(t[order[0]])
    if round(float(x[0])) < 0:
        raise ContractError(f"frame at t={first} precedes trial start")
    if first - trial_start > MAX_GAP_S:
        raise ContractError(_far_first_frame(first, trial_start))
    # Both readers hold every later frame within MAX_GAP_S of the ones
    # before it, so each slot fits an int64 by many orders of magnitude.
    slot = np.rint(x).astype(np.int64)  # rounds half to even, as round() does
    src = src[order]
    # First frame per (slot, source) in time order; lexsort is stable.
    by_tick = np.lexsort((src, slot))
    slot, src, order = slot[by_tick], src[by_tick], order[by_tick]
    first = np.empty(slot.size, dtype=bool)
    first[0] = True
    first[1:] = (slot[1:] != slot[:-1]) | (src[1:] != src[:-1])
    slot, src, order = slot[first], src[first], order[first]
    # Per slot, the highest confidence first and ties by source rank.
    conf = confidence[order]
    by_conf = np.lexsort((src, -conf, slot))
    slot, conf, order = slot[by_conf], conf[by_conf], order[by_conf]
    first = np.empty(slot.size, dtype=bool)
    first[0] = True
    np.not_equal(slot[1:], slot[:-1], out=first[1:])
    fpt = policy.frames_per_timestep
    n_timesteps = int(slot[-1]) // fpt + 1
    win = first & (conf > policy.min_confidence)
    slot = slot[win]
    return reduce_ticks(slot // fpt, slot % fpt, au[order[win]], n_timesteps,
                        policy, trial_start)


# Decoded AU lists become arrays this many lines at a time, so only a block
# of them is ever alive at once.
_BLOCK_LINES = 256


def _au_block(aus: list):
    """Decoded AU rows as a float64 (n, 17) array, or None.

    Rows that do not make an (n, 17) array of numbers or bools (strings,
    None, integers beyond int64, ragged rows) are left to read_stream.
    """
    try:
        au = np.array(aus)
    except (ValueError, TypeError, OverflowError):
        return None
    if au.dtype.kind not in "biuf" or au.shape != (len(aus), N_AUS):
        return None
    return au.astype(np.float64, copy=False)


def _decode_trial(path):
    """Decode a clean JSONL trial file into columns, or None if it is not clean.

    Per line this only decodes the record and pulls out its fields; the
    value checks of `read_stream` then run on whole columns. A file is clean
    when `read_stream` would skip none of its records, and its frames, clamp
    count and sources are then exactly what `read_stream` yields. Returns
    (sources, source ranks, t, confidence, clamped au, clamp count).
    """
    sources, times, confs, aus, blocks = [], [], [], [], []
    first = True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _raw_decode(line)
            except (ValueError, RecursionError):
                return None
            if end != len(line):
                return None
            if first:
                first = False
                if _is_catalog_header(obj, line_no):
                    continue
            try:
                if len(obj["occ"]) != N_AUS:
                    return None
                aus.append(obj["au"])
                sources.append(str(obj["source_id"]))
                times.append(float(obj["t"]))
                confs.append(float(obj["confidence"]))
            except (KeyError, TypeError, ValueError, OverflowError):
                return None
            if len(aus) == _BLOCK_LINES:
                blocks.append(_au_block(aus))
                aus = []
    if aus:
        blocks.append(_au_block(aus))
    if any(block is None for block in blocks):
        return None
    au = np.concatenate(blocks) if blocks else np.zeros((0, N_AUS))
    t = np.array(times)
    confidence = np.array(confs)
    if not (np.isfinite(au).all() and np.isfinite(t).all()
            and ((confidence >= 0.0) & (confidence <= 1.0)).all()):
        return None
    src = _source_ranks(sources)
    by_source = np.argsort(src, kind="stable")
    same, ts = src[by_source], t[by_source]
    if ((same[1:] == same[:-1]) & (ts[1:] < ts[:-1])).any():
        return None  # time runs backward within a source
    if (t[1:] - np.maximum.accumulate(t)[:-1] > MAX_GAP_S).any():
        return None  # time jumps past MAX_GAP_S, as read_stream checks it
    low, high = au < AU_INTENSITY_MIN, au > AU_INTENSITY_MAX
    clamped = int(np.count_nonzero(low)) + int(np.count_nonzero(high))
    if clamped:
        # Select, as as_au_vector does: -0.0 stays -0.0 (np.maximum would not).
        au = np.where(low, AU_INTENSITY_MIN, np.where(high, AU_INTENSITY_MAX, au))
    return sources, src, t, confidence, au, clamped


def _read_trial(path, stats: StreamStats):
    """A trial file's frames as columns (source ranks, t, confidence, au).

    A clean file is decoded straight into columns. Any other file is read
    by `read_stream`, so its warnings, skip counts, error budget and
    errors stay those of the live path.
    """
    decoded = _decode_trial(path)
    if decoded is None:
        frames = list(read_stream(path, "jsonl", stats=stats))
        return (
            _source_ranks([f.source_id for f in frames]),
            np.array([f.t for f in frames]),
            np.array([f.confidence for f in frames]),
            np.array([f.au for f in frames]).reshape(-1, N_AUS),
        )
    sources, src, t, confidence, au, clamped = decoded
    stats.frames_read += len(sources)
    stats.values_clamped += clamped
    stats.sources.update(sources)
    return src, t, confidence, au


def read_annotations(path) -> dict[str, dict]:
    """Read the annotation CSV into {trial_id: row} with parsed GroundTruth.

    Only trials with an annotated reaction appear in the file; error-free
    trials are listed in the corpus manifest alone.
    """
    rows: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ANNOTATION_HEADER:
            raise StreamFormatError("annotation CSV header mismatch", line_no=1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(ANNOTATION_HEADER):
                raise StreamFormatError(
                    f"expected {len(ANNOTATION_HEADER)} columns", line_no=line_no
                )
            trial_id = row[0]
            if trial_id in rows:
                raise StreamFormatError(f"duplicate trial_id {trial_id!r}",
                                        line_no=line_no)
            rows[trial_id] = {
                "participant_id": row[1],
                "error_type": row[2],
                "ground_truth": GroundTruth(
                    reaction_start=int(row[3]),
                    reaction_end=int(row[4]),
                    perceived_error_start=int(row[5]),
                ),
            }
    return rows


def write_annotations(path, rows: dict[str, dict]) -> None:
    """Inverse of read_annotations; trial ids are written in sorted order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANNOTATION_HEADER)
        for trial_id in sorted(rows):
            row = rows[trial_id]
            gt = row["ground_truth"]
            writer.writerow([
                trial_id, row["participant_id"], row["error_type"],
                gt.reaction_start, gt.reaction_end, gt.perceived_error_start,
            ])


def read_corpus(corpus_dir, policy: ArbitrationPolicy | None = None) -> list[TrialRecord]:
    """Load a corpus directory (manifest.json + frames/ + annotations.csv).

    Each trial's timesteps are those of a `TimestepBuilder` fed the file's
    frames sorted by time (stably), then finished. A clean frame file is
    decoded into columns and reduced in one numpy pass, with no per-frame
    object; a file with any record `read_stream` would skip, or any value
    the column checks cannot vouch for, is read by `read_stream` instead
    (same warnings, skip counts, error budget and errors) and its frames
    then take the same pass.
    """
    policy = policy or ArbitrationPolicy()
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ContractError(f"no manifest.json in {corpus_dir}")
    except json.JSONDecodeError as exc:
        raise ContractError(f"unreadable manifest.json: {exc}")
    ann_path = os.path.join(corpus_dir, "annotations.csv")
    annotations = read_annotations(ann_path) if os.path.exists(ann_path) else {}
    trials = []
    for entry in manifest.get("trials", []):
        trial_id = entry["trial_id"]
        frames_path = os.path.join(corpus_dir, entry["frames"])
        columns = _read_trial(frames_path, StreamStats())
        timesteps = _columns_to_timesteps(
            *columns, policy, trial_start=float(entry.get("trial_start", 0.0))
        )
        ann = annotations.get(trial_id)
        if ann is not None:
            for key in ("participant_id", "error_type"):
                if ann[key] != entry[key]:
                    raise ContractError(
                        f"trial {trial_id}: manifest/annotation {key} mismatch"
                    )
        trials.append(TrialRecord(
            trial_id=trial_id,
            participant_id=entry["participant_id"],
            error_type=entry["error_type"],
            timesteps=tuple(timesteps),
            annotations=ann["ground_truth"] if ann is not None else None,
        ))
    if not trials:
        raise ContractError(f"corpus at {corpus_dir} lists no trials")
    return trials
