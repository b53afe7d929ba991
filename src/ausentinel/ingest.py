"""Frame-stream ingestion: parsing, source arbitration, timestep aggregation.

Frames arrive from one or two camera sources as newline-delimited JSON (or
CSV). Per camera tick the source with higher face-detection confidence wins;
a winner that does not clear the confidence floor leaves its tick out. The
winning ticks of a 1/3 s timestep (ten at 30 fps) aggregate into one
sample, and a timestep with none is a zero vector flagged invalid.

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
`TimestepBuilder` arbitrates each tick when its timestep closes and hands
the winners, as one array, to `aggregate`. That pair is the specification.
A format only splits its lines into records; the record rules, stated in
`read_stream`, run in one loop for both formats. Text is decoded as UTF-8
with undecodable bytes replaced, so a garbage byte costs at most its
record.

Corpus files (`read_corpus`) take a batch path with the same result: each
line is only decoded, the record checks run on whole columns, and
whole-trial numpy operations slot, de-duplicate and arbitrate the frames,
as a builder fed the frames in time order would. A file that fails any
check is read again by `read_stream`, so malformed records are skipped,
counted, logged (the file named) and budgeted in one place, and its frames
then take the same batch pass, which fills the matrix with no `Timestep`.
Either way, `aggregate` reduces each timestep's winning ticks to its sample.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from ausentinel.core import (
    AU_IDS,
    AU_INTENSITY_MAX,
    AU_INTENSITY_MIN,
    ERROR_TYPES,
    MAX_TRIAL_S,
    N_AUS,
    RATE_HZ,
    AuFrame,
    ContractError,
    GroundTruth,
    StreamFormatError,
    StreamIntegrityError,
    StreamStats,
    Timestep,
    TrialRecord,
    as_au_vector,
    canonical_json,
    check_field,
    map_in_order,
    read_json,
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

# Frames per timestep a policy may ask for: 1 200 fps, above any real camera.
# It bounds outside input (--fps), whose slots and buffers scale with it.
MAX_FRAMES_PER_TIMESTEP = 400

# Malformed records a stream or corpus trial file may hold before reading fails.
ERROR_BUDGET = 10


def check_error_budget(error_budget: int, name: str = "error_budget") -> None:
    """Refuse an error budget below 0, naming it as `name` (a flag or a parameter)."""
    if error_budget < 0:
        raise ContractError(f"{name} must be >= 0, got {error_budget}")


@dataclass(frozen=True)
class ArbitrationPolicy:
    """Knobs for source arbitration and frame→timestep aggregation."""

    min_confidence: float = 0.5
    frames_per_timestep: int = 10
    aggregator: str = "mean"

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ContractError(f"min_confidence {self.min_confidence} outside [0, 1]")
        if not 1 <= self.frames_per_timestep <= MAX_FRAMES_PER_TIMESTEP:
            raise ContractError(
                f"frames_per_timestep must be in [1, {MAX_FRAMES_PER_TIMESTEP}]")
        if self.aggregator not in AGGREGATORS:
            raise ContractError(f"aggregator must be one of {AGGREGATORS}")

    @property
    def fps(self) -> float:
        return self.frames_per_timestep * RATE_HZ


def aggregate(rows: np.ndarray, policy: ArbitrationPolicy) -> np.ndarray:
    """Reduce one timestep's winning ticks to its sample row, a (17,) array.

    `rows` is a (k, 17) float64 array of the AU rows of the ticks whose
    winner cleared the confidence floor, in tick order. With none, the
    sample is a zero vector and the timestep invalid (a stream gap or
    sustained low confidence). Every timestep, live or batch, is reduced here.
    """
    k = len(rows)
    if k > policy.frames_per_timestep:
        raise ContractError(
            f"{k} ticks in one timestep (max {policy.frames_per_timestep})"
        )
    if not k:
        return zero_au_vector()
    if policy.aggregator == "mean":
        return np.add.reduce(rows, axis=0) / k
    if policy.aggregator == "max":
        return np.maximum.reduce(rows, axis=0)
    return rows[-1].copy()  # last; a copy, so the sample holds no view of a larger array


def read_stream(source, format: str = "jsonl", *, error_budget: int = ERROR_BUDGET,
                stats: StreamStats | None = None):
    """Yield AuFrames from a text stream or path, each AU vector a list.

    JSONL streams may open with a header object ``{"catalog": [...]}``; when
    present it must match the canonical AU ordering. CSV streams must open
    with the exact canonical header. A path is opened as UTF-8 with
    undecodable bytes replaced by U+FFFD, so a garbage byte is never an error
    of its own: it leaves a malformed record, or a U+FFFD inside a string
    field such as the source id.

    Each record is validated in plain Python (see `as_au_vector`). A record
    is malformed when its line is not one JSON object with nothing after it
    (JSONL), or when the CSV parser refuses it or it has the wrong column
    count (CSV); when a field is missing or a value does not convert to a
    number; when the AU vector is not 17 finite numbers or the occurrence
    vector not 17 entries; when the confidence lies outside [0, 1]; or when
    its time is not finite, runs backward within its source, or lies more
    than `MAX_GAP_S` past the latest time yielded so far. Malformed records
    are skipped and counted; more than `error_budget` (at least 0) skips in
    this stream is fatal. AU values outside [0, 5] of the records yielded
    are clamped, not rejected, and counted as `values_clamped`. Counters
    accumulate on `stats` when provided, so one `StreamStats` may span many
    streams; each stream's budget counts only its own skips.

    A format only splits its lines into records and checks their shape
    (`_jsonl_records`, `_csv_records`). One loop here then checks every
    record of either format for its source id, time, AU vector, confidence
    and time order, in that order; the first check a record fails is the
    one logged.
    """
    check_error_budget(error_budget)
    stats = StreamStats() if stats is None else stats
    with open_text(source, "r", errors="replace", newline="") as source:
        if format == "jsonl":
            records, keys = _jsonl_records(source), _JSONL_KEYS
        elif format == "csv":
            records, keys = _csv_records(source), _CSV_KEYS
        else:
            raise ContractError(f"unknown stream format {format!r}")
        src_key, t_key, au_key, confidence_key = keys
        start = stats.records_skipped
        last_t: dict[str, float] = {}
        latest = None  # the latest time yielded
        for line_no, record in records:
            clamped = stats.values_clamped
            # Every check of one record, inline: this loop runs once per frame.
            try:
                if isinstance(record, Exception):
                    raise record  # the format's own checks refused it
                src = str(record[src_key])
                t = float(record[t_key])
                frame = AuFrame(src, t, as_au_vector(record[au_key], stats),
                                float(record[confidence_key]))
                prev = last_t.get(src)
                if prev is not None and t < prev:
                    raise ContractError(f"time ran backward for {src}")
                if latest is not None and t - latest > MAX_GAP_S:
                    raise ContractError(f"time jumped {t - latest:.6g} s ahead")
            except _RECORD_ERRORS as exc:
                stats.values_clamped = clamped  # count clamps of yielded records only
                _check_budget(stats, start, error_budget, line_no, exc)
                continue
            last_t[src] = t
            if latest is None or t > latest:
                latest = t
            stats.frames_read += 1
            yield frame


def _check_budget(stats: StreamStats, start: int, error_budget: int, line_no: int,
                  exc: Exception) -> None:
    """Count a skip; fail once the stream's own skips (past `start`) exceed the budget."""
    stats.records_skipped += 1
    logger.warning("skipping malformed record at line %d: %s", line_no, exc)
    skipped = stats.records_skipped - start
    if skipped > error_budget:
        raise StreamFormatError(
            f"error budget exceeded ({skipped} malformed records)", line_no=line_no
        )


# Decoding one line raises JSONDecodeError (a ValueError) for bad JSON, a
# plain ValueError for an integer of more digits than Python converts, and
# RecursionError for deep nesting.
_DECODE_ERRORS = (ValueError, RecursionError)

# What one malformed record raises, in its format's checks or in read_stream's.
_RECORD_ERRORS = (ContractError, KeyError, TypeError, ValueError, OverflowError,
                  RecursionError, csv.Error)

# Where a record keeps its source id, time, AU vector and confidence.
_JSONL_KEYS = ("source_id", "t", "au", "confidence")
_CSV_KEYS = (0, 1, slice(3, 3 + N_AUS), 2)  # the occurrence cells follow


def _jsonl_records(lines):
    """(line number, record) per JSONL record: its decoded object, or the
    exception of a line that is not one object with "au" and a 17-entry
    "occ". Lines count physically, blank lines and the header included.

    The first non-blank line is the catalog header when it decodes to an
    object with a "catalog" key, which must list the canonical AU ordering;
    otherwise it is the first record. A first line that does not decode is
    fatal. The corpus decoder reads its lines through here too.
    """
    lines = enumerate(lines, start=1)
    for line_no, line in lines:
        text = line.strip()
        if text:
            try:
                obj = json.loads(text)
            except _DECODE_ERRORS as exc:
                raise StreamFormatError(f"unreadable first record: {exc}", line_no=line_no)
            if not (isinstance(obj, dict) and "catalog" in obj):
                lines = itertools.chain([(line_no, line)], lines)  # no header: a frame
            elif obj["catalog"] != list(AU_IDS):
                raise StreamFormatError(
                    "stream catalog does not match the canonical AU ordering",
                    line_no=line_no,
                )
            break
    for line_no, line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _raw_decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if not isinstance(obj, dict):
                raise ContractError("record is not an object")
            obj["au"]  # a missing "au" is reported before a missing "occ"
            occ = obj["occ"]
            if len(occ) != N_AUS:
                raise ContractError(f"occ must have exactly {N_AUS} entries, got {len(occ)}")
        except (ContractError, KeyError, TypeError, *_DECODE_ERRORS) as exc:
            obj = exc
        yield line_no, obj


def _csv_records(lines):
    """(line number, record) per CSV record, split as one `csv.reader` over
    the whole stream splits them: its cells, or the exception of a record
    the parser refuses or of the wrong column count.

    A plain line is split with `str.split`. It holds no quote and, less its
    trailing CR and LF characters, no CR or LF, and it is shorter than
    `csv.field_size_limit()`: it is one record, and `csv.reader` would give
    the same fields (or none, for a blank line). The header and every other
    record go through `csv.reader`, which reads as many further lines as the
    record needs, so quoted fields, embedded line breaks and the field size
    limit behave as they always have. Records are numbered one per record,
    the header being record 1, in warnings and in `StreamFormatError`.
    """
    lines = iter(lines)
    try:
        header = next(csv.reader(lines), None)
    except csv.Error:
        header = None
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise StreamFormatError(
            "CSV header does not match the canonical AU ordering", line_no=1
        )
    n_columns = len(CSV_HEADER)
    size_limit = csv.field_size_limit()
    au_end = 3 + N_AUS  # the occurrence cells follow; nothing reads them
    line_no = 1
    for line in lines:
        line_no += 1
        body = line.rstrip("\r\n")
        if (len(line) < size_limit and '"' not in body
                and "\n" not in body and "\r" not in body):
            if not body:
                continue
            # The occurrence cells stay one string; its commas finish the
            # column count.
            row = body.split(",", au_end)
            n = len(row) + row[-1].count(",")
        else:
            try:
                row = next(csv.reader(itertools.chain((line,), lines)), None)
            except csv.Error as exc:
                yield line_no, exc
                continue
            if not row:
                continue
            n = len(row)
        if n != n_columns:
            row = ContractError(f"expected {n_columns} columns, got {n}")
        yield line_no, row


def open_text(target, mode: str, **kwargs):
    """`target` as UTF-8 text: a path opened here, else the caller's stream, left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        return open(target, mode, encoding="utf-8", **kwargs)
    return contextlib.nullcontext(target)


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
    """Write frames as JSONL to a path or text stream; returns how many."""
    n = 0
    with open_text(path, "w") as fh:
        if catalog_header:
            fh.write(canonical_json({"catalog": list(AU_IDS)}) + "\n")
        for frame in frames:
            fh.write(canonical_json(frame_to_obj(frame)) + "\n")
            n += 1
    return n


def write_frames_csv(path, frames) -> int:
    n = 0
    with open_text(path, "w", newline="") as fh:
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

    A timestep is emitted by arbitrating each of its ticks and reducing the
    winners once (`aggregate`). Per tick, the frame with the highest
    confidence wins, ties going to the lexicographically first source, and
    the winner counts only when its confidence is above the floor; the
    first frame of a (tick, source) is kept and later ones are counted on
    `stats.duplicate_frames`.

    A frame whose timestep was already emitted comes from a source more than
    `MAX_SKEW_S` behind, or from one not seen before. It is dropped and
    counted on `stats.late_frames`; its slot is not recorded, so it cannot
    pull the watermark back. A first frame more than `MAX_GAP_S` past
    `trial_start` is refused, so no frame opens more than that of gap
    timesteps.
    """

    def __init__(self, policy: ArbitrationPolicy | None = None,
                 trial_start: float = 0.0, stats: StreamStats | None = None):
        self.policy = policy or ArbitrationPolicy()
        self.trial_start = trial_start
        self.stats = StreamStats() if stats is None else stats
        self._fps = self.policy.fps
        self._fpt = self.policy.frames_per_timestep
        self._skew_slots = round(MAX_SKEW_S * self._fps)
        # slot -> its one frame, or {source: frame} once a second source sends one
        self._pending: dict[int, AuFrame | dict[str, AuFrame]] = {}
        self._last_slot: dict[str, int] = {}
        self._lead = -1  # the latest slot recorded, of any source
        self._behind = None  # a source last seen short of the next timestep
        self._finished = False
        self._next_index = 0
        self._end = self._fpt  # the first slot past timestep `_next_index`

    def add(self, frame: AuFrame) -> list[Timestep]:
        """Absorb one frame; return any timesteps that became final."""
        src = frame.source_id
        if self._finished:
            raise StreamIntegrityError(f"frame from {src!r} after the trial finished")
        last_slot = self._last_slot
        prev = last_slot.get(src, -1)
        if prev < 0:  # the source's first frame; its slot is then >= 0
            _check_first_frame(frame.t, self.trial_start, self._fps, not last_slot)
            if not last_slot:
                self._behind = src
        slot = round((frame.t - self.trial_start) * self._fps)
        if slot < prev:
            raise StreamIntegrityError(f"slot ran backward for source {src!r}")
        end = self._end
        if slot < end - self._fpt:  # its timestep was emitted
            self.stats.late_frames += 1
            return []
        last_slot[src] = slot
        lead = self._lead
        if slot > lead:
            self._lead = lead = slot
        # The first frame for a (slot, source) wins; later ones are duplicates.
        pending = self._pending
        held = pending.get(slot)
        if held is None:
            pending[slot] = frame
        elif held.__class__ is dict:
            if src in held:
                self.stats.duplicate_frames += 1
            else:
                held[src] = frame
        elif held.source_id == src:
            self.stats.duplicate_frames += 1
        else:
            pending[slot] = {held.source_id: held, src: frame}
        if lead - self._skew_slots < end and (slot < end or last_slot[self._behind] < end):
            # The watermark cannot reach the next timestep's end: the source
            # furthest behind is at most at this frame's slot or `_behind`'s.
            return []
        self._behind = src  # the drain keeps it unless a source is further behind
        return self._drain()

    def finish(self) -> list[Timestep]:
        """Flush everything up to the last observed slot; ends the trial."""
        self._finished = True
        out = []
        while self._next_index <= self._lead // self._fpt:
            out.append(self._emit(self._next_index))
        return out

    def _drain(self) -> list[Timestep]:
        """Emit every timestep the watermark has passed.

        The source furthest behind becomes `_behind`, ties going to the one
        `add` left there, the source of the frame that called the drain. In
        lockstep streams that source is the one whose next frame can close
        the next timestep, so the other source's frame need not drain.
        """
        slots = self._last_slot
        behind = self._behind
        low = slots[behind]
        for src, slot in slots.items():
            if slot < low:
                behind, low = src, slot
        self._behind = behind
        watermark = max(low, self._lead - self._skew_slots)
        out = []
        while self._next_index < watermark // self._fpt:
            out.append(self._emit(self._next_index))
        return out

    def _emit(self, index: int) -> Timestep:
        fpt = self._fpt
        floor = self.policy.min_confidence
        pending = self._pending
        winners = []
        for slot in range(index * fpt, (index + 1) * fpt):
            frame = pending.pop(slot, None)
            if frame is None:
                continue
            if frame.__class__ is dict:  # two or more sources
                per_source = frame
                srcs = sorted(per_source)
                frame = per_source[srcs[0]]
                for src in srcs[1:]:  # ties stay with the first source id
                    if per_source[src].confidence > frame.confidence:
                        frame = per_source[src]
            if frame.confidence > floor:
                winners.append(frame.au)
        self._next_index = index + 1
        self._end = (index + 2) * fpt
        k = len(winners)
        rows = np.fromiter(itertools.chain.from_iterable(winners), np.float64,
                           k * N_AUS).reshape(k, N_AUS)
        return Timestep(index, aggregate(rows, self.policy), k > 0)


def _check_first_frame(t: float, trial_start: float, fps: float, opens_trial: bool) -> None:
    """Refuse a source's first frame, the one frame no reader bounds, before its
    slot is rounded: if that would be negative, or, for the frame opening the
    trial, if it lies more than `MAX_GAP_S` past `trial_start`."""
    elapsed = t - trial_start  # +-inf at worst, never an error
    if elapsed * fps < -0.5:  # round() of it would be negative
        raise ContractError(f"frame at t={t} precedes trial start")
    if opens_trial and elapsed > MAX_GAP_S:
        raise ContractError(f"first frame at t={t} lies more than {MAX_GAP_S:g} s "
                            f"past trial start {trial_start}")


def _source_ranks(sources: list[str]) -> np.ndarray:
    """Each frame's source as its rank among the trial's sorted source ids."""
    rank = {name: i for i, name in enumerate(sorted(set(sources)))}
    return np.fromiter(map(rank.__getitem__, sources), dtype=np.intp,
                       count=len(sources))


def _columns_to_matrix(src, t, confidence, au, policy: ArbitrationPolicy,
                       trial_start: float, stats: StreamStats):
    """Whole-trial `TimestepBuilder`: a trial's frames, as columns, to its AU
    matrix and `valid_face` mask.

    Row k is timestep k of a builder fed the frames sorted by time, then
    finished. Frames are stably sorted by `t`, keyed to slots as the
    builder keys them, and the first frame per (slot, source) is kept; the
    others are counted on `stats.duplicate_frames`, and none is late. The
    winner of a slot has the highest confidence, ties going to the
    lexicographically first source; the tick is valid iff that confidence
    clears the floor, and each timestep's valid ticks go to `aggregate`.
    `src` holds source ranks (`_source_ranks`), and `au` is already clamped.
    A trial longer than `MAX_TRIAL_S` is refused before its matrix is built.
    """
    if not t.size:
        return np.zeros((0, N_AUS)), np.zeros(0, dtype=bool)
    order = np.argsort(t, kind="stable")
    _check_first_frame(float(t[order[0]]), trial_start, policy.fps, True)
    # Both readers hold every later frame within MAX_GAP_S of the ones
    # before it, so each slot fits an int64 by many orders of magnitude.
    x = (t[order] - trial_start) * policy.fps
    slot = np.rint(x).astype(np.int64)  # rounds half to even, as round() does
    src = src[order]
    # First frame per (slot, source) in time order; lexsort is stable.
    by_tick = np.lexsort((src, slot))
    slot, src, order = slot[by_tick], src[by_tick], order[by_tick]
    first = np.empty(slot.size, dtype=bool)
    first[0] = True
    first[1:] = (slot[1:] != slot[:-1]) | (src[1:] != src[:-1])
    slot, src, order = slot[first], src[first], order[first]
    stats.duplicate_frames += first.size - slot.size
    # Per slot, the highest confidence first and ties by source rank.
    conf = confidence[order]
    by_conf = np.lexsort((src, -conf, slot))
    slot, conf, order = slot[by_conf], conf[by_conf], order[by_conf]
    first = np.empty(slot.size, dtype=bool)
    first[0] = True
    np.not_equal(slot[1:], slot[:-1], out=first[1:])
    fpt = policy.frames_per_timestep
    n_timesteps = int(slot[-1]) // fpt + 1
    if n_timesteps > MAX_TRIAL_S * RATE_HZ:
        raise ContractError(f"trial spans {n_timesteps} timesteps, longer than {MAX_TRIAL_S:g} s")
    win = first & (conf > policy.min_confidence)
    rows = au[order[win]]
    # Timestep k's winning ticks are rows[bounds[k]:bounds[k + 1]].
    bounds = np.searchsorted(slot[win], np.arange(n_timesteps + 1) * fpt)
    ends = bounds.tolist()
    matrix = np.array([aggregate(rows[lo:hi], policy) for lo, hi in zip(ends, ends[1:])])
    return matrix, bounds[1:] > bounds[:-1]


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


def _decode_trial(path, stats: StreamStats):
    """Decode a clean JSONL trial file into columns, or None if it is not clean.

    Per line this only decodes the record and pulls out its fields; the
    value checks of `read_stream` then run on whole columns. A file is clean
    when `read_stream` would skip none of its records, and its frames and
    clamp count are then exactly what `read_stream` yields; they are added
    to `stats`, which a file that is not clean leaves untouched. Returns
    (source ranks, t, confidence, clamped au).
    """
    sources, times, confs, aus, blocks = [], [], [], [], []
    with open_text(path, "r", errors="replace", newline="") as fh:
        for _, obj in _jsonl_records(fh):
            if isinstance(obj, Exception):
                return None
            try:
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
    with np.errstate(over="ignore"):  # a jump past any float is past MAX_GAP_S too
        if (t[1:] - np.maximum.accumulate(t)[:-1] > MAX_GAP_S).any():
            return None  # time jumps past MAX_GAP_S, as read_stream checks it
    low, high = au < AU_INTENSITY_MIN, au > AU_INTENSITY_MAX
    clamped = int(np.count_nonzero(low)) + int(np.count_nonzero(high))
    if clamped:
        # Select, as as_au_vector does: -0.0 stays -0.0 (np.maximum would not).
        au = np.where(low, AU_INTENSITY_MIN, np.where(high, AU_INTENSITY_MAX, au))
    stats.frames_read += t.size
    stats.values_clamped += clamped
    return src, t, confidence, au


def _read_trial(path, stats: StreamStats, error_budget: int):
    """A trial file's frames as columns (source ranks, t, confidence, au).

    A clean file is decoded straight into columns (`_decode_trial`); any
    other is read by `read_stream` with `error_budget`, so its warnings,
    skip counts, budget and errors stay those of the live path.
    """
    columns = _decode_trial(path, stats)
    if columns is None:
        frames = list(read_stream(path, "jsonl", error_budget=error_budget,
                                  stats=stats))
        columns = (
            _source_ranks([f.source_id for f in frames]),
            np.array([f.t for f in frames]),
            np.array([f.confidence for f in frames]),
            np.array([f.au for f in frames]).reshape(-1, N_AUS),
        )
    return columns


@contextlib.contextmanager
def _naming(path):
    """Within it, what `ingest` logs and each `ContractError` raised read
    `<path>: <own text>`, the error keeping its class. Streams are not read in it."""

    def name(record) -> bool:
        record.msg, record.args = f"{path}: {record.getMessage()}", None
        return True

    logger.addFilter(name)
    try:
        yield
    except ContractError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    finally:
        logger.removeFilter(name)


def read_annotations(path) -> dict[str, dict]:
    """Read the annotation CSV into {trial_id: row} with parsed GroundTruth.

    Only trials with an annotated reaction appear in the file; error-free
    trials are listed in the corpus manifest alone. The file must be UTF-8
    and its three index columns integers that make a valid `GroundTruth`;
    anything else is a `StreamFormatError`, `<path>: line N: <check>` naming
    the column and trial where known, since a ground truth is never guessed.
    """
    rows: dict[str, dict] = {}
    with _naming(path), open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ANNOTATION_HEADER:
                raise StreamFormatError("annotation CSV header mismatch", line_no=1)
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(ANNOTATION_HEADER):
                    raise StreamFormatError(f"expected {len(ANNOTATION_HEADER)} columns",
                                            line_no=line_no)
                trial_id = row[0]
                if trial_id in rows:
                    raise StreamFormatError(f"duplicate trial_id {trial_id!r}", line_no=line_no)
                indices = []
                for name, cell in zip(ANNOTATION_HEADER[3:], row[3:]):
                    try:
                        indices.append(int(cell))
                    except ValueError:
                        raise StreamFormatError(f"{name} {cell!r} is not an integer",
                                                line_no=line_no) from None
                try:
                    ground_truth = GroundTruth(*indices)
                except ContractError as exc:
                    raise StreamFormatError(f"trial {trial_id}: {exc}", line_no=line_no) from None
                rows[trial_id] = {
                    "participant_id": row[1],
                    "error_type": row[2],
                    "ground_truth": ground_truth,
                }
        except UnicodeDecodeError as exc:
            raise StreamFormatError(f"not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise StreamFormatError(str(exc)) from None
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


# The fields of a manifest trial entry and their kinds (see `core.check_field`),
# in the order `_manifest_trials` returns them; `trial_start` defaults to 0.
_TRIAL_FIELDS = {"trial_id": (str,), "participant_id": (str,), "error_type": (str,),
                 "frames": (str,), "trial_start": (float,)}


def _manifest_trials(manifest) -> list[tuple]:
    """The trial entries of a decoded manifest, each as (trial_id,
    participant_id, error_type, frames, trial_start); any other shape, an
    error_type outside `core.ERROR_TYPES`, or a trial_id listed twice, is a
    `ContractError` naming the entry and the field."""
    check_field("manifest.json", manifest, dict)
    trials, first_pos = [], {}
    for pos, entry in enumerate(check_field("manifest.json trials",
                                            manifest.get("trials", []), list)):
        where = f"manifest.json trial {pos}"
        entry = {"trial_start": 0.0, **check_field(where, entry, dict)}
        try:
            trials.append(tuple(check_field(f"{where} {key}", entry[key], *rule)
                                for key, rule in _TRIAL_FIELDS.items()))
        except KeyError as exc:
            raise ContractError(f"{where} lacks {exc.args[0]}") from None
        trial_id, _, error_type, _, _ = trials[-1]
        if error_type not in ERROR_TYPES:
            raise ContractError(f"{where} error_type {error_type!r} is not one of {ERROR_TYPES}")
        if trial_id in first_pos:
            raise ContractError(f"{where} repeats trial_id {trial_id!r} "
                                f"of trial {first_pos[trial_id]}")
        first_pos[trial_id] = pos
    return trials


def _trial_matrix(path, trial_start: float, policy: ArbitrationPolicy,
                  error_budget: int):
    """The trial file at `path` as (AU matrix, valid_face mask, the file's
    own counters). Its warnings and contract errors (see `_read_trial` and
    `_columns_to_matrix`) name the file (see `_naming`)."""
    stats = StreamStats()
    with _naming(path):
        columns = _read_trial(path, stats, error_budget)
        return *_columns_to_matrix(*columns, policy, trial_start, stats), stats


def read_corpus(corpus_dir, policy: ArbitrationPolicy | None = None,
                stats: StreamStats | None = None, *,
                error_budget: int = ERROR_BUDGET) -> list[TrialRecord]:
    """Load a corpus directory (manifest.json + frames/ + annotations.csv).

    Each trial's rows are the timesteps of a `TimestepBuilder` fed the
    file's frames sorted by time (stably), then finished. A clean frame file
    is decoded into columns and arbitrated in one numpy pass, with no
    per-frame or per-timestep object; a file with any record `read_stream`
    would skip, or any value the column checks cannot vouch for, is read by
    `read_stream` instead (same warnings, skip counts and errors, and its
    own `error_budget`) and its frames then take the same pass; warnings and
    contract errors of a frame file name the file. Reading file i is task i of
    `core.map_in_order` (up to one process per CPU), which returns only a
    trial's two arrays and its counters; every trial adds its counters to
    `stats` when provided, and its log records come in manifest order, so
    counters, warnings and the first error are those of reading the files
    one by one.

    The manifest and the annotations are checked before any frame file is
    read: a manifest that is not UTF-8 JSON of the documented shape, with
    known error types, or that lists no trials, is a `ContractError`, and
    so is a bad annotation file (see `read_annotations`) or a row whose
    participant or error type is not its manifest entry's. Rows of trials
    the manifest does not list are ignored, with one warning naming them.
    """
    check_error_budget(error_budget)
    policy = policy or ArbitrationPolicy()
    stats = StreamStats() if stats is None else stats
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    try:
        manifest = read_json(manifest_path, "manifest.json")
    except FileNotFoundError:
        raise ContractError(f"no manifest.json in {corpus_dir}")
    entries = _manifest_trials(manifest)
    ann_path = os.path.join(corpus_dir, "annotations.csv")
    annotations = read_annotations(ann_path) if os.path.exists(ann_path) else {}
    if not entries:
        raise ContractError(f"corpus at {corpus_dir} lists no trials")
    for trial_id, participant_id, error_type, _, _ in entries:
        ann = annotations.get(trial_id)
        for key, value in (("participant_id", participant_id), ("error_type", error_type)):
            if ann is not None and ann[key] != value:
                raise ContractError(f"trial {trial_id}: manifest/annotation {key} mismatch")
    unmatched = sorted(annotations.keys() - {entry[0] for entry in entries})
    if unmatched:
        logger.warning("%s: ignoring the rows of trials manifest.json does not list: %s",
                       ann_path, ", ".join(unmatched))
    paths = [(os.path.join(corpus_dir, frames), trial_start)
             for _, _, _, frames, trial_start in entries]
    decoded = map_in_order(lambda i: _trial_matrix(*paths[i], policy, error_budget),
                           len(paths))
    trials = []
    for (trial_id, participant_id, error_type, _, trial_start), (au, valid, counts) in zip(
            entries, decoded):
        stats.add(counts)
        ann = annotations.get(trial_id)
        trials.append(TrialRecord(
            trial_id, participant_id, error_type, au, valid, trial_start,
            annotations=ann["ground_truth"] if ann is not None else None))
    return trials
