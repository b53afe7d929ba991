"""Frame-stream ingestion: parsing, source arbitration, timestep aggregation.

Frames arrive from one or two camera sources as newline-delimited JSON (or
CSV). Per camera tick the source with higher face-detection confidence wins;
if neither clears the confidence floor the tick is zeroed. Ten arbitrated
frames (at 30 fps) aggregate into one 1/3 s timestep.

The streaming builder guarantees: for any input stream, output timestep
indices are exactly 0..N-1 with no duplicates or holes. For producers with
bounded skew (each source speaks before the first flush it should join) the
emitted content is also bit-identical regardless of interleaving; whole-file
batches should go through frames_to_timesteps, which sorts first.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from ausentinel.core import (
    AU_IDS,
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

ANNOTATION_HEADER = [
    "trial_id",
    "participant_id",
    "error_type",
    "reaction_start",
    "reaction_end",
    "perceived_error_start",
]

AGGREGATORS = ("mean", "last", "max")


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
    duplicate_frames: int = 0
    sources: set = field(default_factory=set)


def _zeroed(source_id: str, t: float, confidence: float) -> AuFrame:
    return AuFrame(
        source_id=source_id,
        t=t,
        au=zero_au_vector(),
        occurrences=np.zeros(N_AUS, dtype=bool),
        confidence=confidence,
        valid_face=False,
    )


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
    return _zeroed(winner.source_id, winner.t, winner.confidence)


def aggregate(
    frames: list[AuFrame],
    policy: ArbitrationPolicy,
    index: int,
    trial_start: float = 0.0,
) -> Timestep:
    """Reduce one timestep's arbitrated frames to a single sample.

    Only valid-face frames contribute; with none, the timestep is a zero
    vector flagged invalid (stream gap or sustained low confidence). An empty
    frame list is a gap and reduces the same way.
    """
    if len(frames) > policy.frames_per_timestep:
        raise ContractError(
            f"{len(frames)} frames in one timestep (max {policy.frames_per_timestep})"
        )
    t_start = trial_start + index / RATE_HZ
    t_end = trial_start + (index + 1) / RATE_HZ
    valid = [f for f in frames if f.valid_face]
    if not valid:
        return Timestep(index=index, t_start=t_start, t_end=t_end,
                        au=zero_au_vector(), valid_face=False)
    if policy.aggregator == "mean":
        au = np.mean([f.au for f in valid], axis=0)
    elif policy.aggregator == "last":
        au = valid[-1].au.copy()
    else:  # max
        au = np.max([f.au for f in valid], axis=0)
    return Timestep(index=index, t_start=t_start, t_end=t_end, au=au, valid_face=True)


def _parse_jsonl_record(obj: dict, counter: ClampCounter) -> AuFrame:
    au = obj["au"]
    occ = obj["occ"]
    if len(occ) != N_AUS:
        raise ContractError(f"occ must have exactly {N_AUS} entries, got {len(occ)}")
    frame = AuFrame(
        source_id=str(obj["source_id"]),
        t=float(obj["t"]),
        au=as_au_vector(au, counter),
        occurrences=np.asarray(occ, dtype=bool),
        confidence=float(obj["confidence"]),
    )
    return frame


def _parse_csv_record(row: list[str], counter: ClampCounter) -> AuFrame:
    if len(row) != len(CSV_HEADER):
        raise ContractError(f"expected {len(CSV_HEADER)} columns, got {len(row)}")
    occ = [v.strip().lower() in ("1", "true") for v in row[3 + N_AUS :]]
    return AuFrame(
        source_id=row[0],
        t=float(row[1]),
        au=as_au_vector(row[3 : 3 + N_AUS], counter),  # float() parses each cell
        occurrences=np.asarray(occ, dtype=bool),
        confidence=float(row[2]),
    )


def read_stream(source, format: str = "jsonl", *, error_budget: int = 10,
                stats: StreamStats | None = None):
    """Yield AuFrames from a text stream or path.

    JSONL streams may open with a header object ``{"catalog": [...]}``; when
    present it must match the canonical AU ordering. CSV streams must open
    with the exact canonical header.

    Each record is validated in plain Python (see `as_au_vector`). A record
    is malformed when its line is not one JSON object with nothing after it
    (JSONL) or has the wrong column count (CSV); when a field is missing or
    a value does not convert to a number; when the AU vector is not 17
    finite numbers or the occurrence vector not 17 entries; when the
    confidence lies outside [0, 1]; or when its time runs backward within
    its source. Malformed records are skipped and counted; exceeding
    `error_budget` skips is fatal. AU values outside [0, 5] are clamped,
    not rejected, and counted as `values_clamped`. Counters accumulate on
    `stats` when provided.
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


def _read_jsonl(source, error_budget, stats, counter):
    last_t: dict[str, float] = {}
    first = True
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        if first:
            first = False
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"unreadable first record: {exc}", line_no=line_no)
            if isinstance(obj, dict) and "catalog" in obj:
                if list(obj["catalog"]) != list(AU_IDS):
                    raise StreamFormatError(
                        "stream catalog does not match the canonical AU ordering",
                        line_no=line_no,
                    )
                continue
            # no header: fall through and treat the first line as a frame
        else:
            try:
                obj, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                _check_budget(stats, error_budget, line_no, exc)
                continue
        try:
            if not isinstance(obj, dict):
                raise ContractError("record is not an object")
            frame = _parse_jsonl_record(obj, counter)
            prev = last_t.get(frame.source_id)
            if prev is not None and frame.t < prev:
                raise ContractError(f"time ran backward for {frame.source_id}")
        except (ContractError, KeyError, TypeError, ValueError, OverflowError) as exc:
            _check_budget(stats, error_budget, line_no, exc)
            continue
        last_t[frame.source_id] = frame.t
        stats.frames_read += 1
        stats.sources.add(frame.source_id)
        yield frame


def _read_csv(source, error_budget, stats, counter):
    reader = csv.reader(source)
    last_t: dict[str, float] = {}
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise StreamFormatError(
            "CSV header does not match the canonical AU ordering", line_no=1
        )
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            frame = _parse_csv_record(row, counter)
            prev = last_t.get(frame.source_id)
            if prev is not None and frame.t < prev:
                raise ContractError(f"time ran backward for {frame.source_id}")
        except (ContractError, TypeError, ValueError) as exc:
            _check_budget(stats, error_budget, line_no, exc)
            continue
        last_t[frame.source_id] = frame.t
        stats.frames_read += 1
        stats.sources.add(frame.source_id)
        yield frame


def frame_to_obj(frame: AuFrame) -> dict:
    return {
        "source_id": frame.source_id,
        "t": frame.t,
        "confidence": frame.confidence,
        "au": [float(v) for v in frame.au],
        "occ": [bool(v) for v in frame.occurrences],
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
            writer.writerow(
                [frame.source_id, repr(frame.t), repr(frame.confidence)]
                + [repr(float(v)) for v in frame.au]
                + [int(bool(v)) for v in frame.occurrences]
            )
            n += 1
    return n


class TimestepBuilder:
    """Streaming frame→timestep assembler for one trial.

    Frames are keyed to camera ticks by slot = round((t - trial_start) * fps),
    which is robust to timestamps carrying float rounding from a k/fps grid.
    A timestep flushes once every live source has advanced past it (the
    watermark), so output does not depend on interleaving as long as each
    producer speaks before the first flush it should join (a source is live
    from its first frame). Gap timesteps are emitted as zero-vector/invalid
    rather than stalling the clock, keeping downstream latency accounting
    truthful.

    A frame whose timestep was already emitted can only come from a source
    not seen before (a live source never falls below the watermark). It is
    dropped and counted on `late_frames`, and its source stays unseen, so
    it cannot pull the watermark back.
    """

    def __init__(self, policy: ArbitrationPolicy | None = None,
                 trial_start: float = 0.0):
        self.policy = policy or ArbitrationPolicy()
        self.trial_start = trial_start
        self._fps = self.policy.fps
        self._fpt = self.policy.frames_per_timestep
        self._pending: dict[int, dict[str, AuFrame]] = {}
        self._last_slot: dict[str, int] = {}
        self._ended: set[str] = set()
        self._next_index = 0
        self.duplicate_frames = 0
        self.late_frames = 0

    def add(self, frame: AuFrame) -> list[Timestep]:
        """Absorb one frame; return any timesteps that became final."""
        slot = round((frame.t - self.trial_start) * self._fps)
        if slot < 0:
            raise ContractError(f"frame at t={frame.t} precedes trial start")
        src = frame.source_id
        if src in self._ended:
            raise StreamIntegrityError(f"frame from ended source {src!r}")
        prev = self._last_slot.get(src)
        if prev is not None and slot < prev:
            raise StreamIntegrityError(f"slot ran backward for source {src!r}")
        index = slot // self._fpt
        if index < self._next_index:
            self.late_frames += 1
            return []
        self._last_slot[src] = slot
        per_source = self._pending.setdefault(slot, {})
        if src in per_source:
            self.duplicate_frames += 1  # first frame for a (slot, source) wins
        else:
            per_source[src] = frame
        if index <= self._next_index:
            # This source is live at `slot`, so the watermark is at most
            # `slot` and no timestep can close yet.
            return []
        return self._drain()

    def end_source(self, source_id: str) -> list[Timestep]:
        """Mark a source as finished so it no longer holds back the watermark."""
        self._ended.add(source_id)
        return self._drain()

    def finish(self) -> list[Timestep]:
        """Flush everything up to the last observed slot; ends the trial."""
        self._ended.update(self._last_slot)
        out = []
        slots = [s for s in self._pending] + list(self._last_slot.values())
        if not slots:
            return out
        hi_index = max(slots) // self._fpt
        while self._next_index <= hi_index:
            out.append(self._emit(self._next_index))
        return out

    def _watermark(self) -> int | None:
        live = [s for s in self._last_slot if s not in self._ended]
        if not live:
            return None
        return min(self._last_slot[s] for s in live)

    def _drain(self) -> list[Timestep]:
        out = []
        wm = self._watermark()
        if wm is None:
            return out
        wm_index = wm // self._fpt
        while self._next_index < wm_index:
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


def frames_to_timesteps(frames, policy: ArbitrationPolicy | None = None,
                        trial_start: float = 0.0) -> list[Timestep]:
    """Batch path: assemble a full frame collection into timesteps.

    Frames are stably sorted by timestamp first, so per-source order is
    preserved; output is identical to feeding the builder live.
    """
    builder = TimestepBuilder(policy, trial_start)
    out: list[Timestep] = []
    for frame in sorted(frames, key=lambda f: f.t):
        out.extend(builder.add(frame))
    out.extend(builder.finish())
    return out


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
    """Load a corpus directory (manifest.json + frames/ + annotations.csv)."""
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
        stats = StreamStats()
        frames = list(read_stream(frames_path, "jsonl", stats=stats))
        timesteps = frames_to_timesteps(
            frames, policy, trial_start=float(entry.get("trial_start", 0.0))
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
