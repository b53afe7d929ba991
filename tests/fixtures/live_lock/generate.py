"""Regenerate the live_lock fixture: a model, two frame streams, their events.

    PYTHONPATH=src python tests/fixtures/live_lock/generate.py

The fixture pins `detect` byte for byte across versions of the package, so
it is only regenerated when a change is meant to move events; the test in
tests/test_live_lock.py then needs its pinned counters updated from the
figures this script prints.

The stream is one 20 s dual-camera trial with one error. AU intensities are
rounded to 4 decimals (the precision of a typical extractor's output, and it
keeps the files small). Each stream then gets hand-made lines: two ticks with
out-of-range values (clamped) and one record each of a NaN AU, a 16-entry AU
vector, a string AU vector, an unparseable line, trailing garbage after the
record, and time running backward within a source.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import numpy as np

from ausentinel.cli import main
from ausentinel.core import AuFrame
from ausentinel.ingest import (
    StreamStats,
    read_stream,
    write_frames_csv,
    write_frames_jsonl,
)
from ausentinel.model import TrainConfig, save, train
from ausentinel.simgen import ErrorPlan, ScenarioSpec, generate

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 0
CLAMPED_TICKS = (90, 91)  # frame-pair indices whose values go out of range
INSERT_AT = (100, 180, 260, 340, 420, 500)  # frame-line indices of the bad lines


def _model(path: str) -> None:
    spec = ScenarioSpec(
        participants=4, trials_per_participant=2, seed=SEED,
        errors=(ErrorPlan("physical", 8.0), ErrorPlan("none")),
        trial_len_s=30.0,
    )
    save(train(generate(spec).records(), TrainConfig(epochs=120, seed=SEED)), path)


def _frames() -> list[AuFrame]:
    spec = ScenarioSpec(
        participants=1, trials_per_participant=1, seed=SEED + 1,
        errors=(ErrorPlan("concept", 8.0),), trial_len_s=20.0,
    )
    frames = []
    for i, f in enumerate(generate(spec).trials[0].frames()):
        au = np.round(f.au, 4)
        if i // 2 in CLAMPED_TICKS:
            au = au.copy()
            au[0], au[5] = 7.5, -0.25
        frames.append(AuFrame(f.source_id, f.t, au, f.occurrences, round(f.confidence, 4)))
    return frames


def _jsonl_bad_lines(lines: list[str]) -> list[str]:
    good = json.loads(lines[INSERT_AT[0]])
    nan = dict(good, au=[float("nan")] + good["au"][1:])
    backward = json.loads(lines[INSERT_AT[-1] - 40])
    return [
        json.dumps(nan, sort_keys=True, separators=(",", ":")),
        json.dumps(dict(good, au=good["au"][:16]), sort_keys=True, separators=(",", ":")),
        json.dumps(dict(good, au="n/a"), sort_keys=True, separators=(",", ":")),
        '{"au":[0.1,0.2',
        json.dumps(good, sort_keys=True, separators=(",", ":")) + " xyz",
        json.dumps(backward, sort_keys=True, separators=(",", ":")),
    ]


def _csv_line(row: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue().rstrip("\r\n")


def _csv_bad_lines(lines: list[str]) -> list[str]:
    good = next(csv.reader([lines[INSERT_AT[0]]]))
    backward = next(csv.reader([lines[INSERT_AT[-1] - 40]]))
    return [
        _csv_line(good[:3] + ["nan"] + good[4:]),
        _csv_line(good[:3] + good[4:]),
        _csv_line(good[:3] + ["n/a"] + good[4:]),
        '{"au":[0.1,0.2',
        _csv_line(good + ["xyz"]),
        _csv_line(backward),
    ]


def _insert(path: str, make_bad) -> None:
    # Line 0 is the JSONL catalog header or the CSV header; frame k is line k + 1.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    bad = make_bad(lines)
    for at, line in sorted(zip(INSERT_AT, bad), reverse=True):
        lines.insert(at + 1, line)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run() -> None:
    model = os.path.join(HERE, "model.json")
    _model(model)
    frames = _frames()
    for fmt, write, make_bad in (("jsonl", write_frames_jsonl, _jsonl_bad_lines),
                                 ("csv", write_frames_csv, _csv_bad_lines)):
        stream = os.path.join(HERE, f"stream.{fmt}")
        write(stream, frames)
        _insert(stream, make_bad)
        events = os.path.join(HERE, f"events_from_{fmt}.jsonl")
        rc = main(["detect", "--model", model, "--input", stream, "--format", fmt,
                   "--out", events])
        if rc != 0:
            raise SystemExit(f"detect failed on {stream} (exit {rc})")
        stats = StreamStats()
        for _ in read_stream(stream, fmt, stats=stats):
            pass
        print(f"{fmt}: frames_read={stats.frames_read} "
              f"records_skipped={stats.records_skipped} "
              f"values_clamped={stats.values_clamped}", file=sys.stderr)


if __name__ == "__main__":
    run()
