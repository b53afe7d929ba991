"""Behaviour lock: `detect` reproduces the committed events byte for byte.

The fixture in tests/fixtures/live_lock (made by its generate.py) holds a
model, one short dual-camera trial as JSONL and as CSV with hand-made bad
lines, and the events `detect` wrote for each. Criterion 12 compares two runs
of one checkout; this test compares against bytes written by an earlier
version of the package, so it catches drift between versions.
"""

import pytest

from conftest import FIXTURES, load_fixture_script
from ausentinel.cli import main
from ausentinel.ingest import StreamStats, read_stream

FIXTURE = FIXTURES / "live_lock"

# Counters read_stream reports on each stream: 1200 frames (20 s, two
# cameras at 30 fps), six bad lines, two ticks with two out-of-range values
# on each camera.
PINNED_STATS = {"frames_read": 1200, "records_skipped": 6, "values_clamped": 8}

# The whole stderr summary `detect` prints for either stream.
PINNED_SUMMARY = ('{"duplicate_frames":0,"events":19,"frames_read":1200,"late_frames":0,'
                  '"records_skipped":6,"timesteps":60,"unmerged_events":1,'
                  '"values_clamped":8}')


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_detect_reproduces_locked_events(fmt, tmp_path, capsys):
    out = tmp_path / "events.jsonl"
    rc = main(["detect", "--model", str(FIXTURE / "model.json"),
               "--input", str(FIXTURE / f"stream.{fmt}"), "--format", fmt,
               "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (FIXTURE / f"events_from_{fmt}.jsonl").read_bytes()
    assert capsys.readouterr().err.splitlines()[-1] == PINNED_SUMMARY


# The warnings `detect` logs for the six bad lines of each stream, in order:
# the line number (physical lines for JSONL, records for CSV) and the text
# of the check that refused the record.
PINNED_WARNINGS = {
    "jsonl": [
        "skipping malformed record at line 102: AU vector contains non-finite values",
        "skipping malformed record at line 183: AU vector must have exactly 17 entries, "
        "got 16",
        "skipping malformed record at line 264: AU vector must be a list of 17 numbers, "
        "got str",
        "skipping malformed record at line 345: Expecting ',' delimiter: "
        "line 1 column 15 (char 14)",
        "skipping malformed record at line 426: Extra data: line 1 column 298 (char 297)",
        "skipping malformed record at line 507: time ran backward for cam_b",
    ],
    "csv": [
        "skipping malformed record at line 102: AU vector contains non-finite values",
        "skipping malformed record at line 183: expected 37 columns, got 36",
        "skipping malformed record at line 264: could not convert string to float: 'n/a'",
        "skipping malformed record at line 345: expected 37 columns, got 2",
        "skipping malformed record at line 426: expected 37 columns, got 38",
        "skipping malformed record at line 507: time ran backward for cam_b",
    ],
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_detect_warnings_are_pinned(fmt, tmp_path, caplog):
    with caplog.at_level("WARNING"):
        rc = main(["detect", "--model", str(FIXTURE / "model.json"),
                   "--input", str(FIXTURE / f"stream.{fmt}"), "--format", fmt,
                   "--out", str(tmp_path / "events.jsonl")])
    assert rc == 0
    warnings = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    assert warnings == (
        [("ausentinel.ingest", "WARNING", text) for text in PINNED_WARNINGS[fmt]]
        + [("ausentinel.cli", "WARNING", "skipped 6 malformed records")]
    )


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_read_stream_counters_are_pinned(fmt):
    stats = StreamStats()
    n = sum(1 for _ in read_stream(FIXTURE / f"stream.{fmt}", fmt, stats=stats))
    assert n == stats.frames_read
    assert {k: getattr(stats, k) for k in PINNED_STATS} == PINNED_STATS


def test_model_recipe_reproduces_locked_model(tmp_path):
    # generate.py trains the model (simgen corpus, seed 0, 120 epochs); any
    # change to training that moves a weight's bits fails here.
    path = tmp_path / "model.json"
    load_fixture_script("live_lock")._model(str(path))
    assert path.read_bytes() == (FIXTURE / "model.json").read_bytes()
