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


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_read_stream_counters_are_pinned(fmt):
    stats = StreamStats()
    n = sum(1 for _ in read_stream(FIXTURE / f"stream.{fmt}", fmt, stats=stats))
    assert n == stats.frames_read
    assert {k: getattr(stats, k) for k in PINNED_STATS} == PINNED_STATS
    assert stats.sources == {"cam_a", "cam_b"}


def test_model_recipe_reproduces_locked_model(tmp_path):
    # generate.py trains the model (simgen corpus, seed 0, 120 epochs); any
    # change to training that moves a weight's bits fails here.
    path = tmp_path / "model.json"
    load_fixture_script("live_lock")._model(str(path))
    assert path.read_bytes() == (FIXTURE / "model.json").read_bytes()
