"""Stream parsing, arbitration, and the streaming timestep builder."""

import io
import json

import numpy as np
import pytest

from ausentinel.core import (
    AU_IDS,
    N_AUS,
    AuFrame,
    ContractError,
    GroundTruth,
    StreamFormatError,
    StreamIntegrityError,
)
from ausentinel.ingest import (
    AGGREGATORS,
    ANNOTATION_HEADER,
    CSV_HEADER,
    ArbitrationPolicy,
    StreamStats,
    TimestepBuilder,
    aggregate,
    arbitrate,
    frame_to_obj,
    frames_to_timesteps,
    read_annotations,
    read_stream,
    write_annotations,
    write_frames_csv,
    write_frames_jsonl,
)


def frame(source="cam_a", t=0.0, conf=0.9, level=1.0, valid=True):
    return AuFrame(
        source_id=source,
        t=t,
        au=np.full(N_AUS, level),
        occurrences=np.zeros(N_AUS, dtype=bool),
        confidence=conf,
        valid_face=valid,
    )


# ---------------------------------------------------------------------------
# Policy and arbitration


def test_policy_validation():
    assert ArbitrationPolicy().fps == 30.0
    assert ArbitrationPolicy(frames_per_timestep=5).fps == 15.0
    with pytest.raises(ContractError):
        ArbitrationPolicy(min_confidence=1.5)
    with pytest.raises(ContractError):
        ArbitrationPolicy(frames_per_timestep=0)
    with pytest.raises(ContractError):
        ArbitrationPolicy(aggregator="median")
    assert AGGREGATORS == ("mean", "last", "max")


def test_arbitrate_higher_confidence_wins():
    policy = ArbitrationPolicy()
    a = frame("cam_a", conf=0.8, level=1.0)
    b = frame("cam_b", conf=0.9, level=2.0)
    assert arbitrate(a, b, policy) is b
    assert arbitrate(b, a, policy) is b


def test_arbitrate_tie_goes_to_first_argument():
    policy = ArbitrationPolicy()
    a = frame("cam_a", conf=0.8, level=1.0)
    b = frame("cam_b", conf=0.8, level=2.0)
    assert arbitrate(a, b, policy) is a


def test_arbitrate_zeroes_below_floor():
    policy = ArbitrationPolicy(min_confidence=0.5)
    low = frame("cam_a", conf=0.4, level=3.0)
    out = arbitrate(low, None, policy)
    assert not out.valid_face
    assert not out.au.any()
    assert out.confidence == 0.4  # the losing confidence is kept for telemetry
    # the floor is strict: exactly 0.5 does not clear it
    out = arbitrate(frame("cam_a", conf=0.5), None, policy)
    assert not out.valid_face


def test_arbitrate_contract_checks():
    policy = ArbitrationPolicy()
    with pytest.raises(ContractError):
        arbitrate(None, None, policy)
    with pytest.raises(ContractError):
        arbitrate(frame("cam_a", t=0.0), frame("cam_b", t=1.0), policy)


def test_aggregate_reducers():
    policy = ArbitrationPolicy()
    frames = [frame(t=0.0, level=1.0), frame(t=1 / 30, level=3.0)]
    assert aggregate(frames, policy, 0).au[0] == 2.0
    last = ArbitrationPolicy(aggregator="last")
    assert aggregate(frames, last, 0).au[0] == 3.0
    mx = ArbitrationPolicy(aggregator="max")
    assert aggregate(frames, mx, 0).au[0] == 3.0


def test_aggregate_gap_and_invalid_frames():
    policy = ArbitrationPolicy()
    ts = aggregate([], policy, 4, trial_start=10.0)
    assert ts.index == 4 and not ts.valid_face and not ts.au.any()
    assert ts.t_start == 10.0 + 4 / 3.0
    dead = [frame(level=2.0, valid=False)]
    assert not aggregate(dead, policy, 0).valid_face


# ---------------------------------------------------------------------------
# Timestep builder


def test_builder_single_source_grid():
    builder = TimestepBuilder()
    emitted = []
    for k in range(25):
        emitted.extend(builder.add(frame(t=k / 30.0, level=float(k % 5))))
    emitted.extend(builder.finish())
    assert [ts.index for ts in emitted] == [0, 1, 2]
    # mean over ten frames of levels k % 5
    assert emitted[0].au[0] == np.mean([k % 5 for k in range(10)])
    assert emitted[2].valid_face  # 5 frames still aggregate


def test_builder_slot_rounding_beats_float_grid():
    # 20/30 s carries float error; round() must land it on slot 20.
    builder = TimestepBuilder()
    out = builder.add(frame(t=20 / 30.0))
    out += builder.finish()
    assert [ts.index for ts in out] == [0, 1, 2]
    assert out[2].valid_face


def test_builder_interleaving_invariance():
    frames_a = [frame("cam_a", t=k / 30.0, conf=0.8, level=1.0) for k in range(30)]
    frames_b = [frame("cam_b", t=k / 30.0, conf=0.9, level=3.0) for k in range(30)]

    def run(feeds):
        builder = TimestepBuilder()
        out = []
        for f in feeds:
            out.extend(builder.add(f))
        out.extend(builder.finish())
        return out

    ab = run([f for pair in zip(frames_a, frames_b) for f in pair])
    ba = run([f for pair in zip(frames_b, frames_a) for f in pair])
    # alternating 7-frame bursts: realistic producer skew
    bursts = []
    for lo in range(0, 30, 7):
        bursts.extend(frames_a[lo : lo + 7])
        bursts.extend(frames_b[lo : lo + 7])
    burst = run(bursts)
    assert len(ab) == len(ba) == len(burst) == 3
    for x, y, z in zip(ab, ba, burst):
        assert x.index == y.index == z.index
        assert np.array_equal(x.au, y.au) and np.array_equal(x.au, z.au)
        # cam_b has higher confidence everywhere, so its levels win
        assert x.au[0] == 3.0


def test_builder_gaps_are_zero_invalid():
    builder = TimestepBuilder()
    out = list(builder.add(frame(t=0.0)))
    out += builder.add(frame(t=35 / 30.0))  # skips timestep 1 partly, 2 fully
    out += builder.finish()
    assert [ts.index for ts in out] == [0, 1, 2, 3]
    assert out[2].index == 2 and not out[2].valid_face and not out[2].au.any()


def test_builder_duplicate_and_backward_frames():
    builder = TimestepBuilder()
    builder.add(frame(t=0.0, level=1.0))
    builder.add(frame(t=0.0, level=9.0))  # duplicate (slot, source): first wins
    assert builder.duplicate_frames == 1
    builder.add(frame(t=5 / 30.0))
    with pytest.raises(StreamIntegrityError):
        builder.add(frame(t=2 / 30.0))
    with pytest.raises(ContractError):
        TimestepBuilder(trial_start=10.0).add(frame(t=9.0))


def test_builder_rejects_frames_after_end_source():
    builder = TimestepBuilder()
    builder.add(frame("cam_a", t=0.0))
    builder.end_source("cam_a")
    with pytest.raises(StreamIntegrityError):
        builder.add(frame("cam_a", t=1 / 30.0))


def test_builder_end_source_releases_watermark():
    builder = TimestepBuilder()
    out = list(builder.add(frame("cam_b", t=0.0, conf=0.95)))
    for k in range(30):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    # cam_b stalls at slot 0, holding the watermark: nothing may flush yet
    assert out == []
    out.extend(builder.end_source("cam_b"))
    assert [ts.index for ts in out] == [0, 1]
    out.extend(builder.finish())
    assert [ts.index for ts in out] == [0, 1, 2]


def test_builder_drops_late_first_frame_of_a_new_source():
    # cam_b's first frame lands in timestep 0, which cam_a has already closed.
    builder = TimestepBuilder()
    out = []
    for k in range(60):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    assert [ts.index for ts in out] == [0, 1, 2, 3, 4]
    assert builder.add(frame("cam_b", t=0.0)) == []
    assert builder.late_frames == 1
    # the late source does not hold the watermark back
    for k in range(60, 71):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    assert [ts.index for ts in out] == [0, 1, 2, 3, 4, 5, 6]
    out.extend(builder.finish())
    assert [ts.index for ts in out] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert builder._pending == {}
    assert builder.late_frames == 1


def test_builder_finish_idempotent():
    builder = TimestepBuilder()
    builder.add(frame(t=0.0))
    assert len(builder.finish()) == 1
    assert builder.finish() == []


def test_frames_to_timesteps_matches_live_feed():
    rng = np.random.default_rng(3)
    frames = [
        frame(src, t=k / 30.0, conf=float(rng.uniform(0.3, 1.0)),
              level=float(rng.uniform(0, 5)))
        for k in range(40)
        for src in ("cam_a", "cam_b")
    ]
    batch = frames_to_timesteps(frames)
    builder = TimestepBuilder()
    live = []
    for f in frames:
        live.extend(builder.add(f))
    live.extend(builder.finish())
    assert len(batch) == len(live)
    for x, y in zip(batch, live):
        assert x.index == y.index and np.array_equal(x.au, y.au)
        assert x.valid_face == y.valid_face


# ---------------------------------------------------------------------------
# Stream formats


def stream_lines(frames, header=True):
    lines = []
    if header:
        lines.append(json.dumps({"catalog": list(AU_IDS)}))
    lines += [json.dumps(frame_to_obj(f)) for f in frames]
    return "\n".join(lines) + "\n"


def test_read_stream_jsonl_roundtrip(tmp_path):
    frames = [frame(t=k / 30.0, conf=0.7 + 0.01 * k, level=1.5) for k in range(5)]
    path = tmp_path / "frames.jsonl"
    assert write_frames_jsonl(path, frames) == 5
    stats = StreamStats()
    got = list(read_stream(path, "jsonl", stats=stats))
    assert stats.frames_read == 5
    assert stats.sources == {"cam_a"}
    for a, b in zip(frames, got):
        assert a.t == b.t and a.confidence == b.confidence
        assert np.array_equal(a.au, b.au)
        assert np.array_equal(a.occurrences, b.occurrences)


def test_read_stream_csv_roundtrip(tmp_path):
    frames = [frame(t=k / 30.0, conf=0.625, level=2.25) for k in range(4)]
    path = tmp_path / "frames.csv"
    assert write_frames_csv(path, frames) == 4
    got = list(read_stream(path, "csv"))
    assert len(got) == 4
    for a, b in zip(frames, got):
        assert a.t == b.t and a.confidence == b.confidence
        assert np.array_equal(a.au, b.au)


def test_read_stream_rejects_wrong_catalog():
    bad = json.dumps({"catalog": list(AU_IDS[::-1])}) + "\n"
    with pytest.raises(StreamFormatError):
        list(read_stream(io.StringIO(bad)))


def test_read_stream_rejects_unreadable_first_line():
    with pytest.raises(StreamFormatError):
        list(read_stream(io.StringIO("not json\n")))


def test_read_stream_error_budget():
    good = frame(t=0.0)
    lines = [json.dumps(frame_to_obj(good))] + ["{bad json"] * 3
    stats = StreamStats()
    got = list(read_stream(io.StringIO("\n".join(lines)), error_budget=5,
                           stats=stats))
    assert len(got) == 1 and stats.records_skipped == 3
    with pytest.raises(StreamFormatError) as info:
        list(read_stream(io.StringIO("\n".join(lines)), error_budget=2))
    assert "line 4" in str(info.value)


def test_read_stream_skips_integers_too_large_for_a_float():
    good = frame_to_obj(frame(t=0.0))
    lines = [json.dumps(good),
             json.dumps(dict(good, t=10**400)),
             json.dumps(dict(good, t=1.0, au=[10**400] + [0.0] * (N_AUS - 1)))]
    stats = StreamStats()
    got = list(read_stream(io.StringIO("\n".join(lines)), stats=stats))
    assert len(got) == 1
    assert stats.records_skipped == 2


def test_read_stream_backward_time_is_malformed():
    frames = [frame(t=1.0), frame(t=0.5)]
    stats = StreamStats()
    got = list(read_stream(io.StringIO(stream_lines(frames)), stats=stats))
    assert len(got) == 1
    assert stats.records_skipped == 1


def test_read_stream_clamps_and_counts():
    obj = frame_to_obj(frame(t=0.0))
    obj["au"][0] = 7.5
    stats = StreamStats()
    got = list(read_stream(io.StringIO(json.dumps(obj) + "\n"), stats=stats))
    assert got[0].au[0] == 5.0
    assert stats.values_clamped == 1


def test_csv_header_is_strict():
    with pytest.raises(StreamFormatError):
        list(read_stream(io.StringIO("a,b,c\n"), "csv"))
    assert CSV_HEADER[3] == "au01_int"
    assert CSV_HEADER[3 + N_AUS] == "au01_occ"


def test_unknown_format_rejected():
    with pytest.raises(ContractError):
        list(read_stream(io.StringIO(""), "parquet"))


# ---------------------------------------------------------------------------
# Annotations


def test_annotations_roundtrip(tmp_path):
    rows = {
        "p00_t00": {
            "participant_id": "p00",
            "error_type": "physical",
            "ground_truth": GroundTruth(54, 90, 54),
        },
        "p01_t02": {
            "participant_id": "p01",
            "error_type": "concept",
            "ground_truth": GroundTruth(80, 110, 81),
        },
    }
    path = tmp_path / "annotations.csv"
    write_annotations(path, rows)
    got = read_annotations(path)
    assert got.keys() == rows.keys()
    assert got["p00_t00"]["ground_truth"] == rows["p00_t00"]["ground_truth"]
    assert got["p01_t02"]["error_type"] == "concept"
    header = path.read_text().splitlines()[0].split(",")
    assert header == ANNOTATION_HEADER


def test_annotations_duplicate_trial_fatal(tmp_path):
    path = tmp_path / "annotations.csv"
    lines = [",".join(ANNOTATION_HEADER), "t0,p0,physical,1,2,1",
             "t0,p0,physical,3,4,3"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError):
        read_annotations(path)


def test_annotations_header_mismatch(tmp_path):
    path = tmp_path / "annotations.csv"
    path.write_text("trial,participant\n")
    with pytest.raises(StreamFormatError):
        read_annotations(path)
