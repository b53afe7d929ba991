"""Stream parsing, arbitration, the streaming timestep builder and the corpus reader."""

import csv
import hashlib
import io
import json
import logging
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from conftest import FIXTURES, frames_to_timesteps, timesteps_to_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from ausentinel import ingest

from ausentinel.core import (
    AU_IDS,
    MAX_TRIAL_S,
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
    frame_to_obj,
    read_annotations,
    read_corpus,
    read_stream,
    write_annotations,
    write_frames_csv,
    write_frames_jsonl,
)
from ausentinel.simgen import ErrorPlan, ScenarioSpec, generate, write_corpus


def frame(source="cam_a", t=0.0, conf=0.9, level=1.0):
    return AuFrame(
        source_id=source,
        t=t,
        au=[float(level)] * N_AUS,
        confidence=conf,
    )


def build(frames, policy=None, trial_start=0.0):
    """The timesteps of a builder fed `frames` in order, then finished."""
    builder = TimestepBuilder(policy, trial_start)
    return [ts for f in frames for ts in builder.add(f)] + builder.finish()


# ---------------------------------------------------------------------------
# Policy and arbitration (each tick of a timestep, inside the builder)


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
    a = frame("cam_a", conf=0.8, level=1.0)
    b = frame("cam_b", conf=0.9, level=2.0)
    for feed in ([a, b], [b, a]):
        (ts,) = build(feed)
        assert ts.valid_face and ts.au.tolist() == [2.0] * N_AUS


def test_arbitrate_tie_goes_to_first_source():
    # Ties go to the lexicographically first source id, whichever came first.
    a = frame("cam_a", conf=0.8, level=1.0)
    b = frame("cam_b", conf=0.8, level=2.0)
    for feed in ([a, b], [b, a]):
        (ts,) = build(feed)
        assert ts.au.tolist() == [1.0] * N_AUS


def test_arbitrate_zeroes_below_floor():
    policy = ArbitrationPolicy(min_confidence=0.5)
    (ts,) = build([frame("cam_a", conf=0.4, level=3.0)], policy)
    assert not ts.valid_face
    assert ts.au.tolist() == [0.0] * N_AUS
    # the floor is strict: exactly 0.5 does not clear it
    (ts,) = build([frame("cam_a", conf=0.5)], policy)
    assert not ts.valid_face
    # with two sources, the winner's confidence is the one held to the floor
    (ts,) = build([frame("cam_a", conf=0.3), frame("cam_b", conf=0.5)], policy)
    assert not ts.valid_face
    (ts,) = build([frame("cam_a", conf=0.3), frame("cam_b", conf=0.6)], policy)
    assert ts.valid_face


def test_aggregate_reducers():
    frames = [frame(t=0.0, level=1.0), frame(t=1 / 30, level=3.0)]
    assert build(frames)[0].au[0] == 2.0
    assert build(frames, ArbitrationPolicy(aggregator="last"))[0].au[0] == 3.0
    assert build(frames, ArbitrationPolicy(aggregator="max"))[0].au[0] == 3.0


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_aggregate_of_au_lists_matches_numpy_reducers(aggregator):
    # Frames carry lists; the timestep is a float64 array with the bits of
    # np.mean / np.max / the last row over the same rows.
    rng = np.random.default_rng(7)
    policy = ArbitrationPolicy(aggregator=aggregator)
    for k in range(1, 11):
        rows = rng.uniform(0.0, 5.0, (k, N_AUS))
        frames = [AuFrame("cam_a", j / 30, row.tolist(), 0.9) for j, row in enumerate(rows)]
        want = {"mean": np.mean(rows, axis=0), "max": np.max(rows, axis=0),
                "last": rows[-1]}[aggregator]
        (ts,) = build(frames, policy)
        assert isinstance(ts.au, np.ndarray) and ts.au.dtype == np.float64
        assert ts.au.tobytes() == want.tobytes()


def test_aggregate_gap_and_invalid_frames():
    # Timesteps 0-3 hold no frame: each is a zero vector flagged invalid.
    out = build([frame(t=10.0 + 4 / 3.0)], trial_start=10.0)
    ts = out[3]
    assert ts.index == 3 and not ts.valid_face and not ts.au.any()
    (dead,) = build([frame(level=2.0, conf=0.2)])
    assert not dead.valid_face
    # A sub-floor tick is left out of the mean, not averaged in as zeros.
    (ts,) = build([frame(t=0.0, level=1.0), frame(t=1 / 30, conf=0.2, level=3.0),
                   frame(t=2 / 30, level=2.0)])
    assert ts.valid_face and ts.au[0] == 1.5


def test_aggregate_takes_one_timesteps_rows():
    policy = ArbitrationPolicy(frames_per_timestep=2)
    empty = aggregate(np.zeros((0, N_AUS)), policy)
    assert empty.dtype == np.float64 and empty.shape == (N_AUS,) and not empty.any()
    rows = np.arange(2.0 * N_AUS).reshape(2, N_AUS)
    last = aggregate(rows, ArbitrationPolicy(frames_per_timestep=2, aggregator="last"))
    assert last.tobytes() == rows[1].tobytes()
    assert not np.shares_memory(last, rows)  # no view keeps a trial's rows alive
    with pytest.raises(ContractError, match="3 ticks in one timestep"):
        aggregate(np.zeros((3, N_AUS)), policy)


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
    assert builder.stats.duplicate_frames == 1
    builder.add(frame(t=5 / 30.0))
    with pytest.raises(StreamIntegrityError):
        builder.add(frame(t=2 / 30.0))
    with pytest.raises(ContractError):
        TimestepBuilder(trial_start=10.0).add(frame(t=9.0))


def test_builder_rejects_frames_after_finish():
    builder = TimestepBuilder()
    builder.add(frame("cam_a", t=0.0))
    builder.finish()
    with pytest.raises(StreamIntegrityError):
        builder.add(frame("cam_a", t=1 / 30.0))
    with pytest.raises(StreamIntegrityError):
        builder.add(frame("cam_b", t=1 / 30.0))


def test_builder_skew_bound_releases_a_stalled_source():
    builder = TimestepBuilder()
    skew = round(ingest.MAX_SKEW_S * 30)
    out = list(builder.add(frame("cam_b", t=0.0, conf=0.95, level=2.0)))
    for k in range(skew + 10):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    # cam_a is less than a timestep past cam_b's slot plus the skew: cam_b
    # still holds the watermark, so nothing may flush yet
    assert out == []
    out.extend(builder.add(frame("cam_a", t=(skew + 10) / 30.0)))
    assert [ts.index for ts in out] == [0]
    assert out[0].au[0] == np.mean([2.0] + [1.0] * 9)  # cam_b won tick 0
    for k in range(skew + 11, 3 * skew):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    # the stalled cam_b holds nothing back: cam_a's lead is the only bound
    assert [ts.index for ts in out] == list(range((2 * skew - 1) // 10))
    # cam_b's frames for emitted timesteps are late; later ones still count
    assert builder.add(frame("cam_b", t=1 / 30.0)) == []
    assert builder.stats.late_frames == 1
    # cam_b catching up releases what cam_a alone could not
    out.extend(builder.add(frame("cam_b", t=(3 * skew - 1) / 30.0, conf=0.95, level=2.0)))
    assert [ts.index for ts in out] == list(range((3 * skew - 1) // 10))
    out.extend(builder.finish())
    assert [ts.index for ts in out] == list(range(3 * skew // 10))
    assert out[-1].au[0] == np.mean([1.0] * 9 + [2.0])
    assert builder.stats.late_frames == 1


def test_builder_drops_late_first_frame_of_a_new_source():
    # cam_b's first frame lands in timestep 0, which cam_a has already closed.
    builder = TimestepBuilder()
    out = []
    for k in range(60):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    assert [ts.index for ts in out] == [0, 1, 2, 3, 4]
    assert builder.add(frame("cam_b", t=0.0)) == []
    assert builder.stats.late_frames == 1
    # the late source does not hold the watermark back
    for k in range(60, 71):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    assert [ts.index for ts in out] == [0, 1, 2, 3, 4, 5, 6]
    out.extend(builder.finish())
    assert [ts.index for ts in out] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert builder._pending == {}
    assert builder.stats.late_frames == 1


def test_builder_finish_idempotent():
    builder = TimestepBuilder()
    builder.add(frame(t=0.0))
    assert len(builder.finish()) == 1
    assert builder.finish() == []


def test_builder_dead_camera_does_not_stall_the_stream():
    # Two cameras for 1 s, then 60 s of cam_a alone: the watermark once
    # stayed at cam_b's last slot, so 2 timesteps came out and 1 810 slots
    # waited for end of input.
    builder = TimestepBuilder()
    out = []
    for k in range(30):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
        out.extend(builder.add(frame("cam_b", t=k / 30.0)))
    for k in range(30, 30 + 60 * 30):
        out.extend(builder.add(frame("cam_a", t=k / 30.0)))
    assert [ts.index for ts in out] == list(range(179))
    assert len(builder._pending) == 40  # one second of ticks plus a timestep
    assert builder.stats.late_frames == 0


def test_builder_dead_camera_drains_once_per_timestep(monkeypatch):
    # The repro above: cam_b's last slot keeps the source furthest behind
    # short of every later timestep, so only cam_a's lead can release one,
    # once per timestep. A drain on every cam_a frame emitted nothing nine
    # times in ten.
    frames = [frame(src, t=k / 30.0, conf=0.9 if src == "cam_a" else 0.8, level=k % 7)
              for k in range(30) for src in ("cam_a", "cam_b")]
    frames += [frame("cam_a", t=k / 30.0, level=k % 7) for k in range(30, 30 + 60 * 30)]
    drains = []
    real = TimestepBuilder._drain
    monkeypatch.setattr(TimestepBuilder, "_drain",
                        lambda self: drains.append(1) or real(self))
    builder = TimestepBuilder()
    out = [ts for f in frames for ts in builder.add(f)]
    assert [ts.index for ts in out] == list(range(179))
    assert len(drains) <= len(out) + 5
    out += builder.finish()
    # The whole-trial column path shares no code with the builder's drain.
    au, valid = ingest._columns_to_matrix(
        ingest._source_ranks([f.source_id for f in frames]),
        np.array([f.t for f in frames]), np.array([f.confidence for f in frames]),
        np.array([f.au for f in frames]), ArbitrationPolicy(), 0.0, StreamStats())
    assert len(out) == len(au) == 183
    ours_au, ours_valid = timesteps_to_matrix(out)
    assert ours_au.tobytes() == au.tobytes()
    assert ours_valid.tolist() == valid.tolist()


def test_builder_lockstep_cameras_drain_once_per_timestep(monkeypatch):
    # Two cameras in lockstep, cam_a first at every tick. The drain once
    # kept the first-inserted source as the one behind on a tie, so the next
    # cam_a frame always drained and emitted nothing: 2 drains per timestep.
    frames = [frame(src, t=k / 30.0, conf=0.6 + 0.3 * ((k + (src == "cam_b")) % 2),
                    level=(k + 3 * (src == "cam_b")) % 7)
              for k in range(600) for src in ("cam_a", "cam_b")]
    drains = []
    real = TimestepBuilder._drain
    monkeypatch.setattr(TimestepBuilder, "_drain",
                        lambda self: drains.append(1) or real(self))
    builder = TimestepBuilder()
    out = [ts for f in frames for ts in builder.add(f)]
    assert [ts.index for ts in out] == list(range(59))
    assert len(drains) <= len(out) + 2
    out += builder.finish()
    want = frames_to_timesteps(frames)
    assert len(out) == len(want) == 60
    for ours, theirs in zip(out, want):
        assert ours.index == theirs.index and ours.valid_face is theirs.valid_face
        assert ours.au.tobytes() == theirs.au.tobytes()


def test_builder_refuses_a_first_frame_far_past_trial_start():
    gap = ingest.MAX_GAP_S
    # Exactly MAX_GAP_S past the start is allowed and opens its gap.
    builder = TimestepBuilder(trial_start=2.5)
    assert len(builder.add(frame(t=2.5 + gap)) + builder.finish()) == round(gap * 3) + 1
    # Further is refused before anything is held (a first frame at t=1e9
    # once meant ~3e9 gap timesteps; the test stays at sizes that fail
    # cheaply if the rule goes). A later source may still join past the bound.
    for t in (2.5 + gap + 0.5, 1e4, 1e308):  # 1e308 overflowed round(): OverflowError
        builder = TimestepBuilder(trial_start=2.5)
        with pytest.raises(ContractError, match="first frame"):
            builder.add(frame(t=t))
        assert builder._pending == {} and builder._last_slot == {}
    builder = TimestepBuilder(trial_start=2.5)
    builder.add(frame("cam_a", t=gap))
    builder.add(frame("cam_b", t=gap + 3.0))
    assert builder.stats.late_frames == 0


@st.composite
def builder_feeds(draw):
    """Any frame sequence: sources, slots, jitter and order all free."""
    fpt = draw(st.sampled_from((1, 3, 10)))
    policy = ArbitrationPolicy(frames_per_timestep=fpt)
    raw = draw(st.lists(st.tuples(st.sampled_from(("cam_a", "cam_b", "cam_c")),
                                  st.integers(0, 50 * fpt),
                                  st.sampled_from((0.0, 0.4, -0.4))),
                        max_size=150))
    if draw(st.booleans()):
        # Read each drawn slot as a step from the source's previous one, so
        # each source keeps its order (most frames of a free feed run
        # backward) and moves at its own pace, stalls included.
        step = draw(st.sampled_from((1, 3 * fpt, 50 * fpt)))
        at = {}
        for i, (src, slot, jitter) in enumerate(raw):
            at[src] = at.get(src, 0) + slot % step
            raw[i] = (src, at[src], jitter)
    frames = [frame(src, t=(slot + jitter) / policy.fps, level=float(slot % 7))
              for src, slot, jitter in raw]
    return policy, frames


@settings(max_examples=200, deadline=None)
@given(feed=builder_feeds())
def test_builder_indices_and_backlog_are_bounded_for_any_input(feed):
    policy, frames = feed
    builder = TimestepBuilder(policy)
    # one second of ticks plus one timestep
    bound = round(ingest.MAX_SKEW_S * policy.fps) + policy.frames_per_timestep
    out, accepted = [], []
    for f in frames:
        late = builder.stats.late_frames
        try:
            out.extend(builder.add(f))
        except StreamIntegrityError:
            continue  # a slot ran backward within its source
        if builder.stats.late_frames == late:
            accepted.append(round(f.t * policy.fps))
        assert len(builder._pending) <= bound
    out.extend(builder.finish())
    assert [ts.index for ts in out] == list(range(len(out)))
    assert len(out) == (max(accepted) // policy.frames_per_timestep + 1 if accepted else 0)
    assert builder._pending == {}


@st.composite
def skewed_feeds(draw):
    """Per-source frame lists delivered in an order within the skew bound.

    Each frame arrives at `slot + delay` (delay up to the skew, and 0 for a
    source's first frame), kept non-decreasing within its source; equal
    arrival keys go in a drawn source order.
    """
    fpt = draw(st.sampled_from((1, 3, 10)))
    policy = ArbitrationPolicy(frames_per_timestep=fpt,
                               aggregator=draw(st.sampled_from(AGGREGATORS)))
    skew = round(ingest.MAX_SKEW_S * policy.fps)
    sources = draw(st.lists(st.sampled_from(("cam_a", "cam_b", "cam_c")),
                            min_size=1, max_size=3, unique=True))
    frames, keyed = [], []
    for rank, src in enumerate(sources):
        ticks = sorted(draw(st.lists(
            st.tuples(st.integers(0, 12 * fpt), st.sampled_from((0.0, 0.4, -0.4))),
            min_size=1, max_size=40)))
        delays = draw(st.lists(st.integers(0, skew), min_size=len(ticks),
                               max_size=len(ticks)))
        arrival = -1
        for seq, ((tick, jitter), delay) in enumerate(zip(ticks, delays)):
            f = frame(src, t=(tick + jitter) / policy.fps,
                      conf=draw(st.sampled_from((0.3, 0.6, 0.6, 0.9))),
                      level=draw(st.sampled_from((0.0, 1.25, 2.5, 5.0))))
            slot = round(f.t * policy.fps)
            arrival = max(arrival, slot + (delay if seq else 0))
            frames.append(f)
            keyed.append((arrival, rank, seq, f))
    order = draw(st.permutations(range(len(sources))))
    keyed.sort(key=lambda k: (k[0], order[k[1]], k[2]))
    return policy, frames, [k[3] for k in keyed]


@settings(max_examples=200, deadline=None)
@given(feed=skewed_feeds())
def test_builder_interleaving_within_the_skew_matches_the_oracle(feed):
    policy, frames, arrived = feed
    want = frames_to_timesteps(frames, policy)
    builder = TimestepBuilder(policy)
    got = []
    for f in arrived:
        got.extend(builder.add(f))
    got.extend(builder.finish())
    assert builder.stats.late_frames == 0
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert ours.index == theirs.index and ours.valid_face is theirs.valid_face
        assert ours.au.tobytes() == theirs.au.tobytes()


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
    for a, b in zip(frames, got):
        assert a.t == b.t and a.confidence == b.confidence
        assert np.array_equal(a.au, b.au)


def test_read_stream_csv_roundtrip(tmp_path):
    frames = [frame(t=k / 30.0, conf=0.625, level=2.25) for k in range(4)]
    path = tmp_path / "frames.csv"
    assert write_frames_csv(path, frames) == 4
    got = list(read_stream(path, "csv"))
    assert len(got) == 4
    for a, b in zip(frames, got):
        assert a.t == b.t and a.confidence == b.confidence
        assert np.array_equal(a.au, b.au)


# The writers' bytes for one small simgen trial, `occ` column included.
WRITER_SHA256 = {
    "jsonl": "87ee4a6a367e1dc4d23858c3b36d6c15a8b6446e2bd1766f13a546ecc41d62ea",
    "csv": "b769bad07b40dbb73ae6912baa4ea80b10dbe97833a2a5d4930c9d587cdef189",
}


def test_writers_reproduce_pinned_bytes(tmp_path):
    spec = ScenarioSpec(participants=1, trials_per_participant=1, seed=3,
                        errors=(ErrorPlan("physical", 1.0),), trial_len_s=3.0)
    frames = list(generate(spec).trials[0].frames())
    assert any(v > ingest.OCCURRENCE_THRESHOLD for f in frames for v in f.au)
    for fmt, write in (("jsonl", write_frames_jsonl), ("csv", write_frames_csv)):
        path = tmp_path / f"frames.{fmt}"
        assert write(path, frames) == 180
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITER_SHA256[fmt]
    # `occ` is the AU value strictly above the threshold.
    edge = AuFrame("cam_a", 0.0, [1.0, 1.0000000000000002] + [0.0] * 15, 0.5)
    assert frame_to_obj(edge)["occ"][:3] == [False, True, False]


_WRITTEN_AU = st.one_of(
    st.floats(0.0, 5.0),
    st.sampled_from([-0.0, 5.0, 5.000000000000001, -5e-324, math.nan, math.inf]),
    st.floats(),  # any float, NaN and infinities included
)


@st.composite
def written_frames(draw):
    """Any frames the writers take: free sources, times, values, order."""
    sources = st.sampled_from(["cam_a", "cam_b", ' a,"b" ', ""])
    return [AuFrame(draw(sources), draw(st.floats(0.0, 5.0)),
                    draw(st.lists(_WRITTEN_AU, min_size=N_AUS, max_size=N_AUS)),
                    draw(st.floats(0.0, 1.0)))
            for _ in range(draw(st.integers(0, 30)))]


def assert_formats_read_back_alike(frames, directory=None):
    """Write `frames` as JSONL and as CSV, to files in `directory` or else to
    in-memory text streams, and read both back: frames, timesteps and
    counters must agree."""
    reads = []
    for fmt, write in (("jsonl", write_frames_jsonl), ("csv", write_frames_csv)):
        if directory is None:
            source = io.StringIO(newline="")  # as read_stream opens a path
            write(source, frames)
            source.seek(0)
        else:
            source = directory / f"frames.{fmt}"
            write(source, frames)
        stats = StreamStats()
        got = list(read_stream(source, fmt, error_budget=len(frames), stats=stats))
        assert all(type(v) is float for f in got for v in f.au)
        builder = TimestepBuilder()
        timesteps = [ts for f in got for ts in builder.add(f)] + builder.finish()
        reads.append((
            [(f.source_id, f.t, f.confidence, f.au) for f in got],
            [(ts.index, ts.valid_face, ts.au.tobytes()) for ts in timesteps],
            vars(stats),
        ))
    jsonl, csv_ = reads
    # float == float cannot tell -0.0 from 0.0; the timestep bytes can.
    assert jsonl == csv_


@settings(max_examples=100, deadline=None)
@given(frames=written_frames())
def test_jsonl_and_csv_streams_read_back_alike(frames):
    assert_formats_read_back_alike(frames)


def test_jsonl_and_csv_files_read_back_alike(tmp_path):
    # The property's case on files: a source the CSV writer quotes, values
    # to clamp or skip, and times out of order.
    edges = [-0.0, 5.000000000000001, -5e-324, math.nan, math.inf, 2.5]
    frames = [AuFrame(src, t, [edges[(k + i) % len(edges)] for i in range(N_AUS)], 0.75)
              for k, (src, t) in enumerate([(' a,"b" ', 0.1), ("", 0.0), ("cam_a", 0.2),
                                            ("cam_b", 0.05)])]
    frames.append(AuFrame("cam_a", 0.3, [1.0] * N_AUS, 0.9))
    assert_formats_read_back_alike(frames, tmp_path)


def test_read_stream_rejects_wrong_catalog():
    # Not the canonical list, or not a list at all (once a TypeError).
    for catalog in (list(AU_IDS[::-1]), 5, None):
        bad = json.dumps({"catalog": catalog}) + "\n"
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


def test_a_negative_error_budget_is_refused(tmp_path):
    # It once acted as a budget of 0.
    with pytest.raises(ContractError, match="error_budget must be >= 0, got -1"):
        list(read_stream(io.StringIO(""), error_budget=-1))
    with pytest.raises(ContractError, match="error_budget must be >= 0, got -1"):
        read_corpus(tmp_path, error_budget=-1)


def test_error_budget_counts_each_stream_on_a_shared_stats():
    # Both live-lock streams hold six bad lines. On one StreamStats the second
    # stream's budget counts only its own skips, so neither fails at 10.
    stats = StreamStats()
    for fmt in ("jsonl", "csv"):
        n = sum(1 for _ in read_stream(FIXTURES / "live_lock" / f"stream.{fmt}", fmt,
                                       error_budget=10, stats=stats))
        assert n == 1200
    assert (stats.frames_read, stats.records_skipped) == (2400, 12)
    with pytest.raises(StreamFormatError, match=r"\(6 malformed records\)"):
        list(read_stream(FIXTURES / "live_lock" / "stream.jsonl", error_budget=5,
                         stats=stats))


def test_read_stream_skips_integers_too_large_for_a_float():
    good = frame_to_obj(frame(t=0.0))
    lines = [json.dumps(good),
             json.dumps(dict(good, t=10**400)),
             json.dumps(dict(good, t=1.0, au=[10**400] + [0.0] * (N_AUS - 1)))]
    stats = StreamStats()
    got = list(read_stream(io.StringIO("\n".join(lines)), stats=stats))
    assert len(got) == 1
    assert stats.records_skipped == 2


def test_read_stream_skips_a_record_that_is_not_an_object(caplog):
    # Each decodes as JSON, but to a list or a number: one skip apiece.
    good = json.dumps(frame_to_obj(frame(t=0.0)))
    stats = StreamStats()
    with caplog.at_level("WARNING"):
        got = list(read_stream(io.StringIO(f"{good}\n[1, 2]\n3\n"), stats=stats))
    assert (len(got), stats.records_skipped) == (1, 2)
    assert [r.getMessage() for r in caplog.records] == [
        "skipping malformed record at line 2: record is not an object",
        "skipping malformed record at line 3: record is not an object"]


def test_read_stream_passes_over_blank_lines_uncounted(caplog):
    # Blank and whitespace-only lines after the first record are no record:
    # nothing is skipped, and line numbers still count them.
    good = [json.dumps(frame_to_obj(frame(t=k / 30.0))) for k in range(2)]
    text = f"{good[0]}\n\n  \t\n{good[1]}\n \n{{bad\n"
    stats = StreamStats()
    with caplog.at_level("WARNING"):
        got = list(read_stream(io.StringIO(text), stats=stats))
    assert [f.t for f in got] == [0.0, 1 / 30.0]
    assert (stats.frames_read, stats.records_skipped) == (2, 1)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "skipping malformed record at line 6"]


# Lines that once crashed the reader: an integer past Python's digit limit
# (a plain ValueError) and nesting deeper than the decoder recurses.
HUGE_INT_LINE = '{"source_id": "cam_a", "t": ' + "9" * 5000 + "}"
DEEP_LINE = "[" * 200_000


def test_read_stream_skips_lines_the_decoder_cannot_take():
    good = [json.dumps(frame_to_obj(frame(t=k / 30.0))) for k in range(4)]
    lines = good[:2] + [HUGE_INT_LINE, DEEP_LINE] + good[2:]
    stats = StreamStats()
    got = list(read_stream(io.StringIO("\n".join(lines) + "\n"), stats=stats))
    assert [f.t for f in got] == [k / 30.0 for k in range(4)]
    assert stats.records_skipped == 2
    for first in (HUGE_INT_LINE, DEEP_LINE):
        with pytest.raises(StreamFormatError, match="unreadable first record"):
            list(read_stream(io.StringIO(first + "\n" + good[0] + "\n")))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_read_stream_time_jump_is_malformed(fmt):
    # The latest time yielded is 1.0 s (cam_b); a record may run MAX_GAP_S
    # past it, not further. A rejected record does not move the latest time.
    objs = [frame_to_obj(frame("cam_a", t=k / 30.0)) for k in range(30)]
    objs.append(frame_to_obj(frame("cam_b", t=1.0)))
    objs.append(dict(objs[0], t=1.0 + ingest.MAX_GAP_S + 0.5))
    objs.append(dict(objs[0], t=1.0 + ingest.MAX_GAP_S))
    objs.append(dict(objs[0], t=1.0 + 2 * ingest.MAX_GAP_S + 0.5))
    stats = StreamStats()
    got = list(read_stream(io.StringIO(stream_text(objs, fmt)), fmt, stats=stats))
    assert [f.t for f in got[-2:]] == [1.0, 1.0 + ingest.MAX_GAP_S]
    assert stats.frames_read == 32 and stats.records_skipped == 2


def test_time_jump_cannot_flood_the_builder():
    # 30 frames, then one at t=3000: a single add() once returned 8 998
    # timesteps, and t=1e6 would have asked for ~3 M.
    objs = [frame_to_obj(frame(t=k / 30.0)) for k in range(30)]
    objs += [dict(objs[0], t=3000.0), dict(objs[0], t=1e6), dict(objs[0], t=1.0)]
    stats = StreamStats()
    builder = TimestepBuilder()
    out = []
    for f in read_stream(io.StringIO(stream_text(objs, "jsonl")), stats=stats):
        step = builder.add(f)
        assert len(step) <= ingest.MAX_GAP_S * 3
        out.extend(step)
    out.extend(builder.finish())
    assert stats.records_skipped == 2
    assert [ts.index for ts in out] == [0, 1, 2, 3]


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


def stream_text(objs, fmt):
    """Frame records (`frame_to_obj` dicts, possibly invalid) as a stream."""
    if fmt == "jsonl":
        return "".join(json.dumps(obj) + "\n" for obj in objs)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for obj in objs:
        writer.writerow([obj["source_id"], repr(obj["t"]), repr(obj["confidence"])]
                        + [repr(v) for v in obj["au"]] + [int(v) for v in obj["occ"]])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("bad_t", [float("nan"), float("inf"), float("-inf")])
def test_read_stream_non_finite_time_is_malformed(fmt, bad_t):
    objs = [frame_to_obj(frame(t=k / 30.0)) for k in range(3)]
    objs.insert(2, dict(objs[0], t=bad_t))
    stats = StreamStats()
    got = list(read_stream(io.StringIO(stream_text(objs, fmt)), fmt, stats=stats))
    assert [f.t for f in got] == [0.0, 1 / 30.0, 2 / 30.0]
    assert stats.records_skipped == 1 and stats.frames_read == 3


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_values_clamped_counts_yielded_records_only(fmt):
    objs = [frame_to_obj(frame(t=k / 30.0)) for k in range(3)]
    hot = [7.5] + objs[0]["au"][1:]
    objs.append(dict(objs[1], au=hot, confidence=1.5))  # confidence out of range
    objs.append(dict(objs[0], au=hot))  # time runs backward
    stats = StreamStats()
    got = list(read_stream(io.StringIO(stream_text(objs, fmt)), fmt, stats=stats))
    assert len(got) == 3
    assert stats.values_clamped == 0 and stats.records_skipped == 2


def test_csv_header_is_strict():
    with pytest.raises(StreamFormatError):
        list(read_stream(io.StringIO("a,b,c\n"), "csv"))
    assert CSV_HEADER[3] == "au01_int"
    assert CSV_HEADER[3 + N_AUS] == "au01_occ"


def whole_stream_csv(lines, error_budget, stats):
    """The CSV reader as one `csv.reader` over the whole stream.

    This is the loop `ingest._read_csv` ran before it split plain lines
    itself, with one change that both keep: a record the parser refuses is
    a malformed record (and a header it refuses a bad header), not a crash.
    The budget rule is stated here too: every skip is counted and logged,
    and the one past `error_budget` ends the stream.
    """
    logger = logging.getLogger("ausentinel.ingest")
    skipped = 0

    def skip(line_no, exc):
        nonlocal skipped
        skipped += 1
        stats.records_skipped += 1
        logger.warning("skipping malformed record at line %d: %s", line_no, exc)
        if skipped > error_budget:
            raise StreamFormatError(f"error budget exceeded ({skipped} malformed records)",
                                    line_no=line_no)

    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error:
        header = None
    if header is None or [h.strip() for h in header] != CSV_HEADER:
        raise StreamFormatError(
            "CSV header does not match the canonical AU ordering", line_no=1
        )
    n_columns = len(CSV_HEADER)
    last_t, latest = {}, None
    line_no = 1
    while True:
        line_no += 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            skip(line_no, exc)
            continue
        if not row:
            continue
        clamped = stats.values_clamped
        try:
            if len(row) != n_columns:
                raise ContractError(f"expected {n_columns} columns, got {len(row)}")
            src = row[0]
            t = float(row[1])
            frame = AuFrame(src, t, ingest.as_au_vector(row[3 : 3 + N_AUS], stats),
                            float(row[2]))
            prev = last_t.get(src)
            if prev is not None and t < prev:
                raise ContractError(f"time ran backward for {src}")
            if latest is not None and t - latest > ingest.MAX_GAP_S:
                raise ContractError(f"time jumped {t - latest:.6g} s ahead")
        except (ContractError, TypeError, ValueError) as exc:
            stats.values_clamped = clamped
            skip(line_no, exc)
            continue
        last_t[src] = t
        if latest is None or t > latest:
            latest = t
        stats.frames_read += 1
        yield frame


_CSV_ALPHABET = ',"\r\n\x00 0123456789abcz'
_CSV_ENDINGS = st.sampled_from(["\r\n", "\n", "\r", ""])


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def csv_streams(draw):
    """CSV lines: records of the canonical shape with short or long numbers,
    fields quoted or swapped for text over `_CSV_ALPHABET`, lines of that
    text alone, any of the line endings or none, and a header that is
    usually right."""
    header = list(CSV_HEADER)
    if draw(st.integers(0, 4)) == 0:
        header[draw(st.integers(0, len(header) - 1))] = draw(st.text(_CSV_ALPHABET, max_size=6))
    quote = draw(st.sampled_from([(), (0,), (0, 5, 36)]))
    lines = [",".join(_quoted(h) if i in quote else h for i, h in enumerate(header))
             + draw(_CSV_ENDINGS)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # AU cells, cheaply
    text = st.text(_CSV_ALPHABET, max_size=12)
    for k in range(draw(st.integers(0, 25))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append(draw(text) + draw(_CSV_ENDINGS))
            continue
        fields = [draw(st.sampled_from(["cam_a", "cam_b", " cam_a"])),
                  repr(k / 30.0 + draw(st.sampled_from([0.0] * 6 + [-1.0, 700.0]))),
                  draw(st.sampled_from(["0.9", "0.9", "0.4", "1.5"]))]
        fields += [rng.choice(["0.5", "1.25", "-0.0", "7.5", repr(rng.uniform(0.0, 5.0))])
                   for _ in range(N_AUS)] + ["0"] * N_AUS
        if draw(st.integers(0, 9)) == 0:
            fields[draw(st.integers(3, 2 + N_AUS))] = draw(st.sampled_from(["nan", "1e400"]))
        for _ in range(draw(st.integers(0, 3)) if kind == 1 else 0):
            at = draw(st.integers(0, len(fields) - 1))
            change = draw(st.integers(0, 3))
            if change == 0:
                fields[at] = _quoted(fields[at])
            elif change == 1:
                fields[at] = draw(text)
            elif change == 2:
                fields[at] = _quoted(draw(text))
            else:
                del fields[at]
        lines.append(",".join(fields) + draw(_CSV_ENDINGS))
    return lines


def _read_csv_lines(read, lines, budget):
    """What one CSV reader makes of `lines`: frames (by repr, so -0.0 and NaN
    count), counters and warnings, or the exception that ended it."""
    logger = logging.getLogger("ausentinel.ingest")
    handler = _ListHandler()
    logger.addHandler(handler)
    stats = StreamStats()
    frames = []
    try:
        for f in read(iter(lines), budget, stats):
            frames.append(repr((f.source_id, f.t, f.confidence, f.au)))
        error = None
    except StreamFormatError as exc:
        error = str(exc)
    finally:
        logger.removeHandler(handler)
    return frames, vars(stats), handler.messages, error


@settings(max_examples=300, deadline=None)
@given(lines=csv_streams(), budget=st.sampled_from([0, 3, 100]),
       size_limit=st.sampled_from([None, None, 120, 20]))
def test_csv_reader_matches_one_whole_stream_csv_reader(lines, budget, size_limit):
    # A small field size limit sends lines past it to csv.reader and makes
    # it refuse some of their records.
    saved = csv.field_size_limit()
    if size_limit is not None:
        csv.field_size_limit(size_limit)
    try:
        got = _read_csv_lines(
            lambda lines, budget, stats: read_stream(lines, "csv", error_budget=budget,
                                                     stats=stats),
            lines, budget)
        want = _read_csv_lines(whole_stream_csv, lines, budget)
    finally:
        csv.field_size_limit(saved)
    assert got == want


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_undecodable_bytes_in_a_stream_file(tmp_path, fmt):
    # A 0xff byte inside a number leaves a malformed record; inside the
    # source id it stays a U+FFFD character of a good record.
    objs = [frame_to_obj(frame(t=k / 30.0)) for k in range(4)]
    data = stream_text(objs, fmt).encode()
    at = data.index(b"0.9", data.index(b"cam_a", data.index(b"cam_a") + 1))
    data = data[:at] + b"\xff" + data[at + 1:]  # the second record's confidence
    at = data.rindex(b"cam_a")
    data = data[:at + 3] + b"\xff" + data[at + 4:]  # the last record's source id
    path = tmp_path / f"frames.{fmt}"
    path.write_bytes(data)
    stats = StreamStats()
    got = list(read_stream(path, fmt, stats=stats))
    assert [f.source_id for f in got] == ["cam_a", "cam_a", "cam\ufffda"]
    assert stats.records_skipped == 1


def test_unknown_format_rejected():
    with pytest.raises(ContractError):
        list(read_stream(io.StringIO(""), "parquet"))


# ---------------------------------------------------------------------------
# Corpus trial reader: whole-trial columns against the builder oracle


def read_trial_both(path, policy=None, trial_start=0.0):
    """Read one trial file as the oracle (read_stream, then the live builder)
    and as read_corpus does; each side's (AU matrix, valid_face mask) or
    exception, stats and logged warnings."""
    policy = policy or ArbitrationPolicy()
    logger = logging.getLogger("ausentinel.ingest")

    def run(read):
        handler = _ListHandler()
        logger.addHandler(handler)
        stats = StreamStats()
        try:
            result = read(stats)
        except Exception as exc:  # both sides must fail alike
            result = exc
        finally:
            logger.removeHandler(handler)
        return result, stats, handler.messages

    want = run(lambda stats: timesteps_to_matrix(frames_to_timesteps(
        list(read_stream(path, "jsonl", stats=stats)), policy, trial_start, stats)))
    got = run(lambda stats: ingest._columns_to_matrix(
        *ingest._read_trial(path, stats, 10), policy, trial_start, stats))
    return want, got


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def assert_same_reads(want, got):
    (want_out, want_stats, want_log), (got_out, got_stats, got_log) = want, got
    if isinstance(want_out, Exception):
        assert type(got_out) is type(want_out)
        assert str(got_out) == str(want_out)
    else:
        assert not isinstance(got_out, Exception), got_out
        (ours_au, ours_valid), (theirs_au, theirs_valid) = got_out, want_out
        assert ours_au.dtype == np.float64 and ours_au.shape == theirs_au.shape
        assert ours_au.tobytes() == theirs_au.tobytes()
        assert ours_valid.dtype == bool and ours_valid.tolist() == theirs_valid.tolist()
    assert vars(got_stats) == vars(want_stats)
    assert got_log == want_log


# Edge values: -0.0, both range ends, values to clamp on either side; the
# confidence floor (0.5) itself, just above it, and exact ties.
AU_EDGES = np.array([0.0, -0.0, 1 / 3, 2.5, 5.0, 5.5, -0.25, 4.999999])
CONF_EDGES = np.array([0.0, 0.2, 0.5, 0.5000001, 0.75, 0.75, 1.0])


def _bad_lines(good: dict, first: dict) -> list[str]:
    """Malformed lines of the kinds in tests/fixtures/live_lock, a time
    jump, and lines the JSON decoder refuses with other errors."""
    dump = json.dumps
    return [
        dump(dict(good, au=[float("nan")] + good["au"][1:])),
        dump(dict(good, au=good["au"][:16])),
        dump(dict(good, au="n/a")),
        '{"au":[0.1,0.2',
        dump(good) + " xyz",
        dump(dict(first, t=first["t"] - 0.01)),  # time runs backward
        # time jumps; a new source, so that no backward time shows it
        dump(dict(good, source_id="cam_z", t=good["t"] + 2 * ingest.MAX_GAP_S)),
        HUGE_INT_LINE,
        DEEP_LINE,
        # Decoded objects whose fields the column decoder cannot take.
        dump({key: value for key, value in good.items() if key != "source_id"}),
        dump(dict(good, t="x")),
        dump(dict(good, confidence=None)),
    ]


@st.composite
def trial_files(draw):
    """A random trial as a frame list plus bad lines to insert into it."""
    fpt = draw(st.sampled_from((1, 3, 10)))
    policy = ArbitrationPolicy(frames_per_timestep=fpt,
                               aggregator=draw(st.sampled_from(AGGREGATORS)))
    trial_start = draw(st.sampled_from((0.0, 2.5, 10 / 3)))
    sources = draw(st.lists(st.sampled_from(("cam_b", "cam_a", "Cam", "cam_a2")),
                            min_size=1, max_size=3, unique=True))
    n_ticks = draw(st.integers(1, 6 * fpt + 3))
    au_mode = draw(st.sampled_from(("edges", (0.0, 5.0), (-1.0, 6.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_drop, p_dup = draw(st.sampled_from((0.0, 0.3))), draw(st.sampled_from((0.0, 0.2)))
    queues = []
    for src in sources:
        frames = []
        for tick in range(n_ticks):
            if rng.random() < p_drop:
                continue
            for _ in range(2 if rng.random() < p_dup else 1):
                jitter = rng.choice((0.0, 0.0, 0.4, -0.4, 0.5))
                if rng.random() < 0.5:
                    conf = float(rng.choice(CONF_EDGES))
                else:
                    conf = float(rng.random())
                if au_mode == "edges":
                    au = rng.choice(AU_EDGES, N_AUS)
                else:
                    au = rng.uniform(*au_mode, N_AUS)
                frames.append(AuFrame(src, trial_start + (tick + jitter) / policy.fps,
                                      au.tolist(), conf))
        frames.sort(key=lambda f: f.t)  # clean files keep each source's time order
        queues.append(frames)
    interleaved = []
    while any(queues):
        queue = queues[rng.choice([i for i, q in enumerate(queues) if q])]
        interleaved.append(queue.pop(0))
    n_bad = draw(st.sampled_from((0, 0, 1, 3, 12)))
    bad_kinds = draw(st.lists(st.integers(0, 11), min_size=n_bad, max_size=n_bad))
    return policy, trial_start, interleaved, bad_kinds, rng, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(trial=trial_files(), block_lines=st.sampled_from((1, 7, 256)))
def test_corpus_reader_matches_builder_oracle(tmp_path_factory, trial, block_lines):
    policy, trial_start, frames, bad_kinds, rng, header = trial
    path = tmp_path_factory.mktemp("trial") / "frames.jsonl"
    write_frames_jsonl(path, frames, catalog_header=header)
    if bad_kinds and frames:
        lines = path.read_text().splitlines()
        body = 1 if header else 0
        objs = [json.loads(line) for line in lines[body:]]
        bad = _bad_lines(objs[-1], objs[0])
        for kind in bad_kinds:
            at = int(rng.integers(body + 1, len(lines) + 1))
            lines.insert(at, bad[kind])
        path.write_text("\n".join(lines) + "\n")
    # Small decode blocks put bad values and block edges anywhere in a file.
    with mock.patch.object(ingest, "_BLOCK_LINES", block_lines):
        assert_same_reads(*read_trial_both(path, policy, trial_start))


def test_corpus_reader_header_only_file(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames_jsonl(path, [])
    want, got = read_trial_both(path)
    au, valid = got[0]
    assert au.shape == (0, N_AUS) and valid.shape == (0,)
    assert_same_reads(want, got)


def test_corpus_reader_frame_before_trial_start(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_frames_jsonl(path, [frame(t=9.0 + k / 30.0) for k in range(40)])
    want, got = read_trial_both(path, trial_start=10.0)
    assert isinstance(got[0], ContractError)
    assert "t=9.0 precedes trial start" in str(got[0])
    assert_same_reads(want, got)


@pytest.mark.parametrize("times", [
    # A new source at -1e308: its slot overflowed round(), and a numpy overflow
    # warning came first on the corpus path.
    [k / 30.0 for k in range(20)] + [("cam_b", -1e308)] + [k / 30.0 for k in range(20, 40)],
    # A jump from -1e308 to 1e308 overflowed the corpus reader's gap check.
    [-1e308, 1e308] + [k / 30.0 for k in range(40)],
], ids=["new-source-huge-negative", "jump-past-any-float"])
def test_a_first_frame_far_before_trial_start_is_refused(tmp_path, times):
    frames = [frame(*t) if isinstance(t, tuple) else frame(t=t) for t in times]
    path = tmp_path / "frames.jsonl"
    write_frames_jsonl(path, frames)
    want, got = read_trial_both(path)
    assert isinstance(got[0], ContractError)
    assert_same_reads(want, got)
    builder = TimestepBuilder()  # live, unsorted
    with pytest.raises(ContractError, match=r"frame at t=-1e\+308 precedes trial start"):
        for f in frames:
            builder.add(f)


@pytest.mark.parametrize("past", [ingest.MAX_GAP_S, ingest.MAX_GAP_S + 0.5, 1e4, 1e308])
def test_corpus_reader_first_frame_far_past_trial_start(tmp_path, past):
    # A frame before the far one, but of a later line, sets the bound.
    frames = [frame(t=10.0 + past + k / 30.0) for k in range(1, 40)]
    frames.append(frame("cam_b", t=10.0 + past))
    path = tmp_path / "frames.jsonl"
    write_frames_jsonl(path, frames)
    want, got = read_trial_both(path, trial_start=10.0)
    if past > ingest.MAX_GAP_S:
        assert isinstance(got[0], ContractError)
        assert f"first frame at t={10.0 + past} lies more than" in str(got[0])
    else:
        assert len(got[0][0]) == round(past * 3) + 4
    assert_same_reads(want, got)


_NO_OCC = object()


@pytest.mark.parametrize("occ, skipped", [
    ([False] * 16, True), ([0] * 18, True), (5, True), (None, True), (_NO_OCC, True),
    ([[1], [1, 2]] + [0] * 15, False),  # nothing reads the entries themselves
    ("x" * 17, False),
])
def test_occ_is_checked_for_arity_only(tmp_path, occ, skipped):
    objs = [frame_to_obj(frame(t=k / 30.0)) for k in range(3)]
    del objs[1]["occ"]
    if occ is not _NO_OCC:
        objs[1]["occ"] = occ
    path = tmp_path / "frames.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    want, got = read_trial_both(path)
    assert (got[1].records_skipped, got[1].frames_read) == (skipped, 3 - skipped)
    assert_same_reads(want, got)


def test_corpus_reader_falls_back_on_bad_lines(monkeypatch):
    # live_lock's stream holds six malformed lines and clamped values; the
    # reader must hand it to read_stream and agree with the oracle.
    path = FIXTURES / "live_lock" / "stream.jsonl"
    calls = []
    real = ingest.read_stream
    monkeypatch.setattr(ingest, "read_stream",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    want, got = read_trial_both(path)
    assert len(calls) == 1
    assert (got[1].frames_read, got[1].records_skipped, got[1].values_clamped) == (1200, 6, 8)
    assert_same_reads(want, got)


def test_corpus_reader_checks_time_jumps_as_read_stream_does(tmp_path, monkeypatch):
    # The latest time is 1.0 s; a frame may open MAX_GAP_S past it, no
    # further. The bound runs from the latest time, not the line before.
    frames = [frame(src, t=k / 30.0) for k in range(31) for src in ("cam_a", "cam_b")]
    gap = ingest.MAX_GAP_S
    cases = [
        ([frame("cam_c", t=1.0 + gap)], False),
        ([frame("cam_c", t=1.0 + gap + 0.5)], True),
        ([frame("cam_c", t=1.0 + gap), frame("cam_a", t=1.0),
          frame("cam_d", t=1.0 + 2 * gap)], False),
    ]
    calls = []
    real = ingest.read_stream
    monkeypatch.setattr(ingest, "read_stream",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for i, (extra, fallback) in enumerate(cases):
        path = tmp_path / f"case{i}.jsonl"
        write_frames_jsonl(path, frames + extra)
        calls.clear()
        want, got = read_trial_both(path)
        assert len(calls) == fallback  # the reader's own read_stream call
        assert got[1].records_skipped == fallback
        assert_same_reads(want, got)


def test_read_corpus_skips_lines_the_decoder_cannot_take(tmp_path):
    # The fallback path used to die on both lines with a traceback.
    frames = [frame(src, t=k / 30.0) for k in range(60) for src in ("cam_a", "cam_b")]
    path = tmp_path / "frames" / "t00.jsonl"
    path.parent.mkdir()
    write_frames_jsonl(path, frames)
    lines = path.read_text().splitlines()
    lines[10:10] = [HUGE_INT_LINE, DEEP_LINE]
    path.write_text("\n".join(lines) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"trials": [{
        "trial_id": "t00", "participant_id": "p00", "error_type": "none",
        "frames": "frames/t00.jsonl"}]}))
    (trial,) = read_corpus(tmp_path)
    assert trial.au.tobytes() == timesteps_to_matrix(frames_to_timesteps(frames))[0].tobytes()
    want, got = read_trial_both(path)
    assert got[1].records_skipped == 2
    assert_same_reads(want, got)


@pytest.mark.parametrize("clean", [True, False], ids=["clean", "read-stream"])
@pytest.mark.parametrize("last_t, refused", [
    (MAX_TRIAL_S - 1 / 30, False),  # the last tick of timestep 10 799
    (MAX_TRIAL_S, True),
    (599.0 * 99, True),  # each gap within MAX_GAP_S: 177 904 timesteps were built
])
def test_read_corpus_refuses_a_trial_longer_than_max_trial_s(tmp_path, monkeypatch, clean,
                                                             last_t, refused):
    times = [min(599.0 * k, last_t) for k in range(100) if 599.0 * (k - 1) < last_t]
    path = tmp_path / "frames" / "t00.jsonl"
    path.parent.mkdir()
    write_frames_jsonl(path, [frame(t=t) for t in times])
    if not clean:  # one malformed record: read_stream reads the file
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{}\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"trials": [{
        "trial_id": "t00", "participant_id": "p00", "error_type": "none",
        "frames": "frames/t00.jsonl"}]}))
    if not refused:
        (trial,) = read_corpus(tmp_path)
        assert len(trial) == MAX_TRIAL_S * 3
        return

    def refuse(*args, **kwargs):
        raise AssertionError("a timestep of a trial too long was built")

    monkeypatch.setattr(ingest, "aggregate", refuse)
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: trial spans "
                                            r"\d+ timesteps, longer than 3600 s$"):
        read_corpus(tmp_path)


def test_read_corpus_reads_clean_files_without_frames(tmp_path, monkeypatch):
    corpus = generate(ScenarioSpec(participants=2, trials_per_participant=1, seed=3,
                                   errors=(ErrorPlan("physical", 10.0),),
                                   trial_len_s=20.0))
    manifest = write_corpus(corpus, tmp_path)
    want = [frames_to_timesteps(list(read_stream(tmp_path / entry["frames"])),
                                trial_start=entry.get("trial_start", 0.0))
            for entry in manifest["trials"]]

    def refuse(*args, **kwargs):
        raise AssertionError("a clean corpus file took the per-frame path")

    for name in ("AuFrame", "read_stream", "TimestepBuilder"):
        monkeypatch.setattr(ingest, name, refuse)
    got = read_corpus(tmp_path)
    assert len(got) == len(want) == 2
    for trial, timesteps in zip(got, want):
        au, valid = timesteps_to_matrix(timesteps)
        assert trial.au.tobytes() == au.tobytes()
        assert trial.valid_face.tolist() == valid.tolist()


def test_read_corpus_warns_of_annotation_rows_no_trial_matches(tmp_path, caplog):
    # A row whose trial id the manifest does not list was dropped unnoticed,
    # and with it the ground truth of the trial it was meant for.
    write_corpus(generate(ScenarioSpec(participants=2, trials_per_participant=1, seed=3,
                                       errors=(ErrorPlan("physical", 10.0),),
                                       trial_len_s=20.0)), tmp_path)
    path = tmp_path / "annotations.csv"
    path.write_text(path.read_text().replace("p01_t00,", "p01_t0O,"))
    with caplog.at_level("WARNING"):
        trials = read_corpus(tmp_path)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [(
        "WARNING",
        f"{path}: ignoring the rows of trials manifest.json does not list: p01_t0O")]
    assert [(t.trial_id, t.annotations is None) for t in trials] == [
        ("p00_t00", False), ("p01_t00", True)]


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
    with pytest.raises(StreamFormatError,
                       match=f"^{re.escape(str(path))}: line 3: duplicate trial_id 't0'$"):
        read_annotations(path)


def test_annotations_short_row_fatal(tmp_path):
    path = tmp_path / "annotations.csv"
    path.write_text(",".join(ANNOTATION_HEADER) + "\nt0,p0,physical,1,2\n")
    with pytest.raises(StreamFormatError,
                       match=f"^{re.escape(str(path))}: line 2: expected 6 columns$"):
        read_annotations(path)


def test_manifest_repeated_trial_id_fatal(tmp_path):
    # `evaluate` trained on and scored such a trial twice, exit 0.
    first = {"trial_id": "t0", "participant_id": "p0", "error_type": "none",
             "frames": "frames/t0.jsonl"}
    second = dict(first, trial_id="t1", frames="frames/t1.jsonl")
    (tmp_path / "manifest.json").write_text(json.dumps({"trials": [first, second, first]}))
    with pytest.raises(ContractError,
                       match=r"^manifest.json trial 2 repeats trial_id 't0' of trial 0$"):
        read_corpus(tmp_path)


def test_annotations_header_mismatch(tmp_path):
    path = tmp_path / "annotations.csv"
    path.write_text("trial,participant\n")
    with pytest.raises(StreamFormatError,
                       match=f"^{re.escape(str(path))}: line 1: annotation CSV header mismatch$"):
        read_annotations(path)
