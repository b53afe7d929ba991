"""Sliding-window detector: scores, merging, warmup, streaming invariants."""

import itertools

import numpy as np
import pytest

from conftest import batch_oracle, event_tuples
from ausentinel.core import ContractError, StreamIntegrityError
from ausentinel.detector import (
    DetectorState,
    WindowConfig,
    detect_sequence,
    event_to_obj,
    merge_rule,
    step,
)


def test_window_config_validation():
    WindowConfig()
    with pytest.raises(ContractError):
        WindowConfig(window_len=0)
    with pytest.raises(ContractError):
        WindowConfig(threshold=0.0)
    with pytest.raises(ContractError):
        WindowConfig(threshold=12.0)  # can never be reached by 11 weights
    with pytest.raises(ContractError):
        WindowConfig(merge_gap=-1)
    with pytest.raises(ContractError):
        WindowConfig(warmup=-1)


def test_constant_weights_trigger_at_window_fill():
    events = detect_sequence([0.6] * 11)
    assert len(events) == 1
    ev = events[0]
    assert ev.detected_at == 10
    assert ev.estimated_start == 0
    assert abs(ev.score - 6.6) < 1e-9
    assert not ev.merged


def test_six_ones_score_exactly_six():
    events = detect_sequence([0.0] * 5 + [1.0] * 6)
    assert len(events) == 1
    ev = events[0]
    assert ev.score == 6.0
    assert ev.detected_at == 10
    assert ev.estimated_start == 5


def test_merge_examples():
    cfg = WindowConfig()
    state = DetectorState(last_detected_at=40)
    # detected one timestep after the previous detection: merged
    merged = merge_rule(state, _event(41, 30), cfg)
    assert merged.merged and state.last_detected_at == 41

    state = DetectorState(last_detected_at=40)
    # estimated start adjacent to the previous detection: merged
    merged = merge_rule(state, _event(50, 41), cfg)
    assert merged.merged and state.last_detected_at == 50

    state = DetectorState(last_detected_at=40)
    # both ends clear of the previous detection: a fresh event
    fresh = merge_rule(state, _event(55, 55), cfg)
    assert not fresh.merged and state.last_detected_at == 55


def test_merge_chains_through_consecutive_detections():
    # 40 -> 41 merged; 42 merges against 41 even though it is far from 40.
    cfg = WindowConfig(merge_gap=1)
    state = DetectorState(last_detected_at=40)
    assert merge_rule(state, _event(41, 35), cfg).merged
    assert merge_rule(state, _event(42, 35), cfg).merged
    assert state.last_detected_at == 42


def _event(detected_at, estimated_start):
    from ausentinel.core import ErrorEvent

    return ErrorEvent(detected_at=detected_at, estimated_start=estimated_start,
                      score=6.0)


def test_warmup_discards_leading_timesteps():
    # With warmup 3, the earliest possible detection is 3 + 11 - 1 = 13.
    events = detect_sequence([1.0] * 20, WindowConfig(warmup=3))
    assert events[0].detected_at == 13
    assert events[0].estimated_start == 3
    # Discarded: weights before the warmup never reach a window.
    head = [1.0] * 3 + [0.0] * 17
    assert detect_sequence(head, WindowConfig(warmup=3)) == []


def test_step_requires_contiguous_indices():
    cfg = WindowConfig()
    state = DetectorState()
    step(state, 0, 0.0, cfg)
    with pytest.raises(StreamIntegrityError):
        step(state, 2, 0.0, cfg)


def test_buffer_stays_window_sized():
    cfg = WindowConfig()
    state = DetectorState()
    fired = False
    for i in range(100):
        fired |= step(state, i, 0.75, cfg) is not None
        assert len(state.buffer) <= cfg.window_len
    assert fired


def test_no_trigger_below_threshold():
    assert detect_sequence([0.5] * 50) == []  # 11 * 0.5 = 5.5 < 6
    assert detect_sequence([]) == []
    assert detect_sequence([1.0] * 5 + [0.0] * 30) == []


def test_event_to_obj_fields():
    ev = _event(40, 33)
    obj = event_to_obj("trial_7", ev, trial_start=2.0)
    assert obj["trial_id"] == "trial_7"
    assert obj["detected_at"] == 40
    assert obj["estimated_start"] == 33
    assert obj["detected_t_seconds"] == 2.0 + 40 / 3.0
    assert obj["estimated_t_seconds"] == 2.0 + 11.0
    assert obj["score"] == 6.0
    assert obj["merged"] is False


def test_streaming_matches_oracle_across_configs():
    rng = np.random.default_rng(17)
    choices = np.array([0.0, 0.55, 0.75, 1.0])
    configs = [
        WindowConfig(),
        WindowConfig(window_len=1, threshold=0.5),
        WindowConfig(window_len=3, threshold=1.5, merge_gap=0),
        WindowConfig(window_len=5, threshold=2.0, merge_gap=2, warmup=4),
        WindowConfig(window_len=11, threshold=6.0, warmup=2),
    ]
    for cfg in configs:
        for _ in range(60):
            n = int(rng.integers(0, 40))
            weights = list(choices[rng.integers(0, 4, n)])
            got = event_tuples(detect_sequence(weights, cfg))
            want = batch_oracle(weights, cfg)
            assert got == want


def test_streaming_matches_oracle_exhaustive_short():
    cfg = WindowConfig(window_len=3, threshold=1.5)
    for n in range(7):
        for weights in itertools.product((0.0, 0.75, 1.0), repeat=n):
            got = event_tuples(detect_sequence(list(weights), cfg))
            assert got == batch_oracle(list(weights), cfg)
