"""Core vocabulary: catalog, time mapping, frames, trials, events."""

import hashlib
import logging
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ausentinel import core
from ausentinel.core import (
    AU_IDS,
    AU_NAMES,
    N_AUS,
    RATE_HZ,
    AuFrame,
    ContractError,
    ErrorEvent,
    GroundTruth,
    StreamStats,
    TrialRecord,
    as_au_vector,
    catalog_hash,
    map_in_order,
    timestep_of,
    timesteps_to_seconds,
    zero_au_vector,
)


def test_catalog_is_the_fixed_17_au_set():
    assert len(AU_IDS) == N_AUS == 17
    assert AU_IDS[0] == "AU01" and AU_IDS[-1] == "AU45"
    assert "AU04" in AU_IDS
    assert list(AU_IDS) == sorted(AU_IDS)
    assert set(AU_NAMES) == set(AU_IDS)
    assert AU_NAMES["AU04"] == "brow lowerer"


def test_catalog_hash_is_stable_hex():
    h = catalog_hash()
    assert h == catalog_hash()
    assert len(h) == 64
    int(h, 16)  # hex digest
    # The package keeps the digest as a literal; it must be the catalog's own.
    assert h == hashlib.sha256(",".join(AU_IDS).encode("ascii")).hexdigest()


def test_timestep_of_examples():
    assert timestep_of(0.0, 0.0) == 0
    assert timestep_of(0.34, 0.0) == 1
    assert timestep_of(3.67, 0.0) == 11
    assert timestep_of(12.5, 10.0) == 7
    with pytest.raises(ContractError):
        timestep_of(1.0, 2.0)


def test_timesteps_to_seconds_is_exact():
    assert timesteps_to_seconds(9) == 3.0
    assert timesteps_to_seconds(0) == 0.0
    assert timesteps_to_seconds(-3) == -1.0
    assert timesteps_to_seconds(1) == 1.0 / RATE_HZ


def test_as_au_vector_clamps_and_counts():
    stats = StreamStats()
    v = as_au_vector([6.0] + [2.0] * 15 + [-1.0], stats)
    assert v[0] == 5.0 and v[-1] == 0.0
    assert stats.values_clamped == 2
    v2 = as_au_vector(np.full(N_AUS, 3.0), stats)
    assert stats.values_clamped == 2  # in-range values add nothing
    assert v2 == [3.0] * N_AUS and all(type(v) is float for v in v2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", range(N_AUS))
def test_as_au_vector_rejects_non_finite_at_any_position(bad, at):
    # min/max alone miss a NaN past the first entry; the fast path must not.
    values = [2.5] * N_AUS
    values[at] = bad
    stats = StreamStats()
    with pytest.raises(ContractError, match="non-finite"):
        as_au_vector(values, stats)
    assert stats.values_clamped == 0


def test_as_au_vector_returns_python_floats_and_keeps_negative_zero():
    for values in ([-0.0] + [1] * 16,           # in range: the fast path
                   [-0.0] + [7.5] * 16,         # clamped: the slow path
                   (-0.0, True) + (4.5,) * 15,  # tuple, bool
                   np.full(N_AUS, -0.0),
                   ["-0.0"] + ["2"] * 16):
        v = as_au_vector(values, StreamStats())
        assert len(v) == N_AUS and all(type(x) is float for x in v)
        assert math.copysign(1.0, v[0]) == -1.0


def test_as_au_vector_rejects_bad_input():
    with pytest.raises(ContractError):
        as_au_vector([1.0] * 16, StreamStats())
    with pytest.raises(ContractError):
        as_au_vector([math.nan] + [0.0] * 16, StreamStats())
    for not_a_vector in ("1" * N_AUS, 1.0, None, np.float64(1.0), np.ones((N_AUS, 1)),
                         [[1.0]] * N_AUS, {str(k): 1.0 for k in range(N_AUS)}):
        with pytest.raises(ContractError):
            as_au_vector(not_a_vector, StreamStats())


def _numpy_as_au_vector(values, stats):
    """The numpy implementation as_au_vector replaced: the parity reference."""
    au = np.asarray(values, dtype=np.float64)
    if au.shape != (N_AUS,):
        raise ContractError(f"AU vector must have exactly {N_AUS} entries")
    if not np.all(np.isfinite(au)):
        raise ContractError("AU vector contains non-finite values")
    out_of_range = int(np.count_nonzero((au < 0.0) | (au > 5.0)))
    if out_of_range:
        stats.values_clamped += out_of_range
        au = np.clip(au, 0.0, 5.0)
    return au


_AU_ENTRIES = st.one_of(
    st.floats(0.0, 5.0),
    st.sampled_from([0.0, -0.0, 5.0, 5.000000000000001, -5e-324]),  # range edges
    st.floats(-1e300, 1e300),  # mostly out of range: clamped
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.floats(-10.0, 10.0).map(repr),
    st.sampled_from(["3", " 2.5 ", "1_0", "-0.0", "1e3"]),
)
_BAD_AU_ENTRIES = st.sampled_from(
    [math.nan, math.inf, -math.inf, "nan", "-inf", "1e400", "abc", "", None]
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_AU_ENTRIES, min_size=N_AUS - 1, max_size=N_AUS + 1),
       bad=st.none() | st.tuples(st.integers(0, N_AUS), _BAD_AU_ENTRIES),
       as_tuple=st.booleans())
def test_as_au_vector_matches_numpy_reference(values, bad, as_tuple):
    # Both versions accept exactly the same inputs, with the same bytes and
    # clamp count. A rejection may be ContractError or ValueError (the
    # readers skip and count either): the order of the checks differs, so
    # e.g. a 16-entry list holding "abc" is a ValueError for numpy, which
    # converts first, and a ContractError here, which checks length first.
    if bad is not None:
        at, entry = bad
        values[at % len(values)] = entry
    if as_tuple:
        values = tuple(values)

    def run(fn):
        stats = StreamStats()
        try:
            return fn(values, stats), stats.values_clamped
        except (ContractError, ValueError) as exc:
            return exc, None

    got, got_clamped = run(as_au_vector)
    want, want_clamped = run(_numpy_as_au_vector)
    if isinstance(want, Exception):
        assert isinstance(got, (ContractError, ValueError))
    else:
        assert isinstance(got, list) and len(got) == N_AUS
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()
        assert got_clamped == want_clamped


def test_zero_au_vector():
    z = zero_au_vector()
    assert z.shape == (N_AUS,)
    assert not z.any()


def test_auframe_validates_confidence():
    AuFrame("cam", 0.0, [0.0] * N_AUS, 0.5)
    with pytest.raises(ContractError):
        AuFrame("cam", 0.0, [0.0] * N_AUS, 1.5)


def test_ground_truth_label_array_closed_interval():
    gt = GroundTruth(reaction_start=3, reaction_end=5, perceived_error_start=2)
    labels = gt.label_array(8)
    assert labels.tolist() == [False, False, False, True, True, True, False, False]
    gt.validate_bounds(8)
    with pytest.raises(ContractError):
        gt.validate_bounds(5)  # reaction_end beyond the trial


def test_ground_truth_rejects_inverted_interval():
    with pytest.raises(ContractError):
        GroundTruth(reaction_start=5, reaction_end=3, perceived_error_start=1)


def test_reaction_time_can_be_anticipatory():
    gt = GroundTruth(reaction_start=10, reaction_end=20, perceived_error_start=13)
    assert gt.reaction_time_s() == -1.0
    assert gt.reaction_duration_s() == timesteps_to_seconds(10)


@pytest.mark.parametrize("au, valid_face, named", [
    (np.zeros((4, N_AUS - 1)), np.ones(4, bool), "au"),
    (np.zeros(N_AUS), np.ones(1, bool), "au"),
    (np.zeros((4, N_AUS), dtype=np.float32), np.ones(4, bool), "au"),
    (np.zeros((4, N_AUS), dtype=np.int64), np.ones(4, bool), "au"),
    ([[0.0] * N_AUS] * 4, np.ones(4, bool), "au"),
    (np.zeros((4, N_AUS)), np.ones(3, bool), "valid_face"),
    (np.zeros((4, N_AUS)), np.ones((4, 1), bool), "valid_face"),
    (np.zeros((4, N_AUS)), np.ones(4), "valid_face"),
    (np.zeros((4, N_AUS)), [True] * 4, "valid_face"),
], ids=["narrow", "1-d", "float32", "int64", "list", "short-mask", "2-d-mask",
        "float-mask", "list-mask"])
def test_trial_record_refuses_a_malformed_matrix_or_mask(au, valid_face, named):
    with pytest.raises(ContractError, match=f"trial t: {named} is not"):
        TrialRecord("t", "p", "physical", au, valid_face)


def test_trial_record_matrices_and_labels():
    au = np.arange(5 * N_AUS, dtype=np.float64).reshape(5, N_AUS) % 5
    gt = GroundTruth(1, 2, 0)
    from conftest import make_trial

    trial = make_trial(au, gt)
    assert len(trial) == 5
    assert trial.au.shape == (5, N_AUS)
    assert np.array_equal(trial.au[3], au[3])
    steps = trial.timesteps
    assert [ts.index for ts in steps] == list(range(5))
    assert all(ts.valid_face is True for ts in steps)
    assert steps[3].au.tobytes() == au[3].tobytes()
    assert trial.label_array().tolist() == [False, True, True, False, False]
    unannotated = make_trial(au, None, error_type="none")
    assert not unannotated.label_array().any()


def test_error_event_ordering_and_seconds():
    ev = ErrorEvent(detected_at=40, estimated_start=33, score=7.0)
    assert ev.detected_t() == timesteps_to_seconds(40)
    assert ev.estimated_t() == 11.0
    with pytest.raises(ContractError):
        ErrorEvent(detected_at=10, estimated_start=11, score=6.0)


# ---------------------------------------------------------------------------
# map_in_order: independent tasks, in a pool or in-process


def _logged_task(fail_at, i):
    logging.getLogger("ausentinel.test").warning("task %d", i)
    if i == fail_at:
        raise ContractError(f"task {i} failed")
    return i * i, os.getpid()


def _task_under_lock(lock, i):
    # A lock cannot be pickled, so it reaches the workers by fork alone.
    with lock:
        return _logged_task(None, i)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_in_order_yields_results_and_records_in_task_order(monkeypatch, caplog, cpus):
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    for n in (1, 2, 5):
        caplog.clear()
        with caplog.at_level("WARNING"):
            lock = threading.Lock()
            results = list(map_in_order(lambda i: _task_under_lock(lock, i), n))
        assert [square for square, _ in results] == [i * i for i in range(n)]
        assert [r.getMessage() for r in caplog.records] == [f"task {i}" for i in range(n)]
        # Worker w runs tasks w, w + W, w + 2W, ... of W = min(n, CPUs) workers.
        workers = min(n, cpus)
        pids = [pid for _, pid in results]
        assert pids == [pids[i % workers] for i in range(n)], n
        assert len(set(pids)) == workers, n
        assert (os.getpid() in pids) == (workers == 1), n


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_in_order_raises_the_first_failure_after_the_records_before_it(
        monkeypatch, caplog, cpus):
    monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
    results = map_in_order(lambda i: _logged_task(2, i), 5)
    with caplog.at_level("WARNING"):
        assert [square for square, _ in (next(results), next(results))] == [0, 1]
        with pytest.raises(ContractError, match="task 2 failed"):
            next(results)
    assert [r.getMessage() for r in caplog.records] == ["task 0", "task 1", "task 2"]
    assert logging.getLogger("ausentinel").propagate


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="Linux /proc only")
def test_a_pool_leaves_no_exiting_thread_behind(monkeypatch):
    # The workers are forked directly, so a pool starts no thread; a second
    # pool (as `evaluate` forks its fold workers right after its corpus
    # workers) forks from a process of one thread, as the first did.
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    left = []
    for _ in range(10):
        results = map_in_order(lambda i: _logged_task(None, i), 2)
        assert [square for square, _ in results] == [0, 1]
        with open("/proc/self/stat") as fh:  # field 20 is the thread count
            left.append(int(fh.read().rpartition(")")[2].split()[17]))
    assert left == [threading.active_count()] * 10

