"""Core vocabulary: catalog, time mapping, frames, trials, events."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ausentinel.core import (
    AU_IDS,
    AU_NAMES,
    N_AUS,
    RATE_HZ,
    AuFrame,
    ClampCounter,
    ContractError,
    ErrorEvent,
    GroundTruth,
    Timestep,
    TrialRecord,
    as_au_vector,
    catalog_hash,
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
    counter = ClampCounter()
    v = as_au_vector([6.0] + [2.0] * 15 + [-1.0], counter)
    assert v[0] == 5.0 and v[-1] == 0.0
    assert counter.clamped == 2
    v2 = as_au_vector(np.full(N_AUS, 3.0), counter)
    assert counter.clamped == 2  # in-range values add nothing
    assert v2.dtype == np.float64


def test_as_au_vector_rejects_bad_input():
    with pytest.raises(ContractError):
        as_au_vector([1.0] * 16, ClampCounter())
    with pytest.raises(ContractError):
        as_au_vector([math.nan] + [0.0] * 16, ClampCounter())
    for not_a_vector in ("1" * N_AUS, 1.0, None, np.float64(1.0), np.ones((N_AUS, 1)),
                         [[1.0]] * N_AUS, {str(k): 1.0 for k in range(N_AUS)}):
        with pytest.raises(ContractError):
            as_au_vector(not_a_vector, ClampCounter())


def _numpy_as_au_vector(values, counter):
    """The numpy implementation as_au_vector replaced: the parity reference."""
    au = np.asarray(values, dtype=np.float64)
    if au.shape != (N_AUS,):
        raise ContractError(f"AU vector must have exactly {N_AUS} entries")
    if not np.all(np.isfinite(au)):
        raise ContractError("AU vector contains non-finite values")
    out_of_range = int(np.count_nonzero((au < 0.0) | (au > 5.0)))
    if out_of_range:
        counter.clamped += out_of_range
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
        counter = ClampCounter()
        try:
            return fn(values, counter), counter.clamped
        except (ContractError, ValueError) as exc:
            return exc, None

    got, got_clamped = run(as_au_vector)
    want, want_clamped = run(_numpy_as_au_vector)
    if isinstance(want, Exception):
        assert isinstance(got, (ContractError, ValueError))
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == (N_AUS,)
        assert got.tobytes() == want.tobytes()
        assert got_clamped == want_clamped


def test_zero_au_vector():
    z = zero_au_vector()
    assert z.shape == (N_AUS,)
    assert not z.any()


def test_auframe_validates_confidence():
    AuFrame("cam", 0.0, zero_au_vector(), np.zeros(N_AUS, dtype=bool), 0.5)
    with pytest.raises(ContractError):
        AuFrame("cam", 0.0, zero_au_vector(), np.zeros(N_AUS, dtype=bool), 1.5)


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


def test_trial_record_requires_contiguous_indices():
    steps = [
        Timestep(index=i, t_start=i / 3.0, t_end=(i + 1) / 3.0,
                 au=zero_au_vector())
        for i in (0, 1, 3)
    ]
    with pytest.raises(ContractError):
        TrialRecord("t", "p", "physical", tuple(steps))


def test_trial_record_matrices_and_labels():
    au = np.arange(5 * N_AUS, dtype=np.float64).reshape(5, N_AUS) % 5
    gt = GroundTruth(1, 2, 0)
    from conftest import make_trial

    trial = make_trial(au, gt)
    assert len(trial) == 5
    assert trial.au_matrix().shape == (5, N_AUS)
    assert np.array_equal(trial.au_matrix()[3], au[3])
    assert trial.label_array().tolist() == [False, True, True, False, False]
    unannotated = make_trial(au, None, error_type="none")
    assert not unannotated.label_array().any()


def test_error_event_ordering_and_seconds():
    ev = ErrorEvent(detected_at=40, estimated_start=33, score=7.0)
    assert ev.detected_t() == timesteps_to_seconds(40)
    assert ev.estimated_t() == 11.0
    with pytest.raises(ContractError):
        ErrorEvent(detected_at=10, estimated_start=11, score=6.0)
