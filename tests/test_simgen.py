"""Synthetic corpus generator: envelopes, determinism, and ingest parity."""

import hashlib
import json
import math

import numpy as np
import pytest
from conftest import frames_to_timesteps, timesteps_to_matrix

from ausentinel.cli import main
from ausentinel.core import AU_IDS, MAX_TRIAL_S, ContractError, timestep_of
from ausentinel.ingest import read_corpus
from ausentinel.simgen import (
    DEFAULT_AMPLITUDES,
    ErrorPlan,
    ReactionProfile,
    ScenarioSpec,
    generate,
    load_scenario,
    perturb,
    reaction_envelope,
    scenario_from_obj,
    scenario_to_obj,
    write_corpus,
)


def small_spec(seed=7, **kw):
    defaults = dict(
        participants=3,
        trials_per_participant=2,
        seed=seed,
        errors=(ErrorPlan("physical", 10.0), ErrorPlan("none")),
        trial_len_s=40.0,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Envelope


def test_envelope_shape_and_support():
    env = reaction_envelope(30, attack_steps=3, decay_frac=0.35)
    assert env.shape == (30,)
    assert np.all(env > 0)
    # linear attack: first three steps ramp 1/3, 2/3, 1
    assert abs(env[0] - 1 / 3) < 1e-12
    assert abs(env[1] - 2 / 3) < 1e-12
    assert env[2] == 1.0
    # plateau before the decay tail
    d = int(round(0.35 * 30))
    assert np.all(env[3 : 30 - d] == 1.0)
    # exponential tail is strictly decreasing
    tail = env[30 - d :]
    assert np.all(np.diff(tail) < 0)
    assert tail[0] == math.exp(-3.0 / d)


def test_envelope_degenerate_lengths():
    assert reaction_envelope(1, 3, 0.35).shape == (1,)
    assert np.all(reaction_envelope(2, 1, 0.35) > 0)
    with pytest.raises(ContractError):
        reaction_envelope(0, 3, 0.35)


# ---------------------------------------------------------------------------
# Scenario validation and serialization


def test_error_schedule_must_match_trials():
    with pytest.raises(ContractError):
        small_spec(trials_per_participant=3)


def test_error_plan_needs_onset():
    with pytest.raises(ContractError):
        ErrorPlan("physical")
    ErrorPlan("none")  # fine without an onset


def test_error_onset_must_fit_trial():
    with pytest.raises(ContractError):
        small_spec(errors=(ErrorPlan("physical", 45.0), ErrorPlan("none")))


def test_trial_length_is_at_most_an_hour():
    assert small_spec(trial_len_s=MAX_TRIAL_S).n_timesteps == 10_800
    with pytest.raises(ContractError, match="trial_len_s"):
        small_spec(trial_len_s=math.nextafter(MAX_TRIAL_S, math.inf))


def test_occlusion_window_validation():
    with pytest.raises(ContractError):
        small_spec(occlusion_windows=((20.0, 10.0),))
    with pytest.raises(ContractError):
        small_spec(occlusion_windows=((20.0, 50.0),))


def test_profile_rejects_unknown_au():
    with pytest.raises(ContractError):
        ReactionProfile(amplitudes={"AU99": 1.0})
    with pytest.raises(ContractError):
        ReactionProfile(amplitudes={"AU01": -0.5})


def test_scenario_obj_round_trip():
    spec = small_spec(novelty_effect=True, occlusion_windows=((5.0, 9.0),))
    again = scenario_from_obj(scenario_to_obj(spec))
    assert again == spec


def test_scenario_requires_seed(tmp_path):
    obj = scenario_to_obj(small_spec())
    del obj["seed"]
    with pytest.raises(ContractError):
        scenario_from_obj(obj)
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ContractError):
        load_scenario(path)


def test_load_scenario(tmp_path):
    spec = small_spec()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_obj(spec)))
    assert load_scenario(path) == spec


# A spec that sets every field. Integers stand in for the float fields
# trial_len_s, baseline_noise and one occlusion bound, and for the profile's
# attack_s, so the pinned manifest also pins how each number is written.
PINNED_SPEC = {
    "participants": 2,
    "trials_per_participant": 2,
    "seed": 11,
    "trial_len_s": 40,
    "baseline_noise": 1,
    "novelty_effect": True,
    "occlusion_windows": [[12, 15.5]],
    "errors": [
        {"error_type": "physical", "perceived_error_start_s": 8.0, "predictable": True},
        {"error_type": "none"},
    ],
    "profile": {"attack_s": 2, "amplitudes": {"AU01": 2.0, "AU12": 1.5}},
}

# SHA-256 of manifest.json and annotations.csv, which no perturbation
# changes, and of frames/p01_t00.jsonl, a reacting trial, per perturbation.
PINNED_MANIFEST = "7d9023ae8a40182a39708584fe5e4c47126a964191a865defc82da93d563c9fc"
PINNED_ANNOTATIONS = "84830a700424aee802fa53f84fe5c7b2207b9f92172cb2dc7fc262ee63ed90e1"
PINNED_FRAMES = {
    None: "382790e9737ca47707ca4f4ccafa84cf1af8275150a5ff5c7a9ef780be92d682",
    "novelty": "bfe86c7129efed1e6f48201937c13adc238afcbd9e2c057ba0ed8d9f3dfa0be6",
    "occlusion": "f4f1283b2481cb3692c8fb0dba8e30744564c75d55526b64605b978f93fbbe52",
    "amplitude-scale": "f6df8dd238e649fbb2276ead597c4b6f4ff290fa8e89fc86cc0d911575f474df",
}


@pytest.mark.parametrize("kind", list(PINNED_FRAMES))
def test_simulate_writes_pinned_bytes(tmp_path, kind):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(PINNED_SPEC))
    out = tmp_path / "corpus"
    argv = ["simulate", "--spec", str(spec), "--out", str(out)]
    if kind is not None:
        argv += ["--perturb", kind, "--magnitude", "1.5"]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("manifest.json", "annotations.csv",
                                 "frames/p01_t00.jsonl"))
    assert digests == (PINNED_MANIFEST, PINNED_ANNOTATIONS, PINNED_FRAMES[kind])


# ---------------------------------------------------------------------------
# Generation


def test_generate_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    assert len(a.trials) == 6
    for ta, tb in zip(a.trials, b.trials):
        assert np.array_equal(ta.trace(), tb.trace())
        assert ta.ground_truth == tb.ground_truth
    c = generate(small_spec(seed=8))
    assert not np.array_equal(a.trials[0].trace(), c.trials[0].trace())


def test_traces_stay_in_intensity_range():
    corpus = generate(small_spec())
    for trial in corpus.trials:
        trace = trial.trace()
        assert trace.min() >= 0.0 and trace.max() <= 5.0


def test_annotation_matches_reaction_support():
    corpus = generate(small_spec())
    for trial in corpus.trials:
        row_sums = trial.reaction_delta.sum(axis=1)
        if trial.error_type == "none":
            assert trial.ground_truth is None
            assert np.all(row_sums == 0.0)
            continue
        gt = trial.ground_truth
        support = np.flatnonzero(row_sums > 0)
        assert support[0] == gt.reaction_start
        assert support[-1] == gt.reaction_end
        assert len(support) == gt.reaction_end - gt.reaction_start + 1


def test_reaction_timing_respects_bounds():
    spec = small_spec(participants=12)
    corpus = generate(spec)
    pe_ts = timestep_of(10.0)
    for trial in corpus.trials:
        if trial.ground_truth is None:
            continue
        gt = trial.ground_truth
        # non-predictable profile: onset latency is non-negative
        assert gt.reaction_start >= pe_ts
        assert gt.reaction_start - pe_ts <= int(round(3.0 * 3)) + 1
        m = gt.reaction_end - gt.reaction_start + 1
        assert m <= int(round(22.0 * 3))


def test_record_matches_ingest_aggregation():
    for occlusion_windows in ((), ((4.0, 7.5),)):
        corpus = generate(small_spec(participants=1, trial_len_s=20.0,
                                     occlusion_windows=occlusion_windows))
        trial = corpus.trials[0]
        assert trial.occluded.any() == bool(occlusion_windows)
        direct = trial.record()
        au, valid = timesteps_to_matrix(frames_to_timesteps(list(trial.frames())))
        assert direct.au.shape == au.shape
        assert direct.au.tobytes() == au.tobytes()
        assert direct.valid_face.tolist() == valid.tolist()


def test_write_corpus_round_trip(tmp_path):
    corpus = generate(small_spec())
    out = tmp_path / "corpus"
    manifest = write_corpus(corpus, out)
    assert manifest["format"] == "ausentinel-corpus"
    assert (out / "manifest.json").exists()
    assert (out / "annotations.csv").exists()
    records = read_corpus(out)
    direct = corpus.records()
    assert len(records) == len(direct)
    for loaded, built in zip(records, direct):
        assert loaded.trial_id == built.trial_id
        assert loaded.participant_id == built.participant_id
        assert loaded.error_type == built.error_type
        assert loaded.annotations == built.annotations
        assert loaded.au.tobytes() == built.au.tobytes()
        assert loaded.valid_face.tolist() == built.valid_face.tolist()
        assert loaded.trial_start == built.trial_start == 0.0


# ---------------------------------------------------------------------------
# Artifacts and perturbations


def test_amplitude_scale_zero_silences_reactions():
    corpus = generate(small_spec())
    flat = perturb(corpus, "amplitude-scale", 0.0)
    for trial in flat.trials:
        assert np.all(trial.reaction_delta == 0.0)
        if trial.error_type != "none":
            # annotations survive: the error still happened, the face ignored it
            assert trial.ground_truth is not None


def test_novelty_adds_artifact_bursts():
    corpus = generate(small_spec(errors=(ErrorPlan("none"), ErrorPlan("none"))))
    noisy = perturb(corpus, "novelty", 1.0)
    onsets = [timestep_of(t) for t in (6.0, 21.0)]  # 36.0+5 > 40 s trial: dropped
    for trial in noisy.trials:
        sums = trial.artifact_delta.sum(axis=1)
        for onset in onsets:
            assert sums[onset] > 0
        assert sums[timestep_of(36.0)] == 0.0 or 36.0 + 5.0 < 40.0
        # original corpus is untouched
    for trial in corpus.trials:
        assert np.all(trial.artifact_delta == 0.0)


def test_novelty_effect_flag_matches_perturb():
    base = small_spec(errors=(ErrorPlan("none"), ErrorPlan("none")))
    built_in = generate(ScenarioSpec(
        participants=base.participants,
        trials_per_participant=base.trials_per_participant,
        seed=base.seed, errors=base.errors, trial_len_s=base.trial_len_s,
        novelty_effect=True,
    ))
    after = perturb(generate(base), "novelty", 1.0)
    for ta, tb in zip(built_in.trials, after.trials):
        assert np.array_equal(ta.artifact_delta, tb.artifact_delta)


def test_occlusion_masks_record_and_keeps_frames():
    corpus = generate(small_spec(occlusion_windows=((12.0, 16.0),)))
    trial = corpus.trials[0]
    lo, hi = timestep_of(12.0), timestep_of(16.0)
    assert np.all(trial.occluded[lo:hi])
    assert not trial.occluded[lo - 1] and not trial.occluded[hi]
    record = trial.record()
    assert not record.valid_face[lo:hi].any() and np.all(record.au[lo:hi] == 0.0)
    # the frame stream still carries the face at low confidence
    occluded_frames = [f for f in trial.frames()
                       if lo <= timestep_of(f.t) < hi and f.source_id == "cam_a"]
    assert occluded_frames and all(f.confidence < 0.5 for f in occluded_frames)
    # re-acquisition spike right after release
    assert trial.artifact_delta[hi:hi + 8].sum() > 0
    assert trial.artifact_delta[:hi].sum() == 0.0


def test_occlusion_perturb_uses_mid_trial_window():
    corpus = generate(small_spec())
    bumped = perturb(corpus, "occlusion", 6.0)
    lo, hi = timestep_of(20.0), timestep_of(26.0)
    for trial in bumped.trials:
        assert np.all(trial.occluded[lo:hi])
        assert not np.any(trial.occluded[:lo])


def test_perturb_rejects_bad_arguments():
    corpus = generate(small_spec())
    with pytest.raises(ContractError):
        perturb(corpus, "weather", 1.0)
    with pytest.raises(ContractError):
        perturb(corpus, "novelty", -1.0)


@pytest.mark.parametrize("kind", ["novelty", "occlusion", "amplitude-scale"])
def test_perturb_refuses_a_non_finite_magnitude(kind):
    corpus = generate(small_spec())
    for magnitude in (math.nan, math.inf):
        with pytest.raises(ContractError, match="magnitude must be a finite number"):
            perturb(corpus, kind, magnitude)


def test_occlusion_wider_than_the_trial_ends_with_it():
    corpus = generate(small_spec())
    whole = perturb(corpus, "occlusion", 40.0)
    huge = perturb(corpus, "occlusion", 1e308)
    for a, b in zip(whole.trials, huge.trials):
        assert np.array_equal(a.occluded, b.occluded)
        assert a.occluded[timestep_of(20.0):].all()
        assert np.array_equal(a.conf_a, b.conf_a)


@pytest.mark.parametrize("kind", ["novelty", "amplitude-scale"])
def test_a_huge_magnitude_writes_clipped_values_quietly(tmp_path, capsys, kind):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scenario_to_obj(small_spec(participants=1))))
    out = tmp_path / "corpus"
    assert main(["simulate", "--spec", str(spec), "--out", str(out),
                 "--perturb", kind, "--magnitude", "1e308"]) == 0
    assert capsys.readouterr().err == ""
    values = [v for path in sorted((out / "frames").iterdir())
              for line in path.read_text().splitlines()[1:]  # after the catalog header
              for v in json.loads(line)["au"]]
    assert all(0.0 <= v <= 5.0 for v in values)  # finite, and on the intensity scale
    assert max(values) == 5.0  # the overflowed deltas reached the clip


def test_default_amplitudes_leave_brow_lowerer_flat():
    assert "AU04" not in DEFAULT_AMPLITUDES
    assert set(DEFAULT_AMPLITUDES) <= set(AU_IDS)
    corpus = generate(small_spec())
    brow = AU_IDS.index("AU04")
    for trial in corpus.trials:
        assert np.all(trial.reaction_delta[:, brow] == 0.0)
