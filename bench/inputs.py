"""Benchmark inputs and their independent reference, all made from one seed.

Everything the measured process reads is written here, before it starts:

* ``live-dual`` -- a JSONL frame stream of STREAM_TRIALS simulated trials
  laid end to end, both cameras at 30 fps throughout, plus a model file
  trained on other participants of the same seeded population.
* ``live-camera-drop`` -- the same kind of stream as CSV, with an occlusion
  window in every trial; ``cam_b`` stops for good DROP_AT_S seconds in.
* ``offline-loocv`` -- a corpus directory of OFFLINE_PARTICIPANTS x 3 trials.

For the live streams this module also computes the expected events without
the detector: simgen's own per-trial ``record()`` timesteps, a numpy forward
pass over the model file's weights, and a brute-force window oracle with no
streaming state. Both cameras of a simulated trial carry the same face, so
the expected events do not depend on which camera is present.

Regenerate one workload's inputs and reference into a directory with
``python3 bench/inputs.py --workload live-dual --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ausentinel.ingest import write_frames_csv, write_frames_jsonl  # noqa: E402
from ausentinel.model import TrainConfig, save, train  # noqa: E402
from ausentinel.simgen import ErrorPlan, ScenarioSpec, generate, write_corpus  # noqa: E402

WORKLOADS = ("live-dual", "live-camera-drop", "offline-loocv")

ERRORS = (
    ErrorPlan("physical", 18.0),
    ErrorPlan("concept", 27.0),
    ErrorPlan("generalization", 33.0),
)
TRIAL_LEN_S = 60.0
FPS = 30
FRAMES_PER_TIMESTEP = 10

TRAIN_PARTICIPANTS = 6      # model for the live streams; not in the stream
STREAM_PARTICIPANTS = 4     # x 3 trials laid end to end = 12 trials, 720 s
DROP_AT_S = 5.0             # cam_b's last frame is the one before this time
OCCLUSION_WINDOW_S = (44.0, 47.0)  # per trial, on the camera that is left
OFFLINE_PARTICIPANTS = 6    # x 3 trials, leave-one-participant-out

# Window rule of the method (the detect/evaluate defaults).
WINDOW_LEN = 11
THRESHOLD = 6.0
MERGE_GAP = 1


def _live_trials(seed: int, occluded: bool):
    """Train the live model's corpus and the streamed trials, disjoint people.

    Participant traits depend only on (seed, participant index), so the
    streamed participants, indices TRAIN_PARTICIPANTS and up, are not the
    ones the model was trained on.
    """
    train_spec = ScenarioSpec(participants=TRAIN_PARTICIPANTS,
                              trials_per_participant=len(ERRORS), seed=seed,
                              errors=ERRORS, trial_len_s=TRIAL_LEN_S)
    stream_spec = replace(
        train_spec, participants=TRAIN_PARTICIPANTS + STREAM_PARTICIPANTS,
        occlusion_windows=(OCCLUSION_WINDOW_S,) if occluded else (),
    )
    streamed = generate(stream_spec).trials[TRAIN_PARTICIPANTS * len(ERRORS):]
    return generate(train_spec).records(), streamed


def _stream_frames(trials, drop_at_s: float | None):
    """Lay trials end to end on one clock; optionally stop cam_b for good."""
    for pos, trial in enumerate(trials):
        offset = pos * TRIAL_LEN_S
        for frame in trial.frames():
            t = frame.t + offset
            if drop_at_s is not None and frame.source_id == "cam_b" and t >= drop_at_s:
                continue
            yield replace(frame, t=t)


def _last_line_of_timestep(frames) -> list[int]:
    """Line number (0 = header) of each timestep's last frame in the file."""
    last: list[int] = []
    for pos, frame in enumerate(frames, start=1):
        index = round(frame.t * FPS) // FRAMES_PER_TIMESTEP
        if index == len(last):
            last.append(pos)
        else:
            last[index] = pos
    return last


def model_weights(path):
    """Weights of a model file, read as plain JSON (format: see README)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    w1 = np.asarray(doc["w1"], dtype=np.float64).reshape(-1, 4)
    w2 = np.asarray(doc["w2"], dtype=np.float64).reshape(4, 2)
    return w1, np.asarray(doc["b1"]), w2, np.asarray(doc["b2"])


def reference_weights(X: np.ndarray, model_path) -> np.ndarray:
    """Confidence weight per timestep: p_error if it beats 0.5, else 0."""
    w1, b1, w2, b2 = model_weights(model_path)
    logits = np.maximum(X @ w1 + b1, 0.0) @ w2 + b2
    p_error = 1.0 / (1.0 + np.exp(logits[:, 0] - logits[:, 1]))
    return np.where(p_error > 0.5, p_error, 0.0)


def reference_events(weights) -> list[list]:
    """Brute-force window rule: every full window summed from scratch.

    Returns [detected_at, estimated_start, score, merged] per firing. A
    firing merges when its detected timestep or estimated start lies within
    MERGE_GAP of the previous firing, merged or not.
    """
    weights = [float(w) for w in weights]
    events = []
    last = None
    for k in range(WINDOW_LEN - 1, len(weights)):
        window = weights[k - WINDOW_LEN + 1 : k + 1]
        score = sum(window)
        if score < THRESHOLD:
            continue
        start = k - WINDOW_LEN + 1 + next(i for i, w in enumerate(window) if w > 0)
        merged = last is not None and (abs(k - last) <= MERGE_GAP
                                       or abs(start - last) <= MERGE_GAP)
        events.append([k, start, score, merged])
        last = k
    return events


def make_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write one workload's inputs to out_dir; return its description.

    Live workloads describe the stream (path, format, line and timestep
    counts, last line of each timestep) and carry the expected events;
    the offline workload describes its corpus.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    if workload == "offline-loocv":
        spec = ScenarioSpec(participants=OFFLINE_PARTICIPANTS,
                            trials_per_participant=len(ERRORS), seed=seed,
                            errors=ERRORS, trial_len_s=TRIAL_LEN_S)
        corpus = generate(spec)
        corpus_dir = os.path.join(out_dir, "corpus")
        write_corpus(corpus, corpus_dir)
        return {
            "workload": workload,
            "corpus": corpus_dir,
            "trial_ids": [t.trial_id for t in corpus.trials],
            "participants": OFFLINE_PARTICIPANTS,
            "timesteps": sum(t.n_timesteps for t in corpus.trials),
        }

    dual = workload == "live-dual"
    train_records, streamed = _live_trials(seed, occluded=not dual)
    model_path = os.path.join(out_dir, "model.json")
    save(train(train_records, TrainConfig()), model_path)
    frames = list(_stream_frames(streamed, None if dual else DROP_AT_S))
    fmt = "jsonl" if dual else "csv"
    stream_path = os.path.join(out_dir, f"stream.{fmt}")
    if dual:
        n_frames = write_frames_jsonl(stream_path, frames)
    else:
        n_frames = write_frames_csv(stream_path, frames)
    X = np.concatenate([np.stack([ts.au for ts in t.record().timesteps])
                        for t in streamed])
    return {
        "workload": workload,
        "model": model_path,
        "stream": stream_path,
        "format": fmt,
        "lines": n_frames + 1,
        "timesteps": int(X.shape[0]),
        "last_line": _last_line_of_timestep(frames),
        "expected_events": reference_events(reference_weights(X, model_path)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args(argv)
    meta = make_inputs(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    print(f"wrote {args.workload} inputs for seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
