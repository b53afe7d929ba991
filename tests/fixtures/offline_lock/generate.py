"""Regenerate the offline_lock fixture: the expected `evaluate` and `train` reports.

    PYTHONPATH=src python tests/fixtures/offline_lock/generate.py

The fixture pins the offline path byte for byte across versions of the
package: corpus read, LOOCV training, per-participant fine-tuning, scoring,
and the per-epoch training log. Only the reports are committed; the corpus
is rebuilt from SCENARIO by simgen each time (tests/test_offline_lock.py
does the same in a temporary directory). Regenerate only with a change
that is meant to move a model or a report.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from ausentinel.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

# Three participants x two 30 s trials: small enough for a quick test, and
# every participant keeps one held-out trial after fine-tuning on the other.
# Fine-tuning on a single trial also takes the degenerate undersampling path
# (fewer no-error than error timesteps) for at least one participant.
SCENARIO = {
    "participants": 3,
    "trials_per_participant": 2,
    "seed": 7,
    "trial_len_s": 30.0,
    "errors": [
        {"error_type": "physical", "perceived_error_start_s": 9.0},
        {"error_type": "concept", "perceived_error_start_s": 15.0},
    ],
}
EVALUATE_ARGS = ["--epochs", "80", "--finetune-per-participant",
                 "--finetune-epochs", "30"]
TRAIN_ARGS = ["--epochs", "25"]
OUTPUTS = ("report.json", "train.json")


def build(out_dir) -> dict[str, bytes]:
    """Simulate the corpus under `out_dir`, run evaluate and train, return the reports.

    The commands run inside `out_dir` with relative paths, because
    train.json records the corpus path it was given.
    """
    runs = (
        ["simulate", "--spec", "scenario.json", "--out", "corpus"],
        ["evaluate", "--corpus", "corpus", *EVALUATE_ARGS,
         "--report-json", "report.json"],
        ["train", "--corpus", "corpus", "--out", "model.json", *TRAIN_ARGS,
         "--report", "train.json"],
    )
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        with open("scenario.json", "w", encoding="utf-8") as fh:
            json.dump(SCENARIO, fh)
        for argv in runs:
            rc = main(argv)
            if rc != 0:
                raise SystemExit(f"{argv[0]} failed (exit {rc})")
        out = {}
        for name in OUTPUTS:
            with open(name, "rb") as fh:
                out[name] = fh.read()
    finally:
        os.chdir(cwd)
    return out


def run() -> None:
    work = tempfile.mkdtemp()
    try:
        for name, data in build(work).items():
            with open(os.path.join(HERE, name), "wb") as fh:
                fh.write(data)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    run()
