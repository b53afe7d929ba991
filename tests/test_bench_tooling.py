"""Benchmark tooling: the tracer of `bench/worker.py` still finds what it wraps.

`--trace 1` replaces functions by name in the package's modules and stops
on a name that is missing, so a rename in the package breaks traced runs. A
name that is still there but no longer called leaves its layer reading 0;
the traced `detect` below catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from ausentinel.simgen import ErrorPlan, ScenarioSpec, generate

ROOT = Path(__file__).resolve().parents[1]
LIVE_LOCK = ROOT / "tests" / "fixtures" / "live_lock"


def test_bench_tracer_installs():
    code = ("import sys; sys.path.insert(0, 'bench'); import worker; "
            "worker.install_tracer(worker.Tracer())")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_record_timesteps_stack_into_the_record_matrix():
    # bench/inputs.py builds each live workload's reference weights from
    # np.stack([ts.au for ts in t.record().timesteps]); were that to differ
    # from the trial's matrix, every live pass would fail its check.
    (trial,) = generate(ScenarioSpec(participants=1, trials_per_participant=1, seed=1,
                                     errors=(ErrorPlan("physical", 10.0),),
                                     trial_len_s=20.0,
                                     occlusion_windows=((4.0, 7.5),))).trials
    record = trial.record()
    steps = record.timesteps
    assert np.stack([ts.au for ts in steps]).tobytes() == record.au.tobytes()
    assert [ts.valid_face for ts in steps] == record.valid_face.tolist()
    assert not record.valid_face.all() and record.valid_face.any()


def test_bench_tracer_sees_every_live_layer(tmp_path):
    code = (
        "import json, sys; sys.path.insert(0, 'bench'); import worker\n"
        "from ausentinel.cli import main\n"
        "tracer = worker.Tracer(); worker.install_tracer(tracer)\n"
        "rc = main(['detect', '--model', sys.argv[1], '--input', sys.argv[2],\n"
        "           '--out', sys.argv[3]])\n"
        "print(json.dumps(dict(tracer.counts, rc=rc)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(LIVE_LOCK / "model.json"),
         str(LIVE_LOCK / "stream.jsonl"), str(tmp_path / "events.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    summary = json.loads(done.stderr.splitlines()[-1])
    assert counts["rc"] == 0
    assert counts["ingest.read_stream.frames"] == summary["frames_read"] == 1200
    assert counts["ingest.builder.frames"] == 1200
    assert counts["ingest.builder.timesteps"] == summary["timesteps"] == 60
    assert counts["detector.step.events"] == summary["events"] > 0
