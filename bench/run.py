"""Benchmark of the live ``detect`` path and the offline ``evaluate`` path.

    python3 bench/run.py --workload live-dual --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each run writes its workload's inputs for the seed (bench/inputs.py), then
starts fresh worker processes (bench/worker.py), one pass each, until the
run has measured for ``--seconds``. Every pass is checked: live events
against the independent reference, the offline report against the method's
properties. The run prints each metric with its unit and, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. It exits 0 when every pass ran and passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKLOAD_NAMES = ("live-dual", "live-camera-drop", "offline-loocv")
PASS_TIMEOUT_S = 150
SCORE_TOLERANCE = 1e-9
MAX_RMSE_DELAY_S = 4.0  # quality bars of the method (acceptance criterion 6)
MAX_FP_PER_TRIAL = 1.0

# Throughput and event latency are scaled to a reference host speed. On a
# shared 2-vCPU Xeon VM the speed of pure-Python code swung by up to 2x over
# seconds to minutes, which no run short enough for the benchmark's time
# budget averages out. Each pass is bracketed by a fixed pure-Python
# calibration loop; the pass's slowdown is the mean calibration time around
# it over REFERENCE_CALIBRATION_S. Set-up time, mostly spent importing numpy,
# moved differently, so it is scaled by a probe of its own: a fresh
# interpreter importing the package's dependencies, bracketing each pass the
# same way. Raw figures are printed beside the scaled ones.
REFERENCE_CALIBRATION_S = 0.010
CALIBRATION_REPS = 15
_CALIBRATION_LINE = json.dumps({
    "source_id": "cam_a", "t": 12.333333333333334, "confidence": 0.9137,
    "au": [0.1 + k / 7.0 for k in range(17)], "occ": [k % 3 == 0 for k in range(17)],
})
REFERENCE_IMPORT_S = 0.200
_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                 "import argparse, csv, dataclasses, hashlib, json, logging, socket, numpy; "
                 "print(time.perf_counter() - t0)")


def calibrate() -> tuple[float, float]:
    """Seconds of one calibration unit (parse and reduce 1000 frame lines,
    median of CALIBRATION_REPS) and of one dependency import probe."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        for _ in range(1000):
            obj = json.loads(_CALIBRATION_LINE)
            values = [float(v) for v in obj["au"]]
            sum(values) / len(values)
        times.append(time.perf_counter() - t0)
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                           text=True, check=True, timeout=PASS_TIMEOUT_S)
    return median(times), float(probe.stdout)


UNITS = {
    "timesteps_per_s": "1/s",
    "event_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {"s": "s", "ms": "ms", "us": "us"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return LAYER_UNITS.get(suffix.split("_per_")[0], "count")


def run_pass(inputs_path: str, result_path: str, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), inputs_path, result_path]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_live(meta: dict, result: dict) -> list[str]:
    """Disagreements of one live pass with the independent reference."""
    problems = []
    if result["rc"] != 0:
        problems.append(f"detect exited {result['rc']}: {result['stderr']}")
        return problems
    if result["lines_handed"] != meta["lines"]:
        problems.append(f"detect read {result['lines_handed']} of {meta['lines']} lines")
    summary = json.loads(result["stderr"][-1])
    if summary["timesteps"] != meta["timesteps"]:
        problems.append(f"summary timesteps {summary['timesteps']} != {meta['timesteps']}")
    got, want = result["events"], meta["expected_events"]
    if summary["events"] != len(got):
        problems.append(f"summary events {summary['events']} != {len(got)} lines")
    if len(got) != len(want):
        problems.append(f"{len(got)} events, reference has {len(want)}")
    for event, (detected_at, start, score, merged) in zip(got, want):
        if ((event["detected_at"], event["estimated_start"], event["merged"])
                != (detected_at, start, merged)
                or abs(event["score"] - score) > SCORE_TOLERANCE):
            problems.append(f"event {event} != reference {[detected_at, start, score, merged]}")
            break
    return problems


def check_offline(meta: dict, result: dict) -> list[str]:
    """Violations of the method's properties by one evaluate report."""
    if result["rc"] != 0:
        return [f"evaluate exited {result['rc']}: {result['stderr']}"]
    with open(result["report"], "r", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    rows = report["trials"]
    scored = Counter(row["trial_id"] for row in rows)
    if scored != Counter(meta["trial_ids"]):
        problems.append(f"trials scored {dict(scored)}, corpus has {meta['trial_ids']}")
    finetuned = report["finetune"]["per_participant"]
    if sorted(e["participant_id"] for e in finetuned) != sorted({r["participant_id"] for r in rows}):
        problems.append("fine-tune comparison does not cover every participant once")
    for entry in finetuned:
        base = [row["detection_delay_s"]
                for row in sorted(rows, key=lambda row: row["trial_id"])
                if row["participant_id"] == entry["participant_id"]
                and row["trial_id"] != entry["adapt_trial_id"]]
        if entry["base_delays_s"] != base:
            problems.append(f"{entry['participant_id']}: fine-tune base delays "
                            f"{entry['base_delays_s']} are not its LOOCV delays {base}")
    score = report["score"]
    misses = sum(row["false_negatives"] for row in rows)
    if misses:
        problems.append(f"{misses} missed errors")
    if score["fp_rate_per_trial"] > MAX_FP_PER_TRIAL:
        problems.append(f"{score['fp_rate_per_trial']} false positives per trial")
    rmse = score["rmse_detection_delay_s"]
    if rmse is None or rmse > MAX_RMSE_DELAY_S:
        problems.append(f"RMSE detection delay {rmse} s")
    return problems


def latency_tail(latencies: list[float]) -> str:
    """Highest percentile with at least ten events beyond it, with the count."""
    n = len(latencies)
    if n < 40:
        return f"n={n} (under 40 events: median only)"
    per_mille = next(p for p in (999, 990, 950, 900, 750) if n * (1000 - p) >= 10_000)
    cut = statistics.quantiles(latencies, n=1000, method="inclusive")[per_mille - 1]
    return f"p{per_mille / 10:g} = {cut:.4f} ms, n={n}"


def end_to_end_metrics(meta: dict, passes: list[dict], live: bool) -> dict:
    """Medians over untraced passes; throughput and latency host-scaled."""
    if live:
        pooled = [v for r in passes for v in r["latencies_ms"]]
        print(f"  reference: event latency {latency_tail(pooled)} (raw)")
    raw = {
        "timesteps_per_s": [meta["timesteps"] / r["wall_s"] for r in passes],
        # evaluate writes every event into its report at the end, so each
        # event's latency from handing over the corpus is the whole run
        "event_latency_p50_ms": [median(r["latencies_ms"]) if live else r["wall_s"] * 1e3
                                 for r in passes],
        "setup_s": [r["setup_s"] for r in passes],
    }
    slowdown = [r["slowdown"] for r in passes]
    import_slowdown = [r["import_slowdown"] for r in passes]
    print(f"  host slowdown vs reference (median) {median(slowdown):.3f}, "
          f"import {median(import_slowdown):.3f}; raw medians: "
          + ", ".join(f"{m} {median(v):.6g} {UNITS[m]}" for m, v in raw.items()))
    return {
        "timesteps_per_s": median([v * k for v, k in zip(raw["timesteps_per_s"], slowdown)]),
        "event_latency_p50_ms": median(
            [v / k for v, k in zip(raw["event_latency_p50_ms"], slowdown)]),
        "peak_rss_mb": median([r["rss_mb"] for r in passes]),
        "setup_s": median([v / k for v, k in zip(raw["setup_s"], import_slowdown)]),
    }


def layer_metrics(meta: dict, untraced: list[dict], traced: list[dict],
                  problems: list[str]) -> dict:
    """Per-layer times as medians over traced passes; counts must agree."""
    metrics = {}
    for metric in traced[0]["metrics"]:
        values = [r["metrics"][metric] for r in traced]
        if layer_unit(metric) == "count":
            if len(set(values)) != 1:
                problems.append(f"count {metric} differs between passes: {values}")
            metrics[metric] = values[0]
        else:
            metrics[metric] = median(values)
    shares = {layer: median([r["shares"].get(layer, 0.0) for r in traced])
              for layer in traced[0]["shares"]}
    print("  layer shares of traced wall time: "
          + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items())
          + f", untraced rest {median([1 - sum(r['shares'].values()) for r in traced]):.1%}")
    untraced_tps, traced_tps = (
        median([meta["timesteps"] / r["wall_s"] * r["slowdown"] for r in passes])
        for passes in (untraced, traced))
    print(f"  tracing overhead: {untraced_tps:.1f} untraced vs {traced_tps:.1f} "
          f"traced timesteps/s (host-scaled, {untraced_tps / traced_tps - 1:+.1%})")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Make inputs, run and check passes for `seconds`, print the result."""
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        # Inputs are made in a process of their own: a worker's peak RSS
        # (getrusage) includes the high-water mark of the process that
        # launched it, so this one must stay small.
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"),
                        "--workload", name, "--seed", str(seed), "--out", work],
                       check=True, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
        inputs_path = os.path.join(work, "inputs.json")
        with open(inputs_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        live = name != "offline-loocv"
        check = check_live if live else check_offline
        calibration = [calibrate()]
        problems: list[str] = []
        outputs: set[str] = set()

        def next_pass(traced: bool) -> dict:
            """Run, calibrate and check one pass; keep only its figures."""
            result = run_pass(inputs_path,
                              os.path.join(work, f"pass{len(calibration)}.json"), traced)
            calibration.append(calibrate())
            (loop0, import0), (loop1, import1) = calibration[-2:]
            result["slowdown"] = (loop0 + loop1) / 2 / REFERENCE_CALIBRATION_S
            result["import_slowdown"] = (import0 + import1) / 2 / REFERENCE_IMPORT_S
            problems.extend(check(meta, result))
            if result["rc"] == 0:
                if live:
                    output = json.dumps(result.pop("events")).encode()
                else:
                    with open(result["report"], "rb") as fh:
                        output = fh.read()
                outputs.add(hashlib.sha256(output).hexdigest())
            return result

        # A traced run alternates untraced and traced passes: it shows the
        # tracing overhead and that tracing leaves the outputs unchanged.
        kinds = (False, True) if trace else (False,)
        made: dict[bool, list[dict]] = {False: [], True: []}
        t0 = time.perf_counter()
        while not made[trace] or time.perf_counter() - t0 < seconds:
            for kind in kinds:
                made[kind].append(next_pass(kind))
        passes = made[trace]
        if len(outputs) > 1:
            problems.append("passes disagree on their output")
        per_pass = meta["lines"] if live else meta["participants"]
        n_passes = len(made[False]) + len(made[True])
        attempted = per_pass * n_passes

        print(f"workload {name}, seed {seed}: {n_passes} passes ({len(made[True])} traced) "
              f"in {time.perf_counter() - t0:.1f} s, "
              f"{per_pass} {'frame lines' if live else 'folds'} each")
        if trace:
            metrics = layer_metrics(meta, made[False], passes, problems)
            units = {m: layer_unit(m) for m in metrics}
        else:
            metrics = end_to_end_metrics(meta, passes, live)
            units = UNITS
        if not live:
            with open(passes[0]["report"], "r", encoding="utf-8") as fh:
                score = json.load(fh)["score"]
            print(f"  reference: LOOCV RMSE delay {score['rmse_detection_delay_s']:.3f} s, "
                  f"FP/trial {score['fp_rate_per_trial']:.3f}, "
                  f"FN/trial {score['fn_rate_per_trial']:.3f} "
                  f"over {score['n_trials']} trials")
        for metric in sorted(metrics):
            print(f"  {metric:<42} {metrics[metric]:>14.6g} {units[metric]}")
        print(f"  attempted {attempted}, failed 0")
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": 0,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }))
        return not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ausentinel", "cli.py")):
        print(f"error: no ausentinel sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
