"""One measured pass of a benchmark workload, run in a fresh process.

    python3 bench/worker.py INPUTS_JSON RESULT_JSON [--trace]

The pass imports ``ausentinel.cli`` and calls its ``main`` in-process:
``detect`` for the live workloads, ``evaluate --finetune-per-participant``
for the offline one. A live stream is handed to ``detect`` through stdin one
line at a time, as soon as ``detect`` asks for the next one (a closed loop),
and every line handed over and every output line written is time-stamped.

With ``--trace`` the public functions that ``cli``, ``evaluation``,
``detector`` and ``ingest`` call into are replaced by wrappers from this file
that add up each layer's self time (its span minus the spans of the traced
calls it made) and count its work. Spans are summed per layer as they close
rather than kept one by one, which keeps a pass's memory flat.

The result (timings, events, counters, peak RSS of this process) goes to
RESULT_JSON; the pass checks nothing itself.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

perf_counter = time.perf_counter


class Sink:
    """Stands in for stdout/stderr: keeps each write with its time."""

    def __init__(self, on_write=None):
        self.chunks: list[tuple[float, str]] = []
        self._on_write = on_write

    def write(self, text: str) -> int:
        now = perf_counter()
        if self._on_write is not None:
            self._on_write(now)
        self.chunks.append((now, text))
        return len(text)

    def flush(self) -> None:
        pass

    def lines(self) -> list[tuple[float, str]]:
        """Complete output lines, each stamped when its newline arrived."""
        out, buf = [], ""
        for stamp, text in self.chunks:
            buf += text
            while "\n" in buf:
                line, buf = buf.split("\n", 1)
                out.append((stamp, line))
        return out


class Tracer:
    """Per-layer self time, call counts and work counts of one pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._children = [0.0]  # traced time spent in callees, per open span
        self._event_t0: float | None = None

    def enter(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def leave(self, layer: str, t0: float) -> None:
        elapsed = perf_counter() - t0
        self.self_s[layer] += elapsed - self._children.pop()
        self._children[-1] += elapsed
        self.calls[layer] += 1

    def wrap(self, layer: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(layer, t0)
            if after is not None:
                after(args, result)
            return result
        return traced

    def wrap_frames(self, layer: str, fn):
        """Trace a frame generator: each next() is one span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames = fn(*args, **kwargs)
            while True:
                t0 = self.enter()
                try:
                    frame = next(frames)
                except StopIteration:
                    return
                finally:
                    self.leave(layer, t0)
                self.counts[layer + ".frames"] += 1
                yield frame
        return traced

    # The event write layer runs from cli's call into event_to_obj until the
    # event's line reaches the output; nothing traced runs in between.
    def event_started(self) -> None:
        self._event_t0 = perf_counter()

    def event_written(self, now: float) -> None:
        if self._event_t0 is None:
            return
        elapsed = now - self._event_t0
        self._event_t0 = None
        self.self_s["cli.event_write"] += elapsed
        self._children[-1] += elapsed
        self.calls["cli.event_write"] += 1


def traced_builder(tracer: Tracer, base):
    """TimestepBuilder whose add/finish are spans, with a frame backlog count.

    The backlog is the number of frames added whose timestep has not been
    emitted yet; its maximum over the pass goes to the counters.
    """

    class TracedTimestepBuilder(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_frames: Counter = Counter()
            self._bench_next = 0
            self._bench_backlog = 0

        def add(self, frame):
            t0 = tracer.enter()
            try:
                out = super().add(frame)
            finally:
                tracer.leave("ingest.builder", t0)
            tracer.counts["ingest.builder.frames"] += 1
            policy = self.policy
            index = (round((frame.t - self.trial_start) * policy.fps)
                     // policy.frames_per_timestep)
            if index >= self._bench_next:
                self._bench_frames[index] += 1
                self._bench_backlog += 1
            self._emitted(out)
            return out

        def finish(self):
            t0 = tracer.enter()
            try:
                out = super().finish()
            finally:
                tracer.leave("ingest.builder", t0)
            self._emitted(out)
            return out

        def _emitted(self, timesteps) -> None:
            counts = tracer.counts
            for ts in timesteps:
                self._bench_backlog -= self._bench_frames.pop(ts.index, 0)
                self._bench_next = ts.index + 1
                counts["ingest.builder.timesteps"] += 1
                if not ts.valid_face:
                    counts["ingest.builder.invalid_timesteps"] += 1
            if self._bench_backlog > counts["ingest.builder.backlog_max_frames"]:
                counts["ingest.builder.backlog_max_frames"] = self._bench_backlog

    return TracedTimestepBuilder


def install_tracer(tracer: Tracer) -> None:
    """Replace the traced functions in every module namespace that calls them."""
    from ausentinel import cli, detector, evaluation, ingest

    def count_events(args, event):
        if event is not None:
            tracer.counts["detector.step.events"] += 1
            if not event.merged:
                tracer.counts["detector.step.unmerged_events"] += 1

    def count_epochs(args, params):
        tracer.counts["model.train.epochs"] += params.epochs

    def count_trial(args, events):
        tracer.counts["detector.run_trial.timesteps"] += len(args[0])

    real_event_to_obj = cli.event_to_obj

    def event_to_obj(*args, **kwargs):
        tracer.event_started()
        return real_event_to_obj(*args, **kwargs)

    read_stream = tracer.wrap_frames("ingest.read_stream", ingest.read_stream)
    builder = traced_builder(tracer, ingest.TimestepBuilder)
    classify = tracer.wrap("model.classify_timestep", detector.classify_timestep)
    step = tracer.wrap("detector.step", detector.step, count_events)
    run_trial = tracer.wrap("detector.run_trial", detector.run_trial, count_trial)
    train = tracer.wrap("model.train", evaluation.train, count_epochs)
    finetune = tracer.wrap("model.finetune", evaluation.finetune)
    loocv_folds = tracer.wrap("evaluation.loocv_folds", evaluation.loocv_folds)
    score_corpus = tracer.wrap("evaluation.score_corpus", evaluation.score_corpus)
    read_corpus = tracer.wrap("ingest.read_corpus", ingest.read_corpus)

    for module, names in (
        (cli, dict(read_stream=read_stream, TimestepBuilder=builder,
                   classify_timestep=classify, step=step, run_trial=run_trial,
                   train=train, loocv_folds=loocv_folds,
                   score_corpus=score_corpus, read_corpus=read_corpus,
                   event_to_obj=event_to_obj)),
        (ingest, dict(read_stream=read_stream, TimestepBuilder=builder)),
        (detector, dict(classify_timestep=classify, step=step)),
        (evaluation, dict(run_trial=run_trial, train=train, finetune=finetune,
                          loocv_folds=loocv_folds, score_corpus=score_corpus)),
    ):
        for name, fn in names.items():
            if not hasattr(module, name):
                raise AttributeError(f"{module.__name__} has no {name}")
            setattr(module, name, fn)


def layer_figures(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of the pass plus each layer's share of wall time."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per(layer: str, n: int, scale: float) -> float:
        return s[layer] / n * scale if n else 0.0

    frames = counts["ingest.read_stream.frames"]
    builder_frames = counts["ingest.builder.frames"]
    metrics = {
        "ingest.read_stream.us_per_frame": per("ingest.read_stream", frames, 1e6),
        "ingest.read_stream.frames": frames,
        "ingest.builder.us_per_frame": per("ingest.builder", builder_frames, 1e6),
        "ingest.builder.timesteps": counts["ingest.builder.timesteps"],
        "ingest.builder.invalid_timesteps": counts["ingest.builder.invalid_timesteps"],
        "ingest.builder.backlog_max_frames": counts["ingest.builder.backlog_max_frames"],
        "ingest.read_corpus.s": per("ingest.read_corpus", calls["ingest.read_corpus"], 1.0),
        "model.classify_timestep.us_per_timestep": per(
            "model.classify_timestep", calls["model.classify_timestep"], 1e6),
        "model.train.calls": calls["model.train"],
        "model.train.ms_per_call": per("model.train", calls["model.train"], 1e3),
        "model.train.us_per_epoch": per("model.train", counts["model.train.epochs"], 1e6),
        "model.finetune.calls": calls["model.finetune"],
        "model.finetune.ms_per_call": per("model.finetune", calls["model.finetune"], 1e3),
        "detector.step.us_per_timestep": per("detector.step", calls["detector.step"], 1e6),
        "detector.step.events": counts["detector.step.events"],
        "detector.step.unmerged_events": counts["detector.step.unmerged_events"],
        "detector.run_trial.calls": calls["detector.run_trial"],
        "detector.run_trial.us_per_timestep": per(
            "detector.run_trial", counts["detector.run_trial.timesteps"], 1e6),
        "evaluation.loocv_folds.calls": calls["evaluation.loocv_folds"],
        "evaluation.score_corpus.calls": calls["evaluation.score_corpus"],
        "cli.event_write.us_per_event": per(
            "cli.event_write", calls["cli.event_write"], 1e6),
    }
    shares = {layer: t / wall_s for layer, t in sorted(s.items())}
    return {"metrics": metrics, "shares": shares}


def live_pass(meta: dict, t_launch: float, trace: bool) -> dict:
    import ausentinel.cli as cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracer(tracer)
    stamps = array("d", bytes(8 * meta["lines"]))

    def handed(fh):
        for i, line in enumerate(fh):
            stamps[i] = perf_counter()
            yield line

    out = Sink(tracer.event_written if tracer is not None else None)
    err = Sink()
    argv = ["detect", "--model", meta["model"], "--format", meta["format"]]
    with open(meta["stream"], "r", encoding="utf-8", newline="") as fh:
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = handed(fh), out, err
        try:
            rc = cli.main(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    err_lines = err.lines()
    first, last = stamps[0], err_lines[-1][0] if err_lines else float("nan")
    events, latencies_ms = [], []
    for stamp, line in out.lines():
        event = json.loads(line)
        events.append(event)
        arrived = stamps[meta["last_line"][event["detected_at"]]]
        latencies_ms.append((stamp - arrived) * 1e3)
    result = {
        "rc": rc,
        "setup_s": first - t_launch,
        "wall_s": last - first,
        "lines_handed": sum(1 for s in stamps if s > 0.0),
        "events": events,
        "latencies_ms": latencies_ms,
        "stderr": [line for _, line in err_lines],
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        result.update(layer_figures(tracer, last - first))
    return result


def offline_pass(meta: dict, t_launch: float, trace: bool, report_path: str) -> dict:
    import ausentinel.cli as cli

    setup_s = perf_counter() - t_launch
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracer(tracer)
    argv = ["evaluate", "--corpus", meta["corpus"], "--finetune-per-participant",
            "--report-json", report_path]
    err = Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = Sink(), err
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall_s = perf_counter() - t0
        sys.stdout, sys.stderr = saved
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "stderr": [line for _, line in err.lines()],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(layer_figures(tracer, wall_s))
    return result


def main(argv: list[str]) -> int:
    inputs_path, result_path = argv[0], argv[1]
    trace = "--trace" in argv[2:]
    with open(inputs_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    t_launch = perf_counter()  # set-up runs from the program's first import
    if meta["workload"] == "offline-loocv":
        report_path = os.path.splitext(result_path)[0] + ".report.json"
        result = offline_pass(meta, t_launch, trace, report_path)
        result["report"] = report_path
    else:
        result = live_pass(meta, t_launch, trace)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
