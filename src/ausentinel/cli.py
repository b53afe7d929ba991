"""Command-line entry point: train, detect, evaluate, simulate, analyze.

Exit codes: 0 success, 1 runtime failure, 2 input-contract violation
(argparse usage errors also exit 2). Verbosity via the AUSENTINEL_LOG
environment variable (DEBUG/INFO/WARNING/ERROR; default WARNING).

Every subcommand accepts ``--config FILE`` (JSON object of flag defaults,
keyed by flag dest names); explicit command-line flags override config
values. All outputs are deterministic given identical inputs and seeds.

Frame streams (``--input``, stdin, ``--listen``) are decoded as UTF-8 with
undecodable bytes replaced by U+FFFD, so a garbage byte costs at most the
record that holds it (see `ingest.read_stream`).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import socket
import sys

from ausentinel.core import (
    RATE_HZ,
    AusentinelError,
    ContractError,
    StreamStats,
)
from ausentinel.detector import DetectorState, WindowConfig, event_to_obj, run_trial, step
from ausentinel.evaluation import (
    corpus_report,
    finetune_comparison,
    format_table,
    loocv_folds,
    reaction_stats,
    score_corpus,
    welch_ttest,
    write_report_csv,
    write_report_json,
)
from ausentinel.ingest import (
    AGGREGATORS,
    ArbitrationPolicy,
    TimestepBuilder,
    read_corpus,
    read_stream,
)
from ausentinel.model import TrainConfig, classify_timestep, load, save, train
from ausentinel.simgen import generate, load_scenario, perturb, write_corpus

logger = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("AUSENTINEL_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(
        level=getattr(logging, level),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _add_ingest_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--min-confidence", type=float, default=0.5,
                     help="face-detection confidence floor (default 0.5)")
    sub.add_argument("--fps", type=float, default=30.0,
                     help="camera frame rate; must be a multiple of 3 (default 30)")
    sub.add_argument("--aggregator", choices=AGGREGATORS, default="mean",
                     help="frame-to-timestep reducer (default mean)")


def _add_window_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--window-len", type=int, default=11,
                     help="sliding window length in timesteps (default 11)")
    sub.add_argument("--threshold", type=float, default=6.0,
                     help="window sum needed to declare an error (default 6.0)")
    sub.add_argument("--merge-gap", type=int, default=1,
                     help="merge detections within this many timesteps (default 1)")
    sub.add_argument("--warmup", type=int, default=0,
                     help="discard this many leading timesteps (default 0)")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sub.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    sub.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ausentinel",
        description="Detect robot errors from facial action-unit streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}

    sub = commands.add_parser("train", help="train a model on a corpus")
    sub.add_argument("--corpus", required=True, help="corpus directory")
    sub.add_argument("--out", required=True, help="model file to write")
    sub.add_argument("--report", help="training report JSON (per-epoch loss/counts)")
    _add_train_flags(sub)
    _add_ingest_flags(sub)
    sub.add_argument("--config", help="JSON file of flag defaults")
    subs["train"] = sub

    sub = commands.add_parser("detect", help="run detection on streams")
    sub.add_argument("--model", required=True, help="model file")
    src = sub.add_mutually_exclusive_group()
    src.add_argument("--input", help="frame stream file")
    src.add_argument("--corpus", help="corpus directory (batch over all trials)")
    src.add_argument("--listen", metavar="ADDR",
                     help="serve one live TCP stream at host:port")
    sub.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                     help="stream format for --input/stdin/--listen")
    sub.add_argument("--trial-id", default="stream",
                     help="trial id stamped on events in stream mode")
    sub.add_argument("--trial-start", type=float, default=0.0,
                     help="stream time of timestep 0 (default 0.0)")
    sub.add_argument("--out", help="events JSONL path (default stdout)")
    sub.add_argument("--error-budget", type=int, default=10,
                     help="malformed records tolerated per stream or corpus "
                          "trial file before failing (default 10)")
    _add_window_flags(sub)
    _add_ingest_flags(sub)
    sub.add_argument("--config", help="JSON file of flag defaults")
    subs["detect"] = sub

    sub = commands.add_parser("evaluate", help="score a model or run LOOCV")
    sub.add_argument("--corpus", required=True, help="annotated corpus directory")
    sub.add_argument("--model",
                     help="fixed model to score (default: leave-one-out CV)")
    sub.add_argument("--finetune-per-participant", action="store_true",
                     help="also fine-tune on each participant's first trial")
    sub.add_argument("--finetune-epochs", type=int, default=100)
    sub.add_argument("--finetune-learning-rate", type=float, default=0.1)
    sub.add_argument("--report-json", help="write the full report here")
    sub.add_argument("--report-csv", help="write the flat metric table here")
    _add_train_flags(sub)
    _add_window_flags(sub)
    _add_ingest_flags(sub)
    sub.add_argument("--config", help="JSON file of flag defaults")
    subs["evaluate"] = sub

    sub = commands.add_parser("simulate", help="generate a synthetic corpus")
    sub.add_argument("--spec", required=True, help="scenario spec JSON")
    sub.add_argument("--out", required=True, help="corpus directory to write")
    sub.add_argument("--perturb", choices=("novelty", "occlusion", "amplitude-scale"),
                     help="contaminate the corpus after generation")
    sub.add_argument("--magnitude", type=float, default=1.0,
                     help="perturbation strength (see simulate docs)")
    sub.add_argument("--config", help="JSON file of flag defaults")
    subs["simulate"] = sub

    sub = commands.add_parser("analyze", help="per-AU discriminability analysis")
    sub.add_argument("--corpus", required=True, help="annotated corpus directory")
    sub.add_argument("--report", help="write per-AU results JSON here")
    _add_ingest_flags(sub)
    sub.add_argument("--config", help="JSON file of flag defaults")
    subs["analyze"] = sub

    return parser, subs


def _apply_config(parser, subs, args, argv):
    """Re-parse with config-file values as defaults; explicit flags win."""
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ContractError(f"unreadable config file {path}: {exc}")
    if not isinstance(overrides, dict):
        raise ContractError("config file must hold a JSON object")
    sub = subs[args.command]
    actions = {a.dest: a for a in sub._actions}
    coerced = {}
    for key, value in overrides.items():
        if key not in actions or key in ("help", "config"):
            raise ContractError(f"config key {key!r} is not a {args.command} flag")
        action = actions[key]
        try:
            if action.type is not None and value is not None:
                value = action.type(value)
        except (TypeError, ValueError) as exc:
            raise ContractError(f"config key {key!r}: {exc}")
        coerced[key] = value
    sub.set_defaults(**coerced)
    return parser.parse_args(argv)


def _policy(args) -> ArbitrationPolicy:
    fpt = int(round(args.fps / RATE_HZ))
    if fpt < 1 or abs(fpt * RATE_HZ - args.fps) > 1e-9:
        raise ContractError(f"--fps {args.fps} is not a positive multiple of {RATE_HZ}")
    return ArbitrationPolicy(
        min_confidence=args.min_confidence,
        frames_per_timestep=fpt,
        aggregator=args.aggregator,
    )


def _window(args) -> WindowConfig:
    return WindowConfig(
        window_len=args.window_len,
        threshold=args.threshold,
        merge_gap=args.merge_gap,
        warmup=args.warmup,
    )


def _hyper(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                       seed=args.seed)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cmd_train(args) -> int:
    trials = read_corpus(args.corpus, _policy(args))
    epoch_log: list = []
    params = train(trials, _hyper(args), epoch_log)
    save(params, args.out)
    if args.report:
        report = {
            "corpus": args.corpus,
            "model": args.out,
            "seed": args.seed,
            "final_loss": epoch_log[-1]["loss"] if epoch_log else None,
            "epochs": epoch_log,
        }
        write_report_json(args.report, report)
    final = f", final loss {epoch_log[-1]['loss']:.4f}" if epoch_log else ""
    print(f"trained on {len(trials)} trials ({args.epochs} epochs{final}) -> {args.out}")
    return 0


class _EventWriter:
    def __init__(self, path: str | None, stats: StreamStats):
        self._own = path is not None
        self._fh = open(path, "w", encoding="utf-8") if path else sys.stdout
        self._stats = stats

    def write(self, trial_id: str, event, trial_start: float) -> None:
        self._fh.write(_dump(event_to_obj(trial_id, event, trial_start)) + "\n")
        self._fh.flush()  # live consumers see events as they fire
        self._stats.events += 1
        if not event.merged:
            self._stats.unmerged_events += 1

    def close(self) -> None:
        if self._own:
            self._fh.close()


def _detect_stream(fh, args, params, writer, stats: StreamStats) -> None:
    """Consume one frame stream, counting on `stats`."""
    cfg = _window(args)
    builder = TimestepBuilder(_policy(args), args.trial_start, stats)
    state = DetectorState()

    def process(timesteps) -> None:
        stats.timesteps += len(timesteps)
        for ts in timesteps:
            weight = classify_timestep(params, ts.au[None]).item()
            event = step(state, ts.index, weight, cfg)
            if event is not None:
                writer.write(args.trial_id, event, args.trial_start)

    for frame in read_stream(fh, args.format, error_budget=args.error_budget,
                             stats=stats):
        timesteps = builder.add(frame)
        if timesteps:
            process(timesteps)
    process(builder.finish())


def cmd_detect(args) -> int:
    params = load(args.model)
    stats = StreamStats()
    writer = _EventWriter(args.out, stats)
    try:
        if args.corpus:
            cfg = _window(args)
            for trial in read_corpus(args.corpus, _policy(args), stats,
                                     error_budget=args.error_budget):
                start = trial.timesteps[0].t_start if trial.timesteps else 0.0
                for event in run_trial(trial, params, cfg):
                    writer.write(trial.trial_id, event, start)
                stats.timesteps += len(trial)
        elif args.listen:
            host, _, port = args.listen.rpartition(":")
            if not port.isdigit():
                raise ContractError(f"--listen wants host:port, got {args.listen!r}")
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host or "127.0.0.1", int(port)))
            server.listen(1)
            logger.info("listening on %s", args.listen)
            conn, peer = server.accept()
            logger.info("stream from %s", peer)
            with conn, conn.makefile("r", encoding="utf-8", errors="replace") as fh:
                _detect_stream(fh, args, params, writer, stats)
            server.close()
        elif args.input:
            with open(args.input, "r", encoding="utf-8", errors="replace",
                      newline="") as fh:
                _detect_stream(fh, args, params, writer, stats)
        else:
            reconfigure = getattr(sys.stdin, "reconfigure", None)
            if reconfigure is not None:  # a text file; not a stand-in such as StringIO
                reconfigure(errors="replace")
            _detect_stream(sys.stdin, args, params, writer, stats)
    finally:
        writer.close()
    if stats.records_skipped:
        logger.warning("skipped %d malformed records", stats.records_skipped)
    print(_dump(vars(stats)), file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    trials = read_corpus(args.corpus, _policy(args))
    cfg = _window(args)
    hyper = _hyper(args)
    folds = None
    if args.model:
        params = load(args.model)
        scored = [(t, run_trial(t, params, cfg)) for t in trials]
        mode = "model"
    else:
        folds = loocv_folds(trials, hyper, cfg)
        scored = [pair for fold in folds for pair in fold.scored]
        mode = "loocv"
    score = score_corpus(scored)
    report = corpus_report(scored, score)
    report["mode"] = mode
    print(format_table(score))
    if args.finetune_per_participant:
        comparison = finetune_comparison(
            trials, hyper, cfg,
            TrainConfig(epochs=args.finetune_epochs,
                        learning_rate=args.finetune_learning_rate,
                        seed=args.seed),
            folds=folds,
        )
        report["finetune"] = comparison.to_obj()
        base = comparison.base_mean_delay_s
        tuned = comparison.tuned_mean_delay_s
        if base is None or tuned is None:
            print("fine-tuning: no matched held-out detections to compare")
        else:
            print(f"fine-tuning: mean delay {base:.3f}s -> {tuned:.3f}s "
                  f"on held-out trials")
    if args.report_json:
        write_report_json(args.report_json, report)
    if args.report_csv:
        write_report_csv(args.report_csv, score)
    return 0


def cmd_simulate(args) -> int:
    spec = load_scenario(args.spec)
    corpus = generate(spec)
    if args.perturb:
        corpus = perturb(corpus, args.perturb, args.magnitude)
    manifest = write_corpus(corpus, args.out)
    n_annotated = sum(1 for t in corpus.trials if t.ground_truth is not None)
    print(f"wrote {len(manifest['trials'])} trials "
          f"({n_annotated} annotated) to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    trials = read_corpus(args.corpus, _policy(args))
    results = welch_ttest(trials)
    stats = reaction_stats(trials)
    header = f"{'AU':<6}{'t':>10}{'dof':>10}{'p':>12}  significant"
    print(header)
    print("-" * len(header))
    for au_id, r in results.items():
        mark = "yes" if r.significant else ("-" if r.p != r.p else "no")
        print(f"{au_id:<6}{r.t:>10.4f}{r.dof:>10.2f}{r.p:>12.6f}  {mark}")
    if stats["reaction_time_mean_s"] is not None:
        print(f"reaction time  mean {stats['reaction_time_mean_s']:.3f}s"
              f" sd {stats['reaction_time_sd_s'] or 0:.3f}s"
              f" | duration mean {stats['reaction_duration_mean_s']:.3f}s"
              f" sd {stats['reaction_duration_sd_s'] or 0:.3f}s"
              f" over {stats['n_annotated']} annotated trials")
    if args.report:
        report = {
            "aus": {
                au_id: {
                    "t": None if r.t != r.t else r.t,
                    "dof": None if r.dof != r.dof else r.dof,
                    "p": None if r.p != r.p else r.p,
                    "significant": r.significant,
                    "n_error": r.n_a,
                    "n_no_error": r.n_b,
                    "mean_error": r.mean_a,
                    "mean_no_error": r.mean_b,
                }
                for au_id, r in results.items()
            },
            "reactions": stats,
        }
        write_report_json(args.report, report)
    return 0


_DISPATCH = {
    "train": cmd_train,
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _setup_logging()
    parser, subs = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, subs, args, argv)
        return _DISPATCH[args.command](args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (AusentinelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
