"""Command-line entry point: train, detect, evaluate, simulate, analyze.

Exit codes: 0 success, 1 runtime failure, 2 input-contract violation
(argparse usage errors also exit 2). Verbosity via the AUSENTINEL_LOG
environment variable (DEBUG/INFO/WARNING/ERROR; default WARNING).

Every subcommand accepts ``--config FILE`` (JSON object of flag defaults,
keyed by flag dest names); explicit command-line flags override config
values. All outputs are deterministic given identical inputs and seeds.

Frame streams (``--input``, stdin, ``--listen``) are decoded as UTF-8 with
undecodable bytes replaced by U+FFFD, so a garbage byte costs at most the
record that holds it (see `ingest.read_stream`). `detect` writes each event
as it fires to ``--out``, or, if that is absent or empty, to stdout, left open.
"""

from __future__ import annotations

import argparse
import io
import logging
import math
import os
import sys

from ausentinel.core import (
    PERTURB_KINDS,
    RATE_HZ,
    AusentinelError,
    ContractError,
    StreamStats,
    canonical_json,
    check_field,
    read_json,
    write_json,
)
from ausentinel.detector import DetectorState, WindowConfig, event_to_obj, run_trial, step
from ausentinel.ingest import (
    AGGREGATORS,
    ERROR_BUDGET,
    MAX_FRAMES_PER_TIMESTEP,
    ArbitrationPolicy,
    TimestepBuilder,
    check_error_budget,
    open_text,
    read_corpus,
    read_stream,
)
from ausentinel.model import TrainConfig, classify_timestep, finetune_recipe, load, save, train

# `evaluate` and `analyze` import `ausentinel.evaluation` when they run, so
# `detect` starts without it.

logger = logging.getLogger(__name__)

# `detect --listen` ends a stream whose peer sends nothing for this long, as
# if the peer had closed it.
LISTEN_IDLE_S = 30.0


def _setup_logging() -> None:
    level = os.environ.get("AUSENTINEL_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(
        level=getattr(logging, level),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _finite(text) -> float:
    """The type of every float flag on the command line: a finite number
    (float() alone would take "nan" and "inf"). In --config it is a float."""
    try:
        value = float(text)
    except (ValueError, OverflowError):  # not a number, or an int beyond any float
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_ingest_flags(sub: argparse.ArgumentParser) -> None:
    policy = ArbitrationPolicy()  # every flag default is the library's own
    sub.add_argument("--min-confidence", type=_finite, default=policy.min_confidence,
                     help="face-detection confidence floor (default %(default)s)")
    sub.add_argument("--fps", type=_finite, default=policy.fps,
                     help="camera frame rate; must be a multiple of 3 (default %(default)g)")
    sub.add_argument("--aggregator", choices=AGGREGATORS, default=policy.aggregator,
                     help="frame-to-timestep reducer (default %(default)s)")


def _add_window_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--window-len", type=int, default=WindowConfig.window_len,
                     help="sliding window length in timesteps (default %(default)s)")
    sub.add_argument("--threshold", type=_finite, default=WindowConfig.threshold,
                     help="window sum needed to declare an error (default %(default)s)")
    sub.add_argument("--merge-gap", type=int, default=WindowConfig.merge_gap,
                     help="merge detections within this many timesteps (default %(default)s)")
    sub.add_argument("--warmup", type=int, default=WindowConfig.warmup,
                     help="discard this many leading timesteps (default %(default)s)")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sub.add_argument("--learning-rate", type=_finite, default=TrainConfig.learning_rate)
    sub.add_argument("--seed", type=int, default=TrainConfig.seed)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ausentinel",
        description="Detect robot errors from facial action-unit streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("train", help="train a model on a corpus")
    sub.add_argument("--corpus", required=True, help="corpus directory")
    sub.add_argument("--out", required=True, help="model file to write")
    sub.add_argument("--report", help="training report JSON (per-epoch loss/counts)")
    _add_train_flags(sub)
    _add_ingest_flags(sub)

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
    sub.add_argument("--trial-start", type=_finite, default=0.0,
                     help="stream time of timestep 0 (default 0.0)")
    sub.add_argument("--out", help="events JSONL path (default stdout)")
    sub.add_argument("--error-budget", type=int, default=ERROR_BUDGET,
                     help="malformed records tolerated per stream or corpus "
                          "trial file before failing (default %(default)s)")
    _add_window_flags(sub)
    _add_ingest_flags(sub)

    sub = commands.add_parser("evaluate", help="score a model or run LOOCV")
    sub.add_argument("--corpus", required=True, help="annotated corpus directory")
    sub.add_argument("--model",
                     help="fixed model to score (default: leave-one-out CV)")
    sub.add_argument("--finetune-per-participant", action="store_true",
                     help="also fine-tune on each participant's first trial")
    recipe = finetune_recipe(TrainConfig())
    sub.add_argument("--finetune-epochs", type=int, default=recipe.epochs)
    sub.add_argument("--finetune-learning-rate", type=_finite, default=recipe.learning_rate)
    sub.add_argument("--report-json", help="write the full report here")
    sub.add_argument("--report-csv", help="write the flat metric table here")
    _add_train_flags(sub)
    _add_window_flags(sub)
    _add_ingest_flags(sub)

    sub = commands.add_parser("simulate", help="generate a synthetic corpus")
    sub.add_argument("--spec", required=True, help="scenario spec JSON")
    sub.add_argument("--out", required=True, help="corpus directory to write")
    sub.add_argument("--perturb", choices=PERTURB_KINDS,
                     help="contaminate the corpus after generation")
    sub.add_argument("--magnitude", type=_finite, default=1.0,
                     help="perturbation strength (see simulate docs)")

    sub = commands.add_parser("analyze", help="per-AU discriminability analysis")
    sub.add_argument("--corpus", required=True, help="annotated corpus directory")
    sub.add_argument("--report", help="write per-AU results JSON here")
    _add_ingest_flags(sub)

    for sub in commands.choices.values():
        sub.add_argument("--config", help="JSON file of flag defaults")
    return parser, commands.choices


def _apply_config(parser, subs, args, argv):
    """Re-parse with config-file values as defaults; explicit flags win."""
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        overrides = read_json(path, f"config file {path}")
    except OSError as exc:
        raise ContractError(f"unreadable config file {path}: {exc}")
    check_field(f"config file {path}", overrides, dict)
    sub = subs[args.command]
    actions = {a.dest: a for a in sub._actions}
    coerced = {}
    for key, value in overrides.items():
        if key not in actions or key in ("help", "config"):
            raise ContractError(f"config key {key!r} is not a {args.command} flag")
        # A config value has its flag's kind: a switch's bool, an int flag's
        # int, a float flag's finite number, or else a string.
        action = actions[key]
        kind = (bool if action.nargs == 0 else float if action.type is _finite
                else action.type or str)
        coerced[key] = check_field(f"config key {key!r}", value, kind)
    defaults = {a.dest: a.default for a in sub._actions}
    sub.set_defaults(**coerced)
    args = parser.parse_args(argv)
    # argparse checks its exclusive groups against the command line alone.
    for group in sub._mutually_exclusive_groups:
        given = [a.option_strings[0] for a in group._group_actions
                 if getattr(args, a.dest) != defaults[a.dest]]
        if len(given) > 1:
            raise ContractError(f"{' and '.join(given)} are mutually exclusive, "
                                "on the command line and in --config together")
    return args


def _policy(args) -> ArbitrationPolicy:
    fpt = int(round(args.fps / RATE_HZ))
    if not 1 <= fpt <= MAX_FRAMES_PER_TIMESTEP or abs(fpt * RATE_HZ - args.fps) > 1e-9:
        raise ContractError(f"--fps {args.fps:g} is not a multiple of {RATE_HZ:g} "
                            f"from {RATE_HZ:g} to {MAX_FRAMES_PER_TIMESTEP * RATE_HZ:g}")
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


def cmd_train(args) -> int:
    policy, hyper = _policy(args), _hyper(args)
    trials = read_corpus(args.corpus, policy)
    epoch_log: list = []
    params = train(trials, hyper, epoch_log)
    save(params, args.out)
    if args.report:
        report = {
            "corpus": args.corpus,
            "model": args.out,
            "seed": args.seed,
            "final_loss": epoch_log[-1]["loss"] if epoch_log else None,
            "epochs": epoch_log,
        }
        write_json(args.report, report)
    final = f", final loss {epoch_log[-1]['loss']:.4f}" if epoch_log else ""
    print(f"trained on {len(trials)} trials ({args.epochs} epochs{final}) -> {args.out}")
    return 0


def _detect_stream(source, args, policy, cfg, params, write, stats: StreamStats) -> None:
    """Consume one frame stream (a text stream or a path) into `write`, counting on `stats`."""
    builder = TimestepBuilder(policy, args.trial_start, stats)
    state = DetectorState()

    def process(timesteps) -> None:
        stats.timesteps += len(timesteps)
        for ts in timesteps:
            weight = classify_timestep(params, ts.au[None]).item()
            event = step(state, ts.index, weight, cfg)
            if event is not None:
                write(args.trial_id, event, args.trial_start)

    for frame in read_stream(source, args.format, error_budget=args.error_budget,
                             stats=stats):
        timesteps = builder.add(frame)
        if timesteps:
            process(timesteps)
    process(builder.finish())


class _UntilIdle(io.RawIOBase):
    """The bytes of a socket stream, until the peer closes it or sends
    nothing for `LISTEN_IDLE_S`: an idle stream ends as a closed one does,
    so a last line without its newline is still read as a last line."""

    def __init__(self, conn):
        self._conn, self._idle = conn, False

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self._idle:
            return 0
        try:
            return self._conn.recv_into(buffer)
        except TimeoutError:
            self._idle = True
            logger.warning("stream ended idle: nothing received for %g s", LISTEN_IDLE_S)
            return 0


def cmd_detect(args) -> int:
    check_error_budget(args.error_budget, "--error-budget")
    policy, cfg = _policy(args), _window(args)
    params = load(args.model)
    stats = StreamStats()
    with open_text(args.out or sys.stdout, "w") as out:
        def write(trial_id: str, event, trial_start: float) -> None:
            out.write(canonical_json(event_to_obj(trial_id, event, trial_start)) + "\n")
            out.flush()  # live consumers see events as they fire
            stats.events += 1
            if not event.merged:
                stats.unmerged_events += 1

        if args.corpus:
            for trial in read_corpus(args.corpus, policy, stats,
                                     error_budget=args.error_budget):
                for event in run_trial(trial, params, cfg):
                    write(trial.trial_id, event, trial.trial_start)
                stats.timesteps += len(trial)
        elif args.listen:
            host, _, port = args.listen.rpartition(":")
            # ASCII digits only, and few: int() of thousands of digits raises.
            if not (port.isascii() and port.isdigit() and len(port.lstrip("0")) <= 5
                    and int(port) <= 65535):
                raise ContractError(f"--listen wants host:port, port 0-65535: {args.listen!r}")
            import socket  # only --listen needs it; `detect` starts leaner without

            with socket.create_server((host or "127.0.0.1", int(port)), backlog=1) as server:
                logger.info("listening on %s", args.listen)
                conn, peer = server.accept()
                conn.settimeout(LISTEN_IDLE_S)
                logger.info("stream from %s", peer)
                with conn, io.TextIOWrapper(io.BufferedReader(_UntilIdle(conn)),
                                            encoding="utf-8", errors="replace") as fh:
                    _detect_stream(fh, args, policy, cfg, params, write, stats)
        elif args.input:
            _detect_stream(args.input, args, policy, cfg, params, write, stats)
        else:
            reconfigure = getattr(sys.stdin, "reconfigure", None)
            if reconfigure is not None:  # a text file; not a stand-in such as StringIO
                reconfigure(errors="replace")
            _detect_stream(sys.stdin, args, policy, cfg, params, write, stats)
    if stats.records_skipped:
        logger.warning("skipped %d malformed records", stats.records_skipped)
    print(canonical_json(vars(stats)), file=sys.stderr)
    return 0


def _finetune_recipe(args) -> TrainConfig:
    """`evaluate`'s fine-tune recipe, checked flag by flag before anything is read."""
    if args.finetune_epochs < 0:
        raise ContractError(f"--finetune-epochs must be >= 0, got {args.finetune_epochs}")
    if not args.finetune_learning_rate > 0:
        raise ContractError("--finetune-learning-rate must be > 0, "
                            f"got {args.finetune_learning_rate:g}")
    return TrainConfig(epochs=args.finetune_epochs, learning_rate=args.finetune_learning_rate,
                       seed=args.seed)


def cmd_evaluate(args) -> int:
    from ausentinel.evaluation import (corpus_report, finetune_comparison, format_table,
                                       loocv_folds, score_corpus, write_report_csv)

    recipe = _finetune_recipe(args) if args.finetune_per_participant else None
    policy, cfg = _policy(args), _window(args)
    hyper = None if args.model and recipe is None else _hyper(args)  # --model trains nothing
    trials = read_corpus(args.corpus, policy)
    params = load(args.model) if args.model else None
    folds = None if hyper is None else loocv_folds(trials, hyper, cfg, recipe)
    if params is None:
        scored = [pair for fold in folds for pair in fold.scored]
    else:
        scored = [(t, run_trial(t, params, cfg)) for t in trials]
    score = score_corpus(scored)
    report = corpus_report(scored, score)
    report["mode"] = "loocv" if params is None else "model"
    print(format_table(score))
    if recipe is not None:
        comparison = finetune_comparison(folds)
        report["finetune"] = comparison.to_obj()
        base = comparison.base_mean_delay_s
        tuned = comparison.tuned_mean_delay_s
        if base is None or tuned is None:
            print("fine-tuning: no matched held-out detections to compare")
        else:
            print(f"fine-tuning: mean delay {base:.3f}s -> {tuned:.3f}s "
                  f"on held-out trials")
    if args.report_json:
        write_json(args.report_json, report)
    if args.report_csv:
        write_report_csv(args.report_csv, score)
    return 0


def cmd_simulate(args) -> int:
    # Imported here so that the other commands never load the simulator.
    from ausentinel.simgen import generate, load_scenario, perturb, write_corpus

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
    from ausentinel.evaluation import reaction_stats, welch_ttest

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
        aus = {au_id: {k: None if isinstance(v, float) and math.isnan(v) else v
                       for k, v in vars(r).items()}
               for au_id, r in results.items()}
        write_json(args.report, {"aus": aus, "reactions": stats})
    return 0


def __getattr__(name: str):
    # The bench tracer (`bench/worker.py`) checks that `cli` has these two
    # names before it patches them, as it did while `cli` imported them; it
    # patches them in `evaluation` too, which `cmd_evaluate` calls. Goes
    # with the tracer (ROADMAP item 7).
    if name in ("loocv_folds", "score_corpus"):
        from ausentinel import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
