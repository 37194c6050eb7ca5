"""Command-line front door.

Subcommands:
  run             sample an SMT-LIB file, writing JSON-lines samples plus
                  optional per-epoch intervals, a coverage bitmap, and stats
  verify          re-evaluate a samples file against its problem
  merge-coverage  union coverage bitmaps and report normalized coverage

Exit codes: 0 success, 2 unsatisfiable input, 3 unsupported input,
4 solver failure, 5 verification found violations, 130 a run stopped by
Ctrl-C, 1 anything else.  A run stopped by Ctrl-C, or by a solver failure
after its first epoch, still writes its samples, stats and coverage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from . import coverage as coverage_mod
from .errors import (
    BoxsamplerError,
    ConfigError,
    NotAModel,
    SmtSyntaxError,
    SolverFailure,
    SoundnessViolation,
    UnsatFormula,
    UnsupportedFeature,
)
from .intervals import to_json_obj
from .sampler import SampleLayout, SamplerConfig, sample_formula
from .smtlib import parse_problem
from .solver import ProcessSolverClient
from .terms import Model, preprocess, to_nnf

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSAT = 2
EXIT_UNSUPPORTED = 3
EXIT_SOLVER = 4
EXIT_VIOLATIONS = 5
EXIT_INTERRUPTED = 130  # as a shell reports SIGINT


_escape = json.encoder.encode_basestring_ascii  # how json.dumps writes a str
_int = int.__repr__  # how json.dumps writes an int


def sample_to_json(sample: Model) -> str:
    """The samples-file line of `sample`, newline included: one JSON object
    with an entry per symbol, sorted by name, whose value is an integer,
    true or false, or ``{"default": d, "exceptions": {...}}`` with the
    exceptions keyed by ``str(index)`` in string order.  Each entry is
    written straight to text, with no dict and no ``json.dumps``; the line is
    byte-identical to ``json.dumps(obj, sort_keys=True)`` of that object."""
    entries = [(name, f"{_escape(name)}: {_int(v)}") for name, v in sample.ints.items()]
    entries += [(name, f"{_escape(name)}: {'true' if v else 'false'}") for name, v in sample.bools.items()]
    for name, fv in sample.funcs.items():
        cells = ", ".join([f'"{k}": {_int(v)}' for k, v in sorted([(str(k), v) for k, v in fv.exceptions.items()])])
        entries.append((name, f'{_escape(name)}: {{"default": {_int(fv.default)}, "exceptions": {{{cells}}}}}'))
    entries.sort()
    return "{" + ", ".join([text for _, text in entries]) + "}\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boxsampler")
    sub = parser.add_subparsers(dest="command", required=True)
    cfg = SamplerConfig()  # the defaults of the sampling options

    run = sub.add_parser("run", help="sample a problem")
    run.add_argument("problem", help="SMT-LIB v2 input file")
    run.add_argument("--solver-cmd", default="z3 -in", help="solver command line (SMT-LIB on stdio)")
    run.add_argument("--strategy", choices=("random", "blocking"), default=cfg.strategy)
    run.add_argument("--time-limit", type=float, default=cfg.total_time_limit, help="total run budget, seconds")
    run.add_argument("--epoch-time-limit", type=float, default=cfg.epoch_time_limit)
    run.add_argument("--max-samples", type=int, default=cfg.max_samples)
    run.add_argument("--rounds", type=int, default=cfg.rounds_per_epoch, help="sampling rounds per epoch")
    run.add_argument(
        "--samples-per-round",
        type=int,
        default=cfg.samples_per_round,
        help="draws per sampling round; boxes with at most this many points are enumerated, each point once",
    )
    run.add_argument("--unique-rate-threshold", type=float, default=cfg.unique_rate_threshold)
    run.add_argument("--random-bound", type=int, default=cfg.random_bound, help="soft-assignment range of random seeds")
    run.add_argument("--unbounded-width", type=int, default=cfg.unbounded_width, help="clamp width for open intervals")
    run.add_argument("--rng-seed", type=int, default=cfg.rng_seed)
    run.add_argument("--solver-timeout", type=float, default=60.0, help="per-query solver timeout")
    run.add_argument("--samples-out", default=None, help="samples file (JSON lines); default <problem>.samples")
    run.add_argument("--intervals-out", default=None, help="per-epoch interval maps (JSON lines)")
    run.add_argument("--coverage-out", default=None, help="coverage bitmap output file")
    run.add_argument("--stats-out", default=None, help="run statistics JSON")
    run.add_argument("--inject-seed", default=None, help="JSON assignment used as the first seed (test hook)")

    verify = sub.add_parser("verify", help="audit a samples file")
    verify.add_argument("samples", help="JSON-lines samples file")
    verify.add_argument("problem", help="SMT-LIB v2 input file")

    merge = sub.add_parser("merge-coverage", help="union bitmaps, report normalized coverage")
    merge.add_argument("bitmaps", nargs="+", help="coverage bitmap files")
    merge.add_argument("--out", default=None, help="write the union bitmap here")
    return parser


def _cmd_run(args) -> int:
    if args.solver_timeout <= 0:
        raise ConfigError("the solver timeout must be positive")
    cfg = SamplerConfig(
        strategy=args.strategy,
        total_time_limit=args.time_limit,
        epoch_time_limit=args.epoch_time_limit,
        max_samples=args.max_samples,
        rounds_per_epoch=args.rounds,
        samples_per_round=args.samples_per_round,
        unique_rate_threshold=args.unique_rate_threshold,
        random_bound=args.random_bound,
        unbounded_width=args.unbounded_width,
        rng_seed=args.rng_seed,
    )
    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    if args.inject_seed:
        layout = SampleLayout(problem.declarations)
        cfg.inject_seed = layout.model(layout.from_json(json.loads(args.inject_seed)))

    samples_path = args.samples_out or args.problem + ".samples"

    bitmap = None
    nnf = None
    if args.coverage_out:
        nnf = to_nnf(preprocess(problem.assertion))
        bitmap = coverage_mod.CoverageBitmap.for_formula(nnf)

    client = ProcessSolverClient(args.solver_cmd, timeout=args.solver_timeout)
    rng = random.Random(cfg.rng_seed)

    # files are created lazily so that an unsat input leaves nothing behind
    sinks: dict[str, object] = {}

    def _writer(key: str, path: str):
        fh = sinks.get(key)
        if fh is None:
            fh = sinks[key] = open(path, "w", encoding="utf-8")
        return fh

    # Coverage is folded once per epoch, over the epoch's fresh samples,
    # before its intervals line is written; one last fold after the run
    # takes what a stop inside an epoch (Ctrl-C, a solver failure) left
    # pending.  A fold cut short by Ctrl-C is repeated whole, which leaves
    # the same bitmap: a fold only ORs bits in.
    pending: list[Model] = []

    def fold_coverage():
        if pending:
            coverage_mod.record_sample(bitmap, nnf, *pending)
            pending.clear()

    def on_sample(sample: Model):
        _writer("samples", samples_path).write(sample_to_json(sample))
        if bitmap is not None:
            pending.append(sample)

    def on_epoch(epoch):
        fold_coverage()
        if args.intervals_out:
            _writer("intervals", args.intervals_out).write(json.dumps(to_json_obj(epoch.intervals)) + "\n")

    try:
        stats = sample_formula(problem, cfg, client, rng, on_sample=on_sample, on_epoch=on_epoch)
    finally:
        for fh in sinks.values():
            fh.close()
        client.close()

    if bitmap is not None:
        fold_coverage()
        coverage_mod.write_bitmap(bitmap, args.coverage_out)
        stats.raw_coverage = coverage_mod.raw_coverage(bitmap)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(stats), fh, indent=2)
            fh.write("\n")
    print(
        f"{stats.unique_samples} unique samples in {stats.epochs} epochs "
        f"({stats.solver_calls} solver calls); stopped: {stats.stop_reason}"
    )
    if stats.stop_reason == "interrupted":
        return EXIT_INTERRUPTED
    return EXIT_SOLVER if stats.stop_reason.startswith("solver failure") else EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.problem, "r", encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    layout = SampleLayout(problem.declarations)
    pred = layout.predicate(preprocess(problem.assertion))
    violations = 0
    duplicates = 0
    total = 0
    seen = set()
    with open(args.samples, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            values = layout.from_json(json.loads(line))
            if not pred(*values):
                violations += 1
                print(f"violation at line {line_no}", file=sys.stderr)
            key = layout.key(values)
            if key in seen:
                duplicates += 1
                print(f"duplicate at line {line_no}", file=sys.stderr)
            seen.add(key)
    print(f"{total} samples, {violations} violations, {duplicates} duplicates")
    return EXIT_OK if violations == 0 and duplicates == 0 else EXIT_VIOLATIONS


def _cmd_merge(args) -> int:
    bitmaps = [coverage_mod.read_bitmap(path) for path in args.bitmaps]
    union = bitmaps[0].copy()
    for bm in bitmaps[1:]:
        union.merge(bm)
    for path, bm in zip(args.bitmaps, bitmaps):
        score = coverage_mod.normalized_coverage(bm, [b for b in bitmaps if b is not bm])
        print(f"{path}: raw {coverage_mod.raw_coverage(bm):.4f} normalized {score:.4f}")
    print(f"union: raw {coverage_mod.raw_coverage(union):.4f} ({union.covered_bits()} bits)")
    if args.out:
        coverage_mod.write_bitmap(union, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_merge(args)
    except UnsatFormula as exc:
        print(f"unsat: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except (UnsupportedFeature, SmtSyntaxError) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SolverFailure,) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (SoundnessViolation, NotAModel) as exc:
        print(f"internal soundness failure: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, BoxsamplerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
