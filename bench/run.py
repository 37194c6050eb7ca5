"""boxsampler benchmark: verified unique samples per second, end to end and
per layer.

    python3 bench/run.py --workload lia_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The inputs are generated from `--seed` (see `gen.py`).  A run
repeats rounds until `--seconds` have passed; a round runs every generated
instance once to exactly `max_samples` unique samples.  Every emitted sample
is re-checked with the generator's own evaluator.  The last line of
standard output is one JSON object: `correct`, `attempted` and `failed`
count program runs, and `metrics` holds the end-to-end metrics
(`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
`--smoke` shrinks every workload to a few samples and one round.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    kind: str  # "local": in-process solver; "process": minisolver pipe; "cli": boxsampler.cli
    strategy: str
    instances: int
    max_samples: int
    rounds_per_epoch: int
    samples_per_round: int
    smoke_samples: int


WORKLOADS = {
    "lia_wide": Workload("local", "random", 6, 3_000, 10, 100, 300),
    "alia_cli": Workload("cli", "blocking", 3, 2_000, 1, 400, 300),
    "point_blocking": Workload("process", "blocking", 5, 20, 10, 1000, 5),
}

# At most this many samples per instance feed the benchmark's own coverage
# bitmap on in-process workloads (the CLI records every sample itself).
COVERAGE_SAMPLE_CAP = 500


@dataclass
class Trial:
    """One program run to exactly `max_samples` unique samples."""

    wall_s: float = 0.0
    call_s: float = 0.0  # the sample_formula call alone
    first_sample_s: float = 0.0
    epoch_ms: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    samples: list[dict] = field(default_factory=list)  # environments for gen.evaluate
    raw_coverage: float | None = None
    error: str = ""


# ---------------------------------------------------------------------------
# Program runs


def _solver_cmd() -> str:
    return f"{sys.executable} -m boxsampler.minisolver"


def _env_of_model(m) -> dict:
    env = dict(m.ints)
    env.update(m.bools)
    for name, fv in m.funcs.items():
        env[name] = (fv.default, dict(fv.exceptions))
    return env


def _env_of_json(obj: dict) -> dict:
    env = {}
    for name, v in obj.items():
        if isinstance(v, dict):
            env[name] = (int(v["default"]), {int(k): int(x) for k, x in v["exceptions"].items()})
        else:
            env[name] = v
    return env


def _json_of_env(env: dict) -> dict:
    return {
        name: {"default": v[0], "exceptions": {str(k): x for k, x in sorted(v[1].items())}}
        if isinstance(v, tuple) else v
        for name, v in env.items()
    }


def _key(env: dict) -> tuple:
    """Canonical form of an assignment, independent of the package's own."""
    out = []
    for name in sorted(env):
        v = env[name]
        if isinstance(v, tuple):
            default, table = v
            v = (default, tuple(sorted((k, x) for k, x in table.items() if x != default)))
        out.append((name, v))
    return tuple(out)


def check_trial(trial: Trial, inst: gen.Instance, n: int) -> str:
    """Empty when the run emitted exactly n distinct samples, each a model
    of the generated formula; otherwise the first problem found."""
    if trial.stats.get("stop_reason") != "max samples":
        return f"stopped: {trial.stats.get('stop_reason')!r}"
    if len(trial.samples) != n:
        return f"{len(trial.samples)} samples, expected {n}"
    seen = set()
    for i, env in enumerate(trial.samples):
        try:
            ok = inst.holds(env)
        except (KeyError, TypeError) as exc:
            return f"sample {i} is incomplete: {exc!r}"
        if not ok:
            return f"sample {i} violates the formula: {env}"
        seen.add(_key(env))
    if len(seen) != n:
        return f"{n - len(seen)} duplicate samples"
    return ""


class Programs:
    """Runs the package the way each workload's user does.  `self.tracer`,
    when set, is installed around the program run only."""

    def __init__(self, workdir: Path):
        from boxsampler import cli, coverage, sampler, smtlib, terms
        from boxsampler.minisolver import LocalSolverClient
        from boxsampler.solver import ProcessSolverClient, SolverRequest

        class WaitingClient(ProcessSolverClient):
            """Reaps the solver child when it is stopped."""

            def _reset(self):
                handle = self._handle
                super()._reset()
                if handle is not None:
                    handle.proc.wait(timeout=30)
                    handle.proc.stdin.close()

        self.cli, self.coverage, self.sampler, self.smtlib, self.terms = cli, coverage, sampler, smtlib, terms
        self.LocalSolverClient, self.WaitingClient, self.SolverRequest = LocalSolverClient, WaitingClient, SolverRequest
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.tracer_notes: dict = {}

    @contextlib.contextmanager
    def _traced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.install(self.tracer_notes)
        try:
            yield
        finally:
            self.tracer.uninstall()

    # -- set-up as the user pays it ---------------------------------------

    def setup(self, wl: Workload, inst: gen.Instance) -> float:
        """Parse, preprocess to NNF, and (for a solver process) start the
        solver and wait for its first answer.  Returns seconds."""
        text = inst.smtlib()
        t0 = perf()
        problem = self.smtlib.parse_problem(text)
        nnf = self.terms.to_nnf(self.terms.preprocess(problem.assertion))
        if wl.kind == "cli":
            self.coverage.CoverageBitmap.for_formula(nnf)
        client = None
        if wl.kind != "local":
            client = self.WaitingClient(_solver_cmd())
            verdict = client.solve(self.SolverRequest([], [self.terms.And(())], []))
            if not verdict.is_sat:
                client.close()
                raise RuntimeError(f"solver did not start: {verdict.reason}")
        elapsed = perf() - t0
        if client is not None:
            client.close()
        return elapsed

    # -- in-process runs -----------------------------------------------------

    def run_inprocess(self, wl: Workload, inst: gen.Instance, n: int, rng_seed: int) -> Trial:
        trial = Trial()
        models = []
        epoch_ends: list[float] = []

        def on_sample(m):
            if not models:
                trial.first_sample_s = perf()
            models.append(m)

        cfg = self.sampler.SamplerConfig(
            strategy=wl.strategy,
            max_samples=n,
            rounds_per_epoch=wl.rounds_per_epoch,
            samples_per_round=wl.samples_per_round,
            rng_seed=rng_seed,
        )
        text = inst.smtlib()
        with self._traced():
            t0 = perf()
            problem = self.smtlib.parse_problem(text)
            client = self.LocalSolverClient() if wl.kind == "local" else self.WaitingClient(_solver_cmd())
            try:
                t1 = perf()
                stats = self.sampler.sample_formula(
                    problem, cfg, client, random.Random(rng_seed), on_sample=on_sample,
                    on_epoch=lambda _e: epoch_ends.append(perf()),
                )
                trial.call_s = perf() - t1
            finally:
                client.close()
            trial.wall_s = perf() - t0
        trial.first_sample_s -= t0
        trial.epoch_ms = [(b - a) * 1e3 for a, b in zip([t1] + epoch_ends, epoch_ends)]
        trial.stats = dataclasses.asdict(stats)
        trial.samples = [_env_of_model(m) for m in models]
        return trial

    def write_samples(self, trial: Trial, inst: gen.Instance) -> tuple[Path, Path]:
        """The problem and samples of an in-process run, written as the CLI
        writes them."""
        problem_path = self.workdir / f"{inst.name}.smt2"
        samples_path = self.workdir / f"{inst.name}.samples"
        problem_path.write_text(inst.smtlib(), encoding="utf-8")
        with open(samples_path, "w", encoding="utf-8") as fh:
            for env in trial.samples:
                fh.write(json.dumps(_json_of_env(env), sort_keys=True) + "\n")
        return problem_path, samples_path

    def coverage_of(self, trial: Trial, inst: gen.Instance) -> float:
        """Raw AST bit coverage of (at most COVERAGE_SAMPLE_CAP evenly
        spaced) samples, computed with the package's coverage module."""
        problem = self.smtlib.parse_problem(inst.smtlib())
        nnf = self.terms.to_nnf(self.terms.preprocess(problem.assertion))
        bitmap = self.coverage.CoverageBitmap.for_formula(nnf)
        stride = max(1, math.ceil(len(trial.samples) / COVERAGE_SAMPLE_CAP))
        for env in trial.samples[::stride]:
            model = self.terms.Model(
                ints={k: v for k, v in env.items() if type(v) is int},
                bools={k: v for k, v in env.items() if type(v) is bool},
                funcs={k: self.terms.FuncValue(*v) for k, v in env.items() if type(v) is tuple},
            )
            self.coverage.record_sample(bitmap, nnf, model)
        return self.coverage.raw_coverage(bitmap)

    # -- CLI runs ----------------------------------------------------------

    @contextlib.contextmanager
    def _cli_hooks(self, trial: Trial, epoch_ends: list[float]):
        """Time the first emitted sample, each epoch's end and the
        sample_formula call; reap the solver child."""
        cli = self.cli
        saved = cli.sample_to_json, cli.to_json_obj, cli.sample_formula, cli.ProcessSolverClient
        to_json, to_json_obj, sample_formula = saved[:3]

        def first_sample(sample):
            if not trial.first_sample_s:
                trial.first_sample_s = perf()
            return to_json(sample)

        def epoch_end(iv):
            epoch_ends.append(perf())
            return to_json_obj(iv)

        def timed_sample_formula(*args, **kwargs):
            t1 = perf()
            epoch_ends.append(t1)
            try:
                return sample_formula(*args, **kwargs)
            finally:
                trial.call_s = perf() - t1

        cli.sample_to_json, cli.to_json_obj = first_sample, epoch_end
        cli.sample_formula, cli.ProcessSolverClient = timed_sample_formula, self.WaitingClient
        try:
            yield
        finally:
            cli.sample_to_json, cli.to_json_obj, cli.sample_formula, cli.ProcessSolverClient = saved

    def run_cli(self, wl: Workload, inst: gen.Instance, n: int, rng_seed: int) -> Trial:
        trial = Trial()
        problem_path = self.workdir / f"{inst.name}.smt2"
        problem_path.write_text(inst.smtlib(), encoding="utf-8")
        out = {k: self.workdir / f"{inst.name}.{k}" for k in ("samples", "intervals", "coverage", "stats")}
        for path in out.values():
            path.unlink(missing_ok=True)
        argv = [
            "run", str(problem_path), "--solver-cmd", _solver_cmd(), "--strategy", wl.strategy,
            "--max-samples", str(n), "--rounds", str(wl.rounds_per_epoch),
            "--samples-per-round", str(wl.samples_per_round), "--rng-seed", str(rng_seed),
            "--samples-out", str(out["samples"]), "--intervals-out", str(out["intervals"]),
            "--coverage-out", str(out["coverage"]), "--stats-out", str(out["stats"]),
        ]
        epoch_ends: list[float] = []
        stdout = io.StringIO()
        with self._cli_hooks(trial, epoch_ends), contextlib.redirect_stdout(stdout), self._traced():
            t0 = perf()
            code = self.cli.main(argv)
            trial.wall_s = perf() - t0
        if code != 0:
            trial.error = f"boxsampler run exited {code}: {stdout.getvalue().strip()}"
            return trial
        trial.first_sample_s -= t0
        trial.epoch_ms = [(b - a) * 1e3 for a, b in zip(epoch_ends, epoch_ends[1:])]
        trial.stats = json.loads(out["stats"].read_text(encoding="utf-8"))
        trial.raw_coverage = trial.stats["raw_coverage"]
        with open(out["samples"], encoding="utf-8") as fh:
            trial.samples = [_env_of_json(json.loads(line)) for line in fh if line.strip()]
        return trial

    def verify(self, problem_path: Path, samples_path: Path, n: int) -> tuple[float, str]:
        """Time `boxsampler verify` on a samples file; returns seconds and an
        error (empty when the file passed)."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            t0 = perf()
            code = self.cli.main(["verify", str(samples_path), str(problem_path)])
            elapsed = perf() - t0
        expected = f"{n} samples, 0 violations, 0 duplicates"
        if code != 0 or expected not in stdout.getvalue():
            return elapsed, f"verify exited {code}: {stdout.getvalue().strip()}"
        return elapsed, ""

    def run(self, wl: Workload, inst: gen.Instance, n: int, rng_seed: int) -> Trial:
        try:
            if wl.kind == "cli":
                trial = self.run_cli(wl, inst, n, rng_seed)
            else:
                trial = self.run_inprocess(wl, inst, n, rng_seed)
        except Exception as exc:  # a failed run is counted, never dropped
            return Trial(error=f"{type(exc).__name__}: {exc}")
        trial.error = trial.error or check_trial(trial, inst, n)
        return trial

    def samples_files(self, wl: Workload, trial: Trial, inst: gen.Instance) -> tuple[Path, Path]:
        if wl.kind == "cli":
            return self.workdir / f"{inst.name}.smt2", self.workdir / f"{inst.name}.samples"
        return self.write_samples(trial, inst)


# ---------------------------------------------------------------------------
# Measurement


class SpeedGauge:
    """Tracks the machine's speed with a fixed pure-Python kernel.

    On a shared machine the CPU's speed drifts by tens of percent within
    a minute, for every process alike.  Each timed step is bracketed by two
    gauge readings, and its times are scaled by `REF_S / kernel time`: they
    read as if the kernel took REF_S, which takes the drift out.  The
    kernel runs none of the package's code."""

    REF_S = 0.0125

    def __init__(self):
        self.last = self._read()
        self.factors: list[float] = []

    @staticmethod
    def _kernel() -> int:
        table: dict[int, int] = {}
        acc = 0
        for i in range(60_000):
            k = i % 97
            table[k] = table.get(k, 0) + i
            acc += len(str(i)) * (k & 3)
        return acc + len(sorted(table.items()))

    def _read(self) -> float:
        best = math.inf
        for _ in range(3):
            t0 = perf()
            self._kernel()
            best = min(best, perf() - t0)
        return best

    def factor(self) -> float:
        """Scale for the times taken since the previous call."""
        now = self._read()
        f = self.REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def count(self, error: str) -> bool:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(error)
        return not error


def _rounds(instances, seconds: float, smoke: bool):
    """Yield (round, index, instance) until a further round would pass
    `seconds`, judged by the last round's length; at least one round."""
    start = perf()
    rnd = 0
    while True:
        t0 = perf()
        for i, inst in enumerate(instances):
            yield rnd, i, inst
        rnd += 1
        now = perf()
        if smoke or (now - start) + (now - t0) > seconds:
            return


def measure(programs: Programs, wl: Workload, instances, n: int, seed: int, seconds: float, smoke: bool):
    """Untraced rounds until `seconds` pass.  Returns (metrics, tally, detail)."""
    tally = Tally()
    gauge = SpeedGauge()
    per_instance = lambda: {i: [] for i in range(len(instances))}  # noqa: E731
    walls, raw_walls, verifies = per_instance(), per_instance(), per_instance()
    setups: list[float] = []
    firsts: list[float] = []
    epochs: dict[tuple[int, int], list[float]] = {}  # (instance, epoch index) -> times over rounds
    coverages: list[float] = []
    calls = unique = rounds = 0
    start = perf()
    for rnd, i, inst in _rounds(instances, seconds, smoke):
        rounds = rnd + 1
        setup_s = programs.setup(wl, inst)
        trial = programs.run(wl, inst, n, seed * 1000 + i)
        verify_s, error = programs.verify(*programs.samples_files(wl, trial, inst), n) if not trial.error else (0, "")
        f = gauge.factor()
        setups.append(setup_s * f)
        if not tally.count(trial.error) or not tally.count(error):
            continue
        walls[i].append(trial.wall_s * f)
        raw_walls[i].append(trial.wall_s)
        firsts.append(trial.first_sample_s * f)
        verifies[i].append(verify_s * f)
        for j, e in enumerate(trial.epoch_ms):
            epochs.setdefault((i, j), []).append(e * f)
        calls += trial.stats["solver_calls"]
        unique += len(trial.samples)
        if rnd == 0:  # deterministic: once per instance
            coverages.append(trial.raw_coverage if trial.raw_coverage is not None
                             else programs.coverage_of(trial, inst))

    def medians(series):
        return [statistics.median(v) for v in series.values() if v]

    # A trial repeats the same deterministic epochs every round, so each
    # epoch's median over rounds is its time with the machine's noise damped;
    # the percentiles are taken over those per-epoch times.
    epoch_ms = medians(epochs)
    metrics = {
        "samples_per_s": (n * len(medians(walls)) / sum(medians(walls)), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "first_sample_ms": (1e3 * statistics.median(firsts), "ms"),
        "epoch_ms_p50": (statistics.median(epoch_ms), "ms"),
        "epoch_ms_p90": (_p90(epoch_ms), "ms"),
        "solver_calls_per_1k": (1e3 * calls / unique, "calls/1k"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "verify_per_s": (n * len(medians(verifies)) / sum(medians(verifies)), "1/s"),
        "raw_coverage": (statistics.fmean(coverages), "frac"),
    } if coverages else {}
    raw = medians(raw_walls)
    detail = {
        "rounds": rounds, "trials": sum(map(len, walls.values())), "distinct_epochs": len(epoch_ms),
        "epoch_times": sum(map(len, epochs.values())),
        "setups": len(setups), "measured_s": round(perf() - start, 3),
        "speed_factor_median": round(statistics.median(gauge.factors), 4),
        "unscaled_samples_per_s": round(n * len(raw) / sum(raw), 3) if raw else None,
    }
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# Traced runs


def _log2_volume(iv, seed, width: int, eval_term) -> float:
    """log2 of the number of points a box's draw ranges hold, open sides
    clamped `width` away from the seed value as the sampler clamps them."""
    total = 0.0
    for key, interval in iv.entries.items():
        at = eval_term(key, seed)
        lo = interval.lo if interval.lo is not None else at - width
        hi = interval.hi if interval.hi is not None else at + width
        total += math.log2(hi - lo + 1)
    return total


def _notes() -> dict:
    def solver(tracer, args, verdict):
        tracer.notes.setdefault("hard", []).append(len(args[1].hard))
        tracer.notes.setdefault("nonsat", []).append(not verdict.is_sat)

    def implicant(tracer, args, product):
        tracer.notes.setdefault("literals", []).append(len(product))

    def epoch(tracer, args, result):
        tracer.notes.setdefault("boxes", []).append((result.intervals, result.seed, args[5].unbounded_width))

    return {"solver.query": solver, "implicant.compute": implicant, "sampler.epoch": epoch}


def measure_traced(programs: Programs, wl: Workload, instances, n: int, seed: int, seconds: float,
                   smoke: bool, trace_dir: Path):
    """Rounds of (untraced reference run, traced run) per instance until
    `seconds` pass.  Returns (metrics, tally, detail)."""
    from boxsampler.terms import eval_term

    tally = Tally()
    gauge = SpeedGauge()
    tracer = Tracer()
    totals: dict[str, dict] = {}
    query_s: list[float] = []
    hard, nonsat, literals, volumes, gaps = [], [], [], [], []
    pinned = keys = clashes = resets = traced_trials = verified = rounds = 0
    ref_wall = wall = verify_s = 0.0
    for rnd, i, inst in _rounds(instances, seconds, smoke):
        rounds = rnd + 1
        rng_seed = seed * 1000 + i
        ref = programs.run(wl, inst, n, rng_seed)
        f_ref = gauge.factor()
        if not tally.count(ref.error):
            continue
        programs.tracer, programs.tracer_notes = tracer, _notes()
        tracer.reset()
        try:
            trial = programs.run(wl, inst, n, rng_seed)
        finally:
            programs.tracer = None
        f = gauge.factor()
        if not tally.count(trial.error):
            continue
        traced_trials += 1
        ref_wall += ref.wall_s * f_ref
        wall += trial.wall_s * f
        phases = sum(v for k, v in ref.stats["wall_time"].items() if k != "total")
        gaps.append(1.0 - phases / ref.call_s)
        clashes += trial.stats["clashes"]
        resets += trial.stats["blocking_resets"]
        for name, row in tracer.summary().items():
            acc = totals.setdefault(name, dict.fromkeys(row, 0.0))
            acc["calls"] += row["calls"]
            for k in ("total_s", "self_s", "top_s"):
                acc[k] += row[k] * f
        query_s += [d * f for d in tracer.durations("solver.query")]
        hard += tracer.notes.get("hard", [])
        nonsat += tracer.notes.get("nonsat", [])
        literals += tracer.notes.get("literals", [])
        for iv, box_seed, width in tracer.notes.get("boxes", []):
            volumes.append(_log2_volume(iv, box_seed, width, eval_term))
            keys += len(iv.entries)
            pinned += sum(1 for v in iv.entries.values() if v.is_pinned())
        if rnd == 0:
            tracer.write(str(trace_dir / f"{inst.name}.spans.tsv"), origin=tracer.spans[2])
            elapsed, error = programs.verify(*programs.samples_files(wl, trial, inst), n)
            f_verify = gauge.factor()
            if tally.count(error):
                verified += n
                verify_s += elapsed * f_verify
    if not traced_trials:
        return {}, tally, {"rounds": rounds}

    def row(name):
        return totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0})

    def per_call_us(name):
        r = row(name)
        return 1e6 * r["self_s"] / r["calls"] if r["calls"] else 0.0

    samples = n * traced_trials
    epochs = row("sampler.epoch")["calls"]
    draws = row("sampler.draw")["calls"]
    parse = row("smtlib.parse")
    top = sum(r["top_s"] for r in totals.values())
    metrics = {
        "terms.verify_us": (per_call_us("terms.verify"), "us"),
        "sampler.draw_us": (per_call_us("sampler.draw"), "us"),
        "sampler.restrict_us": (per_call_us("sampler.restrict"), "us"),
        "sampler.canon_us": (per_call_us("sampler.canon"), "us"),
        "sampler.dedup_us": (per_call_us("sampler.dedup"), "us"),
        "sampler.draws_per_unique": (draws / samples, "draws"),
        "sampler.clash_frac": (clashes / draws if draws else 0.0, "frac"),
        "sampler.phase_gap_frac": (statistics.fmean(gaps), "frac"),
        "arrays.us_per_epoch": (1e6 * row("arrays.pipeline")["self_s"] / epochs, "us"),
        "solver.query_ms_p50": (1e3 * statistics.median(query_s) if query_s else 0.0, "ms"),
        "solver.query_ms_p90": (1e3 * _p90(query_s), "ms"),
        "solver.hard_per_query": (statistics.fmean(hard) if hard else 0.0, "formulas"),
        "solver.calls": (len(query_s) / traced_trials, "calls"),
        "solver.nonsat": (sum(nonsat) / traced_trials, "calls"),
        "solver.blocking_resets": (resets / traced_trials, "count"),
        "solver.busy_frac": (row("solver.query")["total_s"] / wall, "frac"),
        "intervals.neg_us_per_epoch": (1e6 * row("intervals.neg")["self_s"] / epochs, "us"),
        "implicant.us_per_epoch": (1e6 * row("implicant.compute")["self_s"] / epochs, "us"),
        "implicant.literals": (statistics.fmean(literals), "literals"),
        "strengthen.us_per_epoch": (1e6 * row("strengthen.box")["self_s"] / epochs, "us"),
        "strengthen.box_log2_volume": (statistics.fmean(volumes), "bits"),
        "strengthen.pinned_frac": (pinned / keys if keys else 0.0, "frac"),
        "coverage.record_us": (per_call_us("coverage.record"), "us"),
        "cli.emit_us": (1e6 * row("cli.emit")["self_s"] / samples, "us"),
        "cli.verify_us": (1e6 * verify_s / verified if verified else 0.0, "us"),
        "smtlib.parse_ms": (1e3 * parse["total_s"] / parse["calls"] if parse["calls"] else 0.0, "ms"),
        "terms.preprocess_ms": (1e3 * (row("terms.preprocess")["self_s"] + row("terms.nnf")["self_s"])
                                / max(1, row("terms.preprocess")["calls"]), "ms"),
        "trace.unaccounted_frac": ((wall - top) / wall, "frac"),
        "trace.overhead_frac": (wall / ref_wall - 1.0, "frac"),
    }
    layers = {name: {"calls": int(r["calls"]), "self_s": round(r["self_s"], 6),
                     "self_frac": round(r["self_s"] / wall, 4)}
              for name, r in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]) if r["calls"]}
    detail = {
        "rounds": rounds, "traced_trials": traced_trials, "traced_wall_s": round(wall, 4),
        "epochs": int(epochs), "solver_queries": len(query_s),
        "self_plus_unaccounted_frac": round((sum(r["self_s"] for r in totals.values()) + wall - top) / wall, 6),
        "layers": layers,
    }
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# Entry point


def _result(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few samples, one instance, one round")
    args = parser.parse_args(argv)

    if not (SRC / "boxsampler" / "__init__.py").is_file():
        print(f"error: no boxsampler sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    wl = WORKLOADS[args.workload]
    count = 1 if args.smoke else wl.instances
    n = wl.smoke_samples if args.smoke else wl.max_samples
    instances = [gen.GENERATORS[args.workload](args.seed, i) for i in range(count)]
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        programs = Programs(workdir)
        if args.trace:
            trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
            trace_dir.mkdir(parents=True, exist_ok=True)
            metrics, tally, detail = measure_traced(programs, wl, instances, n, args.seed, args.seconds,
                                                    args.smoke, trace_dir)
        else:
            metrics, tally, detail = measure(programs, wl, instances, n, args.seed, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "max_samples": n,
              "instances": [{"name": i.name, **i.sizes, "model_count": i.model_count} for i in instances],
              **detail, "errors": tally.errors[:5]}
    if args.trace:
        (trace_dir / "summary.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(_result(bool(metrics) and tally.failed == 0, tally, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
