"""Command-line interface: run, verify, merge-coverage."""

import argparse
import dataclasses
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsampler import cli
from boxsampler import coverage as coverage_mod
from boxsampler import sampler as sampler_mod
from boxsampler import strengthen as strengthen_mod
from boxsampler.cli import (
    EXIT_ERROR,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_UNSAT,
    EXIT_UNSUPPORTED,
    EXIT_VIOLATIONS,
    main,
)
from boxsampler.errors import UnsupportedFeature
from boxsampler.minisolver import LocalSolverClient
from boxsampler.sampler import RunStats, SampleLayout
from boxsampler.smtlib import parse_problem
from boxsampler.solver import ProcessSolverClient
from boxsampler.terms import FuncValue, Model, eval_formula, preprocess, to_nnf
from oracle import sample_json_obj

MINISOLVER_CMD = f"{sys.executable} -m boxsampler.minisolver"

# Python caps int(str) at 4300 digits by default from 3.11 and 3.10.7 on;
# where there is no cap (older, or PYTHONINTMAXSTRDIGITS=0) a long numeral is fine
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0, reason="int(str) has no digit limit"
)

# The minisolver, but its input, which it reads as bytes, ends where the
# third check-sat begins: it answers two queries and exits.
SOLVER_EXITING_AT_THIRD_QUERY = """\
import sys
import types

from boxsampler import minisolver


def until_third_check_sat(lines):
    checks = 0
    for line in lines:
        checks += line.count(b"(check-sat)")
        if checks == 3:
            return
        yield line


sys.stdin = types.SimpleNamespace(buffer=until_third_check_sat(sys.stdin.buffer))
minisolver.main()
"""


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def model_from_line(obj: dict, problem):
    layout = SampleLayout(problem.declarations)
    return layout.model(layout.from_json(obj))


def bitmap_of_samples_file(problem_path, samples_path):
    """The coverage bitmap of the samples in `samples_path`, read back and
    folded one at a time."""
    problem = parse_problem(problem_path.read_text())
    nnf = to_nnf(preprocess(problem.assertion))
    bitmap = coverage_mod.CoverageBitmap.for_formula(nnf)
    for line in samples_path.read_text().splitlines():
        coverage_mod.record_sample(bitmap, nnf, model_from_line(json.loads(line), problem))
    return bitmap


def _run_intro(data_dir, tmp_path, *extra, samples="s.jsonl", seed='{"x": 12, "y": 2}'):
    out = tmp_path / samples
    code = run_cli(
        "run",
        data_dir / "intro.smt2",
        "--inject-seed",
        seed,
        "--max-samples",
        50,
        "--samples-out",
        out,
        "--solver-cmd",
        MINISOLVER_CMD,
        *extra,
    )
    return code, out


class TestRun:
    def test_intro_fifty_unique_verified_samples(self, data_dir, tmp_path):
        code, out = _run_intro(data_dir, tmp_path)
        assert code == EXIT_OK
        problem = parse_problem((data_dir / "intro.smt2").read_text())
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        seen = set()
        for line in lines:
            obj = json.loads(line)
            model = model_from_line(obj, problem)
            assert eval_formula(problem.assertion, model)
            seen.add(line)
        assert len(seen) == 50

    def test_unsat_exit_code_and_no_samples_file(self, data_dir, tmp_path):
        out = tmp_path / "unsat.jsonl"
        code = run_cli(
            "run",
            data_dir / "unsat.smt2",
            "--samples-out",
            out,
            "--solver-cmd",
            MINISOLVER_CMD,
            "--max-samples",
            5,
        )
        assert code == EXIT_UNSAT
        assert not out.exists()

    def test_emit_intervals_first_epoch(self, data_dir, tmp_path):
        ivout = tmp_path / "iv.jsonl"
        code, _ = _run_intro(data_dir, tmp_path, "--intervals-out", ivout)
        assert code == EXIT_OK
        first = json.loads(ivout.read_text().splitlines()[0])
        assert first["x"] == [0, 15]
        assert first["y"] == [2, "+inf"]

    def test_stats_match_sample_count(self, data_dir, tmp_path):
        stats_out = tmp_path / "stats.json"
        code, out = _run_intro(data_dir, tmp_path, "--stats-out", stats_out)
        assert code == EXIT_OK
        stats = json.loads(stats_out.read_text())
        assert stats["unique_samples"] == len(out.read_text().splitlines())
        assert stats["epochs"] >= 1
        assert "wall_time" in stats
        assert list(stats) == [f.name for f in dataclasses.fields(RunStats)]

    def test_interrupted_run_writes_consistent_stats(self, data_dir, tmp_path, monkeypatch, capsys):
        # Ctrl-C while the 3rd sample is written: the two written samples
        # are the ones the stats count, and coverage is still written
        calls, original = [], cli.sample_to_json

        def sample_to_json(sample):
            calls.append(sample)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return original(sample)

        monkeypatch.setattr(cli, "sample_to_json", sample_to_json)
        stats_path, cov = tmp_path / "stats.json", tmp_path / "cov.bin"
        code, out = _run_intro(data_dir, tmp_path, "--stats-out", stats_path, "--coverage-out", cov)
        assert code == EXIT_INTERRUPTED
        stats = json.loads(stats_path.read_text())
        assert stats["stop_reason"] == "interrupted"
        assert len(out.read_text().splitlines()) == stats["unique_samples"] == 2
        assert coverage_mod.read_bitmap(cov) == bitmap_of_samples_file(data_dir / "intro.smt2", out)
        assert "stopped: interrupted" in capsys.readouterr().out

    def test_ctrl_c_inside_the_draw_loop_keeps_the_chunks_handed_over(self, data_dir, tmp_path, monkeypatch):
        # Ctrl-C at draw 300 of the first epoch: the samples of the chunks
        # handed over by then (draws up to 256) are written, counted and folded
        predicate = SampleLayout.predicate

        def interrupting(layout, formula):
            pred, draws = predicate(layout, formula), []

            def checked(*values):
                draws.append(values)
                if len(draws) == 300:
                    raise KeyboardInterrupt
                return pred(*values)

            return checked

        monkeypatch.setattr(SampleLayout, "predicate", interrupting)
        out, stats_path, cov = tmp_path / "s.jsonl", tmp_path / "stats.json", tmp_path / "cov.bin"
        code = run_cli(
            "run", data_dir / "intro.smt2", "--solver-cmd", MINISOLVER_CMD, "--samples-out", out,
            "--stats-out", stats_path, "--coverage-out", cov,
        )
        assert code == EXIT_INTERRUPTED
        stats = json.loads(stats_path.read_text())
        assert stats["stop_reason"] == "interrupted" and stats["epochs"] == 0
        assert len(out.read_text().splitlines()) == stats["unique_samples"] >= 256
        assert coverage_mod.read_bitmap(cov) == bitmap_of_samples_file(data_dir / "intro.smt2", out)

    def test_ctrl_c_inside_a_fold_leaves_a_consistent_bitmap(self, data_dir, tmp_path, monkeypatch):
        # Ctrl-C halfway through the first epoch's fold: the last fold folds
        # all of its samples again, the half already folded included
        folds, original = [], coverage_mod.record_sample

        def record_sample(bm, f, *samples):
            folds.append(len(samples))
            if len(folds) == 1:
                original(bm, f, *samples[: len(samples) // 2])
                raise KeyboardInterrupt
            original(bm, f, *samples)

        monkeypatch.setattr(cli.coverage_mod, "record_sample", record_sample)
        stats_path, cov = tmp_path / "stats.json", tmp_path / "cov.bin"
        code, out = _run_intro(data_dir, tmp_path, "--stats-out", stats_path, "--coverage-out", cov)
        assert code == EXIT_INTERRUPTED
        stats = json.loads(stats_path.read_text())
        assert folds == [stats["unique_samples"]] * 2 and stats["epochs"] == 1
        assert coverage_mod.read_bitmap(cov) == bitmap_of_samples_file(data_dir / "intro.smt2", out)

    def test_solver_failure_mid_run_writes_consistent_stats(self, data_dir, tmp_path, capsys):
        script = tmp_path / "exits_at_third_query.py"
        script.write_text(SOLVER_EXITING_AT_THIRD_QUERY)
        out, stats_path, cov = tmp_path / "s.jsonl", tmp_path / "stats.json", tmp_path / "cov.bin"
        code = run_cli(
            "run", data_dir / "toy_sum.smt2", "--strategy", "blocking", "--max-samples", 1000,
            "--samples-per-round", 5, "--rounds", 1, "--solver-cmd", f"{sys.executable} {script}",
            "--samples-out", out, "--stats-out", stats_path, "--coverage-out", cov,
        )
        assert code == EXIT_SOLVER
        stats = json.loads(stats_path.read_text())
        assert stats["stop_reason"].startswith("solver failure: ") and "closed its output" in stats["stop_reason"]
        assert stats["epochs"] == 2 and stats["solver_calls"] == 3  # the failed query counts
        assert len(out.read_text().splitlines()) == stats["unique_samples"] == 10
        assert coverage_mod.read_bitmap(cov) == bitmap_of_samples_file(data_dir / "toy_sum.smt2", out)
        assert stats["raw_coverage"] > 0
        assert "stopped: solver failure: " in capsys.readouterr().out

    def test_unsupported_input(self, tmp_path):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(declare-const x Int)(assert (= (div x 2) 1))")
        assert run_cli("run", bad, "--max-samples", 1) == EXIT_UNSUPPORTED

    def test_a_problem_nested_too_deep_is_unsupported(self, tmp_path, capsys):
        bad = tmp_path / "deep.smt2"
        bad.write_text("(declare-const x Int)\n(assert (= x " + "(+ 1 " * 400 + "0" + ")" * 400 + "))\n")
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"x": 400}\n')
        assert run_cli("run", bad, "--max-samples", 1) == EXIT_UNSUPPORTED
        assert run_cli("verify", samples, bad) == EXIT_UNSUPPORTED
        assert capsys.readouterr().err == "unsupported input: 2:0: expression nests too deeply\n" * 2

    @pytest.mark.parametrize(
        "assertion",
        [
            "(> " + "(ite (> x 0) 1 " * 253 + "x" + ")" * 253 + " 0)",  # term ites, lifted out of the atom
            "(= p " * 255 + "p" + ")" * 255,  # Bool =, lowered to and, or and not
        ],
        ids=["ite", "bool-eq"],
    )
    def test_a_problem_nested_too_deep_once_lowered_is_unsupported(self, assertion, tmp_path, capsys):
        # the command is 256 deep, which the parser reads, but the formula
        # the sampler and verify work on nests about twice as deep
        bad = tmp_path / "deep.smt2"
        bad.write_text(f"(declare-const x Int)\n(declare-const p Bool)\n(assert {assertion})\n")
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"x": 1, "p": true}\n')
        code = run_cli("run", bad, "--solver-cmd", MINISOLVER_CMD, "--max-samples", 1, "--samples-out", tmp_path / "o")
        assert code == EXIT_UNSUPPORTED and not (tmp_path / "o").exists()
        assert run_cli("verify", samples, bad) == EXIT_UNSUPPORTED
        assert capsys.readouterr().err == "unsupported input: expression nests too deeply\n" * 2

    @pytest.mark.parametrize("depth", [256, 257])
    def test_a_file_and_the_pipe_accept_the_same_nesting(self, depth, tmp_path, capsys):
        # the assert, the comparison and depth - 2 sums: a command `depth` lists deep
        text = "(declare-const x Int)\n(assert (> " + "(+ 1 " * (depth - 2) + "x" + ")" * (depth - 2) + " 0))\n"
        refused = depth > 256
        if refused:
            with pytest.raises(UnsupportedFeature, match="^2:0: expression nests too deeply$"):
                parse_problem(text)
        else:
            parse_problem(text)
        problem = tmp_path / "deep.smt2"
        problem.write_text(text)
        code = run_cli("run", problem, "--solver-cmd", MINISOLVER_CMD, "--max-samples", 3, "--samples-out", tmp_path / "s")
        assert code == (EXIT_UNSUPPORTED if refused else EXIT_OK)
        if refused:
            assert capsys.readouterr().err == "unsupported input: 2:0: expression nests too deeply\n"
        pipe = subprocess.run(
            [sys.executable, "-m", "boxsampler.minisolver"], input=text + "(check-sat)\n",
            capture_output=True, text=True, timeout=60,
        )
        error = '(error "2:0: expression nests too deeply")'
        assert pipe.stdout.splitlines() == ([error, "sat"] if refused else ["sat"])

    def test_a_solver_reply_nested_thousands_deep_is_a_solver_failure(self, data_dir, tmp_path, capsys):
        stub = tmp_path / "deep_error.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if line.strip() == '(check-sat)':\n"
            "        print('(error ' + '(a ' * 3000 + ')' * 3000 + ')', flush=True)\n"
        )
        code = run_cli(
            "run", data_dir / "toy_sum.smt2", "--max-samples", 1, "--solver-cmd", f"{sys.executable} {stub}",
            "--samples-out", tmp_path / "s.jsonl",
        )
        assert code == EXIT_SOLVER
        out, err = capsys.readouterr()
        assert "solver failure: (error " + "(a " * 2999 + "(a)" + ")" * 3000 in out + err

    def test_a_symbol_declared_twice_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(declare-const x Int)\n(assert (> x 0))\n(declare-const x Bool)\n(assert x)\n")
        assert run_cli("run", bad, "--max-samples", 1) == EXIT_UNSUPPORTED
        assert capsys.readouterr().err == "unsupported input: 3:15: symbol 'x' is already declared\n"

    def test_a_numeral_in_other_digits_is_a_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(declare-const x Int)\n(assert (= x ²))")
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"x": 0}\n')
        assert run_cli("run", bad, "--max-samples", 1) == EXIT_UNSUPPORTED
        assert run_cli("verify", samples, bad) == EXIT_UNSUPPORTED
        assert capsys.readouterr().err == "unsupported input: 2:13: undeclared symbol '²'\n" * 2

    def test_a_problem_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_bytes(b"(declare-const x Int)\n; \xff\xfe\n(assert (> x 0))\n")
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"x": 1}\n')
        assert run_cli("run", bad, "--max-samples", 1) == EXIT_ERROR
        assert run_cli("verify", samples, bad) == EXIT_ERROR
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and not (tmp_path / "bad.smt2.samples").exists()
        for line in lines:
            assert line.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in line

    @needs_digit_limit
    def test_a_numeral_over_the_digit_limit_is_a_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(declare-const x Int)\n(assert (= x " + "1" * 5000 + "))")
        assert run_cli("run", bad, "--max-samples", 1) == EXIT_UNSUPPORTED
        message = f"numeral of 5000 digits exceeds the limit of {sys.get_int_max_str_digits()}"
        assert capsys.readouterr().err == f"unsupported input: 2:13: {message}\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--samples-per-round", 0], "samples per round"),
            (["--samples-per-round", -5, "--time-limit", 1], "samples per round"),
            (["--rounds", 0, "--time-limit", 1], "rounds per epoch"),
            (["--time-limit", 0], "time limits"),
            (["--random-bound", -1], "random bound"),
            (["--unbounded-width", -1], "unbounded width"),
            (["--max-samples", -1], "max samples"),
            (["--solver-timeout", 0], "solver timeout"),
            (["--solver-timeout", "nan"], "solver timeout"),
            (["--time-limit", "nan"], "time limits"),
            (["--epoch-time-limit", "nan"], "time limits"),
        ],
        ids=[
            "zero-draws", "negative-draws", "zero-rounds", "zero-time",
            "random-bound", "width", "max-samples", "solver-timeout",
            "nan-solver-timeout", "nan-time", "nan-epoch-time",
        ],
    )
    def test_config_that_cannot_sample_is_an_error(self, data_dir, tmp_path, capsys, extra, message):
        code, out = _run_intro(data_dir, tmp_path, *extra)
        err = capsys.readouterr().err
        assert code == EXIT_ERROR and not out.exists()
        assert err.startswith("error: ") and message in err

    def test_byte_identical_reruns(self, data_dir, tmp_path):
        _, out1 = _run_intro(data_dir, tmp_path, "--rng-seed", 77, samples="a.jsonl")
        _, out2 = _run_intro(data_dir, tmp_path, "--rng-seed", 77, samples="b.jsonl")
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_rng_seed_changes_stream(self, data_dir, tmp_path):
        _, out1 = _run_intro(data_dir, tmp_path, "--rng-seed", 1, samples="a.jsonl")
        _, out2 = _run_intro(data_dir, tmp_path, "--rng-seed", 2, samples="b.jsonl")
        assert out1.read_bytes() != out2.read_bytes()

    def test_run_with_real_solver_process(self, data_dir, tmp_path):
        # no injected seed: the first seed comes from the subprocess solver
        out = tmp_path / "s.jsonl"
        code = run_cli(
            "run",
            data_dir / "toy_sum.smt2",
            "--solver-cmd",
            MINISOLVER_CMD,
            "--strategy",
            "blocking",
            "--max-samples",
            30,
            "--samples-out",
            out,
        )
        assert code == EXIT_OK
        problem = parse_problem((data_dir / "toy_sum.smt2").read_text())
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        for line in lines:
            assert eval_formula(problem.assertion, model_from_line(json.loads(line), problem))

    def test_array_run_with_injected_seed(self, data_dir, tmp_path):
        out = tmp_path / "arr.jsonl"
        code = run_cli(
            "run",
            data_dir / "toy_array.smt2",
            "--inject-seed",
            '{"i": 2, "a": {"default": 0, "exceptions": {}}}',
            "--max-samples",
            25,
            "--samples-out",
            out,
        )
        assert code == EXIT_OK
        problem = parse_problem((data_dir / "toy_array.smt2").read_text())
        for line in out.read_text().splitlines():
            assert eval_formula(problem.assertion, model_from_line(json.loads(line), problem))


class _SampleClock:
    """The sampler's clock, which jumps a day ahead at each `jump()`."""

    def __init__(self):
        self.ahead = 0.0

    def monotonic(self) -> float:
        return time.monotonic() + self.ahead

    def jump(self) -> None:
        self.ahead += 86400.0


class TestStops:
    """A blocking run over the pipe stopped by Ctrl-C inside the draw loop,
    by its time limit or by its sample budget.  The child is reaped, the
    samples, stats and bitmap agree, and the run asks the solver as often,
    and writes the same samples, as the same run in process.  The first two
    stop with the next query in flight; the epoch that can fill the budget
    sends none ahead."""

    PROBLEM = "toy_sum.smt2"  # five draws an epoch, every one fresh

    def _run(self, data_dir, tmp_path, monkeypatch, in_process, *extra):
        clients = []

        class Watched(ProcessSolverClient):
            def close(self):
                clients.append((self._pending is not None, self._handle.proc))
                super().close()

        monkeypatch.setattr(
            cli, "ProcessSolverClient", (lambda cmd, timeout: LocalSolverClient()) if in_process else Watched
        )
        tag = "local" if in_process else "pipe"
        out, stats_path, cov = (tmp_path / f"{tag}.{kind}" for kind in ("jsonl", "json", "bin"))
        code = run_cli(
            "run", data_dir / self.PROBLEM, "--solver-cmd", MINISOLVER_CMD, "--strategy", "blocking",
            "--samples-per-round", 5, "--rounds", 1, "--rng-seed", 3, *extra,
            "--samples-out", out, "--stats-out", stats_path, "--coverage-out", cov,
        )
        stats = json.loads(stats_path.read_text())
        assert len(out.read_text().splitlines()) == stats["unique_samples"]
        assert coverage_mod.read_bitmap(cov) == bitmap_of_samples_file(data_dir / self.PROBLEM, out)
        del stats["wall_time"]
        return code, stats, out.read_text(), clients

    def _both(self, data_dir, tmp_path, monkeypatch, *extra):
        """The run in process and over the pipe, which must agree; the
        pipe's exit code and stats, and whether a query was in flight."""
        local = self._run(data_dir, tmp_path, monkeypatch, True, *extra)
        code, stats, samples, clients = self._run(data_dir, tmp_path, monkeypatch, False, *extra)
        assert (code, stats, samples) == local[:3]
        [(in_flight, proc)] = clients
        assert proc.poll() is not None  # reaped
        return code, stats, in_flight

    @staticmethod
    def _at_draw(monkeypatch, n, act):
        """Call `act()` when the run checks its n-th draw."""
        predicate = SampleLayout.predicate

        def hooked(layout, formula):
            pred, draws = predicate(layout, formula), []

            def checked(*values):
                draws.append(values)
                if len(draws) == n:
                    act()
                return pred(*values)

            return checked

        monkeypatch.setattr(SampleLayout, "predicate", hooked)

    def test_ctrl_c_inside_the_draw_loop(self, data_dir, tmp_path, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt

        self._at_draw(monkeypatch, 13, interrupt)  # in the third epoch, whose samples are not handed over
        code, stats, in_flight = self._both(data_dir, tmp_path, monkeypatch)
        assert code == EXIT_INTERRUPTED and stats["stop_reason"] == "interrupted"
        assert (stats["epochs"], stats["unique_samples"], stats["solver_calls"], in_flight) == (2, 10, 3, True)

    def test_the_time_limit(self, data_dir, tmp_path, monkeypatch):
        clock = _SampleClock()
        monkeypatch.setattr(sampler_mod, "time", clock)
        self._at_draw(monkeypatch, 13, clock.jump)
        code, stats, in_flight = self._both(data_dir, tmp_path, monkeypatch, "--time-limit", 600)
        assert code == EXIT_OK and stats["stop_reason"] == "total time limit"
        assert (stats["epochs"], stats["unique_samples"], stats["solver_calls"], in_flight) == (3, 15, 3, True)

    def test_the_time_limit_inside_strengthening(self, data_dir, tmp_path, monkeypatch):
        # only strengthening's clock jumps: the fourth epoch's answer is read,
        # and its strengthening stops the run before the next query is sent
        clock = _SampleClock()
        monkeypatch.setattr(strengthen_mod, "time", clock)
        predicate = SampleLayout.predicate

        def in_step(layout, formula):  # each run starts with the clock in step
            clock.ahead = 0.0
            return predicate(layout, formula)

        monkeypatch.setattr(SampleLayout, "predicate", in_step)
        self._at_draw(monkeypatch, 13, clock.jump)
        code, stats, in_flight = self._both(data_dir, tmp_path, monkeypatch, "--time-limit", 600)
        assert code == EXIT_OK and stats["stop_reason"] == "total time limit"
        assert (stats["epochs"], stats["unique_samples"], stats["solver_calls"], in_flight) == (3, 15, 4, False)

    def test_the_sample_budget(self, data_dir, tmp_path, monkeypatch):
        code, stats, in_flight = self._both(data_dir, tmp_path, monkeypatch, "--max-samples", 23)
        assert code == EXIT_OK and stats["stop_reason"] == "max samples"
        assert (stats["epochs"], stats["unique_samples"], stats["solver_calls"], in_flight) == (5, 23, 5, False)


class TestVerify:
    def test_tool_output_passes(self, data_dir, tmp_path, capsys):
        _, out = _run_intro(data_dir, tmp_path)
        assert run_cli("verify", out, data_dir / "intro.smt2") == EXIT_OK
        assert "0 violations, 0 duplicates" in capsys.readouterr().out

    def test_corrupted_sample_flagged(self, data_dir, tmp_path, capsys):
        _, out = _run_intro(data_dir, tmp_path)
        lines = out.read_text().splitlines()
        lines[3] = json.dumps({"x": -1, "y": 0})  # violates x >= 0
        out.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", out, data_dir / "intro.smt2") == EXIT_VIOLATIONS
        assert "1 violations" in capsys.readouterr().out

    def test_duplicate_flagged(self, data_dir, tmp_path, capsys):
        _, out = _run_intro(data_dir, tmp_path)
        lines = out.read_text().splitlines()
        lines[4] = lines[2]
        out.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", out, data_dir / "intro.smt2") == EXIT_VIOLATIONS
        assert "1 duplicates" in capsys.readouterr().out

    def test_empty_file_empty_report(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("verify", empty, data_dir / "intro.smt2") == EXIT_OK
        assert "0 samples" in capsys.readouterr().out

    def test_a_line_that_is_not_utf8_is_named(self, data_dir, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_bytes(b'{"x": 12, "y": 2}\n\xff\xfe\n')
        assert run_cli("verify", samples, data_dir / "intro.smt2") == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {samples}:2: ") and "can't decode byte 0xff" in err

    def test_two_calls_build_one_argument_parser(self, data_dir, tmp_path, monkeypatch, capsys):
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counting(parser, **kwargs):  # called once per build of the parser
            built.append(parser.prog)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
        cli._build_parser.cache_clear()
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"x": 12, "y": 2}\n')
        try:
            for _ in range(2):
                assert run_cli("verify", samples, data_dir / "intro.smt2") == EXIT_OK
            assert built == ["boxsampler"]
        finally:
            cli._build_parser.cache_clear()


# Assignments `cli run --inject-seed` and `cli verify` read the same way.
BAD_ASSIGNMENTS = [
    ("intro.smt2", {"x": 12, "y": 2, "z": 0}, "unknown symbol 'z' in assignment"),
    ("toy_array.smt2", {"i": 0, "a": 3}, "array symbol 'a' needs a default/exceptions object"),
    # a value of the wrong JSON type is an error, not read as a number
    ("intro.smt2", {"x": "abc", "y": 2}, "Int symbol 'x' needs an integer, not 'abc'"),
    ("intro.smt2", {"x": True, "y": 2}, "Int symbol 'x' needs an integer, not True"),
    ("intro.smt2", {"x": 1.7, "y": 2}, "Int symbol 'x' needs an integer, not 1.7"),
    ("sugar.smt2", {"p": 1}, "Bool symbol 'p' needs true or false, not 1"),
    ("toy_array.smt2", {"i": 0, "a": {"default": 1.5}}, "array symbol 'a' needs a default/exceptions object of integers"),
    ("toy_array.smt2", {"i": 0, "a": {"default": 1, "exceptions": {"2": "3"}}}, "array symbol 'a' needs a default"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"two": 3}}}, "array symbol 'a' needs a default"),
    ("intro.smt2", [12, 2], "an assignment must be a JSON object"),
    # an index is read only in the form `cli run` writes, so no two name one cell
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"01": 7, "1": 9}}}, "indexed by canonical decimals"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"01": 7}}}, "indexed by canonical decimals"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"1_0": 7}}}, "indexed by canonical decimals"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {" 3": 7}}}, "indexed by canonical decimals"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"+4": 7}}}, "indexed by canonical decimals"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"-0": 7}}}, "indexed by canonical decimals"),
    ("toy_array.smt2", {"i": 0, "a": {"exceptions": {"\u0661": 7}}}, "indexed by canonical decimals"),
]


class TestAssignments:
    @pytest.mark.parametrize("name,obj,message", BAD_ASSIGNMENTS)
    def test_verify_rejects(self, data_dir, tmp_path, capsys, name, obj, message):
        samples = tmp_path / "s.jsonl"
        samples.write_text(json.dumps(obj) + "\n")
        assert run_cli("verify", samples, data_dir / name) == EXIT_ERROR
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad,message", [
        ('{"x": 2', "Expecting ',' delimiter"),
        (json.dumps(BAD_ASSIGNMENTS[0][1]), BAD_ASSIGNMENTS[0][2]),
    ])
    def test_verify_names_the_line_of_a_bad_sample(self, data_dir, tmp_path, capsys, bad, message):
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"x": 12, "y": 2}\n{"x": 7, "y": 0}\n' + bad + "\n")
        assert run_cli("verify", samples, data_dir / "intro.smt2") == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error: {samples}:3: " in err and message in err

    @pytest.mark.parametrize("name,obj,message", BAD_ASSIGNMENTS)
    def test_inject_seed_rejects(self, data_dir, tmp_path, capsys, name, obj, message):
        code = run_cli(
            "run", data_dir / name, "--inject-seed", json.dumps(obj), "--max-samples", 5,
            "--samples-out", tmp_path / "s.jsonl", "--solver-cmd", MINISOLVER_CMD,
        )
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err

    def test_verify_reads_omitted_symbols_as_zero(self, data_dir, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        lines = [{"x": 7}, {"x": 8}, {"x": 7, "y": 0}]  # x - 5y <= 7 needs y >= 1 at x = 8
        samples.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        assert run_cli("verify", samples, data_dir / "intro.smt2") == EXIT_VIOLATIONS
        assert "3 samples, 1 violations, 1 duplicates" in capsys.readouterr().out

    def test_verify_reads_an_omitted_array_as_constant_zero(self, data_dir, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        lines = [{"i": 1}, {"i": 1, "a": {"default": 0, "exceptions": {"2": 0}}}, {"i": 2, "a": {"default": 6}}]
        samples.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        assert run_cli("verify", samples, data_dir / "toy_array.smt2") == EXIT_VIOLATIONS
        assert "3 samples, 1 violations, 1 duplicates" in capsys.readouterr().out

    @pytest.mark.parametrize("name,seed,code", [
        ("intro.smt2", {"x": 7}, EXIT_OK),
        ("intro.smt2", {"x": 8}, EXIT_ERROR),  # y = 0 violates x - 5y <= 7
        ("toy_array.smt2", {"i": 2}, EXIT_OK),
    ])
    def test_inject_seed_reads_omitted_symbols_as_zero(self, data_dir, tmp_path, capsys, name, seed, code):
        out = tmp_path / "s.jsonl"
        assert run_cli(
            "run", data_dir / name, "--inject-seed", json.dumps(seed), "--max-samples", 1,
            "--samples-out", out, "--solver-cmd", MINISOLVER_CMD,
        ) == code
        if code == EXIT_OK:
            problem = parse_problem((data_dir / name).read_text())
            (line,) = out.read_text().splitlines()
            assert eval_formula(problem.assertion, model_from_line(json.loads(line), problem))
        else:
            assert "injected seed does not satisfy the formula" in capsys.readouterr().err


# Symbols as the parser admits them, quoted ones with a space, a quote and
# non-ASCII letters included.
SYMBOLS = ["x", "a b", 'say "hi"', "\u00e9\u2603", "x!1"]


@st.composite
def _models(draw):
    """A Model over distinct symbols: wide ints, Bools, and function values
    with wide indices, whose string order is not their numeric order."""
    wide = st.integers(-(2**80), 2**80)
    names = draw(st.lists(st.sampled_from(SYMBOLS + ["y", "z0", "Z"]), unique=True))
    m = Model()
    for name in names:
        field = draw(st.sampled_from(["ints", "bools", "funcs"]))
        if field == "ints":
            m.ints[name] = draw(wide)
        elif field == "bools":
            m.bools[name] = draw(st.booleans())
        else:
            m.funcs[name] = FuncValue(draw(wide), draw(st.dictionaries(st.integers(-(2**70), 2**70), wide, max_size=5)))
    return m


@st.composite
def _model_sequences(draw):
    """Models in sequence over a few layouts, each a list of distinct names
    in a sort group: a name may sit in a different group, and the names in
    a different order, from one layout to the next, and each layout recurs
    with new values.  Some names hold characters that `str.format` or
    JSON treats specially."""
    pool = SYMBOLS + ["{0}", "a}b", "%s", "\\"]
    layouts = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(["ints", "bools", "funcs"])),
                 unique_by=lambda entry: entry[0], max_size=6),
        min_size=1, max_size=3,
    ))
    index = st.integers(-(2**40), 2**40)
    models = []
    for layout in draw(st.lists(st.sampled_from(layouts), min_size=2, max_size=8)):
        m = Model()
        for name, field in layout:
            if field == "ints":
                m.ints[name] = draw(st.integers(-(2**70), 2**70))
            elif field == "bools":
                m.bools[name] = draw(st.booleans())
            else:
                cells = draw(st.dictionaries(index, st.integers(-9, 9), max_size=4))
                m.funcs[name] = FuncValue(draw(st.integers(-9, 9)), cells)
        models.append(m)
    return models


class TestSampleLine:
    """`cli.sample_to_json` writes the line that ``json.dumps`` writes of the
    sample's JSON object with sorted keys, and `verify` reads it back."""

    @pytest.mark.parametrize("model", [
        Model(),
        Model(ints={"x": -3, "y": 2**64 + 1, "z": -(2**100)}),
        Model(bools={"p": True, "q": False}),
        Model(funcs={"a": FuncValue(5), "f": FuncValue(-1, {})}),
        # string order of the indices: "-46" < "0" < "10" < "3"
        Model(ints={"i": 0}, funcs={"a": FuncValue(1, {3: 4, 10: -2, 0: 7, -46: 2**70})}),
        Model(ints=dict(zip(SYMBOLS, range(-2, 3))), bools={"b b": True}, funcs={"\u00e9t\u00e9": FuncValue(0, {1: 1})}),
    ])
    def test_line_is_byte_identical_to_json_dumps(self, model):
        assert cli.sample_to_json(model) == json.dumps(sample_json_obj(model), sort_keys=True) + "\n"

    @given(_models())
    @settings(max_examples=200, deadline=None)
    def test_random_lines_are_byte_identical_to_json_dumps(self, model):
        assert cli.sample_to_json(model) == json.dumps(sample_json_obj(model), sort_keys=True) + "\n"

    @given(_model_sequences())
    @settings(max_examples=200, deadline=None)
    def test_lines_of_models_in_sequence_are_byte_identical_to_json_dumps(self, models):
        for model in models:
            assert cli.sample_to_json(model) == json.dumps(sample_json_obj(model), sort_keys=True) + "\n"

    def test_the_line_format_cache_is_bounded(self):
        most = cli._line_format.cache_info().maxsize
        for k in range(most + 10):
            assert cli.sample_to_json(Model(ints={f"x{k}": k})) == f'{{"x{k}": {k}}}\n'
        assert cli._line_format.cache_info().currsize == most

    def test_quoted_symbols_round_trip(self, tmp_path):
        problem = parse_problem(
            "(declare-const |a b| Int)(declare-const |say \"hi\"| Bool)"
            "(declare-const |\u00e9\u2603| (Array Int Int))(assert (> |a b| 0))"
        )
        layout = SampleLayout(problem.declarations)
        values = (2**70, True, FuncValue(3, {-46: 1, 0: 2, 10: 3, 3: 4}))
        line = cli.sample_to_json(layout.model(values))
        assert line.isascii() and line.endswith("}\n")
        assert layout.from_json(json.loads(line)) == values


class TestMergeCoverage:
    def _run_with_coverage(self, data_dir, tmp_path, name, rng_seed):
        cov = tmp_path / name
        code, _ = _run_intro(
            data_dir,
            tmp_path,
            "--coverage-out",
            cov,
            "--rng-seed",
            rng_seed,
            samples=f"{name}.jsonl",
        )
        assert code == EXIT_OK
        return cov

    def test_single_input_normalized_one(self, data_dir, tmp_path, capsys):
        cov = self._run_with_coverage(data_dir, tmp_path, "c1.bin", 3)
        assert run_cli("merge-coverage", cov) == EXIT_OK
        out = capsys.readouterr().out
        assert "normalized 1.0000" in out

    def test_two_runs_and_union(self, data_dir, tmp_path, capsys):
        c1 = self._run_with_coverage(data_dir, tmp_path, "c1.bin", 5)
        c2 = self._run_with_coverage(data_dir, tmp_path, "c2.bin", 6)
        merged = tmp_path / "union.bin"
        assert run_cli("merge-coverage", c1, c2, "--out", merged) == EXIT_OK
        assert merged.exists()
        out = capsys.readouterr().out
        assert out.count("normalized") == 2

    def test_mismatched_inputs_rejected(self, data_dir, tmp_path):
        from boxsampler.coverage import CoverageBitmap, write_bitmap

        c1 = self._run_with_coverage(data_dir, tmp_path, "c1.bin", 7)
        other = tmp_path / "other.bin"
        write_bitmap(CoverageBitmap([1, 64]), str(other))
        assert run_cli("merge-coverage", c1, other) == 1

    def test_truncated_bitmap_is_an_error(self, tmp_path, capsys):
        from boxsampler.coverage import MAGIC

        short = tmp_path / "short.bin"
        short.write_bytes(MAGIC + (2).to_bytes(4, "little") + b"\x01")  # two node records promised, one byte given
        assert run_cli("merge-coverage", short) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err and "Traceback" not in err

    def test_masks_above_the_width_are_an_error(self, tmp_path, capsys):
        from boxsampler.coverage import CoverageBitmap, write_bitmap

        wide = tmp_path / "wide.bin"
        write_bitmap(CoverageBitmap([1], [2**64 - 1], [2**64 - 1]), str(wide))  # a Boolean node with 64 bits seen
        assert run_cli("merge-coverage", wide) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert "raw" not in out
        assert err.startswith("error:") and "above its width 1" in err
