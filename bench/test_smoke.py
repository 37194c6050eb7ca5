"""End-to-end smoke tests of the benchmark: every workload, traced and
untraced, with a few samples.  Run with `python -m pytest bench`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import gen  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_sources_fails_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lia_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generators_are_seeded(name):
    a, b, c = (gen.GENERATORS[name](seed, 0) for seed in (5, 5, 6))
    assert a.smtlib() == b.smtlib() != c.smtlib()
    assert a.sizes["literals"] > 0


def test_point_blocking_model_count_matches_brute_force():
    inst = gen.gen_point_blocking(2)
    env_names = inst.ints
    bounds = {}
    for f in inst.formula[1]:
        if f[2][0] == "var":
            lo, hi = bounds.get(f[2][1], (None, None))
            bounds[f[2][1]] = (f[3][1], hi) if f[1] == ">=" else (lo, f[3][1])
    count = 0
    p_lo, p_hi = bounds["p"]
    q_lo, q_hi = bounds["q"]
    r_lo, r_hi = bounds["r"]
    for p in range(p_lo, p_hi + 1):
        for q in range(q_lo, q_hi + 1):
            for r in range(r_lo, r_hi + 1):
                count += inst.holds(dict(zip(env_names, (p, q, r))))
    assert count == inst.model_count


def test_check_rejects_bad_runs():
    import run

    inst = gen.gen_point_blocking(1)
    lows = {f[2][1]: f[3][1] for f in inst.formula[1] if f[1] == ">="}
    good = run.Trial(stats={"stop_reason": "max samples"}, samples=[])
    assert run.check_trial(good, inst, 0) == ""
    outside = run.Trial(stats={"stop_reason": "max samples"}, samples=[{n: v - 1 for n, v in lows.items()}])
    assert "violates" in run.check_trial(outside, inst, 1)
    short = run.Trial(stats={"stop_reason": "total time limit"}, samples=[])
    assert "stopped" in run.check_trial(short, inst, 0)
