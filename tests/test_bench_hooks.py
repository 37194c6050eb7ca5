"""The package names that the benchmark hooks keep resolving.

`bench/tracer.py` wraps the entry points listed in its `WRAPPED` table for
`--trace 1`, and `bench/run.py` swaps `cli` module globals to time CLI runs
and reads the config from `exploit_epoch`'s positional arguments.  The
benchmark files are only read here, never changed."""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from boxsampler import cli, sampler

BENCH = Path(__file__).resolve().parent.parent / "bench"
MINISOLVER_CMD = f"{sys.executable} -m boxsampler.minisolver"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _ in TRACER.WRAPPED])
def test_wrapped_name_resolves(module, path):
    owner, attr = TRACER._resolve(module, path)
    assert callable(getattr(owner, attr))


def test_tracer_installs_and_restores_every_hook():
    def hooked():
        return [getattr(*TRACER._resolve(m, p)) for m, p, _ in TRACER.WRAPPED]

    originals = hooked()
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        assert hasattr(sampler.exploit_epoch, "__wrapped__")
    finally:
        tracer.uninstall()
    assert hooked() == originals


def test_exploit_epoch_takes_the_config_sixth():
    params = list(inspect.signature(sampler.exploit_epoch).parameters)
    assert params[5] == "cfg"
    assert {"intervals", "seed"} <= {f.name for f in sampler.EpochResult.__dataclass_fields__.values()}


def test_cli_emits_through_module_globals(monkeypatch, data_dir, tmp_path):
    calls = dict.fromkeys(("sample_to_json", "to_json_obj", "record_sample"), 0)
    emitted, folded = [], []

    def counting(name, fn, seen=None):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                seen.append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "sample_to_json", counting("sample_to_json", cli.sample_to_json, emitted))
    monkeypatch.setattr(cli, "to_json_obj", counting("to_json_obj", cli.to_json_obj))
    monkeypatch.setattr(
        cli.coverage_mod, "record_sample", counting("record_sample", cli.coverage_mod.record_sample, folded)
    )
    stats_path = tmp_path / "stats.json"
    code = cli.main([
        "run", str(data_dir / "intro.smt2"), "--inject-seed", '{"x": 12, "y": 2}', "--max-samples", "60",
        "--samples-per-round", "25", "--rounds", "1", "--solver-cmd", MINISOLVER_CMD,
        "--samples-out", str(tmp_path / "s.jsonl"), "--intervals-out", str(tmp_path / "iv.jsonl"),
        "--coverage-out", str(tmp_path / "cov.bin"), "--stats-out", str(stats_path),
    ])
    assert code == cli.EXIT_OK
    stats = json.loads(stats_path.read_text())
    assert stats["epochs"] > 1
    assert calls["sample_to_json"] == stats["unique_samples"]
    assert calls["to_json_obj"] == stats["epochs"]
    # coverage is folded in batches, none empty: every emitted sample object
    # is folded exactly once
    batches = [args[2:] for args in folded]
    assert 0 < len(batches) <= stats["epochs"] and all(batches)
    assert sum(map(len, batches)) == stats["unique_samples"]
    assert sorted(map(id, (s for b in batches for s in b))) == sorted(id(s) for (s,) in emitted)
