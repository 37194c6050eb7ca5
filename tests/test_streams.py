"""Seeded `cli run` output pinned to fixed bytes.

`test_byte_identical_reruns` compares two runs of the same code; these
digests compare against the files the sampler wrote before its per-draw
loop was rewritten, so a change to the random stream, the draw order, the
enumeration order, the dedup or the sample encoding shows up here.  A change that alters the
stream on purpose must say why and update the digests."""

import hashlib
import sys

import pytest

from boxsampler.cli import EXIT_OK, main

MINISOLVER_CMD = f"{sys.executable} -m boxsampler.minisolver"

RUNS = {
    "intro-random": (
        "intro.smt2",
        ["--strategy", "random", "--rng-seed", "17", "--max-samples", "400",
         "--samples-per-round", "60", "--rounds", "3"],
    ),
    "toy_branch-blocking": (
        "toy_branch.smt2",
        ["--strategy", "blocking", "--rng-seed", "23", "--max-samples", "600",
         "--samples-per-round", "80", "--rounds", "2"],
    ),
    # an array equality (the equal arrays are rebuilt from their
    # reconstructions on every draw) and a select nested in an index
    "array_store_eq-blocking": (
        "array_store_eq.smt2",
        ["--strategy", "blocking", "--rng-seed", "41", "--max-samples", "500",
         "--samples-per-round", "40", "--rounds", "2"],
    ),
    "toy_array-random": (
        "toy_array.smt2",
        ["--strategy", "random", "--rng-seed", "31", "--max-samples", "150",
         "--samples-per-round", "40", "--rounds", "2"],
    ),
    # =>, xor, = over Bools, distinct over Bools and over Ints, term ite:
    # pinned before the parser lowered the Boolean operators
    "sugar-random": (
        "sugar.smt2",
        ["--strategy", "random", "--rng-seed", "53", "--max-samples", "300",
         "--samples-per-round", "40", "--rounds", "2"],
    ),
    # every box holds at most 40 points and is enumerated in a shuffled
    # order; the run stops with all 87 models, before --max-samples and
    # well before the time limit
    "small_boxes-blocking": (
        "small_boxes.smt2",
        ["--strategy", "blocking", "--rng-seed", "41", "--max-samples", "200",
         "--samples-per-round", "40", "--rounds", "2", "--time-limit", "30"],
    ),
    # unary functions beside an array, nested in indices and in each
    # other; pinned while applications were still their own node type.
    # The random strategy is not pinned here: its MAX-SMT queries over
    # arrays run until the time limit, so its stream depends on timing
    "fun_app-blocking": (
        "fun_app.smt2",
        ["--strategy", "blocking", "--rng-seed", "59", "--max-samples", "400",
         "--samples-per-round", "25", "--rounds", "2", "--time-limit", "30"],
    ),
}

# SHA-256 of (samples file, intervals file) for each run.  small_boxes was
# pinned when boxes of at most --samples-per-round points began to be
# enumerated; the others are older and held through that change.
DIGESTS = {
    "intro-random": (
        "7016cfb25a95d79a50153dd679f45f491de9b0862db244f8d6ceff57228e9682",
        "4ced7b7442794045ab8ced24aca63b68c01a60f76524a4291918ea4f0241bcac",
    ),
    "toy_branch-blocking": (
        "24aae9f97803d2032d755d9fb2b9899cf527af2ca02f4389c9fc48e2c4d9ebd3",
        "17237bbbbeef2d649573ce159dbecad23821ac54bb1f6c8a4708e26e0bfe7a22",
    ),
    "array_store_eq-blocking": (
        "48dedc01d386ab03ce0a92e40f116c29d8819d06178d1105859ecb20d99d79ec",
        "2cad430ca28073594e6185660e4afa8bb440fe46ee236c0484289815e39188bd",
    ),
    "toy_array-random": (
        "652c8a9e6607a5516c599c074300c50d886e9fbb7ad162f850475a32c620138a",
        "bb175c5fbb1ab59b178b736bb1a941638b8cc69419d66e5223f2568ed4ebd0a0",
    ),
    "small_boxes-blocking": (
        "9e8257df7c8f3fe3eb98075c385ae51f882a7c2a1b7b1d6f89d3aba83a8dc8ce",
        "a11f62bae89dc08dbeba9418c47c57213a6acb11df86058779dceec716ef6271",
    ),
    "fun_app-blocking": (
        "03839eb8fbac29f59b545a56faec0d5136c2d77cadb12ec1e4a3815bcf26b417",
        "a4ff4477736d4ede7134fbe09b89f3ca4a33988fa741ebf9613ae1cb866cf15d",
    ),
    "sugar-random": (
        "39fa3c68b9ac2649aca54f511bdacbdb7a74125b7ab7d9f5b2208e6cc128c1fe",
        "3e4798cf86b92d27220891c41910b930655693e3b5957840f161d189bd9750b4",
    ),
}


def run_digests(data_dir, tmp_path, name):
    problem, extra = RUNS[name]
    samples, intervals = tmp_path / f"{name}.samples", tmp_path / f"{name}.intervals"
    code = main([
        "run", str(data_dir / problem), "--solver-cmd", MINISOLVER_CMD, *extra,
        "--samples-out", str(samples), "--intervals-out", str(intervals),
    ])
    assert code == EXIT_OK
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (samples, intervals))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_streams_match_pinned_bytes(data_dir, tmp_path, name):
    assert run_digests(data_dir, tmp_path, name) == DIGESTS[name]
