"""No output order may depend on the hash of a string, and so on that of a
node (its names and relations hash as strings): every pinned digest holds
under two values of PYTHONHASHSEED.  The pinned tests run in two pytest
children at once, one per seed; this list names each of them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = [
    "tests/test_streams.py",
    "tests/test_strengthen.py::test_product_boxes_match_pinned_digest",
    "tests/test_arrays.py::test_pipeline_boxes_match_pinned_digest",
    "tests/test_sampler.py::test_array_draws_match_pinned_digest",
    "tests/test_solver.py::test_model_reader_matches_pinned_digest",
    "tests/test_solver.py::test_array_answers_match_pinned_digest",
    "tests/test_minisolver.py::test_int_answers_match_pinned_digest",
    "tests/test_minisolver.py::test_a_point_blocking_trial_compiles_the_problem_once_and_no_negation",
    "tests/test_smtlib.py::TestPinnedPrint::test_random_formulas_print_to_pinned_bytes",
    "tests/test_smtlib.py::TestPinnedReader::test_reader_output_matches_pinned_digest",
    "tests/test_terms.py::TestNodeStructure::test_node_order_matches_pinned_digest",
]


def test_pinned_digests_hold_under_two_hash_seeds():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    children = {
        seed: subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
            cwd=ROOT,
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for seed in ("0", "3141592")
    }
    for seed, child in children.items():
        out, _ = child.communicate(timeout=600)
        assert child.returncode == 0, f"PYTHONHASHSEED={seed}:\n{out}"  # a missing test is an error too
