"""Byte-for-byte CLI outputs at fixed seeds, frozen in tests/golden/.

A refactor must leave every file here unchanged. A change that alters output
on purpose regenerates them with ``python tests/test_golden.py`` and says so.
"""

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from mrsplit.cli import EXIT_OK, EXIT_USAGE, main

GOLDEN = Path(__file__).with_name("golden")
TSV = str(GOLDEN / "graph.tsv")  # has a weighted arc and degree-score ties
TINY_TRAIN = ["train", "--count", "4", "--layers", "2", "--dim", "4", "--epochs", "3",
              "--model-seeds", "2"]
TINY_TRACE = ["rod-trace", "--graphs", "2", "--layers", "6", "--dim", "4"]

# name -> (exit code, argv)
CASES = {
    "split_degree": (EXIT_OK, ["split", "--input", TSV, "--undirected", "--ordering", "degree"]),
    "split_ppr": (EXIT_OK, ["split", "--input", TSV, "--ordering", "ppr",
                            "--ppr-alpha", "0.2", "--ppr-iters", "10"]),
    "split_random": (EXIT_OK, ["split", "--input", TSV, "--ordering", "random", "--seed", "3"]),
    "split_features": (EXIT_USAGE, ["split", "--input", TSV, "--ordering", "features"]),
    "rod_trace_degree": (EXIT_OK, [*TINY_TRACE, "--seed", "1"]),
    "rod_trace_random": (EXIT_OK, [*TINY_TRACE, "--ordering", "random", "--seed", "2"]),
    # d=1 states collapse to zero partway through, and gcn is listed twice.
    "rod_trace_collapse": (EXIT_OK, ["rod-trace", "--graphs", "4", "--layers", "12", "--dim", "1",
                                     "--seed", "1", "--variants", "gcn,mrs_gcn,sage,mrs_sage,gcn"]),
    "verify": (EXIT_OK, ["verify", "--trials", "10", "--seed", "1"]),
    "train_gcn_degree_residual": (EXIT_OK, [*TINY_TRAIN, "--residual"]),
    "train_sage_random_cat": (EXIT_OK, [*TINY_TRAIN, "--variant", "sage", "--ordering", "random",
                                        "--jk", "cat", "--seed", "1"]),
    "train_gcn_ppr_max": (EXIT_OK, [*TINY_TRAIN, "--ordering", "ppr", "--jk", "max"]),
    "train_sage_features": (EXIT_OK, [*TINY_TRAIN, "--variant", "sage", "--ordering", "features",
                                      "--residual", "--jk", "max"]),
}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run. argparse wraps
    a usage message to the terminal width, so the width is pinned to 80."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    expected_code, argv = CASES[name]
    code, out, err = run_case(argv)
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    err_file = GOLDEN / f"{name}.err"
    assert err.encode() == (err_file.read_bytes() if err_file.exists() else b"")


if __name__ == "__main__":
    for name, (expected_code, argv) in CASES.items():
        code, out, err = run_case(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}\n{err}")
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        if err:
            (GOLDEN / f"{name}.err").write_bytes(err.encode())
        print(f"wrote {name}")
