"""CLI subcommands: outputs, exit codes, and determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mrsplit
import pytest
from hypothesis import given, settings, strategies as st

from mrsplit.cli import EXIT_OK, EXIT_USAGE, main

PATH_TSV = "0\t1\n1\t2\n"


@pytest.fixture
def path_graph_file(tmp_path):
    p = tmp_path / "path.tsv"
    p.write_text(PATH_TSV)
    return str(p)


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "tri.tsv"
    p.write_text("0\t1\n1\t2\n0\t2\n")
    return str(p)


class TestSplitCommand:
    def test_path_degree_split(self, path_graph_file, tmp_path):
        out = tmp_path / "split.json"
        code = main(
            [
                "split", "--input", path_graph_file, "--undirected",
                "--ordering", "degree", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["E1"] == [[0, 1], [2, 1]]
        assert payload["E2"] == [[1, 0], [1, 2]]
        assert payload["E3"] == []
        assert payload["seed"] == 0

    def test_triangle_all_remainder(self, triangle_file, tmp_path):
        out = tmp_path / "split.json"
        code = main(
            [
                "split", "--input", triangle_file, "--undirected",
                "--ordering", "degree", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["E1"] == payload["E2"] == []
        assert len(payload["E3"]) == 6

    def test_missing_file(self, capsys):
        code = main(["split", "--input", "/nonexistent/graph.tsv"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t1\n0\t1\n")
        assert main(["split", "--input", str(p)]) == EXIT_USAGE
        assert "duplicate" in capsys.readouterr().err

    def test_features_ordering_needs_api(self, path_graph_file, capsys):
        code = main(
            ["split", "--input", path_graph_file, "--ordering", "features"]
        )
        assert code == EXIT_USAGE

    def test_random_ordering_with_seed(self, path_graph_file, tmp_path):
        out = tmp_path / "split.json"
        code = main(
            [
                "split", "--input", path_graph_file, "--ordering", "random",
                "--seed", "7", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["seed"] == 7
        assert sorted(payload["scores"]) == [0.0, 1.0, 2.0]


class TestRodTraceCommand:
    def test_single_layer_row_per_variant(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "rod-trace", "--graphs", "2", "--layers", "1", "--dim", "4",
                "--variants", "gcn,mrs_gcn", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,variant,rod_mean,dirichlet_mean"
        assert len(lines) == 3  # header + one row per variant


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--trials", "10", "--output", str(out)])
        assert code == EXIT_OK
        bundle = json.loads(out.read_text())
        assert bundle["all_passed"] is True
        assert len(bundle["reports"]) == 6

    @pytest.mark.parametrize("trials", [1, 2, 3, 4])
    def test_every_suite_runs_for_small_budgets(self, trials):
        code, out, _ = _run(["verify", "--trials", str(trials)])
        assert code == EXIT_OK
        assert all(r["trials"] > 0 for r in json.loads(out)["reports"])

    def test_zero_trials_warns(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--trials", "0", "--output", str(out)])
        assert code == EXIT_OK
        assert "vacuous" in json.loads(out.read_text())["warning"]


class TestTrainCommand:
    def test_zero_epochs_initial_losses_only(self, tmp_path):
        out = tmp_path / "train.csv"
        code = main(
            [
                "train", "--count", "4", "--epochs", "0",
                "--model-seeds", "1", "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        data = [ln for ln in lines if not ln.startswith(("variant", "#"))]
        assert len(data) == 2  # one initial loss per variant
        assert lines[-1].startswith("# summary:")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["fit"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_flag_value(self, capsys):
        assert main(["rod-trace", "--layers", "many"]) == EXIT_USAGE
        capsys.readouterr()


class TestDeterminism:
    def _run_twice(self, argv, out_path):
        outputs = []
        for _ in range(2):
            assert main(argv + ["--output", str(out_path)]) == EXIT_OK
            outputs.append(out_path.read_bytes())
        return outputs

    def test_split_byte_identical(self, path_graph_file, tmp_path):
        a, b = self._run_twice(
            ["split", "--input", path_graph_file, "--ordering", "random",
             "--seed", "3"],
            tmp_path / "o.json",
        )
        assert a == b

    def test_rod_trace_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            ["rod-trace", "--graphs", "2", "--layers", "4", "--dim", "4",
             "--seed", "1"],
            tmp_path / "o.csv",
        )
        assert a == b

    def test_verify_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            ["verify", "--trials", "5", "--seed", "2"], tmp_path / "o.json"
        )
        assert a == b

    def test_train_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            ["train", "--count", "4", "--epochs", "2", "--model-seeds", "1",
             "--seed", "0"],
            tmp_path / "o.csv",
        )
        assert a == b


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


TINY_TRAIN = ["train", "--count", "2", "--layers", "1", "--dim", "2", "--epochs", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["rod-trace", "--dim", "0"],
        ["rod-trace", "--graphs", "0"],
        ["rod-trace", "--graphs", "-1"],
        ["rod-trace", "--layers", "0"],
        ["rod-trace", "--variants", "foo"],
        ["rod-trace", "--variants", "mrs_gat"],
        ["rod-trace", "--variants", ""],
        ["verify", "--trials", "-5"],
        [*TINY_TRAIN, "--model-seeds", "0"],
        [*TINY_TRAIN, "--model-seeds", "-1"],
        [*TINY_TRAIN, "--epochs", "-1"],
    ],
)
def test_bad_counts_and_names_exit_usage(argv):
    code, out, err = _run(argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["split", "--input", "graph.tsv", "--ordering", "random"],
        ["rod-trace"],
        ["verify"],
        ["train"],
    ],
)
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seed_must_be_non_negative_integer(argv, seed):
    code, out, err = _run([*argv, "--seed", seed])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    assert "--seed" in err.splitlines()[0]


def test_python_dash_m_runs_the_cli():
    src = str(Path(mrsplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "mrsplit", "verify", "--trials", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True


FLAG = st.integers(-2, 3)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _assert_usage_or_valid(argv):
    """main never raises: it exits 2 with an error message or 0 with output;
    returns the CSV rows of a successful run (empty for JSON)."""
    code, out, err = _run(argv)
    if code == EXIT_USAGE:
        assert err.startswith("error:") and out == ""
        return None
    assert code == EXIT_OK, err
    return out


def _csv_rows(out, header):
    lines = out.splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    for row in rows:
        assert len(row) == 4
        assert not any("nan" in cell.lower() or "inf" in cell.lower() for cell in row)
    return lines, rows


@settings(max_examples=100, deadline=None)
@given(graphs=FLAG, layers=FLAG, dim=FLAG, seed=FLAG)
def test_rod_trace_property(graphs, layers, dim, seed):
    out = _assert_usage_or_valid(
        ["rod-trace", "--graphs", str(graphs), "--layers", str(layers),
         "--dim", str(dim), "--seed", str(seed)]
    )
    if out is not None:
        _, rows = _csv_rows(out, "iter,variant,rod_mean,dirichlet_mean")
        assert len(rows) == 4 * layers


@settings(max_examples=40, deadline=None)
@given(trials=FLAG, seed=FLAG)
def test_verify_property(trials, seed):
    out = _assert_usage_or_valid(["verify", "--trials", str(trials), "--seed", str(seed)])
    if out is not None:
        bundle = json.loads(out, parse_constant=_reject_constant)
        assert bundle["all_passed"] is True
        assert len(bundle["reports"]) == 6


@settings(max_examples=100, deadline=None)
@given(count=FLAG, layers=FLAG, dim=FLAG, epochs=FLAG, model_seeds=FLAG, seed=FLAG)
def test_train_property(count, layers, dim, epochs, model_seeds, seed):
    out = _assert_usage_or_valid(
        ["train", "--count", str(count), "--layers", str(layers), "--dim", str(dim),
         "--epochs", str(epochs), "--model-seeds", str(model_seeds), "--seed", str(seed)]
    )
    if out is not None:
        lines, rows = _csv_rows(out, "variant,seed,epoch,train_mae")
        summary = lines[-1]
        assert summary.startswith("# summary: winner=")
        assert "nan" not in summary and "inf" not in summary
        if not summary.startswith("# summary: winner=mixed"):
            assert rows and "; seed " in summary
