"""CLI subcommands: outputs, exit codes, and determinism."""

import contextlib
import io
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import mrsplit
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrsplit import cli, diagnostics, split, trainer, trajectories
from mrsplit.cli import EXIT_OK, EXIT_USAGE, main
from mrsplit.ordering import order_feature_sum

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

    def test_output_may_name_the_input(self, path_graph_file):
        code = main(
            [
                "split", "--input", path_graph_file, "--undirected",
                "--output", path_graph_file,
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(Path(path_graph_file).read_text())
        assert payload["E1"] == [[0, 1], [2, 1]]

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

    def test_features_ordering_needs_api(self, path_graph_file, tmp_path, capsys):
        # An edge list carries no feature matrix, so split does not offer it.
        out = tmp_path / "x"
        code = main(
            [
                "split", "--input", path_graph_file, "--ordering", "features",
                "--output", str(out),
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: mrsplit split: argument --ordering: invalid choice: 'features'"
        )
        assert not out.exists()

    def test_non_finite_score_exits_usage(self, path_graph_file, tmp_path,
                                          monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "order_by",
            lambda *a, **k: order_feature_sum(np.array([[0.0], [np.inf], [1.0]])),
        )
        out = tmp_path / "x"
        code = main(["split", "--input", path_graph_file, "--output", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: node 1 has the non-finite score inf, "
            "which strict JSON cannot hold\n"
        )
        assert not out.exists()

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
        assert lines[-1].startswith("# summary: winner=none; seed 0: gcn=")
        # Untrained models name no winner, whichever initial loss is lower.
        finals = [ln.split(",")[3] for ln in data]
        assert lines[-1].endswith(f"gcn={finals[0]} mrs_gcn={finals[1]}")

    def test_diverged_run_exits_usage_without_output(self):
        code, out, err = _run(
            ["train", "--count", "4", "--layers", "2", "--dim", "4", "--epochs", "6",
             "--model-seeds", "1", "--lr", "1e200"]
        )
        assert code == EXIT_USAGE
        assert out == ""  # no non-finite cell and no winner
        assert err.startswith("error: gcn diverged at model seed 0")
        assert len(err.splitlines()) == 1  # and no numpy overflow warnings


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


def test_split_writes_the_pieces_of_split_json(monkeypatch, tmp_path):
    """split writes each piece split_json returns as it is, in order, with
    no join and no slicing of its own, and the writes join into the golden
    bytes, on stdout and in a file. Two arcs per slice give several arc
    pieces."""
    golden = Path(__file__).with_name("golden")
    argv = ["split", "--input", str(golden / "graph.tsv"), "--undirected", "--ordering", "degree"]
    want = (golden / "split_degree.out").read_text()
    monkeypatch.setattr(split, "_SLICE", 2)
    returned, writes = [], []

    def recorded_split_json(mrg, seed):
        returned.append(split.split_json(mrg, seed))
        return returned[-1]

    class Recording:
        def write(self, text):
            writes[-1].append(text)
            return super().write(text)

    class RecordingStdout(Recording, io.StringIO):
        pass

    class RecordingFile(Recording, io.TextIOWrapper):
        pass

    def recorded_open(path, mode="r", **kwargs):
        if mode != "w":
            return open(path, mode, **kwargs)
        return RecordingFile(open(path, "wb"), **kwargs)

    monkeypatch.setattr(cli, "split_json", recorded_split_json)
    monkeypatch.setattr(cli, "open", recorded_open, raising=False)
    out = RecordingStdout()
    writes.append([])
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    assert out.getvalue() == want
    path = tmp_path / "split.json"
    writes.append([])
    assert main([*argv, "--output", str(path)]) == EXIT_OK
    assert path.read_bytes() == want.encode()
    assert len(returned) == len(writes) == 2
    for pieces, written in zip(returned, writes):
        assert isinstance(pieces, list) and written == pieces
        assert all(map(operator.is_, written, pieces))
        assert sum("[\n      " in piece for piece in pieces) > 3


TINY_TRAIN = ["train", "--count", "2", "--layers", "1", "--dim", "2", "--epochs", "1"]
# An existing input, so a bad PPR flag is the only reason to exit 2.
PPR_SPLIT = [
    "split", "--input", str(Path(__file__).with_name("golden") / "graph.tsv"),
    "--ordering", "ppr",
]


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
        [*TINY_TRAIN, "--lr", "nan"],
        [*TINY_TRAIN, "--lr", "inf"],
        [*TINY_TRAIN, "--lr", "0"],
        [*TINY_TRAIN, "--lr", "-0.1"],
        [*PPR_SPLIT, "--ppr-alpha", "nan"],
        [*PPR_SPLIT, "--ppr-alpha", "inf"],
        [*PPR_SPLIT, "--ppr-alpha=-0.1"],
        [*PPR_SPLIT, "--ppr-alpha", "1.5"],
        [*PPR_SPLIT, "--ppr-iters", "-3"],
    ],
)
def test_bad_counts_and_names_exit_usage(argv):
    code, out, err = _run(argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "data, format, flags",
    [
        (b'{"n": 5, "edges": [[0, 1000000000000000000000000000000]]}', "json", []),
        (b'{"n": 5, "edges": [[0, 1000000000000000000000000000000]]}', "json",
         ["--undirected"]),
        (b'{"n": 5, "edges": [[-1000000000000000000000000000000, 0]]}', "json", []),
        (b'{"n": 5, "edges": [[-1000000000000000000000000000000, 0]]}', "json",
         ["--undirected"]),
        (b"0\t1\n\xff\t2\n", "tsv", []),
        (b'{"edges": [[0, 1]], "note": "\xff"}', "json", []),
        (b'{"edges": [[0, 1, ' + b"9" * 400 + b"]]}", "json", []),
        (b"0\t1\t" + b"9" * 400 + b"\n", "tsv", []),
        (b"[" * 10_000 + b"]" * 10_000, "json", []),
        (b'{"edges": [[0, 1, "2.5"]]}', "json", []),
        (b'{"edges": [[0, 1, true]]}', "json", []),
    ],
    ids=["big-index", "big-index-undirected", "big-negative-index",
         "big-negative-index-undirected", "invalid-utf8-tsv", "invalid-utf8-json",
         "big-weight-json", "big-weight-tsv", "nested-json", "string-weight-json",
         "bool-weight-json"],
)
def test_unloadable_edge_list_exits_usage(data, format, flags, tmp_path):
    path, out = tmp_path / "graph", tmp_path / "out.json"
    path.write_bytes(data)
    code, stdout, err = _run(
        ["split", "--input", str(path), "--format", format, *flags, "--output", str(out)]
    )
    assert (code, stdout) == (EXIT_USAGE, "")
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        PPR_SPLIT,
        ["rod-trace", "--graphs", "1", "--layers", "1", "--dim", "2"],
        ["verify", "--trials", "1"],
        TINY_TRAIN,
    ],
    ids=["split", "rod-trace", "verify", "train"],
)
@pytest.mark.parametrize("kind", ["missing_dir", "directory"])
def test_unwritable_output_exits_usage(argv, kind, tmp_path):
    path = str(tmp_path / "missing" / "out" if kind == "missing_dir" else tmp_path)
    code, out, err = _run([*argv, "--output", path])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["rod-trace", "--graphs", "0"],
        ["verify", "--trials", "-5"],
        [*TINY_TRAIN, "--model-seeds", "0"],
        [*TINY_TRAIN, "--epochs", "-1"],
    ],
)
def test_bad_arguments_leave_no_output_file(argv, tmp_path):
    out = tmp_path / "out"
    code, _, err = _run([*argv, "--output", str(out)])
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["rod-trace"], ["verify"], ["train"]])
def test_unwritable_output_exits_before_the_work(argv, monkeypatch, tmp_path):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the output was opened")

    for module, name in (
        (diagnostics, "run_full_suite"),
        (trajectories, "rod_trace"),
        (trainer, "compare_base_vs_split"),
    ):
        monkeypatch.setattr(module, name, must_not_run)
    path = str(tmp_path / "missing" / "out")
    code, out, err = _run([*argv, "--output", path])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


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


def test_csv_value_cells_parse_as_floats():
    code, trace, _ = _run(["rod-trace", "--graphs", "2", "--layers", "3", "--dim", "4"])
    assert code == EXIT_OK
    code, train, _ = _run([*TINY_TRAIN, "--model-seeds", "2"])
    assert code == EXIT_OK
    *rows, summary = train.splitlines()[1:]
    cells = [cell for line in trace.splitlines()[1:] for cell in line.split(",")[2:]]
    cells += [line.split(",")[3] for line in rows]
    # "# summary: winner=W; seed 0: gcn=X mrs_gcn=Y; seed 1: ..."
    for per_seed in summary.split("; ")[1:]:
        cells += [pair.split("=")[1] for pair in per_seed.split(": ")[1].split(" ")]
    assert len(cells) == 3 * 4 * 2 + 2 * 2 * 2 + 2 * 2
    for cell in cells:
        assert repr(float(cell)) == cell


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


@pytest.fixture(scope="module")
def module_path_graph_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("ppr") / "path.tsv"
    p.write_text(PATH_TSV)
    return str(p)


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats())
def test_split_ppr_alpha_property(module_path_graph_file, alpha):
    out = _assert_usage_or_valid(
        ["split", "--input", module_path_graph_file, "--ordering", "ppr",
         f"--ppr-alpha={alpha!r}"]
    )
    if out is not None:
        assert 0.0 <= alpha <= 1.0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert len(payload["scores"]) == 3


class _FakeLibc:
    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


class TestAllocatorPolicy:
    def test_sets_mmap_then_trim_threshold(self, monkeypatch):
        libc = _FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._set_allocator_policy()
        assert libc.calls == [(-3, 2 << 20), (-1, 32 << 20)]
        assert libc.mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_no_op_when_the_library_cannot_load(self, monkeypatch, error):
        def cdll(name):
            raise error("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._set_allocator_policy()

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._set_allocator_policy()

    def test_main_sets_it_before_parsing(self, monkeypatch):
        libc = _FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        assert main(["fit"]) == EXIT_USAGE
        assert len(libc.calls) == 2

    def test_import_leaves_the_allocator_alone(self):
        src = str(Path(mrsplit.__file__).resolve().parents[1])
        code = (
            "import ctypes\n"
            "real = ctypes.CDLL\n"
            "class Guard:\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        self._lib = real(*args, **kwargs)\n"
            "    def __getattr__(self, name):\n"
            "        assert name != 'mallopt', 'mallopt looked up on import'\n"
            "        return getattr(self._lib, name)\n"
            "ctypes.CDLL = Guard\n"
            "import mrsplit, mrsplit.cli\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
