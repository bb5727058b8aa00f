"""Node-count groups of rod_trace and the suites of run_full_suite on forked
workers: the same bytes at any worker count, errors that reach the caller,
and no worker left behind."""

import ctypes
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mrsplit
from mrsplit import _pool, diagnostics, trajectories
from mrsplit.cli import EXIT_USAGE
from mrsplit.diagnostics import run_full_suite
from mrsplit.graph import GraphError
from mrsplit.split import VARIANTS
from mrsplit.trainer import ModelConfig, TaskParams, compare_base_vs_split, make_synthetic_task
from mrsplit.trajectories import TraceConfig, rod_trace

from test_golden import CASES, run_case

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux only")


def with_workers(monkeypatch, count):
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: count)


def trace_bytes(config):
    traces = rod_trace(config)
    return [
        (name, key, traces[name][key].tobytes())
        for name in traces
        for key in ("rod_mean", "dirichlet_mean")
    ]


def worker_pid(_):
    return os.getpid()


def fail_with_arc(x):
    raise GraphError(f"bad item {x}", arc=x)


GOLDEN_TRACES = sorted(name for name in CASES if name.startswith("rod_trace"))


@linux_only
@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_golden_traces_same_bytes_at_one_and_two_workers(name, monkeypatch):
    _, argv = CASES[name]
    outputs = []
    for count in (1, 2):
        with_workers(monkeypatch, count)
        outputs.append(run_case(argv))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@linux_only
@pytest.mark.parametrize(
    "config",
    [
        TraceConfig(variants=tuple(VARIANTS), num_graphs=9, layers=10, dim=3, seed=4),
        TraceConfig(variants=("mrs_gcn", "sage", "mrs_gcn"), num_graphs=7, layers=8,
                    dim=5, ordering="random", seed=7),
        TraceConfig(variants=("gcn", "mrs_sage"), num_graphs=12, layers=6, dim=1,
                    ordering="random", n_min=5, n_max=7, seed=2),
    ],
)
def test_trace_same_bytes_at_one_and_two_workers(config, monkeypatch):
    with_workers(monkeypatch, 1)
    alone = trace_bytes(config)
    with_workers(monkeypatch, 2)
    assert trace_bytes(config) == alone


@linux_only
@pytest.mark.parametrize("seed", range(3))
def test_full_suite_same_reports_at_one_and_two_workers(seed, monkeypatch):
    with_workers(monkeypatch, 1)
    alone = [report.to_dict() for report in run_full_suite(seed, 40)]
    with_workers(monkeypatch, 2)
    assert [report.to_dict() for report in run_full_suite(seed, 40)] == alone


@linux_only
def test_full_suite_runs_with_a_wrapped_suite(monkeypatch):
    # Each suite is looked up by name when its report is made, so a
    # wrapper bound over that name runs on the workers too.
    with_workers(monkeypatch, 1)
    alone = [report.to_dict() for report in run_full_suite(0, 10)]
    real = diagnostics.verify_zero_convergence

    def wrapped(**kwargs):
        return real(**kwargs)

    monkeypatch.setattr(diagnostics, "verify_zero_convergence", wrapped)
    with_workers(monkeypatch, 2)
    assert [report.to_dict() for report in run_full_suite(0, 10)] == alone


@linux_only
def test_items_run_in_workers_and_results_keep_item_order(monkeypatch):
    with_workers(monkeypatch, 2)
    pids = _pool._fork_map(worker_pid, range(5))
    assert os.getpid() not in pids
    assert 1 <= len(set(pids)) <= 2
    assert _pool._fork_map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]
    assert multiprocessing.active_children() == []


@linux_only
def test_worker_error_reaches_the_caller(monkeypatch):
    with_workers(monkeypatch, 2)
    with pytest.raises(GraphError, match="^bad item 1$") as info:
        _pool._fork_map(fail_with_arc, [1, 2, 3])
    assert info.value.arc == 1
    assert multiprocessing.active_children() == []


class _Unpicklable:
    """An item that refuses to be pickled."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("this item cannot be pickled")


def pid_and_value(item):
    return os.getpid(), item.value


@linux_only
@pytest.mark.parametrize("local", ["fn", "item"])
def test_local_work_runs_on_workers(monkeypatch, local):
    # Forked workers inherit fn and the items, so neither is pickled.
    def pid_and_square(x):
        return os.getpid(), x * x

    if local == "fn":
        fn, items, want = pid_and_square, [1, 2, 3], [1, 4, 9]
    else:
        fn, items, want = pid_and_value, [_Unpicklable(v) for v in (5, 6, 7)], [5, 6, 7]
    with_workers(monkeypatch, 2)
    got = _pool._fork_map(fn, items)
    assert os.getpid() not in [pid for pid, _ in got]
    assert [value for _, value in got] == want
    assert multiprocessing.active_children() == []


@linux_only
def test_unpicklable_result_raises_in_the_caller(monkeypatch):
    def make_lambda(x):
        return lambda: x

    with_workers(monkeypatch, 2)
    with pytest.raises((AttributeError, pickle.PicklingError), match="local object"):
        _pool._fork_map(make_lambda, [1, 2])
    assert multiprocessing.active_children() == []


@linux_only
def test_worker_error_in_a_trace_exits_usage(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("no operators for this graph")

    with_workers(monkeypatch, 2)
    monkeypatch.setattr(trajectories, "_run_units", broken)
    code, out, err = run_case(["rod-trace", "--graphs", "6", "--layers", "2"])
    assert (code, out, err) == (EXIT_USAGE, "", "error: no operators for this graph\n")
    assert multiprocessing.active_children() == []


def _map_pids(conn):
    conn.send((os.getpid(), _pool._fork_map(worker_pid, range(3))))


@linux_only
def test_daemonic_caller_runs_in_process(monkeypatch):
    with_workers(monkeypatch, 2)
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    daemon = ctx.Process(target=_map_pids, args=(writer,), daemon=True)
    daemon.start()
    assert reader.poll(30)
    caller, pids = reader.recv()
    daemon.join(30)
    assert daemon.exitcode == 0
    assert pids == [caller] * 3


def test_caller_with_another_thread_runs_in_process(monkeypatch):
    with_workers(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        pids = _pool._fork_map(worker_pid, range(3))
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()
    assert pids == [os.getpid()] * 3


@linux_only
@pytest.mark.parametrize("parent_alive, exitcode", [(True, 0), (False, 1)])
def test_worker_exits_at_once_if_its_parent_is_gone(parent_alive, exitcode):
    # A worker whose expected parent is not its parent any more, here one
    # told to expect init (pid 1), has been orphaned.
    ctx = multiprocessing.get_context("fork")
    expected = os.getpid() if parent_alive else 1
    child = ctx.Process(target=_pool._die_with_parent, args=(expected,))
    child.start()
    child.join(30)
    assert child.exitcode == exitcode


class _FakeLibc:
    def __init__(self):
        self.calls = []

        def prctl(option, arg):
            self.calls.append((option, arg))
            return 0

        self.prctl = prctl


def test_worker_asks_for_sigkill_when_its_parent_dies(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(_pool.ctypes, "CDLL", lambda name: libc)
    _pool._die_with_parent(os.getppid())
    assert libc.calls == [(1, signal.SIGKILL)]
    assert libc.prctl.argtypes == (_pool.ctypes.c_int, _pool.ctypes.c_ulong)


@pytest.mark.parametrize("error", [OSError, TypeError])
def test_parent_death_signal_is_skipped_without_a_c_library(monkeypatch, error):
    def cdll(name):
        raise error("no C library")

    monkeypatch.setattr(_pool.ctypes, "CDLL", cdll)
    _pool._die_with_parent(os.getppid())


def test_parent_death_signal_is_skipped_without_prctl(monkeypatch):
    monkeypatch.setattr(_pool.ctypes, "CDLL", lambda name: object())
    _pool._die_with_parent(os.getppid())


_OPENBLAS_GETTERS = tuple(name.replace("_set_", "_get_") for name in _pool._OPENBLAS_SETTERS)


def openblas_threads():
    """(setter, thread count) of every mapped OpenBLAS that exports a
    thread-count getter, read in the calling process."""
    found = []
    for path in _pool._mapped_openblas():
        lib = ctypes.CDLL(path)
        for get_name, set_name in zip(_OPENBLAS_GETTERS, _pool._OPENBLAS_SETTERS):
            getter = getattr(lib, get_name, None)
            if getter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter = getattr(lib, set_name)
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                found.append((setter, getter()))
                break
    return found


def worker_openblas_threads(_):
    return [count for _, count in openblas_threads()]


@linux_only
def test_workers_run_openblas_on_one_thread(monkeypatch):
    before = openblas_threads()
    if not before:
        pytest.skip("no mapped OpenBLAS exports a thread-count getter")
    # Two threads in the caller before the map, so a worker that ran at the
    # caller's count would report 2.
    for setter, _ in before:
        setter(2)
    try:
        assert [count for _, count in openblas_threads()] == [2] * len(before)
        with_workers(monkeypatch, 2)
        reported = _pool._fork_map(worker_openblas_threads, range(2))
    finally:
        for setter, count in before:
            setter(count)
    assert reported == [[1] * len(before)] * 2


@pytest.fixture
def two_blas_threads():
    """Every mapped OpenBLAS of this process set to two threads for the
    test, as a multi-CPU host runs it by default, then set back."""
    before = openblas_threads()
    if not before:
        pytest.skip("no mapped OpenBLAS exports a thread-count getter")
    for setter, _ in before:
        setter(2)
    yield len(before)
    for setter, count in before:
        setter(count)


def test_in_process_map_runs_openblas_on_one_thread(monkeypatch, two_blas_threads):
    with_workers(monkeypatch, 1)
    reported = _pool._fork_map(worker_openblas_threads, range(2))
    assert reported == [[1] * two_blas_threads] * 2
    assert [count for _, count in openblas_threads()] == [2] * two_blas_threads


@linux_only
def test_train_in_process_with_a_thread_alive_equals_forked(monkeypatch, two_blas_threads):
    # At two BLAS threads in process, this task's traces differed from the
    # workers' one-thread traces before the in-process map pinned BLAS.
    task = make_synthetic_task(TaskParams(count=64, seed=0))
    config = ModelConfig(epochs=30)
    with_workers(monkeypatch, 2)
    forked = compare_base_vs_split(task, config, (0,))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        in_process = compare_base_vs_split(task, config, (0,))
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()

    def traces(pairs):
        return [np.array(run.trace).tobytes() for pair in pairs for run in pair]

    assert traces(in_process) == traces(forked)
    assert [count for _, count in openblas_threads()] == [2] * two_blas_threads


class _FakeBlas:
    def __init__(self, setter_name):
        self.calls = []

        def setter(count):
            self.calls.append(count)

        if setter_name is not None:
            setattr(self, setter_name, setter)


def test_openblas_pin_calls_each_librarys_first_setter(monkeypatch, tmp_path):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f01 r-xp 00000000 08:01 11 /lib/libscipy_openblas64_-abc.so\n"
        "7f01-7f02 rw-p 00001000 08:01 11 /lib/libscipy_openblas64_-abc.so\n"
        "7f02-7f03 r-xp 00000000 08:01 12 /usr/lib/libopenblas.so.0\n"
        "7f03-7f04 r-xp 00000000 08:01 13 /usr/lib/libopenblas_nothreads.so\n"
        "7f04-7f05 r-xp 00000000 08:01 14 /usr/lib/libm.so.6\n"
        "7f05-7f06 rw-p 00000000 00:00 0 \n"
        "7ffc-7ffd rw-p 00000000 00:00 0                          [stack]\n"
    )
    libs = {
        "/lib/libscipy_openblas64_-abc.so": _FakeBlas("scipy_openblas_set_num_threads64_"),
        "/usr/lib/libopenblas.so.0": _FakeBlas("openblas_set_num_threads"),
        "/usr/lib/libopenblas_nothreads.so": _FakeBlas(None),
    }
    opened = []

    def cdll(path):
        opened.append(path)
        return libs[path]

    monkeypatch.setattr(_pool, "_MAPS", str(maps))
    monkeypatch.setattr(_pool.ctypes, "CDLL", cdll)
    _pool._one_blas_thread()
    assert opened == sorted(libs)
    assert [libs[path].calls for path in sorted(libs)] == [[1], [1], []]


@pytest.mark.parametrize("error", [OSError, TypeError])
def test_openblas_pin_is_skipped_without_a_c_library(monkeypatch, error):
    opened = []

    def cdll(path):
        opened.append(path)
        raise error("no C library")

    monkeypatch.setattr(_pool, "_mapped_openblas", lambda: ["/lib/libopenblas.so.0"])
    monkeypatch.setattr(_pool.ctypes, "CDLL", cdll)
    _pool._one_blas_thread()
    assert opened == ["/lib/libopenblas.so.0"]


@pytest.mark.parametrize("maps_text", [None, "7f04-7f05 r-xp 00000000 08:01 14 /usr/lib/libm.so.6\n"])
def test_openblas_pin_is_skipped_without_an_openblas(monkeypatch, tmp_path, maps_text):
    # No process map to read, or one that maps no OpenBLAS.
    maps = tmp_path / "maps"
    if maps_text is not None:
        maps.write_text(maps_text)
    monkeypatch.setattr(_pool, "_MAPS", str(maps))
    monkeypatch.setattr(_pool.ctypes, "CDLL", lambda path: pytest.fail(f"opened {path}"))
    _pool._one_blas_thread()


_SLEEPING_MAP = """
import os, time
from mrsplit import _pool
_pool._usable_cpus = lambda: 2

def report_and_sleep(x):
    os.write(1, b"%d\\n" % os.getpid())  # one write, so two workers' lines never mix
    time.sleep(120)

_pool._fork_map(report_and_sleep, [0, 1])
"""


def _alive(pid: int) -> bool:
    """True while pid runs; a zombie has exited and counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@linux_only
def test_no_worker_outlives_a_killed_parent():
    src = str(Path(mrsplit.__file__).resolve().parents[1])
    parent = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_MAP],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(60, parent.kill)  # a hung start fails, not hangs
    watchdog.start()
    try:
        pids = [int(parent.stdout.readline()) for _ in range(2)]
    finally:
        watchdog.cancel()
        watchdog.join()
        parent.send_signal(signal.SIGKILL)
        parent.wait(30)
        parent.stdout.close()
    deadline = time.monotonic() + 10
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []
