"""Map independent units of work over forked worker processes.

A unit is a pure function of its item that draws only from its own seeded
generators, so the results, and every byte printed from them, do not depend
on how many workers ran them.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import threading
from typing import Callable, Iterable

# prctl option (linux/prctl.h): the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1
# Where a Linux process lists the files it has mapped, shared libraries included.
_MAPS = "/proc/self/maps"
# The thread-count setter an OpenBLAS build exports, under the prefix and the
# integer-width suffix it was built with (numpy's and scipy's wheels bundle
# scipy_openblas builds, numpy's with 64-bit integers).
_OPENBLAS_SETTERS = tuple(
    f"{prefix}_set_num_threads{suffix}"
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("", "64_", "_64")
)
# The thread-count getter that goes with each setter.
_OPENBLAS_GETTERS = tuple(name.replace("_set_", "_get_") for name in _OPENBLAS_SETTERS)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _die_with_parent(parent: int) -> None:
    """Pool initializer: have the kernel SIGKILL this worker when its parent
    dies, and exit now if the parent is already gone. A C library without
    prctl is left alone."""
    try:
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError, TypeError):
        pass
    if os.getppid() != parent:
        os._exit(1)


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries this process has mapped, in name order."""
    with open(_MAPS, encoding="utf-8", errors="replace") as fh:
        # address, permissions, offset, device, inode, then the path, if any
        fields = [line.split(maxsplit=5) for line in fh]
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _one_blas_thread() -> list[tuple[Callable[[int], None], int]]:
    """Set every OpenBLAS this process has mapped to one thread. Gives the
    (setter, thread count before) pair of each that exports a getter.

    Mapped work shares the CPUs, so BLAS threads of its own would only
    contend for them, and a product threaded over more CPUs can round
    differently from one computed on one thread. Without a process map, a C
    library loader or an OpenBLAS, nothing changes.
    """
    restore = []
    try:
        for path in _mapped_openblas():
            lib = ctypes.CDLL(path)
            for set_name, get_name in zip(_OPENBLAS_SETTERS, _OPENBLAS_GETTERS):
                setter = getattr(lib, set_name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = (ctypes.c_int,), None
                    getter = getattr(lib, get_name, None)
                    if getter is not None:
                        getter.argtypes, getter.restype = (), ctypes.c_int
                        restore.append((setter, getter()))
                    setter(1)
                    break
    except (OSError, TypeError):
        pass
    return restore


# The (fn, items) of the map a worker was forked for; set in workers only.
_work: tuple = ()


def _start_worker(parent: int, fn: Callable, items: list) -> None:
    """Pool initializer: die with the parent, and keep the fn and items the
    worker inherited when it was forked."""
    global _work
    _die_with_parent(parent)
    _work = fn, items


def _run(i: int):
    """fn(items[i]) of the map this worker was forked for."""
    fn, items = _work
    return fn(items[i])


def _fork_map(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], in item order, with every mapped OpenBLAS on
    one thread until the map ends, on one forked worker per usable CPU, at
    most one per item. Items go to the workers in the order given, so list
    the longest first. The workers are forked with fn and the items in
    memory, so only an item's index goes to a worker and only its result
    comes back pickled.

    Runs in process when fewer than two workers would run, off Linux, while
    another thread runs (a forked child has only the forking thread, so a
    lock another thread held would stay held in it), and in a daemonic
    process, which may not start children. An exception in fn reaches the
    caller with its type and message; every worker has exited by the time
    this returns or raises.
    """
    # Imported here, so the commands that never map pay nothing for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    workers = min(len(items), _usable_cpus()) if sys.platform == "linux" else 1
    in_process = (
        workers < 2
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    )
    restore = _one_blas_thread()
    try:
        if in_process:
            return [fn(x) for x in items]
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(os.getpid(), fn, items),
        )
        try:
            futures = [pool.submit(_run, i) for i in range(len(items))]
            return [future.result() for future in futures]
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    finally:
        for setter, count in restore:
            setter(count)
