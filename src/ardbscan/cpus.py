"""The CPUs a process may run on, the one way work is dealt to them (the
rank table's row blocks, the k sweep and a seed's agents), numpy's
OpenBLAS set to one thread so that the dealt work owns the CPUs, and the
one memory guard every large allocation passes first."""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional


def usable_cpus() -> int:
    """The CPUs this process may run on (``taskset`` bounds them).  It is
    :func:`deal`'s worker count and the thread count ``select_k``'s
    memory guard charges, read through this one name."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def deal(run: Callable[[int, int], Any], count: int,
         slots: Optional[int] = None) -> list:
    """``[run(i, slot) for i in range(count)]`` on
    ``min(slots, count)`` threads, ``slots`` being :func:`usable_cpus`
    unless given; the calling thread is slot 0.

    Slot s first runs index s; after that each thread, as it finishes a
    call, takes the lowest index not yet taken.  Each slot's calls run on
    one thread, one after another, so a caller can keep one buffer per
    slot.  With one worker no thread is started and the calling thread
    runs every index in order.  Result i fills place i, so the list is
    the one a single thread builds.  Once a call raises, no thread takes
    another index, but the calls already running finish first: the
    exception reaches the caller after every thread has stopped.
    """
    workers = min(usable_cpus() if slots is None else slots, count)
    out: list = [None] * count
    pending = iter(range(count))
    lock = threading.Lock()
    failed = threading.Event()

    def take() -> Optional[int]:
        with lock:
            return None if failed.is_set() else next(pending, None)

    def drain(i: Optional[int], slot: int) -> None:
        while i is not None:
            try:
                out[i] = run(i, slot)
            except BaseException:
                failed.set()
                raise
            i = take()

    first = [take() for _ in range(max(workers, 1))]
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        others = [pool.submit(drain, first[slot], slot)
                  for slot in range(1, workers)]
        drain(first[0], 0)
        for done in others:
            done.result()
    return out


def one_blas_thread() -> bool:
    """Set every OpenBLAS the process has loaded to one thread per product;
    False where none is found or can be set (another BLAS, or no
    ``/proc/self/maps``).  Its products are small, so a wider BLAS only
    oversubscribes the CPUs that :func:`deal`'s threads run on."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return False
    done = False
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                done = True
                break
    return done


class InsufficientMemoryError(MemoryError):
    """A stage would need more memory than is available."""


def _mem_available() -> int | None:
    """``MemAvailable`` of /proc/meminfo in bytes, or None if not reported."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def check_memory(stage: str, n: int, need: int) -> None:
    """Refuse ``stage`` over n points when its peak, ``need`` bytes, exceeds
    the memory available now; where that is not reported, pass."""
    avail = _mem_available()
    if avail is not None and need > avail:
        raise InsufficientMemoryError(
            f"{stage} over {n} points needs about {need / 2**20:.1f} MiB, "
            f"but only {avail / 2**20:.1f} MiB are available")
