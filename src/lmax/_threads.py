"""The package's one thread helper, for the table fills and the simulator alike.

It imports neither numpy nor any table code, so ``montecarlo`` can take
threads from it without loading ``series``.
"""

from __future__ import annotations

import os
import threading


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else ``os.cpu_count()``.

    Under ``taskset -c 0`` the mask holds one CPU, however many the machine has.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(work, items: range, workers: int, state=tuple, stop=None) -> list:
    """Call ``work(item, *s)`` for every item, on this thread and up to ``workers - 1`` more.

    ``workers`` is clamped to the items and to ``_usable_cpus()``, and no
    thread starts for one.  Each thread makes its own ``s = state()`` and
    takes the next item of one shared iterator until none is left: under
    the GIL each item goes to one thread.  An error or Ctrl-C on any thread
    sets ``stop``, an Event (a new one if None), before any thread is joined:
    every thread stops after its current item, and an item that waits on
    another's polls it.  The error is raised here once all have returned (at
    once, if it came as they started).  Returns the states.
    """
    workers = min(workers, len(items), _usable_cpus())
    items, states, errors = iter(items), [], []
    stop = threading.Event() if stop is None else stop

    def loop() -> None:
        try:
            s = state()
            states.append(s)
            for item in items:
                if stop.is_set():
                    break
                work(item, *s)
        except BaseException as exc:  # re-raised below, in the caller's thread
            stop.set()
            errors.append(exc)

    threads, started = [threading.Thread(target=loop) for _ in range(workers - 1)], []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        loop()
    except BaseException:  # a Ctrl-C as they start, or outside loop's own handler
        stop.set()
        raise
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return states
