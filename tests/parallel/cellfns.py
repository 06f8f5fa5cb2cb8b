"""Module-level cell functions for the executor tests.

The executor pickles cell functions by reference into worker processes,
so test cells must live in an importable module rather than inside test
bodies.
"""

from __future__ import annotations

import os


def square(x: int) -> int:
    return x * x


def pid_tag(x: int) -> tuple[int, int]:
    """Return the input plus the executing process id."""
    return x, os.getpid()


def boom(x: int) -> int:
    raise RuntimeError(f"cell {x} failed")


def crash_in_worker(x: int) -> int:
    """Die abruptly (no exception, no cleanup) when run in a pool worker.

    In the main process it behaves like :func:`square`, so a cell that is
    wrongly run inline returns a value instead of killing the test run.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(42)
    return x * x
