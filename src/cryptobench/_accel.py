"""Numba acceleration shim for the SVR's SMO sweep.

The sweep is decorated with :func:`njit`.  When numba is importable it
compiles to machine code; otherwise, or when ``CRYPTOBENCH_DISABLE_NUMBA``
is set to a truthy value, the decorator is a no-op and the same function
body runs as plain numpy.  Both paths execute the identical statements,
so the fallback is a drop-in replacement, just slower.
"""

import os

__all__ = ["njit", "NUMBA_ENABLED"]


def _numba_disabled() -> bool:
    value = os.environ.get("CRYPTOBENCH_DISABLE_NUMBA", "")
    return value.strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ENABLED = False

if not _numba_disabled():
    try:
        from numba import njit  # noqa: F401

        NUMBA_ENABLED = True
    except ImportError:
        pass

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):
        """No-op stand-in for numba.njit: returns the function unchanged."""
        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(func):
            return func

        return wrap
