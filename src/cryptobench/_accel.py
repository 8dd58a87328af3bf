"""Compiled-acceleration status of the package.

Every kernel is plain numpy: the LSTM runs as batched matrix products
and the SVR's SMO sweep as O(n) vector work per iteration, so nothing
is compiled and numba is not used.  ``NUMBA_ENABLED`` stays so that
tools which stamp the acceleration mode into their results keep
reading a value.
"""

__all__ = ["NUMBA_ENABLED"]

NUMBA_ENABLED = False
