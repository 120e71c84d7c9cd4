"""The order `psi` prints its numbers in, shared by tests/test_volumes.py
and scale/test_at_scale.py, kept apart from both so that importing it runs
neither module."""

import itertools
from math import comb
from operator import lt

from ribbonvol.volumes import _compositions


def in_lexicographic_order(g, n):
    """Whether `_compositions` lists the C(d+n-1, n-1) compositions of
    d = 3g-3+n into n parts in strictly increasing lexicographic order: the
    order `psi_numbers` keeps and `psi` prints without a sort."""
    d = 3 * g - 3 + n
    first, second = itertools.tee(_compositions(d, n))
    steps = bytes(map(lt, first, itertools.islice(second, 1, None)))
    return all(steps) and len(steps) + 1 == comb(d + n - 1, n - 1)
