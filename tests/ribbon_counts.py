"""Counts over the pairing search and over every cell of a type, shared by
tests/test_ribbon.py and scale/test_at_scale.py, kept apart from both so
that importing them runs neither module.

`rec_calls` counts the calls of the search's recursion and the pairings it
emits; `rooted_unicellular_cubic_maps` is Walsh and Lehman's closed form for
what the one-face trivalent search emits; `euler_terms`, `euler_sum` and
`harer_zagier` give chi(M_{g,n}) from every cell `enumerate_maps` lists and
from Harer and Zagier's closed form.
"""

import sys
from fractions import Fraction
from math import comb, factorial

from ribbonvol.ribbon import _search_pairings, enumerate_maps


def rec_calls(degrees, n):
    """`(calls, emitted)`: the number of calls of the search's recursion
    `rec`, and of pairings it emits, while it looks for the pairings of
    `degrees` (sorted descending) with n faces."""
    calls = emitted = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "rec":
            calls += 1

    def emit(s1):
        nonlocal emitted
        emitted += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        _search_pairings(degrees, n, emit)
    finally:
        sys.setprofile(before)
    return calls, emitted


def rooted_unicellular_cubic_maps(g):
    """2(6g - 3)! / (12^g g! (3g - 2)!), the rooted one-face trivalent maps
    of genus g (Walsh and Lehman, J. Combin. Theory B 13 (1972))."""
    return 2 * factorial(6 * g - 3) // (12 ** g * factorial(g) * factorial(3 * g - 2))


def degree_sequences(total, parts, largest=None):
    """The degree sequences of `parts` vertices, each of degree >= 3, that
    sum to `total`, each sorted descending."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    largest = total if largest is None else largest
    for d in range(min(largest, total - 3 * (parts - 1)), 2, -1):
        for rest in degree_sequences(total - d, parts - 1, d):
            yield (d,) + rest


def cell_degree_sequences(g, n):
    """Each degree sequence, with every degree >= 3, of a ribbon graph of
    type (g, n): V runs up to 4g - 4 + 2n, the trivalent cells, and
    E = V + n - 2 + 2g."""
    for V in range(1, 4 * g - 4 + 2 * n + 1):
        yield from degree_sequences(2 * (V + n - 2 + 2 * g), V)


def euler_terms(g, n):
    """(V, |Aut L|, number of classes) of each map of type (g, n), over
    every degree sequence of `cell_degree_sequences`, as `enumerate_maps`
    lists them."""
    for degrees in cell_degree_sequences(g, n):
        for _, aut, mask in enumerate_maps(g, n, degrees)[1]:
            yield len(degrees), aut, factorial(n) if mask is None else sum(mask)


def euler_sum(terms):
    """Sum over the classes L of (-1)^V(L) / |Aut L|."""
    return sum((Fraction((-1) ** V * classes, aut) for V, aut, classes in terms), Fraction(0))


def _bernoulli(m):
    """B_m, with B_1 = -1/2."""
    B = [Fraction(1)]
    for k in range(1, m + 1):
        B.append(-sum(comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return B[m]


def harer_zagier(g, n):
    """chi(M_{g,n}) from chi(M_{0,3}) = 1, chi(M_{g,1}) = -B_{2g} / (2g) and
    chi(M_{g,k+1}) = (2 - 2g - k) chi(M_{g,k})."""
    chi, k = (Fraction(1), 3) if g == 0 else (-_bernoulli(2 * g) / (2 * g), 1)
    for k in range(k, n):
        chi *= 2 - 2 * g - k
    return chi
