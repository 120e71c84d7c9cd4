"""Enumeration types shared by the CLI and ribbon graph tests, kept apart
from both so that importing them runs neither module."""

# the six types of the benchmark's enumerate workload, a larger type, an
# empty result and a one-class result: (g, n, degrees as the CLI takes them)
ORACLE_CASES = [
    (2, 1, "3,3,3,3,3,3"), (2, 1, "4,3,3,3,3"), (1, 3, "3,3,3,3,3,3"),
    (0, 5, "4,4,4"), (0, 5, "5,5"), (1, 2, "5,3"),
    (1, 3, "4,3,3,3,3"), (0, 1, "3"), (1, 1, "3,3"),
]
