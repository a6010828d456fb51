"""Shared oracles, constructors and frozen reference data for the test suite."""

import math
import os
from pathlib import Path

from cubenodal import CUBE, EigenCombo, enumerate_groups

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """This process's environment, with the checkout's ``src`` first on
    PYTHONPATH, so a child Python imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env

# Published table of the cube's Dirichlet eigenvalues up to 48:
# (k_min, k_max, eigenvalue, mode families up to axis permutation).
EIGENVALUE_TABLE = [
    (1, 1, 3, [(1, 1, 1)]),
    (2, 4, 6, [(1, 1, 2)]),
    (5, 7, 9, [(1, 2, 2)]),
    (8, 10, 11, [(1, 1, 3)]),
    (11, 11, 12, [(2, 2, 2)]),
    (12, 17, 14, [(1, 2, 3)]),
    (18, 20, 17, [(2, 2, 3)]),
    (21, 23, 18, [(1, 1, 4)]),
    (24, 26, 19, [(1, 3, 3)]),
    (27, 32, 21, [(1, 2, 4)]),
    (33, 35, 22, [(2, 3, 3)]),
    (36, 38, 24, [(2, 2, 4)]),
    (39, 44, 26, [(1, 3, 4)]),
    (45, 48, 27, [(1, 1, 5), (3, 3, 3)]),
    (49, 54, 29, [(2, 3, 4)]),
    (55, 60, 30, [(1, 2, 5)]),
    (61, 66, 33, [(1, 4, 4), (2, 2, 5)]),
    (67, 69, 34, [(3, 3, 4)]),
    (70, 75, 35, [(1, 3, 5)]),
    (76, 78, 36, [(2, 4, 4)]),
    (79, 87, 38, [(1, 1, 6), (2, 3, 5)]),
    (88, 96, 41, [(1, 2, 6), (3, 4, 4)]),
    (97, 102, 42, [(1, 4, 5)]),
    (103, 105, 43, [(3, 3, 5)]),
    (106, 108, 44, [(2, 2, 6)]),
    (109, 114, 45, [(2, 4, 5)]),
    (115, 120, 46, [(1, 3, 6)]),
    (121, 121, 48, [(4, 4, 4)]),
]


def brute_force_count_below(lam):
    """Direct triple loop: cube modes (l,m,n) >= 1 with l^2+m^2+n^2 < lam."""
    count = 0
    l = 1
    while l * l + 2 < lam:
        m = 1
        while l * l + m * m + 1 < lam:
            n = 1
            while l * l + m * m + n * n < lam:
                count += 1
                n += 1
            m += 1
        l += 1
    return count


def brute_force_modes_upto(lam_max):
    """All cube modes (l,m,n) with l^2+m^2+n^2 <= lam_max, by direct loops."""
    top = int(math.isqrt(int(lam_max))) + 1
    modes = []
    for l in range(1, top + 1):
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                if l * l + m * m + n * n <= lam_max:
                    modes.append((l, m, n))
    return modes


def non_eigenvalue_samples(count=200, lo=3.0, hi=200.0):
    """Deterministic sample of lambdas in [lo, hi] avoiding cube eigenvalues.

    Cube eigenvalues are integers, so midpoint offsets are always safe.
    """
    step = (hi - lo) / count
    return [lo + (i + 0.5) * step for i in range(count)]


def group_at(value):
    """The cube's eigenvalue group at ``value``."""
    return next(g for g in enumerate_groups(CUBE, value) if g.value == value)


def lambda11_combo(a, b, c):
    """The eigenvalue-11 combination a s1 + b s2 + c s3 of the quadric analysis."""
    # Modes in lexicographic order (1,1,3), (1,3,1), (3,1,1) carry (a, c, b).
    return EigenCombo(group_at(11), (a, c, b))
