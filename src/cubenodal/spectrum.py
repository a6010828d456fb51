"""Dirichlet spectrum of the cube (0, pi)^3; general boxes reach only the table.

Modes are positive integer triples (l, m, n); the mode sin(l x) sin(m y) sin(n z)
has eigenvalue alpha*l^2 + beta*m^2 + gamma*n^2 on the box (0, pi/sqrt(alpha)) x
(0, pi/sqrt(beta)) x (0, pi/sqrt(gamma)), which only ``enumerate_groups`` takes.
On the cube every eigenvalue is an integer and is stored exactly; eigenvalues of
general boxes are floats grouped by exact equality, so an "irrational" box
naturally yields only simple eigenvalues.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count

__all__ = [
    "ModeTriple",
    "BoxSpec",
    "CUBE",
    "EigenvalueGroup",
    "enumerate_groups",
    "counting_function",
    "product_nodal_count",
]


@dataclass(frozen=True, order=True)
class ModeTriple:
    """One Dirichlet mode sin(l x) sin(m y) sin(n z) with l, m, n >= 1."""

    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        l, m, n = self.l, self.m, self.n
        if type(l) is int and type(m) is int and type(n) is int and l > 0 and m > 0 and n > 0:
            return
        for name in ("l", "m", "n"):
            value = operator.index(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
                raise ValueError(f"mode numbers must be >= 1, got {name}={value}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l, self.m, self.n)


@dataclass(frozen=True)
class BoxSpec:
    """Squared inverse side-length weights of a box spectrum.

    The cube is BoxSpec() == BoxSpec(1, 1, 1).
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.alpha, self.beta, self.gamma)
        if not all(math.isfinite(w) and w > 0 for w in weights):
            raise ValueError(f"box weights must be positive and finite, got {weights}")

    @property
    def is_cube(self) -> bool:
        return self.alpha == self.beta == self.gamma == 1.0

    def eigenvalue(self, mode: ModeTriple) -> float:
        """Eigenvalue of a mode; an exact int on the cube, a float otherwise."""
        return _eigenvalue(*self._exact_weights(), mode.l, mode.m, mode.n)

    def _exact_weights(self) -> tuple[float, float, float]:
        return (1, 1, 1) if self.is_cube else (self.alpha, self.beta, self.gamma)


def _eigenvalue(a: float, b: float, g: float, l: int, m: int, n: int) -> float:
    """a l^2 + b m^2 + g n^2: an exact int for the cube's int weights."""
    return a * l**2 + b * m**2 + g * n**2


CUBE = BoxSpec()


@dataclass(frozen=True)
class EigenvalueGroup:
    """A distinct eigenvalue with its modes and contiguous Courant index range.

    ``modes`` holds every triple with this eigenvalue exactly once, in
    lexicographic order, and the group occupies indices k_min..k_max on the
    eigenvalue-counting line.
    """

    value: float
    modes: tuple[ModeTriple, ...]
    k_min: int

    @property
    def multiplicity(self) -> int:
        return len(self.modes)

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.modes) - 1

    def representatives(self) -> tuple[tuple[int, int, int], ...]:
        """Distinct mode families up to axis permutation, lexicographically."""
        return tuple(sorted({tuple(sorted(m.as_tuple())) for m in self.modes}))


def enumerate_groups(box: BoxSpec, lambda_max: float) -> list[EigenvalueGroup]:
    """All eigenvalue groups with value <= lambda_max, sorted ascending.

    The upper bound is closed: a group whose value equals lambda_max is
    included.  Index ranges tile 1..N with no gaps.
    """
    if not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be finite")
    a, b, g = box._exact_weights()
    # The loops run in lexicographic order, so each bucket is born sorted.
    # Each ends at its first value above lambda_max, as rounded by
    # _eigenvalue, which grows with every index also in floating point; a
    # loop that ends at its first index ends the loop around it too.
    buckets: dict[float, list[ModeTriple]] = {}
    for l in count(1):
        for m in count(1):
            for n in count(1):
                value = _eigenvalue(a, b, g, l, m, n)
                if value > lambda_max:
                    break
                buckets.setdefault(value, []).append(ModeTriple(l, m, n))
            if n == 1:
                break
        if m == 1:
            break
    groups: list[EigenvalueGroup] = []
    k = 1
    for value in sorted(buckets):
        groups.append(EigenvalueGroup(value, tuple(buckets[value]), k))
        k += len(buckets[value])
    return groups


def counting_function(lam: float) -> int:
    """N(lam): number of cube modes with l^2 + m^2 + n^2 strictly below lam.

    Eigenvalues are integers, so for each (l, m) the modes below lam are
    n = 1..isqrt(top - l^2 - m^2) with top = ceil(lam) - 1.  O(lam) time.
    """
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    top = math.ceil(lam) - 1
    return sum(
        math.isqrt(top - l * l - m * m)
        for l in range(1, math.isqrt(max(top - 2, 0)) + 1)
        for m in range(1, math.isqrt(top - l * l - 1) + 1)
    )


def product_nodal_count(t: ModeTriple) -> int:
    """Exact nodal-domain count l*m*n of the pure product mode (l, m, n).

    Each sine factor changes sign between its sign cells, so the zero set is
    a stack of axis-aligned planes cutting the box into l*m*n open cells.
    """
    return t.l * t.m * t.n
