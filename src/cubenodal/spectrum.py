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
        for name in ("l", "m", "n"):
            value = operator.index(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
                raise ValueError(f"mode numbers must be >= 1, got {name}={value}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.l, self.m, self.n)

    @property
    def cube_eigenvalue(self) -> int:
        return self.l**2 + self.m**2 + self.n**2


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
        if self.is_cube:
            return mode.cube_eigenvalue
        return self.alpha * mode.l**2 + self.beta * mode.m**2 + self.gamma * mode.n**2


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


def _axis_limit(weight: float, rest: float, lambda_max: float) -> int:
    """Largest index q >= 0 with weight*q^2 + rest <= lambda_max."""
    if lambda_max < rest:
        return 0
    q = int(math.sqrt(max(lambda_max - rest, 0.0) / weight)) + 2
    while q > 0 and weight * q * q + rest > lambda_max:
        q -= 1
    return q


def enumerate_groups(box: BoxSpec, lambda_max: float) -> list[EigenvalueGroup]:
    """All eigenvalue groups with value <= lambda_max, sorted ascending.

    The upper bound is closed: a group whose value equals lambda_max is
    included.  Index ranges tile 1..N with no gaps.
    """
    if not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be finite")
    a, b, g = box.alpha, box.beta, box.gamma
    buckets: dict[float, list[ModeTriple]] = {}
    l_top = _axis_limit(a, b + g, lambda_max)
    for l in range(1, l_top + 1):
        m_top = _axis_limit(b, a * l * l + g, lambda_max)
        for m in range(1, m_top + 1):
            n_top = _axis_limit(g, a * l * l + b * m * m, lambda_max)
            for n in range(1, n_top + 1):
                mode = ModeTriple(l, m, n)
                buckets.setdefault(box.eigenvalue(mode), []).append(mode)
    groups: list[EigenvalueGroup] = []
    k = 1
    for value in sorted(buckets):
        modes = tuple(sorted(buckets[value], key=ModeTriple.as_tuple))
        groups.append(EigenvalueGroup(value, modes, k))
        k += len(modes)
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
