"""Parity of cube eigenspaces under the antipodal map and halved Courant bounds.

The involution g: (x,y,z) -> (pi-x, pi-y, pi-z) sends sin(l x) to
(-1)^{l+1} sin(l x), so the mode (l,m,n) transforms with sign
(-1)^{l+m+n+1}.  Since l^2+m^2+n^2 == l+m+n (mod 2), all modes of one
eigenvalue transform identically: the eigenspace is even exactly when
l+m+n is odd, i.e. when the eigenvalue is odd.

For an eigenfunction in either parity class whose eigenvalue is the j-th in
that class, the nodal domains pair up under g (an even eigenfunction may
additionally have g-invariant domains), which bounds the nodal count by 2j.
If 2j < k_min the eigenvalue cannot be Courant sharp.  Every j comes from one
ascending pass that counts the modes of each parity (``symmetric_indices``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .spectrum import BoxSpec, EigenvalueGroup, ModeTriple, enumerate_groups

__all__ = [
    "Parity",
    "SymmetricIndex",
    "eigenspace_parity",
    "group_parity",
    "symmetric_index",
    "symmetric_indices",
    "symmetry_excludes",
]


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def eigenspace_parity(mode: ModeTriple) -> Parity:
    """Parity under g of the eigenspace containing this mode."""
    return Parity.EVEN if (mode.l + mode.m + mode.n) % 2 == 1 else Parity.ODD


def group_parity(group: EigenvalueGroup) -> Parity:
    """Common parity of a whole eigenvalue group.

    Every group of the cube has one parity.  On other boxes a group may mix
    them (on 1,1,2 the eigenvalue-10 group holds (1,1,2) and (2,2,1)), and
    then it has no parity subspace of its own, so it is refused.
    """
    parities = {eigenspace_parity(m) for m in group.modes}
    if len(parities) != 1:
        raise ValueError(f"the modes of eigenvalue {group.value} mix both parities")
    return parities.pop()


@dataclass(frozen=True)
class SymmetricIndex:
    """Position of an eigenvalue inside its parity subspace.

    ``j`` is 1 plus the number of same-parity modes of strictly smaller
    eigenvalue; ``bound`` = 2j caps the nodal count of any eigenfunction in
    the subspace.
    """

    group: EigenvalueGroup
    parity: Parity
    j: int

    @property
    def bound(self) -> int:
        return 2 * self.j

    @property
    def excludes(self) -> bool:
        """True iff the halved bound rules out Courant sharpness at k_min.

        Sharpness needs an eigenfunction with k_min nodal domains, so the
        strict inequality bound < k_min suffices to exclude.
        """
        return self.bound < self.group.k_min


def symmetric_indices(groups: list[EigenvalueGroup]) -> dict[float, SymmetricIndex]:
    """Index of each single-parity group, keyed by value, from ``enumerate_groups`` output.

    Counts go up per mode, so a group that mixes parities counts toward both
    but gets no index of its own.  A mode is even when l + m + n is odd.
    """
    even_below = odd_below = 0
    indices = {}
    for group in groups:
        even = sum([(m.l + m.m + m.n) & 1 for m in group.modes])
        if even == len(group.modes):
            indices[group.value] = SymmetricIndex(group, Parity.EVEN, even_below + 1)
        elif not even:
            indices[group.value] = SymmetricIndex(group, Parity.ODD, odd_below + 1)
        even_below, odd_below = even_below + even, odd_below + len(group.modes) - even
    return indices


def symmetric_index(box: BoxSpec, value: float, parity: Parity) -> SymmetricIndex:
    """Index of ``value`` within the stated parity subspace of the box."""
    groups = enumerate_groups(box, value)
    if not groups or groups[-1].value != value:
        raise ValueError(f"{value} is not an eigenvalue of this box")
    actual = group_parity(groups[-1])
    if actual is not parity:
        raise ValueError(f"eigenspace of {value} is {actual.value}, not {parity.value}")
    return symmetric_indices(groups)[value]


def symmetry_excludes(box: BoxSpec, group: EigenvalueGroup) -> bool:
    """True iff the halved Courant bound rules out Courant sharpness."""
    return symmetric_index(box, group.value, group_parity(group)).excludes
