"""Parity of cube eigenspaces under the antipodal map and halved Courant bounds.

The involution g: (x,y,z) -> (pi-x, pi-y, pi-z) sends sin(l x) to
(-1)^{l+1} sin(l x), so the mode (l,m,n) transforms with sign
(-1)^{l+m+n+1}.  Since l^2+m^2+n^2 == l+m+n (mod 2), all modes of one
eigenvalue transform identically: the eigenspace is even exactly when
l+m+n is odd, i.e. when the eigenvalue is odd.

For an eigenfunction in either parity class whose eigenvalue is the j-th in
that class, the nodal domains pair up under g (an even eigenfunction may
additionally have g-invariant domains), which bounds the nodal count by 2j.
If 2j < k_min the eigenvalue cannot be Courant sharp.
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


def symmetric_index(box: BoxSpec, value: float, parity: Parity) -> SymmetricIndex:
    """Index of ``value`` within the stated parity subspace of the box."""
    groups = enumerate_groups(box, value)
    target = next((g for g in groups if g.value == value), None)
    if target is None:
        raise ValueError(f"{value} is not an eigenvalue of this box")
    if group_parity(target) is not parity:
        raise ValueError(
            f"eigenspace of {value} is {group_parity(target).value}, not {parity.value}"
        )
    below = sum(
        eigenspace_parity(m) is parity for g in groups if g.value < value for m in g.modes
    )
    return SymmetricIndex(target, parity, below + 1)


def symmetry_excludes(box: BoxSpec, group: EigenvalueGroup) -> bool:
    """True iff the halved Courant bound rules out Courant sharpness."""
    return symmetric_index(box, group.value, group_parity(group)).excludes
