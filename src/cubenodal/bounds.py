"""Quantitative screening of Courant-sharp candidates on the cube.

A Faber-Krahn lower bound applied to each nodal domain forces
lambda^{3/2} / k >= (4/3) pi whenever lambda_k admits an eigenfunction with
k nodal domains; ``ScreeningRecord.fk_pass`` is that test at k_min.  Combined
with a closed-form lattice-point lower bound on the counting function
N(lambda), this yields a cubic inequality in mu = sqrt(lambda) whose unique
real root caps the search: every candidate eigenvalue lies below
mu^2 < 48.7, hence is at most 48.  All of this holds on the cube only, which
``screen_candidates`` enumerates itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectrum import CUBE, EigenvalueGroup, enumerate_groups

__all__ = [
    "FABER_KRAHN_RATIO",
    "ScreeningRecord",
    "lattice_lower_bound",
    "pleijel_cutoff",
    "screen_candidates",
]

FABER_KRAHN_RATIO = 4.0 * math.pi / 3.0


def lattice_lower_bound(lam: float) -> float:
    """Closed-form lower bound for N(lambda), valid for lambda >= 3.

    Counts lattice points in the positive octant of the ball of radius
    sqrt(lambda) from below:

        (pi/6) lambda^{3/2} - (3 pi/4) lambda + 3 sqrt(lambda - 2) - 1
    """
    if lam < 3:
        raise ValueError(f"the bound requires lambda >= 3, got {lam}")
    return (
        math.pi / 6.0 * lam**1.5
        - 0.75 * math.pi * lam
        + 3.0 * math.sqrt(lam - 2.0)
        - 1.0
    )


def _cutoff_poly(mu: float) -> float:
    return (3.0 / (4.0 * math.pi) - math.pi / 6.0) * mu**3 + 0.75 * math.pi * mu**2 - 3.0 * mu + 3.0


def _cutoff_poly_deriv(mu: float) -> float:
    return 3.0 * (3.0 / (4.0 * math.pi) - math.pi / 6.0) * mu**2 + 1.5 * math.pi * mu - 3.0


def pleijel_cutoff() -> tuple[float, float]:
    """Root of the screening cubic and the induced eigenvalue cutoff.

    Returns (mu_root, lambda_cutoff) where mu_root is the unique real root of

        (3/(4 pi) - pi/6) mu^3 + (3 pi/4) mu^2 - 3 mu + 3 = 0

    bracketed in [1, 20] and bisected to width 1e-6 with one Newton polish, and
    lambda_cutoff = mu_root^2 (about 48.7).
    """
    lo, hi = 1.0, 20.0
    flo = _cutoff_poly(lo)
    if flo <= 0 or _cutoff_poly(hi) >= 0:
        raise RuntimeError("cutoff polynomial does not bracket a root on [1, 20]")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if _cutoff_poly(mid) > 0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    mu -= _cutoff_poly(mu) / _cutoff_poly_deriv(mu)
    return mu, mu * mu


@dataclass(frozen=True)
class ScreeningRecord:
    """Faber-Krahn screening of one eigenvalue group at its first index.

    Only the first index of a group can be Courant sharp (sharpness at k
    requires lambda_{k-1} < lambda_k), so the ratio is evaluated at k_min.
    """

    group: EigenvalueGroup
    ratio: float

    @property
    def fk_pass(self) -> bool:
        """True iff lambda^{3/2} / k_min >= 4*pi/3, the survival condition."""
        return self.ratio >= FABER_KRAHN_RATIO


def screen_candidates(lambda_max: float) -> list[ScreeningRecord]:
    """One record per cube group with value <= lambda_max; candidates flagged.

    The candidate set is complete once lambda_max covers the pleijel_cutoff
    range: lambda_max = 48 already contains every group that can survive.
    """
    return [
        ScreeningRecord(group, group.value**1.5 / group.k_min)
        for group in enumerate_groups(CUBE, lambda_max)
    ]
