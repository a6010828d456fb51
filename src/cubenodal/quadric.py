"""Exact quadric analysis of the eigenvalue-11 eigenspace of the cube.

Every eigenfunction with eigenvalue 11 is a combination

    Phi(x,y,z) = a sin x sin y sin 3z + b sin y sin z sin 3x + c sin z sin x sin 3y.

Using sin 3t = sin t (4 cos^2 t - 1) and the substitution
(u, v, w) = (cos x, cos y, cos z), the zero set of Phi inside the open cube
(0,pi)^3 is carried to the quadric

    4 (A u^2 + B v^2 + C w^2) = A + B + C,      (A, B, C) = (b, c, a),

inside (-1, 1)^3.  The signs of (A, B, C) and of their sum give the surface's
family (cylinder, planes, cone, ellipsoid, hyperboloid), and its position
relative to the faces and edges of (-1,1)^3 one of the 11 ``SUBCASES``, each
with the number of connected components of the complement: 2, 3 or 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectrum import ModeTriple

__all__ = [
    "QuadricCoeffs",
    "Subcase",
    "SUBCASES",
    "LAMBDA11_MODES",
    "reduce_to_quadric",
    "predict_components",
    "boundary_distance",
    "sine_coeffs_from_modes",
]

LAMBDA11_MODES = (ModeTriple(1, 1, 3), ModeTriple(1, 3, 1), ModeTriple(3, 1, 1))


@dataclass(frozen=True)
class QuadricCoeffs:
    """Coefficients of 4(A u^2 + B v^2 + C w^2) - (A + B + C) = 0."""

    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        if self.A == 0.0 and self.B == 0.0 and self.C == 0.0:
            raise ValueError("quadric coefficients must not all vanish")

    @property
    def coefficient_sum(self) -> float:
        """A + B + C, correctly rounded so it does not hang on axis order.

        A plain left-to-right sum can absorb a tiny coefficient in one order
        and keep it in another, turning a hyperboloid into a cone.
        """
        return math.fsum((self.A, self.B, self.C))


@dataclass(frozen=True)
class Subcase:
    """One subcase of the predictor: its component count and a point inside it."""

    name: str
    count: int
    representative: tuple[float, float, float]


# Every subcase the predictor can return, keyed by name.  The representative
# is an (a, b, c), as ``reduce_to_quadric`` takes it, inside the subcase.
SUBCASES = {
    s.name: s
    for s in (
        Subcase("cylinder ellipse interior", 2, (1.0, 1.0, 0.0)),
        Subcase("cylinder ellipse edge-cut", 3, (1.0, 4.0, 0.0)),
        Subcase("cylinder hyperbola", 3, (0.0, 1.5, -0.5)),
        Subcase("crossed planes", 4, (1.0, -1.0, 0.0)),
        Subcase("double planes", 3, (1.0, 0.0, 0.0)),
        Subcase("cone", 3, (0.2, 0.2, -0.4)),
        Subcase("ellipsoid interior", 2, (0.3, 0.3, 0.4)),
        Subcase("ellipsoid edge-cut", 3, (0.1, 0.1, 0.8)),
        Subcase("one-sheet a<=1/4", 3, (0.2, 0.9, -0.1)),
        Subcase("one-sheet a>1/4", 2, (0.5, 0.6, -0.1)),
        Subcase("two-sheet", 3, (0.8, 0.8, -2.6)),
    )
}


def reduce_to_quadric(a: float, b: float, c: float) -> QuadricCoeffs:
    """Quadric coefficients of the sine combination with coefficients (a, b, c).

    The triple-angle identity moves each 4cos^2-1 factor onto its own axis:
    the u^2 coefficient comes from the sin 3x term, so (A, B, C) = (b, c, a).
    The coefficient sum is preserved.  ``QuadricCoeffs`` refuses (0, 0, 0).
    """
    return QuadricCoeffs(A=b, B=c, C=a)


def _split(x: float, y: float, z: float, s: float) -> tuple[str, float | None]:
    """Subcase name of 4(x u^2 + y v^2 + z w^2) = s, and its threshold margin.

    Signs come from the coefficients, never from a product that can
    underflow.  Rescaled to sum 1, an ellipsoid stays off the cube's edges
    iff its two smallest coefficients have a+b > 1/4, and a one-sheet
    hyperboloid iff its smaller transverse coefficient has a > 1/4.  The
    margin is a+b - 1/4 or a - 1/4 in those two families, else None; a
    margin of exactly 0 (a tangency) gets the closed, edge-cutting subcase.
    """
    nonzero = [t for t in (x, y, z) if t != 0.0]
    if len(nonzero) == 1:
        # 4 A u^2 = A: the planes u = +-1/2 cut three slabs.
        return "double planes", None
    if len(nonzero) == 2:
        p, q = nonzero
        if (p > 0) != (q > 0):
            # Two planes through the axis at s = 0; otherwise both hyperbola
            # branches run from one edge of the square to the opposite one.
            return ("crossed planes" if s == 0.0 else "cylinder hyperbola"), None
        # The ellipsoid threshold with one coefficient 0, decided exactly:
        # small / (small + large) > 1/4 iff 3 small - large > 0.
        small, large = sorted((abs(p), abs(q)))
        inside = math.fsum((small, small, small, -large)) > 0
        return ("cylinder ellipse interior" if inside else "cylinder ellipse edge-cut"), None
    if s == 0.0:
        # Touches the cube boundary only along edges/vertices: top, bottom, middle.
        return "cone", None
    # An ellipsoid if all three coefficients share the sign of s, a one-sheet
    # hyperboloid if two do, a two-sheet one if one does.  Pick them by sign
    # before dividing: a subnormal coefficient may divide to 0.
    same = sorted(t / s for t in (x, y, z) if (t > 0) == (s > 0))
    if len(same) == 3:
        stat, off_edges, on_edges = same[0] + same[1], "ellipsoid interior", "ellipsoid edge-cut"
    elif len(same) == 2:
        stat, off_edges, on_edges = same[0], "one-sheet a>1/4", "one-sheet a<=1/4"
    else:
        return "two-sheet", None
    margin = stat - 0.25
    return (off_edges if margin > 0 else on_edges), margin


def predict_components(q: QuadricCoeffs) -> Subcase:
    """The ``SUBCASES`` entry of the quadric, by exact case analysis.

    Its count is that of the components of (-1,1)^3 minus the quadric.
    Normalizations (axis permutation, overall sign flip, rescaling to
    |A+B+C| = 1) leave the zero set and the count invariant and reduce each
    family to one canonical position; the sign of A+B+C is exact.
    """
    return SUBCASES[_split(q.A, q.B, q.C, q.coefficient_sum)[0]]


def boundary_distance(a: float, b: float, c: float) -> float:
    """Distance of (a, b, c) from the predictor's subcase boundaries.

    Measured on (a, b, c) rescaled to the unit sphere, so it does not depend
    on scale: nearness to a vanishing coefficient (min |.|), to the cone plane
    a+b+c = 0, and - within the ellipsoid and one-sheet families - to the
    sum-normalized thresholds a+b = 1/4 and a = 1/4 that the predictor uses.
    Zero exactly on a boundary.  Used to exclude resolution-fragile
    tangencies from predictor-vs-grid sweeps.
    """
    # An exact power-of-two rescale first, so the squares neither underflow
    # nor overflow.
    e = math.frexp(max(abs(a), abs(b), abs(c)))[1]
    a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    norm = math.sqrt(a * a + b * b + c * c)
    if norm == 0.0:
        raise ValueError("(a, b, c) must not all vanish")
    na, nb, nc = a / norm, b / norm, c / norm
    s = na + nb + nc
    d = min(abs(na), abs(nb), abs(nc), abs(s) / math.sqrt(3.0))
    margin = _split(na, nb, nc, s)[1]
    return d if margin is None else min(d, abs(margin))


def sine_coeffs_from_modes(
    modes: tuple[ModeTriple, ...], coeffs: tuple[float, ...]
) -> tuple[float, float, float]:
    """Map eigenvalue-11 basis coefficients to the (a, b, c) of the quadric form.

    ``a`` multiplies the sin 3z mode (1,1,3), ``b`` the sin 3x mode (3,1,1)
    and ``c`` the sin 3y mode (1,3,1); ``modes`` may come in any order.
    """
    lookup = {mode: float(x) for mode, x in zip(modes, coeffs)}
    if set(lookup) != set(LAMBDA11_MODES):
        raise ValueError("modes must be exactly the eigenvalue-11 triples")
    sin3z, sin3y, sin3x = LAMBDA11_MODES
    return (lookup[sin3z], lookup[sin3x], lookup[sin3y])
