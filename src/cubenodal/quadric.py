"""Exact quadric analysis of the eigenvalue-11 eigenspace of the cube.

Every eigenfunction with eigenvalue 11 is a combination

    Phi(x,y,z) = a sin x sin y sin 3z + b sin y sin z sin 3x + c sin z sin x sin 3y.

Using sin 3t = sin t (4 cos^2 t - 1) and the substitution
(u, v, w) = (cos x, cos y, cos z), the zero set of Phi inside the open cube
(0,pi)^3 is carried to the quadric

    4 (A u^2 + B v^2 + C w^2) = A + B + C,      (A, B, C) = (b, c, a),

inside (-1, 1)^3.  The sign pattern of (A, B, C) and of the product and sum
classifies the surface (cylinder, planes, cone, ellipsoid, hyperboloid), and
its position relative to the faces and edges of (-1,1)^3 determines how many
connected components the complement has: always 2, 3 or 4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .spectrum import ModeTriple

__all__ = [
    "QuadricCoeffs",
    "QuadricClass",
    "ComponentPrediction",
    "LAMBDA11_MODES",
    "reduce_to_quadric",
    "classify",
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


class QuadricClass(enum.Enum):
    CYLINDER = "cylinder"
    DOUBLE_PLANES = "double planes"
    CROSSED_PLANES = "crossed planes"
    CONE = "cone"
    ELLIPSOID = "ellipsoid"
    HYPERBOLOID_ONE_SHEET = "one-sheet hyperboloid"
    HYPERBOLOID_TWO_SHEETS = "two-sheet hyperboloid"


@dataclass(frozen=True)
class ComponentPrediction:
    """Predicted component count of (-1,1)^3 minus the quadric.

    ``w0`` is set only in the ellipsoid edge-cutting subcase: the surface
    meets each edge parallel to the short axis along [-w0, +w0].
    """

    count: int
    subcase: str
    w0: float | None = None


def reduce_to_quadric(a: float, b: float, c: float) -> QuadricCoeffs:
    """Quadric coefficients of the sine combination with coefficients (a, b, c).

    The triple-angle identity moves each 4cos^2-1 factor onto its own axis:
    the u^2 coefficient comes from the sin 3x term, so (A, B, C) = (b, c, a).
    The coefficient sum is preserved.  ``QuadricCoeffs`` refuses (0, 0, 0).
    """
    return QuadricCoeffs(A=b, B=c, C=a)


def classify(q: QuadricCoeffs) -> QuadricClass:
    """Surface type from the exact sign pattern of (A, B, C).

    With s = A+B+C: two zero coefficients give a pair of parallel planes; one
    zero coefficient gives a cylinder (elliptic or hyperbolic) except for the
    degenerate crossed planes at s = 0; three nonzero give a cone at s = 0, an
    ellipsoid for a single sign, and otherwise a hyperboloid with one sheet
    (ABC and s of opposite signs) or two sheets.  The sign of ABC is read from
    the number of negative coefficients: the float product can underflow to 0.
    """
    coeffs = (q.A, q.B, q.C)
    nonzero = [t for t in coeffs if t != 0.0]
    s = q.coefficient_sum
    if len(nonzero) == 1:
        return QuadricClass.DOUBLE_PLANES
    if len(nonzero) == 2:
        if nonzero[0] * nonzero[1] > 0:
            return QuadricClass.CYLINDER
        return QuadricClass.CROSSED_PLANES if s == 0.0 else QuadricClass.CYLINDER
    if s == 0.0:
        return QuadricClass.CONE
    if all(t > 0 for t in coeffs) or all(t < 0 for t in coeffs):
        return QuadricClass.ELLIPSOID
    product_negative = sum(t < 0 for t in coeffs) % 2 == 1
    if product_negative == (s > 0):
        return QuadricClass.HYPERBOLOID_ONE_SHEET
    return QuadricClass.HYPERBOLOID_TWO_SHEETS


def predict_components(q: QuadricCoeffs) -> ComponentPrediction:
    """Component count of the cube complement, by exact case analysis.

    Normalizations (axis permutation, overall sign flip, rescaling to
    |A+B+C| = 1) leave the zero set and the count invariant and reduce each
    class to one canonical position.  Inputs exactly on a subcase boundary
    get the closed-subcase value (e.g. a tangent ellipsoid counts as the
    edge-cutting case with w0 = 0).
    """
    cls = classify(q)
    if cls is QuadricClass.DOUBLE_PLANES:
        # 4 A u^2 = A: the planes u = +-1/2 cut three slabs.
        return ComponentPrediction(3, "double planes")
    if cls is QuadricClass.CROSSED_PLANES:
        # A u^2 + B v^2 = 0 with opposite signs: two planes through the axis.
        return ComponentPrediction(4, "crossed planes")
    if cls is QuadricClass.CONE:
        # Touches the cube boundary only along edges/vertices: top, bottom, middle.
        return ComponentPrediction(3, "cone")
    if cls is QuadricClass.CYLINDER:
        lo_pair = [t for t in (q.A, q.B, q.C) if t != 0.0]
        if lo_pair[0] * lo_pair[1] > 0:
            # Ellipse P u^2 + Q v^2 = (P+Q)/4; the long semi-axis stays inside the
            # square iff small / (small + large) > 1/4, i.e. 3 small - large > 0 exactly.
            small, large = sorted((abs(lo_pair[0]), abs(lo_pair[1])))
            if math.fsum((small, small, small, -large)) > 0:
                return ComponentPrediction(2, "cylinder ellipse interior")
            return ComponentPrediction(3, "cylinder ellipse edge-cut")
        # Hyperbola with P + Q = 1, P > 1: both branches run from the top edge
        # of the square to the bottom edge, cutting off a side region each.
        return ComponentPrediction(3, "cylinder hyperbola")
    # Nondegenerate central quadrics: rescale so the coefficient sum is 1.
    s = q.coefficient_sum
    if cls is QuadricClass.ELLIPSOID:
        t = sorted((q.A / s, q.B / s, q.C / s))
        ab = t[0] + t[1]
        if ab > 0.25:
            return ComponentPrediction(2, "ellipsoid interior")
        w0 = math.sqrt((0.25 - ab) / (1.0 - ab))
        return ComponentPrediction(3, "ellipsoid edge-cut", w0=w0)
    if cls is QuadricClass.HYPERBOLOID_ONE_SHEET:
        # Two positive transverse coefficients a <= b and one negative, sum 1.
        # Pick them by sign before dividing: a subnormal one may divide to 0.
        a = min(x / s for x in (q.A, q.B, q.C) if (x > 0) == (s > 0))
        if a <= 0.25:
            return ComponentPrediction(3, "one-sheet a<=1/4")
        return ComponentPrediction(2, "one-sheet a>1/4")
    return ComponentPrediction(3, "two-sheet")


def boundary_distance(a: float, b: float, c: float) -> float:
    """Distance of (a, b, c) from the predictor's subcase boundaries.

    Measured on scale-normalized coefficients: nearness to a vanishing
    coefficient (min |.| on the unit sphere), to the cone plane a+b+c = 0,
    and - within the ellipsoid and one-sheet families - to the sum-normalized
    thresholds a+b = 1/4 and a = 1/4.  Zero exactly on a boundary.  Used to
    exclude resolution-fragile tangencies from predictor-vs-grid sweeps.
    """
    norm = math.sqrt(a * a + b * b + c * c)
    if norm == 0.0:
        raise ValueError("(a, b, c) must not all vanish")
    na, nb, nc = a / norm, b / norm, c / norm
    d = min(abs(na), abs(nb), abs(nc))
    s = na + nb + nc
    d = min(d, abs(s) / math.sqrt(3.0))
    if s != 0.0:
        t = sorted((na / s, nb / s, nc / s))
        if all(x > 0 for x in t):
            d = min(d, abs(t[0] + t[1] - 0.25))
        else:
            pos = [x for x in t if x > 0]
            if len(pos) == 2:
                d = min(d, abs(min(pos) - 0.25))
    return d


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
