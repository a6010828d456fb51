"""Grid-based nodal-domain counting for box eigenfunctions.

An eigenfunction is sampled on the interior lattice x = i pi/n, 1 <= i <= n-1
(per axis); the strictly positive and strictly negative sample sets are
labeled under 6-neighbor (face) connectivity and counted separately.  Samples
that are exactly zero belong to no component: sign regions of an
eigenfunction are open, and zeros land exactly on lattice-aligned nodal
planes, so assigning them to either side would corrupt counts.

A count is trusted once it is stable under one resolution doubling; on
disagreement the resolution keeps doubling up to a cap, and the final result
carries converged=False if the last pair still disagrees.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.special import ndtri
from scipy.stats import qmc

from . import quadric
from .spectrum import EigenvalueGroup, ModeTriple

__all__ = [
    "RESOLUTION_CAP",
    "EigenCombo",
    "ScalarGrid",
    "NodalCount",
    "SweepSample",
    "SweepResult",
    "sample_field",
    "count_components",
    "count_nodal_domains",
    "sweep_eigenspace",
    "sphere_samples",
]

RESOLUTION_CAP = 512

_FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


@dataclass(frozen=True)
class EigenCombo:
    """A real linear combination of the modes of one eigenvalue group.

    ``coeffs`` pairs with ``group.modes`` in order and must not be all zero.
    """

    group: EigenvalueGroup
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(x) for x in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.group.multiplicity:
            raise ValueError(
                f"expected {self.group.multiplicity} coefficients, got {len(coeffs)}"
            )
        if all(x == 0.0 for x in coeffs):
            raise ValueError("coefficients must not all vanish")

    def negated(self) -> "EigenCombo":
        return EigenCombo(self.group, tuple(-x for x in self.coeffs))

    def antipodal_image(self) -> "EigenCombo":
        """Coefficients of the composition with (x,y,z) -> (pi-x, pi-y, pi-z)."""
        signs = ((-1.0) ** (m.l + m.m + m.n + 1) for m in self.group.modes)
        return EigenCombo(
            self.group, tuple(s * x for s, x in zip(signs, self.coeffs))
        )


@dataclass(frozen=True)
class ScalarGrid:
    """Values of an eigenfunction on the interior lattice of the cube."""

    n: int
    values: np.ndarray


@dataclass(frozen=True)
class NodalCount:
    positive_components: int
    negative_components: int
    zero_samples: int
    resolution_used: int
    converged: bool

    @property
    def total(self) -> int:
        return self.positive_components + self.negative_components


def _sine_table(n: int) -> np.ndarray:
    """sin(j pi / n) for j = 0..2n-1 with exact zeros and exact odd symmetry.

    Samples of sin(freq * i pi / n) then reduce to table lookups at
    (freq * i) mod 2n, so multiples of pi evaluate to exactly 0.0 and
    g-reflected lattices see bitwise-identical magnitudes.
    """
    half = n // 2
    table = np.zeros(2 * n)
    q = np.sin(np.arange(half + 1) * (math.pi / n))
    q[0] = 0.0
    table[: half + 1] = q
    table[n - half : n + 1] = q[::-1]
    table[n] = 0.0
    table[n + 1 :] = -table[1:n]
    return table


def _axis_samples(freq: int, n: int, table: np.ndarray) -> np.ndarray:
    idx = (freq * np.arange(1, n)) % (2 * n)
    return table[idx]


def sample_field(combo: EigenCombo, n: int) -> ScalarGrid:
    """Sample the combination on the n-interior lattice (exact trig values).

    Each mode separates into axis factors, so the whole field is one matrix
    product of per-mode (x,y)-planes against per-mode z-samples.  Zeros on
    lattice-aligned nodal planes come out exactly 0.0 because every term
    carries an exact zero factor.
    """
    if n < 8:
        raise ValueError(f"resolution must be at least 8, got {n}")
    table = _sine_table(n)
    active = [
        (coeff, mode)
        for coeff, mode in zip(combo.coeffs, combo.group.modes)
        if coeff != 0.0
    ]
    planes = np.empty((len(active), (n - 1) * (n - 1)))
    sz = np.empty((len(active), n - 1))
    for t, (coeff, mode) in enumerate(active):
        sx = coeff * _axis_samples(mode.l, n, table)
        sy = _axis_samples(mode.m, n, table)
        planes[t] = np.multiply.outer(sx, sy).ravel()
        sz[t] = _axis_samples(mode.n, n, table)
    values = (planes.T @ sz).reshape(n - 1, n - 1, n - 1)
    return ScalarGrid(n, values)


def count_components(grid: ScalarGrid) -> NodalCount:
    """Face-connected components of the positive and negative sample sets."""
    v = grid.values
    _, n_pos = ndimage.label(v > 0.0, structure=_FACE_STRUCTURE)
    _, n_neg = ndimage.label(v < 0.0, structure=_FACE_STRUCTURE)
    zeros = int((v == 0.0).sum())
    return NodalCount(int(n_pos), int(n_neg), zeros, grid.n, False)


def count_nodal_domains(
    combo: EigenCombo, n0: int = 16, cap: int = RESOLUTION_CAP
) -> NodalCount:
    """Count nodal domains with the resolution-doubling agreement policy.

    Counts at n0 and 2*n0; on agreement returns the finer result with
    converged=True, otherwise keeps doubling while the next resolution stays
    within ``cap``.  A result returned at the cap without agreement carries
    converged=False; the caller decides what to do with it.  No grid finer
    than ``cap`` is sampled: a ``cap`` below 2*n0 is refused up front.
    """
    if n0 < 16:
        raise ValueError(f"base resolution must be at least 16, got {n0}")
    if 2 * n0 > cap:
        raise ValueError(f"resolution cap {cap} is below twice the base resolution {n0}")
    prev = count_components(sample_field(combo, n0))
    n = 2 * n0
    while True:
        current = count_components(sample_field(combo, n))
        if current.total == prev.total:
            return replace(current, converged=True)
        if 2 * n > cap:
            return current
        prev, n = current, 2 * n


def sphere_samples(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^dim.

    Scrambled Halton points mapped through the inverse normal CDF and
    normalized; identical for identical (dim, n_samples, seed).
    """
    engine = qmc.Halton(d=dim, scramble=True, seed=seed)
    u = engine.random(n_samples)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < 1e-12
    if degenerate.any():
        z[degenerate, 0] = 1.0
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


@dataclass(frozen=True)
class SweepSample:
    index: int
    coeffs: tuple[float, ...]
    count: NodalCount
    predicted: quadric.ComponentPrediction | None = None
    boundary_distance: float | None = None


@dataclass(frozen=True)
class SweepResult:
    group: EigenvalueGroup
    n_samples: int
    n0: int
    seed: int
    samples: tuple[SweepSample, ...]

    @property
    def histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(s.count.total for s in self.samples).items()))

    @property
    def non_converged(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.samples if not s.count.converged)


def _is_lambda11_cube_group(group: EigenvalueGroup) -> bool:
    return group.value == 11 and set(group.modes) == set(quadric.LAMBDA11_MODES)


def sweep_eigenspace(
    group: EigenvalueGroup,
    n_samples: int,
    n0: int,
    *,
    seed: int = 0,
    cap: int = RESOLUTION_CAP,
) -> SweepResult:
    """Count nodal domains over a low-discrepancy sweep of the eigenspace.

    Coefficient vectors are drawn quasi-uniformly on the unit sphere of the
    group's coefficient space.  For the eigenvalue-11 group of the cube each
    sample also carries the quadric predictor's count and the distance of its
    coefficients from the predictor's subcase boundaries.  Non-converged
    samples are reported in place, never dropped; sample order is by index
    regardless of how the evaluations are scheduled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    points = sphere_samples(group.multiplicity, n_samples, seed)
    check_quadric = _is_lambda11_cube_group(group)
    samples = []
    for i, row in enumerate(points):
        combo = EigenCombo(group, tuple(row))
        count = count_nodal_domains(combo, n0, cap)
        prediction = None
        distance = None
        if check_quadric:
            abc = quadric.sine_coeffs_from_modes(group.modes, combo.coeffs)
            prediction = quadric.predict_components(quadric.reduce_to_quadric(*abc))
            distance = quadric.boundary_distance(*abc)
        samples.append(SweepSample(i, combo.coeffs, count, prediction, distance))
    return SweepResult(group, n_samples, n0, seed, tuple(samples))
