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

Counts are taken on the quotient by the field's mirror planes.  At even n the
plane x = pi/2 is the lattice plane i = n/2, and if every active mode has odd
l the field is symmetric under x -> pi - x (antisymmetric if every l is even,
and then that plane is nodal).  Only i <= n/2 is sampled on such an axis.  A
component that does not touch a mirror plane has a distinct mirror image, so
it counts twice per such plane; a zero sample counts once for each of its
images.  Axes with mixed parities, and every axis at odd n, are sampled whole.

With no mirror, the antipodal map g: i -> n - i on every axis sends each mode
to (-1)^(l+m+n+1) times itself.  If all active modes share that sign, only
x-rows i <= n/2 are sampled at even n, and the whole grid's components are
counted on a double cover of that half, glued across the plane i = n/2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.special import ndtri

from . import quadric
from .spectrum import EigenvalueGroup, ModeTriple
from .symmetry import Parity, eigenspace_parity

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
# Samples evaluated at once by count_components: 2 MiB of float64.
SLAB_POINTS = 1 << 18

_FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


def _g_sign(mode: ModeTriple) -> int:
    """The sign a mode takes under g: (x,y,z) -> (pi-x, pi-y, pi-z)."""
    return 1 if eigenspace_parity(mode) is Parity.EVEN else -1


@dataclass(frozen=True)
class EigenCombo:
    """A real linear combination of the modes of one eigenvalue group.

    ``coeffs`` pairs with ``group.modes`` in order, finite and not all zero.
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
        if not all(math.isfinite(x) for x in coeffs):
            raise ValueError(f"coefficients must be finite, got {coeffs}")
        if all(x == 0.0 for x in coeffs):
            raise ValueError("coefficients must not all vanish")

    def negated(self) -> "EigenCombo":
        return EigenCombo(self.group, tuple(-x for x in self.coeffs))

    def antipodal_image(self) -> "EigenCombo":
        """Coefficients of the composition with (x,y,z) -> (pi-x, pi-y, pi-z)."""
        return EigenCombo(
            self.group, tuple(_g_sign(m) * x for m, x in zip(self.group.modes, self.coeffs))
        )


@dataclass(frozen=True)
class ScalarGrid:
    """Samples of an eigenfunction on the interior lattice of the cube.

    The samples are kept as separable factors: with ``sx, sy, sz = shape``,
    column ``i * sy + j`` of ``planes`` dotted with column ``k`` of ``zs``
    is the sample at lattice index (i+1, j+1, k+1).  ``rows`` evaluates a
    few x-rows at a time, so a count holds O(n^2) samples at once whatever
    n is; ``values`` evaluates the whole array.

    Per axis, ``mirrors`` is 0 for an axis sampled whole (i = 1..n-1), or +1
    (-1) for a field symmetric (antisymmetric) under i -> n - i, sampled on
    i = 1..n/2 only.  With no mirror, ``inversion`` is +1 (-1) for a field
    that g maps to itself (to minus itself), sampled on x-rows i = 1..n/2
    only, with y and z whole; otherwise it is 0.
    """

    n: int
    shape: tuple[int, int, int]
    planes: np.ndarray
    zs: np.ndarray
    mirrors: tuple[int, int, int] = (0, 0, 0)
    inversion: int = 0

    def rows(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """The samples of x-rows start..stop-1 (0-based), shape (stop-start, sy, sz).

        With ``out``, a 1-d float64 array of at least that many elements, the
        samples are written into its start and the result is a view of it;
        they are bitwise those returned without ``out``.
        """
        _, sy, sz = self.shape
        factors = self.planes[:, start * sy : stop * sy].T
        if out is not None:
            out = out[: factors.shape[0] * sz].reshape(-1, sz)
        return np.matmul(factors, self.zs, out=out).reshape(-1, sy, sz)

    @property
    def values(self) -> np.ndarray:
        """The whole array at once; only the tests' oracles read it."""
        return self.rows(0, self.shape[0])


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


def sample_field(combo: EigenCombo, n: int, quotient: bool = False) -> ScalarGrid:
    """Sample the combination on the n-interior lattice (exact trig values).

    Each mode separates into axis factors, so the field is a matrix product
    of per-mode (x,y)-planes against per-mode z-samples, which the returned
    grid keeps unevaluated (see ``ScalarGrid``).  Zeros on
    lattice-aligned nodal planes come out exactly 0.0 because every term
    carries an exact zero factor.  With ``quotient`` every axis on which the
    active modes share a parity is sampled only up to its mirror plane, or,
    with no such axis, x only up to i = n/2 if the active modes share a
    g-parity (see ``ScalarGrid``); the samples taken are those of the whole
    grid.
    """
    if n < 8:
        raise ValueError(f"resolution must be at least 8, got {n}")
    table = _sine_table(n)
    active = [
        (coeff, mode) for coeff, mode in zip(combo.coeffs, combo.group.modes) if coeff != 0.0
    ]
    # sin(f (pi - x)) = (-1)^(f+1) sin(f x): all-odd indices on an axis give +1,
    # all-even -1.  At odd n no lattice plane lies on the mirror.
    even = quotient and n % 2 == 0
    parities = [{mode.as_tuple()[axis] % 2 for _, mode in active} for axis in range(3)]
    mirrors = tuple(2 * min(p) - 1 if even and len(p) == 1 else 0 for p in parities)
    signs = {_g_sign(mode) for _, mode in active}
    inversion = signs.pop() if even and not any(mirrors) and len(signs) == 1 else 0
    # Lattice indices 1..size per axis; table[(freq * i) mod 2n] = sin(freq i pi / n),
    # gathered for every active mode (row) at once.
    halved = (mirrors[0] or inversion, *mirrors[1:])
    ranges = [np.arange(1, n // 2 + 1 if h else n) for h in halved]
    shape = tuple(len(r) for r in ranges)
    freqs = np.array([mode.as_tuple() for _, mode in active]).T
    sx, sy, sz = (table[np.multiply.outer(f, r) % (2 * n)] for f, r in zip(freqs, ranges))
    sx *= np.array([coeff for coeff, _ in active])[:, None]
    planes = (sx[:, :, None] * sy[:, None, :]).reshape(len(active), -1)
    return ScalarGrid(n, shape, planes, sz, mirrors, inversion)


def _root(parent: list[int], a: int) -> int:
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _join(parent: list[int], here: np.ndarray, there: np.ndarray, bases: tuple[int, int]) -> None:
    """Merge label bases[0] + here[p] (int64) with bases[1] + there[p] wherever both are > 0."""
    both = (here > 0) & (there > 0)
    keys = (here[both] + bases[0]) << 32 | (there[both] + bases[1])
    # Labels run in stretches along a face: drop each key equal to the one
    # before it, and only then the repeats left.
    for key in set(keys[np.diff(keys, prepend=-1) != 0].tolist()):
        parent[_root(parent, key >> 32)] = _root(parent, key & 0xFFFFFFFF)


def _labels_on(plane: np.ndarray, base: int, count: int) -> list[int]:
    """The labels base + a, 1 <= a <= count, of the local labels a in ``plane``."""
    seen = np.zeros(count + 1, bool)
    seen[plane] = True
    return (np.flatnonzero(seen[1:]) + (base + 1)).tolist()


def _bounds(rows: np.ndarray, plane: np.ndarray, value: bool) -> tuple[int, ...]:
    """The box (x0, x1, y0, y1, z0, z1) that bounds the samples equal to ``value``,
    read off their projections on x (``rows``) and on the yz-plane (``plane``):
    any-projections for True, all-projections for False.  All 0, an empty box,
    if there are none."""
    x, yz, zy = rows.tobytes(), plane.tobytes(), plane.T.tobytes()
    x0 = x.find(value)
    if x0 < 0:
        return (0,) * 6
    sy, sz = plane.shape
    return (x0, x.rfind(value) + 1, yz.find(value) // sz, yz.rfind(value) // sz + 1,
            zy.find(value) // sy, zy.rfind(value) // sy + 1)


def _widened(box: tuple[int, ...], shape: tuple[int, ...]) -> tuple[int, ...]:
    """``box`` widened by one on every side and clipped to ``shape``."""
    x0, x1, y0, y1, z0, z1 = box
    sx, sy, sz = shape
    return (max(x0 - 1, 0), min(x1 + 1, sx), max(y0 - 1, 0), min(y1 + 1, sy),
            max(z0 - 1, 0), min(z1 + 1, sz))


def _volume(box: tuple[int, ...]) -> int:
    x0, x1, y0, y1, z0, z1 = box
    return (x1 - x0) * (y1 - y0) * (z1 - z0)


def _boxes(pair: np.ndarray) -> list[tuple[tuple[int, ...], bool]]:
    """For each of the disjoint masks ``pair`` (shape (2, sx, sy, sz)), the box
    ``_label_box`` labels and whether it is E.

    B is the bounding box of the mask and E that of the samples not in it,
    widened by one and clipped; the smaller is taken, B on a tie.  E is no
    smaller than the other mask's B widened, since it holds that mask, so E
    is sought only if that is smaller than B.  Extents come from any/all
    projections: two reductions of the pair give both B, two of a mask its E.
    """
    rows, planes = np.logical_or.reduce(pair, (2, 3)), np.logical_or.reduce(pair, 1)
    own = _bounds(rows[0], planes[0], True), _bounds(rows[1], planes[1], True)
    boxes = []
    for mask, box, other in zip(pair, own, own[::-1]):
        if _volume(_widened(other, mask.shape)) < _volume(box):
            plane = np.logical_and.reduce(mask)
            rest = _widened(_bounds(np.logical_and.reduce(mask, (1, 2)), plane, False), mask.shape)
            if _volume(rest) < _volume(box):
                boxes.append((rest, True))
                continue
        boxes.append((box, False))
    return boxes


def _label_box(
    mask: np.ndarray, box: tuple[int, ...], edge: bool, labels: np.ndarray, scratch: np.ndarray
) -> int:
    """``ndimage.label(mask, output=labels)``, up to a bijection of the labels,
    labelling only ``box``: B, or E if ``edge`` (see ``_boxes``).

    The rest of ``labels`` is known without labelling.  Outside B every label
    is 0.  Outside E every sample is in the mask, and the region beyond a face
    of E takes the label of that face, which lies in the mask.  Faces on
    different axes meet along an edge of E, so every face before E carries
    the label of its first corner and every face after it that of its last;
    only faces on one axis, with E spanning the other two, can differ.  An
    empty mask has an empty B and a full one a one-cell E.  The box's mask
    and labels are copied into the bytes ``scratch``, contiguous, for
    ``ndimage.label``; a box no smaller than the mask is not copied, and the
    whole mask is labelled into ``labels``.
    """
    volume = _volume(box)
    if volume >= mask.size:
        return ndimage.label(mask, structure=_FACE_STRUCTURE, output=labels)
    spans = tuple(slice(lo, hi) for lo, hi in zip(box[::2], box[1::2]))
    shape = [hi - lo for lo, hi in zip(box[::2], box[1::2])]
    part = scratch[: 4 * volume].view(np.int32).reshape(shape)
    inside = scratch[4 * volume : 5 * volume].view(np.bool_).reshape(shape)
    np.copyto(inside, mask[spans])
    count = ndimage.label(inside, structure=_FACE_STRUCTURE, output=part)
    labels.fill(part.flat[0] if edge else 0)
    if edge:
        for axis, hi in enumerate(box[1::2]):
            if hi < labels.shape[axis]:
                labels[(slice(None),) * axis + (slice(hi, None),)] = part.flat[-1]
    labels[spans] = part
    return count


class _Components:
    """Face-connected components of a mask fed in slabs of consecutive x-rows.

    Each slab is labelled on its own into a caller's buffer, its labels
    numbered on from a ``base``, and ``_join`` merges the labels that meet
    across the face between two slabs.  Nothing kept refers to the buffer:
    the last x-row's local labels (``last_row``, numbered from ``last_base``)
    and the labels on the y and z mirror planes are copied out, so the buffer
    is free for reuse once ``add`` returns.  The x mirror plane, if any, is
    the last ``last_row``.
    """

    def __init__(self, mirror_axes: list[int]):
        self.mirror_axes = mirror_axes
        self.parent = [0]  # union-find over the labels; 0 is the background
        self.on_plane: dict[int, list[int]] = {axis: [] for axis in mirror_axes if axis}
        self.last_row: np.ndarray | None = None
        self.last_base = 0

    def add(
        self, mask: np.ndarray, box: tuple[int, ...], edge: bool, labels: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Label the slab ``mask`` into ``labels``, an int32 array of its shape, by
        ``_label_box`` with ``box``, ``edge`` and ``scratch``; ``labels`` then
        equals ``ndimage.label``'s output up to a bijection of the labels."""
        count = _label_box(mask, box, edge, labels, scratch)
        base = len(self.parent) - 1
        self.parent.extend(range(base + 1, base + count + 1))
        if self.last_row is not None:
            _join(self.parent, self.last_row, labels[0], (self.last_base, base))
        for axis, on_plane in self.on_plane.items():
            on_plane += _labels_on(labels[:, -1] if axis == 1 else labels[..., -1], base, count)
        self.last_row, self.last_base = labels[-1].astype(np.int64), base

    def count(self, image: "_Components | None" = None) -> int:
        """Components of the whole grid; this object is left as it is.

        A component counts 2 for each mirror plane (the last index of a
        mirror axis) that it does not touch, which is its number of images on
        the whole grid.  With ``image``, the half i <= n/2's mask of ε times
        this sign, the whole grid is a double cover of the half: this sheet,
        and ``image``'s seen through g, where its components take this sign.
        The sheets meet only at the plane i = n/2 (``last_row``), which g maps
        to itself by (j, k) -> (n-j, n-k); there ``_join`` merges each point's
        component on this sheet with ``image``'s component at g p.
        """
        parent = list(self.parent)
        offset = len(parent)
        planes = list(self.on_plane.values())
        if 0 in self.mirror_axes:
            planes.append(_labels_on(self.last_row, self.last_base, offset - 1 - self.last_base))
        if image is not None:
            parent += [offset + a for a in image.parent]
            bases = (self.last_base, offset + image.last_base)
            _join(parent, self.last_row, image.last_row[::-1, ::-1], bases)
        touched = Counter(r for plane in planes for r in {_root(parent, a) for a in plane})
        # Less the backgrounds: 0, and the image sheet's at offset.
        roots = {_root(parent, a) for a in range(len(parent))} - {0, offset}
        return sum(1 << (len(self.mirror_axes) - touched[r]) for r in roots)


# The slab workspace of count_components: samples, the masks > 0 and < 0,
# and labels; the samples' bytes also hold a labelled box.  It is allocated
# on first use, sized to SLAB_POINTS, and kept for the life of the process,
# so every later count reuses its pages instead of allocating (and faulting
# in) its slabs afresh.  count_components is therefore not reentrant across
# threads.
_workspace: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _slab_workspace(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The workspace, grown first if it holds fewer than ``points`` samples."""
    global _workspace
    if _workspace is None or len(_workspace[0]) < points:
        size = max(SLAB_POINTS, points)
        _workspace = (np.empty(size), np.empty((2, size), bool), np.empty(size, np.int32))
    return _workspace


def _zeros(above: np.ndarray, below: np.ndarray, axes: list[int]) -> int:
    """Samples in neither mask, each counted once per image under the mirror ``axes``:
    by inclusion-exclusion, twice the whole less its last plane per axis (ascending)."""
    if not axes:
        return above.size - np.count_nonzero(above) - np.count_nonzero(below)
    *rest, axis = axes
    plane = (slice(None),) * axis + (-1,)
    return 2 * _zeros(above, below, rest) - _zeros(above[plane], below[plane], rest)


def count_components(grid: ScalarGrid) -> NodalCount:
    """Face-connected components of the positive and negative sample sets.

    Counts are those of the whole (n-1)^3 grid also when ``grid`` holds only
    its quotient.  An antisymmetric mirror, or a g-odd field, maps each
    component onto one of the other sign, so then the two signs split the
    total evenly.  The grid is evaluated, compared and labelled in slabs of
    at most ``SLAB_POINTS`` samples, or one x-row if that is larger, all
    written into one workspace that every count reuses.  Each sign of a slab
    is labelled only inside the smaller of two boxes, its bounding box B or
    the widened bounding box E of the rest (``_boxes``, ``_label_box``); the
    labels outside follow from the box.  A slab's zeros are the samples in
    neither sign mask, so no third comparison is made.
    """
    sx, sy, sz = grid.shape
    step = max(1, SLAB_POINTS // (sy * sz))
    samples, masks, labels = _slab_workspace(step * sy * sz)
    # Once a slab's masks are made its samples are spent, and their bytes
    # hold the box that _label_box labels, its mask and its labels.
    scratch = samples.view(np.uint8)
    mirror_axes = [axis for axis, m in enumerate(grid.mirrors) if m]
    positive, negative = _Components(mirror_axes), _Components(mirror_axes)
    yz_axes = [axis for axis in mirror_axes if axis]
    n_zero = 0
    for start in range(0, sx, step):
        v = grid.rows(start, min(start + step, sx), out=samples)
        pair = masks[:, : v.size].reshape(2, *v.shape)
        above, below = pair
        slab_labels = labels[: v.size].reshape(v.shape)
        np.greater(v, 0.0, out=above)
        np.less(v, 0.0, out=below)
        for components, mask, (box, edge) in zip((positive, negative), pair, _boxes(pair)):
            components.add(mask, box, edge, slab_labels, scratch)
        n_zero += _zeros(above, below, yz_axes)
    # The x mirror plane, or the plane g maps to itself, is the last x-row.
    if grid.mirrors[0] or grid.inversion:
        n_zero = 2 * n_zero - _zeros(above[-1:], below[-1:], yz_axes)
    # Each sign's image sheet under g is the half's mask of ε times that sign.
    images = {0: (None, None), 1: (positive, negative), -1: (negative, positive)}[grid.inversion]
    n_pos, n_neg = positive.count(images[0]), negative.count(images[1])
    if -1 in grid.mirrors:
        n_pos = n_neg = (n_pos + n_neg) // 2
    return NodalCount(n_pos, n_neg, int(n_zero), grid.n, False)


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
    prev = count_components(sample_field(combo, n0, quotient=True))
    n = 2 * n0
    while True:
        current = count_components(sample_field(combo, n, quotient=True))
        if current.total == prev.total:
            return replace(current, converged=True)
        if 2 * n > cap:
            return current
        prev, n = current, 2 * n


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _scrambled_halton(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Owen's random-permutation Halton points in [0, 1)^dim (arXiv:1706.02808).

    Axis j runs the van der Corput sequence in the j-th prime base, with the
    k-th digit of every index sent through the k-th of a set of random
    permutations of the digits.  A base gets one permutation per digit a
    double resolves (base**-k > 2**-54), the rows shuffled in turn by one
    generator.  Bases, shuffles and the order of the sums are scipy's, so the
    points are bitwise ``qmc.Halton(d=dim, scramble=True, seed=seed).random(n_samples)``.
    """
    rng = np.random.default_rng(seed)
    points = np.zeros((n_samples, dim))
    for axis, base in enumerate(_first_primes(dim)):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        column, digits, top = points[:, axis], np.arange(n_samples), n_samples - 1
        weight = 1.0 / base
        for perm in perms:
            if top:
                digits, low = np.divmod(digits, base)
                column += weight * perm[low]
                top //= base
            else:  # every index is out of digits: each adds the same term
                column += weight * perm[0]
            weight /= base
    return points


def sphere_samples(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^dim.

    Scrambled Halton points (`_scrambled_halton`) mapped through the inverse
    normal CDF and normalized; identical for identical (dim, n_samples, seed).
    The seed must be a non-negative integer.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    u = _scrambled_halton(dim, n_samples, seed)
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
