"""Grid-based nodal-domain counting for box eigenfunctions.

An eigenfunction is sampled on the interior lattice x = i pi/n, 1 <= i <= n-1
(per axis); the strictly positive and strictly negative sample sets are
labeled under 6-neighbor (face) connectivity and counted separately.  Labels
are found on runs, the stretches of one sign along z within a line of the
grid: two runs are face neighbors if they overlap in adjacent lines, and
union-find over those links gives the components.  Samples
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

Sweeps only count; `cli.sweep_evidence` adds the quadric predictor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

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


def _label_runs(
    v: np.ndarray, marks: np.ndarray, spare: np.ndarray, axes: list[int], first: bool
) -> tuple[np.ndarray, list[tuple]]:
    """The masks v > 0 and v < 0 of the slab ``v`` (shape (2, sx, sy, sz)), and
    each one's face-connected components as ``_Components.add`` takes them:
    the count, the labels of the first x-row (if ``first``) and of the last,
    and, by axis in ``axes``, the labels of the runs on the y or z mirror
    plane, one per run in the order of the runs.

    Both masks go into the bytes ``marks`` at once, laid out (2, sx+1, sy+1,
    sz+1) with zeros at z index 0, y index sy and x index sx, and one mark
    after the end.  A run of marks is then a run of one sign along z in one
    line; ``bounds`` (where the marks change, found in the bytes ``spare``)
    holds each run's start and end, less one, and a start for the last mark.
    A position's face neighbours lie ``line`` and ``plane`` on, and the zeros
    keep them off other x-rows, signs and slabs.  Two runs are linked if one
    overlaps the other shifted by such a step; one of the two is the first
    run the other overlaps in its line, so one ``searchsorted`` per step,
    forward and back, finds every link.  Union-find hooks the larger root of
    each link to the smaller, then labels jump to their roots as often as a
    chain of every run takes.  A component's root is its first run, so each
    sign's are numbered from 1 in order, positive first.
    """
    sx, sy, sz = v.shape
    line = sz + 1
    plane = (sy + 1) * line
    half = (sx + 1) * plane
    marks[: 2 * half].fill(False)
    masks = marks[: 2 * half].reshape(2, sx + 1, sy + 1, line)[:, :sx, :sy, 1:]
    np.greater(v, 0.0, out=masks[0])
    np.less(v, 0.0, out=masks[1])
    marks[2 * half] = True
    changes = spare[: 2 * half].view(bool)
    np.not_equal(marks[1 : 2 * half + 1], marks[: 2 * half], out=changes)
    bounds = np.flatnonzero(changes)
    starts, ends = bounds[0::2], bounds[1::2]
    n = len(ends)
    own = np.arange(n)
    steps = np.array((line, plane, -line, -plane))[:, None]
    near = ends.searchsorted(starts[:n] + steps, "right")
    linked = np.flatnonzero(starts[near] < ends + steps)
    a, b = near.take(linked), linked % max(n, 1)
    labels = own.copy()
    while a.size:
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        for _ in range(n.bit_length()):
            labels = labels[labels]
        a, b = labels[a], labels[b]
        apart = a != b
        a, b = a[apart], b[apart]
    root = labels == own
    split = int(starts.searchsorted(half))  # the runs of v > 0 come first
    counts = np.count_nonzero(root[:split]), np.count_nonzero(root[split:])
    labels = np.cumsum(root)[labels]
    labels[split:] -= counts[0]

    def painted(x: int) -> np.ndarray:
        """The labels of x-row x, shape (2, sy, sz), laid out by the lengths of
        its runs and the gaps between them; the row in the half of v < 0 is
        moved up to follow the row in the half of v > 0."""
        row = x * plane
        lo, hi, lo_, hi_ = starts.searchsorted((row, row + plane, half + row, half + row + plane))
        runs = bounds[2 * lo : 2 * hi], bounds[2 * lo_ : 2 * hi_] - (half - plane)
        cuts = np.concatenate(((row,), *runs, (row + 2 * plane,)))
        values = np.zeros(len(cuts) - 1, labels.dtype)
        values[1::2] = np.concatenate((labels[lo:hi], labels[lo_:hi_]))
        return np.repeat(values, cuts[1:] - cuts[:-1]).reshape(2, sy + 1, line)[:, :sy, :sz]

    last = painted(sx - 1)
    first = (last if sx == 1 else painted(0)) if first else (None, None)
    # Runs on the y mirror plane lie in line sy-1 of an x-row; those on the z one end a line.
    on = {
        axis: ends % line == sz if axis == 2 else starts[:n] // line % (sy + 1) == sy - 1
        for axis in axes
    }
    return masks, [
        (int(count), first[sign], last[sign],
         {axis: labels[part][touch[part]] for axis, touch in on.items()})
        for sign, (count, part) in enumerate(zip(counts, (slice(split), slice(split, None))))
    ]


class _Components:
    """Face-connected components of a mask fed in slabs of consecutive x-rows.

    Each slab's components are labelled on their own (``_label_runs``), their
    labels numbered on from a ``base``, and ``_join`` merges the labels that
    meet across the face between two slabs.  Of a slab only the last x-row's
    local labels (``last_row``, numbered from ``last_base``) and the labels
    on the y and z mirror planes are kept.  The x mirror plane, if any, is
    the last ``last_row``.
    """

    def __init__(self, mirror_axes: list[int]):
        self.mirror_axes = mirror_axes
        self.parent = [0]  # union-find over the labels; 0 is the background
        self.on_plane: dict[int, list[int]] = {axis: [] for axis in mirror_axes if axis}
        self.last_row: np.ndarray | None = None
        self.last_base = 0

    def add(self, count: int, first: np.ndarray | None, last: np.ndarray, on_planes: dict) -> None:
        """Take a slab's ``count`` components, labelled 1..count: the labels of
        its first x-row (read only after another slab) and of its last, and
        those on the y and z mirror planes, by axis (``on_planes``)."""
        base = len(self.parent) - 1
        self.parent.extend(range(base + 1, base + count + 1))
        if self.last_row is not None:
            _join(self.parent, self.last_row, first, (self.last_base, base))
        for axis, on_plane in self.on_plane.items():
            on_plane += _labels_on(on_planes[axis], base, count)
        self.last_row, self.last_base = last, base

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


# The slab workspace of count_components, two byte buffers: samples, whose
# bytes then hold the changes of _label_runs, and the marks of _label_runs.
# Each is allocated on first use, at least SLAB_POINTS samples' worth, grown
# when a count needs more, and kept for the life of the process, so every
# later count reuses its pages instead of allocating (and faulting in) its
# slabs afresh.  count_components is therefore not reentrant across threads.
_workspace: tuple[np.ndarray, ...] = ()


def _slab_workspace(*sizes: int) -> tuple[np.ndarray, ...]:
    """The workspace, grown first if a buffer holds fewer bytes than ``sizes``."""
    global _workspace
    if len(_workspace) < len(sizes) or any(len(w) < size for w, size in zip(_workspace, sizes)):
        _workspace = tuple(np.empty(max(size, 8 * SLAB_POINTS), np.uint8) for size in sizes)
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
    written into one workspace that every count reuses.  Both signs of a
    slab are labelled at once, on their runs along z (``_label_runs``), and
    only the x-rows and mirror planes read later get labels per sample.  A
    slab's zeros are the samples in neither sign mask, so no third
    comparison is made.
    """
    sx, sy, sz = grid.shape
    step = max(1, SLAB_POINTS // (sy * sz))
    layout = 2 * (step + 1) * (sy + 1) * (sz + 1)  # the bytes of _label_runs' marks
    samples, marks = _slab_workspace(max(8 * step * sy * sz, layout), layout + 1)
    mirror_axes = [axis for axis, m in enumerate(grid.mirrors) if m]
    positive, negative = _Components(mirror_axes), _Components(mirror_axes)
    yz_axes = [axis for axis in mirror_axes if axis]
    n_zero = 0
    for start in range(0, sx, step):
        v = grid.rows(start, min(start + step, sx), out=samples.view(np.float64))
        # Once the masks are made the samples are spent, and their bytes hold
        # the changes of the marks.
        masks, signs = _label_runs(v, marks, samples, yz_axes, start > 0)
        above, below = masks
        for components, sign in zip((positive, negative), signs):
            components.add(*sign)
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


@dataclass(frozen=True)
class SweepResult:
    group: EigenvalueGroup
    n0: int
    seed: int
    samples: tuple[SweepSample, ...]

    @property
    def histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(s.count.total for s in self.samples).items()))

    @property
    def non_converged(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.samples if not s.count.converged)


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
    group's coefficient space, and each sample holds only its index, its
    coefficients and its count.  Non-converged samples are reported in place,
    never dropped; sample order is by index regardless of how the evaluations
    are scheduled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    points = sphere_samples(group.multiplicity, n_samples, seed)
    samples = []
    for i, row in enumerate(points):
        combo = EigenCombo(group, tuple(row))
        samples.append(SweepSample(i, combo.coeffs, count_nodal_domains(combo, n0, cap)))
    return SweepResult(group, n0, seed, tuple(samples))
