"""Grid-based nodal-domain counting for box eigenfunctions.

An eigenfunction is sampled on the interior lattice x = i pi/n, 1 <= i <= n-1
(per axis); the strictly positive and strictly negative sample sets are
labeled under 6-neighbor (face) connectivity and counted separately.  Labels
are found on runs, the stretches of one sign along z within a line of the
grid: two runs are face neighbors if they overlap in adjacent lines.  Samples
that are exactly zero belong to no component: sign regions of an
eigenfunction are open, and zeros land exactly on lattice-aligned nodal
planes, so assigning them to either side would corrupt counts.  The zeros
are the samples in no run.

Each line's runs lie in slots, C per line in z order, and one labeller
(``_label_slots``) takes the whole grid's slots at once.  sin fz = sin z
U_(f-1)(cos z), so a z-line is sin z times a polynomial of degree f - 1 in
cos z, f the largest z-frequency, and holds at most f runs.  The slots come
from one of two sources.  If every active mode's z-frequency lies in {1, 2}
or in {1, 3}, as for eigenvalue 11, the line changes sign at most once, where
2 cos z or 4cos^2 z - 1 falls: on a whole z-axis for {1, 2}, on the
z-quotient for {1, 3}.  On such an axis each line's runs then lie in two
fixed slots cut at its root, with no sample evaluated (``_root_runs``).  That
holds only where a rounding bound proves every sample's sign; otherwise, and
for every other grid, the runs are found on the samples, a slab of x-rows at
a time (``_sampled_slots``), and C is the most runs on any line, as rounding
can split a run.  One union-find merges the links and the antipodal glue.

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
from functools import cache, lru_cache

import numpy as np

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
# Grids of fewer samples are counted on their samples even where their
# z-lines have a closed form (_root_runs): its fixed cost is more than their
# samples cost.  Both kinds of slots go to one labeller; on a 2-vCPU
# machine, closed-form quotients of product modes counted 10 to 61 us slower
# on roots at 16^3, from 149 us faster to 28 us slower at 32^3, and 0.76 to
# 0.98 ms faster at 64^3; random (32, 63, 63) ones 172 to 226 us faster.
ROOT_POINTS = 1 << 16


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
    only, with y and z whole; otherwise it is 0.  ``zfreqs`` holds the
    z-frequency f of each row of ``zs``, which is then sin(f k pi / n) as
    ``_sine_table`` gives it; it is empty if the rows are not known to be
    such, and then the grid is only ever counted on its samples.
    """

    n: int
    shape: tuple[int, int, int]
    planes: np.ndarray
    zs: np.ndarray
    mirrors: tuple[int, int, int] = (0, 0, 0)
    inversion: int = 0
    zfreqs: tuple[int, ...] = ()

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
        # One mode is an outer product.  numpy's matmul over an inner dimension
        # of 1 took 1.1 to 1.9 times as long as np.multiply on 32^3 quotients;
        # the values are the same, but perhaps the sign of an exact zero, which
        # no mask reads.
        product = np.multiply if len(self.planes) == 1 else np.matmul
        return product(factors, self.zs, out=out).reshape(-1, sy, sz)

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


@lru_cache(maxsize=16)
def _sine_table(n: int) -> np.ndarray:
    """sin(j pi / n) for j = 0..2n-1 with exact zeros and exact odd symmetry,
    read-only, as every caller shares it.

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
    table.flags.writeable = False
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
    return ScalarGrid(n, shape, planes, sz, mirrors, inversion, tuple(freqs[2].tolist()))


def _union(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each of the ids 0..count-1, the least id of its class,
    once the classes of a[i] and b[i] are merged for every i.

    No Python loop runs over ids: each pair hooks the larger of its two roots
    to the smaller (``np.minimum.at``), then every id jumps to its label's
    label until no label moves, so that each holds its root again.  Pairs
    whose ends now share a root are dropped, and the rest go round again.
    """
    labels = np.arange(count)
    while a.size:
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = labels.take(labels)
            if not np.count_nonzero(jumped != labels):
                break
            labels = jumped
        a, b = labels.take(a), labels.take(b)
        apart = (a != b).nonzero()[0]
        a, b = a.take(apart), b.take(apart)
    return labels


@lru_cache(maxsize=16)
def _branch(n: int, f: int, h: int) -> np.ndarray | None:
    """r_k = t[f k] / t[k] for k = 1..h, t = ``_sine_table(n)``, between two
    NaNs, so that r at sample i (from 0) is at i + 1; or None unless r falls
    by more than 2^-40 from each sample to the next."""
    table = _sine_table(n)
    k = np.arange(1, h + 1)
    padded = np.concatenate(([np.nan], table[f * k % (2 * n)] / table[k], [np.nan]))
    padded.flags.writeable = False
    return padded if np.all(np.diff(padded[1:-1]) < -(2.0**-40)) else None


def _root_runs(grid: ScalarGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The slots that hold the runs of every z-line of the grid, found from
    the line's closed form, or None if the grid must be sampled.

    The closed form.  Let every active mode's z-frequency lie in {1, 2} or
    in {1, 3}; f is the frequency other than 1 (2 if there is none), t is
    ``_sine_table(n)`` and r_k = t[f k] / t[k] for k = 1..sz, the ratio of
    the table's own floats: 2 cos z or 4cos^2 z - 1 up to the table's
    rounding, as sin 2z = 2 sin z cos z and sin 3z = sin z (4cos^2 z - 1).
    On the line (i, j), let beta sum the line's entries P_m of the rows of
    ``planes`` of frequency 1, and alpha those of the others.  The sample at
    k is the matmul's rounding of S_k = t[k] (beta + alpha r_k), exactly,
    with t[k] > 0, so it has the sign of g_k = beta + alpha r_k once g_k
    clears the band below.  r must fall along z, as 2 cos z does on (0, pi)
    and 4cos^2 z - 1 on (0, pi/2], the z-quotient; for f = 3 on a whole
    z-axis it does not (``_branch`` is None), and the grid is sampled.  So g
    is monotone along the line and changes sign at most once, at tau = -beta
    / alpha, and a line holds at most two runs.  Per line, a and b count the
    samples with r > tau and with r >= tau.  As r is (f - 2) + 2 cos((f - 1)
    z) but for rounding, arccos guesses a to within a sample, and a
    comparison either side against r itself puts it right (a guess further
    out would only fail the checks below).

    The rounding band.  With M active modes, u = 2^-53, and B1 and Bf the
    sums of |P_m| over frequency 1 and over the others: any order of the
    matmul's sums, with fused multiply-adds or without, is within gamma_M
    (B1 t[k] + Bf |t[f k]|) of S_k, gamma_M = M u / (1 - M u), that is
    within t[k] gamma_M (B1 + Bf |r_k|), and |r_k| <= 3.  The computed beta,
    alpha, r_k and g_k are within (M + 4) u (B1 + 3 Bf) of their values.  A
    product that underflows is off by at most 2^-1075, which t[k] >=
    sin(pi/n) keeps far below 2^-1000 in g for any n a grid can hold.  So
    every error there is within

        eta = (M + 4) 2^-50 (B1 + 4 Bf) + 2^-1000,

    and a sample whose computed g_k exceeds eta in size has its sign.  Only
    the two ends of each stretch of one sign on a line are checked, which
    include the samples either side of tau: g is monotone along the line, so
    every sample between them lies further from 0.  A stretch is clear if g
    at both its ends exceeds eta, or is below -eta, and its sign is then
    theirs; r is padded with NaN, which an empty stretch reads at one end,
    so it is never clear.  The sine table's errors do not enter S_k, which
    is written in its floats; they enter only the order of r, and r must
    fall by more than 2^-40 from each sample to the next (the lattice gives
    at least 4/n^2, the table's rounding a few ulps).  Where sin 3z or sin
    2z is 0 on the lattice (z = pi/3 or pi/2), t[f k] and so r_k are
    exactly 0, and the (4c^2 - 1) term of the sample is exactly 0 too.

    Exact zeros.  A sample comes out exactly 0 only where every active term
    is: on a line with no term of frequency 1 (B1 = 0), at the k with r_k =
    0, the samples with r = tau, as beta and so tau are then 0; and on a line
    whose terms all vanish, whole.  Anywhere else, samples at tau are inside
    the band.  So a line is settled if it vanishes, or if it has zeros only
    where B1 = 0 and as many clear stretches as non-empty ones, of opposite
    signs if there are two: then the two signs differ by as much as there
    are non-empty stretches.  If a line is not settled, or the sums could
    overflow (B1 + 4 Bf >= 2^1000), the grid is sampled.

    The slots.  A line's runs lie in two fixed slots, [0, a) and [b, sz),
    and a line of one sign is slot 0 alone.  Returns ``signs`` (int8),
    ``lo`` and ``hi``, each of shape (2, sx sy), line (i, j) at i sy + j:
    each slot's sign, 0 if it holds no sample of either sign, and its
    z-interval [lo, hi), which is [0, 0) for a slot of sign 0, so that it
    overlaps nothing.  The two slots come in the order of z, and two slots
    of one sign never touch, so each slot of a sign is a whole run.

    Every per-line array but the slots is written in place (``out=``) into
    rows of the count's workspace, so a warm count allocates only the slots.
    """
    freqs = set(grid.zfreqs)
    if not freqs or not (freqs <= {1, 2} or freqs <= {1, 3}):
        return None
    f = 3 if 3 in freqs else 2
    n, (sx, sy, sz), m = grid.n, grid.shape, len(grid.zfreqs)
    padded = _branch(n, f, sz)
    if padded is None:
        return None
    lines = sx * sy
    # Float rows: beta, alpha, B1, eta, tau, then |P| and later x and the
    # stretches' ends; then a, b, 16 rows of flags and 8 of small ints.
    width = max(5 + m, 10)
    size = 8 * (width + 5) * lines
    rows = _count_workspace(size, 0)[0][:size].view(np.float64).reshape(-1, lines)
    tau, x = rows[4:6]
    a, b = rows[width : width + 2].view(np.intp)
    flags = rows[width + 2 : width + 4].view(bool).reshape(16, lines)
    small = rows[width + 4].view(np.int8).reshape(8, lines)
    split = np.array([[z == 1 for z in grid.zfreqs], [z != 1 for z in grid.zfreqs]], float)
    beta, alpha = np.matmul(split, grid.planes, out=rows[:2])
    b1, eta = np.matmul(split, np.abs(grid.planes, out=rows[5 : 5 + m]), out=rows[2:4])
    eta *= 4.0
    eta += b1
    if not eta.max() < 2.0**1000:
        return None
    # Lines whose every term is 0, or every term of frequency 1.
    vanish, b1 = np.equal(eta, 0.0, out=flags[0]), np.equal(b1, 0.0, out=flags[1])
    eta *= (m + 4) * 2.0**-50
    eta += 2.0**-1000
    # Where alpha = 0 the line has one sign, and tau is +-inf, or NaN on a
    # line whose beta is 0 too, which only one that vanishes can settle.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(beta, alpha, out=tau)
    np.negative(tau, out=tau)
    # x guesses a; a NaN tau, which fmax takes for -1, guesses sz, and as it
    # compares false with everything the guess then stays.
    np.add(tau, 2 - f, out=x)
    x *= 0.5
    np.fmax(x, -1.0, out=x)
    np.fmin(x, 1.0, out=x)
    np.arccos(x, out=x)
    x *= n / ((f - 1) * math.pi)
    np.fmin(x, sz, out=x)
    np.copyto(a, x, casting="unsafe")
    # The line holds [0, a) of one sign, [a, b) of zeros and [b, sz) of
    # one sign.  r, and then g, at the ends of each stretch, (end, stretch):
    # the outer ends, samples 1 and sz, then the inner ones, a and b + 1.
    ends = rows[6:10].reshape(2, 2, lines)
    inner = ends[1]
    padded.take(a, out=inner[0], mode="clip")
    padded[1:].take(a, out=inner[1], mode="clip")
    # The guess is right unless r at it is <= tau or r after it > tau.
    below = np.less_equal(inner[0], tau, out=flags[2]).view(np.int8)
    above = np.greater(inner[1], tau, out=flags[3]).view(np.int8)
    shift = np.subtract(above, below, out=small[0])
    if shift.any():
        a += shift
        padded.take(a, out=inner[0], mode="clip")
        padded[1:].take(a, out=inner[1], mode="clip")
    # b is a unless r after a is tau, which B1 = 0 must allow.
    on_tau = np.equal(inner[1], tau, out=flags[2])
    if on_tau.any():
        if np.any(on_tau > b1):
            return None
        b = np.add(a, on_tau, out=b)
        padded[1:].take(b, out=inner[1], mode="clip")
    else:
        b = a
    ends[0, 0], ends[0, 1] = padded[1], padded[sz]
    ends *= alpha
    ends += beta
    # Per sign (v > 0, then v < 0), end and stretch: whether g clears the band.
    clear = flags[4:12].reshape(2, 2, 2, lines)
    np.greater(ends, eta, out=clear[0])
    np.less(ends, np.negative(eta, out=x), out=clear[1])
    # Each stretch's sign: the one that both its ends clear, or 0.
    both = np.logical_and(clear[:, 0], clear[:, 1], out=clear[:, 0]).view(np.int8)
    signs = both[0] - both[1]
    gap = np.abs(np.subtract(signs[0], signs[1], out=small[0]), out=small[0])
    stretches = np.add(
        np.greater(a, 0, out=flags[2]).view(np.int8),
        np.less(b, sz, out=flags[3]).view(np.int8),
        out=small[1],
    )
    # A line is settled if its stretches of a sign number its non-empty ones
    # (of opposite signs if there are two), or if it vanishes.
    decided = np.equal(gap, stretches, out=flags[2])
    decided |= vanish
    if not decided.all():
        return None
    # Per line, the slots [0, a) and [b, sz); a line of one sign is slot 0 alone.
    bounds = np.empty((2, 2, lines), np.int32)
    lo, hi = bounds
    lo[0], hi[0] = 0, a
    lo[1], hi[1] = b, sz
    # A slot of sign 0, empty or on a line that vanishes, is [0, 0).
    np.copyto(bounds, 0, where=np.equal(signs, 0, out=flags[2:4]))
    return signs, lo, hi


def _sampled_slots(grid: ScalarGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slots that hold the runs of every z-line of the grid, found on its
    samples: the form of ``_root_runs``, with C slots a line, C the most runs
    on any line.

    The grid is evaluated in slabs of at most ``SLAB_POINTS`` samples, or one
    x-row if that is larger, into one workspace that every count reuses.  A
    slab's signs go into the bytes ``marks`` between two 0s, and the spent
    samples' bytes then mark the changes: p if sample p differs in sign from
    sample p - 1, and every start of a line.  A change starts a run at p if
    sample p is not 0, and the run ends at the next change.  A run's rank in
    its line is its index less that of its line's first run
    (``searchsorted``).
    """
    sx, sy, sz = grid.shape
    lines = sx * sy
    step = max(1, SLAB_POINTS // (sy * sz))
    samples, marks = _count_workspace(8 * step * sy * sz, 2 * step * sy * sz + 2)
    runs = []
    for start in range(0, sx, step):
        rows = min(step, sx - start)
        size = rows * sy * sz
        v = grid.rows(start, start + rows, out=samples.view(np.float64)).reshape(-1)
        signs = marks[: size + 2].view(np.int8)
        signs[0] = signs[-1] = 0
        inner = signs[1:-1]
        np.greater(v, 0.0, out=inner.view(bool))
        inner -= np.less(v, 0.0, out=marks[size + 2 : 2 * size + 2].view(bool)).view(np.int8)
        changes = np.not_equal(signs[1:], signs[:-1], out=samples[: size + 1].view(bool))
        changes[sz:size:sz] = True
        at = np.flatnonzero(changes)
        after = signs[1:].take(at)
        begins = after != 0
        first, ends = at[begins], at[1:][begins[:-1]]
        line, lo = np.divmod(first, sz)
        # The flat index of each run's slot in (C, lines): its rank, then its line.
        key = np.arange(len(first)) - first.searchsorted(first - lo)
        key *= lines
        key += line
        key += start * sy
        ends -= first
        ends += lo
        runs.append((key, after[begins], lo, ends))
    slots = np.zeros((1 + max(int(key.max(initial=0)) for key, *_ in runs) // lines, lines), np.int8)
    bounds = np.zeros((2, *slots.shape), np.int32)
    for key, sign, lo, hi in runs:
        slots.put(key, sign)
        bounds[0].put(key, lo)
        bounds[1].put(key, hi)
    return slots, *bounds


# The workspace of count_components, two byte buffers: samples, whose bytes
# then hold the changes of _sampled_slots, and marks, its signs and one mask;
# _root_runs writes its per-line rows into the first.  Each is allocated on
# first use, at least SLAB_POINTS samples' worth, grown when a count needs
# more, and kept for the life of the process, so every later count reuses
# its pages instead of allocating (and faulting in) its slabs afresh.
# count_components is therefore not reentrant across threads.
_workspace: tuple[np.ndarray, ...] = (np.empty(0, np.uint8),) * 2


def _count_workspace(samples: int, marks: int) -> tuple[np.ndarray, ...]:
    """The workspace, each buffer grown first if it holds fewer bytes than asked."""
    global _workspace
    _workspace = tuple(
        w if len(w) >= size else np.empty(max(size, 8 * SLAB_POINTS), np.uint8)
        for w, size in zip(_workspace, (samples, marks))
    )
    return _workspace


@cache
def _raise_mmap_threshold() -> None:
    """Free one untouched 8 MiB block, once per process.

    glibc mmaps a block above its mmap threshold (128 KiB at first), and
    faults its pages in afresh each time; freeing a larger mmapped block
    raises the threshold to that block's size.  So the run-sized and
    line-sized temporaries of every later count reuse the heap's pages.
    """
    np.empty(8 << 20, np.uint8)


def _images(shape: tuple[int, ...], axes: list[int]) -> int:
    """The samples of a block of ``shape``, each counted once per image under
    the mirror ``axes``: twice but on the axis' last plane, per axis."""
    return math.prod(2 * size - 1 if axis in axes else size for axis, size in enumerate(shape))


def _slot_images(lo: np.ndarray, hi: np.ndarray, sz: int, axes: list[int]) -> int:
    """The samples of the slots [lo, hi), of shape (C, sx, sy), each counted
    once per image under the mirror ``axes``, as ``_images`` counts them:
    the slots of the last x-row lie on the x mirror plane, those of the last
    line of each x-row on the y one, and a slot that ends its line has one
    sample on the z one."""
    images = hi - lo
    if 2 in axes:
        images *= 2
        images -= hi == sz

    def lined(block: np.ndarray) -> int:
        return 2 * int(block.sum()) - int(block[..., -1].sum()) if 1 in axes else int(block.sum())

    return 2 * lined(images) - lined(images[:, -1]) if 0 in axes else lined(images)


def _slot_overlaps(signs, lo, hi, step: int, out: np.ndarray) -> np.ndarray:
    """Which slots s of line k and t of line k + step have one sign and
    overlap in z, as a (C, C, lines - step) mask written into ``out``."""
    mask = np.equal(signs[:, None, :-step], signs[None, :, step:], out=out[..., :-step])
    mask &= lo[:, None, :-step] < hi[None, :, step:]
    mask &= lo[None, :, step:] < hi[:, None, :-step]
    return mask


def _label_slots(grid: ScalarGrid, signs, lo, hi) -> tuple:
    """The components of a grid whose runs lie in slots, for ``_tally``.

    ``signs``, ``lo`` and ``hi``, of shape (C, sx sy), line (i, j) at i sy +
    j, hold C slots per line in z order, as ``_root_runs`` and
    ``_sampled_slots`` give them: each slot's sign, 0 for a slot that holds
    no sample, and its z-interval [lo, hi), [0, 0) for a slot of sign 0; two
    slots of one sign in a line never touch, so each slot of a sign is a
    whole run.  A slot is joined to the same slot of the next line of its
    x-row if the two have one sign and overlap in z.  The chains of joined
    slots are numbered in the order of their first slots, the heads, and as
    a chain's slots lie one after the other, a slot's chain is the last head
    at or before it (``searchsorted``).  The other links are the overlaps of
    any two slots of one sign in neighbouring lines (``_slot_overlaps``):
    across slots between y-neighbours, and between x-neighbours, less each
    of those that continues the x-link one line before it along both of its
    chains.  The zeros are the samples in no slot, from sums of the slots'
    lengths.
    """
    sx, sy, sz = grid.shape
    slots, lines = signs.shape
    # The last index of a mirror axis lies on its plane, as the last x-row
    # lies on the plane that an inversion maps to itself.
    axes = [axis for axis, h in enumerate((grid.mirrors[0] or grid.inversion, *grid.mirrors[1:])) if h]
    n_zero = _images(grid.shape, axes) - _slot_images(
        lo.reshape(slots, sx, sy), hi.reshape(slots, sx, sy), sz, axes
    )
    # The links along y, then along x, each line k to its next, k + 1 or k + sy.
    pairs = np.zeros((2, slots, slots, lines), bool)
    along_y = _slot_overlaps(signs, lo, hi, 1, pairs[0])
    along_y[..., sy - 1 :: sy] = False  # line j = sy-1 has no y-neighbour in its x-row
    # Each slot against the same slot of the next line, a view of the diagonal.
    same = pairs[0].reshape(slots * slots, lines)[:: slots + 1]
    joined = np.zeros(signs.shape, bool)
    joined[:, 1:] = same[:, :-1]
    same[:] = False  # one slot's links along y are its chain
    # A joined slot is signed, so the heads are the signed slots not joined.
    heads = np.not_equal(signs, 0)
    heads ^= joined
    heads = np.flatnonzero(heads)

    def chains(nodes: np.ndarray) -> np.ndarray:
        """The chain of each signed slot in ``nodes``, flat indices of (C, lines)."""
        return heads.searchsorted(nodes, "right") - 1

    along_x = _slot_overlaps(signs, lo, hi, sy, pairs[1])
    # Less each x-link whose two slots are joined to those of the link one line before.
    continued = along_x[..., :-1] & joined[:, None, 1:-sy]
    continued &= joined[None, :, sy + 1 :]
    np.greater(along_x[..., 1:], continued, out=along_x[..., 1:])
    # Slot s of line k is linked to slot t of line k + 1 along y, k + sy along x.
    axis, s, t, k = np.unravel_index(np.flatnonzero(pairs), pairs.shape)
    links = chains(np.stack((s * lines + k, t * lines + k + 1 + (sy - 1) * axis)))
    # The chains of the last x-row's slots, and then of the last line of each x-row's.
    first = np.arange(0, slots * lines, lines)[:, None]
    row = chains(first + np.arange(lines - sy, lines))
    on_planes = {}
    if grid.mirrors[0]:
        on_planes[0] = row[signs[:, -sy:] != 0]
    if grid.mirrors[1]:
        edge = first + np.arange(sy - 1, lines, sy)
        on_planes[1] = chains(edge[signs[:, sy - 1 :: sy] != 0])
    if grid.mirrors[2]:
        # A slot of sign 0 ends at 0, so the stretch from one head to the next
        # finds sz only among the slots of the first head's chain.
        on_planes[2] = np.logical_or.reduceat(hi.ravel() == sz, heads).nonzero()[0]
    last = signs[:, -sy:], lo[:, -sy:], hi[:, -sy:], row
    return signs.ravel().take(heads) < 0, links, on_planes, last, n_zero


def _tally(grid: ScalarGrid, negative, links, on_planes: dict, last: tuple, n_zero: int) -> NodalCount:
    """The count of a grid from the ids of ``_label_slots``.

    ``negative`` marks the ids of components of v < 0; ``links`` holds pairs
    of ids of one component; ``on_planes`` the ids on each mirror plane;
    ``last`` the slots of the last x-row, (C, sy) arrays of their signs,
    bounds and ids; ``n_zero`` the zeros, each counted once per image.
    """
    _, sy, sz = grid.shape
    total = len(negative)
    if grid.inversion:
        # g maps the last x-row to itself by (j, k) -> (sy-1-j, sz-1-k) and
        # each sample to ε times itself.  Let a run [lo, hi) of line j there
        # be [s, e) = j (sz+1) + [lo, hi): it goes to [c-e, c-s), c =
        # (sy-1)(sz+1)+sz, with ε times its sign.  That reverses the row's
        # runs, taken line by line in z order, so the k-th from the end is
        # the image of the k-th, and its copy joins that run.  No sort is
        # made: a process's first np.argsort faults in about 256 KiB of
        # numpy's code, which showed in the census's peak RSS.
        signs, lo, hi, ids = (a.T for a in last)
        row = signs != 0
        start = np.arange(0, sy * (sz + 1), sz + 1)[:, None]
        s, e, ids = (lo + start)[row], (hi + start)[row], ids[row]
        flip = grid.inversion < 0
        neg = negative[ids]
        c = (sy - 1) * (sz + 1) + sz
        if (
            np.count_nonzero(c - e[::-1] != s)
            or np.count_nonzero(c - s[::-1] != e)
            or np.count_nonzero(neg[::-1] == (neg == flip))
        ):
            raise ValueError("the grid's plane i = n/2 is not mapped to itself by g")
        links = np.concatenate((links, links + total, (ids[::-1], ids + total)), axis=1)
        negative = np.concatenate((negative, negative != flip))
    labels = _union(len(negative), *links)
    # A component counts 2 for each mirror plane that it does not touch.
    weights = (labels == np.arange(len(labels))) << len(on_planes)
    for ids in on_planes.values():
        weights[labels.take(ids)] >>= 1
    n_neg = int(weights[negative].sum())
    n_pos = int(weights.sum()) - n_neg
    if -1 in grid.mirrors:
        n_pos = n_neg = (n_pos + n_neg) // 2
    return NodalCount(n_pos, n_neg, int(n_zero), grid.n, False)


def count_components(grid: ScalarGrid) -> NodalCount:
    """Face-connected components of the positive and negative sample sets.

    Counts are those of the whole (n-1)^3 grid also when ``grid`` holds only
    its quotient.  Each z-line's runs go into slots: from the lines' closed
    form (``_root_runs``), with no sample evaluated, on a grid of at least
    ``ROOT_POINTS`` samples where it proves every sample's sign, and from
    the samples, slab by slab, on every other grid (``_sampled_slots``).
    One labeller (``_label_slots``) gives ids with a sign each, pairs of ids
    to merge, the ids on the mirror planes, the last x-row's slots and the
    zeros, and one tail (``_tally``) weighs and merges them.

    A component counts 2 for each mirror plane (the last index of a mirror
    axis) that none of its runs touches, which is its number of images on
    the whole grid; an antisymmetric mirror maps each component onto one of
    the other sign, so then the two signs split the total evenly.  With an
    inversion ε the whole grid is a double cover of the half i <= n/2: its
    components, and a copy of them seen through g, where each takes ε times
    its sign.  The two sheets meet only at the plane i = n/2, the last
    x-row, which g maps to itself by (j, k) -> (n-j, n-k); each run there
    joins the copy's component of its image run.  One ``_union`` merges
    every pair.
    """
    _raise_mmap_threshold()
    slots = _root_runs(grid) if math.prod(grid.shape) >= ROOT_POINTS else None
    return _tally(grid, *_label_slots(grid, *(slots or _sampled_slots(grid))))


def count_nodal_domains(
    combo: EigenCombo, n0: int = 16, cap: int = RESOLUTION_CAP
) -> NodalCount:
    """Count nodal domains with the resolution-doubling agreement policy.

    Counts at n0 and 2*n0; on agreement returns the finer result with
    converged=True, otherwise keeps doubling while the next resolution stays
    within ``cap``.  A result returned at the cap without agreement carries
    converged=False; the caller decides what to do with it.  No grid finer
    than ``cap`` is sampled, and ``cap`` is at most ``RESOLUTION_CAP``: a
    ``cap`` below 2*n0 or above ``RESOLUTION_CAP`` is refused up front.
    """
    if n0 < 16:
        raise ValueError(f"base resolution must be at least 16, got {n0}")
    if cap > RESOLUTION_CAP:
        raise ValueError(f"resolution cap {cap} is above the largest allowed, {RESOLUTION_CAP}")
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


# Cephes ndtri's rational approximations (Moshier), highest power first: P0/Q0
# for |y - 1/2| <= 1/2 - exp(-2), P1/Q1 in the tails while sqrt(-2 ln y) < 8.
# Each Q's leading 1, implicit in Cephes' p1evl, is written out: 1 * x is x
# exactly, so Horner's rule on it makes p1evl's sums.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_EXP_MINUS_2 = 0.13533528323661269189


def _polevl(x: float, coeffs: tuple[float, ...]) -> float:
    """Horner's rule in Cephes' polevl order, highest power first."""
    value = coeffs[0]
    for c in coeffs[1:]:
        value = value * x + c
    return value


def _ndtri(y: float) -> float:
    """The inverse of the standard normal CDF: Cephes ``ndtri``, the code
    ``scipy.special.ndtri`` runs, ported so that it returns the same double.

    Each step is Cephes' in its order, with libm's log and sqrt (numpy's
    vectorised log can differ from libm's in the last bit).  Only what a
    point of ``sphere_samples`` can reach is ported: its clip to
    [1e-12, 1 - 1e-12] keeps sqrt(-2 ln y) below 7.44, so Cephes' P2/Q2 branch
    for sqrt(-2 ln y) >= 8 and its cases y = 0 and y = 1 are left out.
    """
    upper = y > 1.0 - _EXP_MINUS_2
    if upper:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242e0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    x = x0 - z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    return x if upper else -x


def sphere_samples(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^dim.

    Scrambled Halton points (`_scrambled_halton`), clipped to [1e-12, 1 - 1e-12],
    mapped through the inverse normal CDF (`_ndtri`, a port of Cephes' ndtri
    that returns scipy.special.ndtri's doubles) and normalized; identical for
    identical (dim, n_samples, seed).
    The seed must be a non-negative integer.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    u = _scrambled_halton(dim, n_samples, seed)
    z = np.array([[_ndtri(y) for y in row] for row in np.clip(u, 1e-12, 1.0 - 1e-12).tolist()])
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
