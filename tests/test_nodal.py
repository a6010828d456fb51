import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from cubenodal import (
    CUBE,
    BoxSpec,
    EigenCombo,
    ModeTriple,
    Parity,
    count_components,
    count_nodal_domains,
    enumerate_groups,
    group_parity,
    predict_components,
    product_nodal_count,
    reduce_to_quadric,
    sample_field,
    sphere_samples,
    sweep_eigenspace,
)
from cubenodal import nodal
from cubenodal.quadric import boundary_distance, sine_coeffs_from_modes
from helpers import group_at, lambda11_combo


def pure_combo(l, m, n):
    mode = ModeTriple(l, m, n)
    group = group_at(mode.cube_eigenvalue)
    coeffs = tuple(1.0 if g == mode else 0.0 for g in group.modes)
    return EigenCombo(group, coeffs)


def test_eigencombo_validation():
    group = group_at(6)
    with pytest.raises(ValueError):
        EigenCombo(group, (1.0,))
    with pytest.raises(ValueError):
        EigenCombo(group, (0.0, 0.0, 0.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            EigenCombo(group, (1.0, bad, 0.0))


def test_sine_coeff_mapping_roundtrip():
    combo = lambda11_combo(0.2, 0.9, -0.1)
    assert sine_coeffs_from_modes(combo.group.modes, combo.coeffs) == (0.2, 0.9, -0.1)


def test_sample_field_ground_state_positive():
    grid = sample_field(pure_combo(1, 1, 1), 16)
    assert grid.values.shape == (15, 15, 15)
    assert (grid.values > 0).all()


def test_sample_field_zero_plane_is_exact():
    grid = sample_field(pure_combo(1, 1, 2), 16)
    assert (grid.values[:, :, 7] == 0.0).all()  # z = pi/2 is index 8-1
    assert int((grid.values == 0.0).sum()) == 15 * 15


def test_sample_field_center_value():
    grid = sample_field(lambda11_combo(1.0, 1.0, 1.0), 16)
    assert grid.values[7, 7, 7] == pytest.approx(-3.0)


def test_sample_field_rejects_small_resolution():
    with pytest.raises(ValueError):
        sample_field(pure_combo(1, 1, 1), 7)


def test_count_components_ground_state():
    count = count_components(sample_field(pure_combo(1, 1, 1), 32))
    assert (count.positive_components, count.negative_components) == (1, 0)
    assert count.total == 1
    assert not count.converged


def test_count_components_product_mode():
    count = count_components(sample_field(pure_combo(2, 3, 4), 64))
    assert count.total == 24


def test_count_components_crossed_planes():
    count = count_components(sample_field(lambda11_combo(1.0, -1.0, 0.0), 128))
    assert count.total == 4


def test_count_nodal_domains_figure_cases():
    for abc, expected in [
        ((0.3, 0.3, 0.4), 2),
        ((0.2, 0.2, -0.4), 3),
        ((0.8, 0.8, -2.6), 3),
    ]:
        count = count_nodal_domains(lambda11_combo(*abc), 64)
        assert count.converged
        assert count.total == expected


def test_count_nodal_domains_requires_n0_16():
    with pytest.raises(ValueError):
        count_nodal_domains(pure_combo(1, 1, 1), 8)


def test_count_nodal_domains_cap_is_a_bound():
    # The first doubling would sample 2*n0 = 32 > cap, so nothing is sampled.
    with pytest.raises(ValueError):
        count_nodal_domains(pure_combo(1, 1, 2), 16, cap=16)
    count = count_nodal_domains(pure_combo(1, 1, 2), 16, cap=32)
    assert count.resolution_used <= 32


def test_product_mode_oracle_spot_checks():
    for triple in [
        (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 1, 5), (3, 3, 3)
    ]:
        count = count_nodal_domains(pure_combo(*triple), 32)
        assert count.converged
        assert count.total == product_nodal_count(ModeTriple(*triple))


def test_sign_flip_swaps_signed_counts():
    combo = lambda11_combo(0.3, 0.5, -0.8)
    a = count_components(sample_field(combo, 48))
    b = count_components(sample_field(combo.negated(), 48))
    assert (a.positive_components, a.negative_components) == (
        b.negative_components,
        b.positive_components,
    )
    assert a.total == b.total
    assert a.zero_samples == b.zero_samples


def test_antipodal_image_preserves_counts():
    for abc in [(0.3, 0.5, -0.8), (0.6, 0.1, 0.4)]:
        combo = lambda11_combo(*abc)
        a = count_components(sample_field(combo, 48))
        b = count_components(sample_field(combo.antipodal_image(), 48))
        assert a.total == b.total
        assert a.zero_samples == b.zero_samples


def test_odd_eigenspace_counts_pair_up():
    # Odd eigenfunctions vanish at the center; the two signed families map to
    # each other under the antipodal map, so the totals split evenly.
    rng = np.random.default_rng(11)
    for value in (6, 14):
        group = group_at(value)
        for _ in range(8):
            coeffs = rng.normal(size=group.multiplicity)
            coeffs /= np.linalg.norm(coeffs)
            combo = EigenCombo(group, tuple(coeffs))
            count = count_nodal_domains(combo, 32)
            assert count.positive_components == count.negative_components
            assert count.total % 2 == 0
            grid = sample_field(combo, 32)
            assert grid.values[15, 15, 15] == 0.0  # center sample


def test_courant_bound_on_random_combos():
    rng = np.random.default_rng(23)
    for value in (6, 11, 12, 14):
        group = group_at(value)
        for _ in range(10):
            coeffs = rng.normal(size=group.multiplicity)
            coeffs /= np.linalg.norm(coeffs)
            count = count_nodal_domains(EigenCombo(group, tuple(coeffs)), 32)
            assert count.total <= group.k_max


def test_sphere_samples_deterministic():
    a = sphere_samples(3, 16, seed=42)
    b = sphere_samples(3, 16, seed=42)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    c = sphere_samples(3, 16, seed=43)
    assert not np.array_equal(a, c)


def test_sphere_samples_dimension_one():
    pts = sphere_samples(1, 8, seed=0)
    assert set(np.abs(pts.ravel())) == {1.0}


def test_sweep_ground_state():
    result = sweep_eigenspace(group_at(3), 1, 32)
    assert result.histogram == {1: 1}
    assert result.samples[0].predicted is None


def test_sweep_first_excited_always_two():
    # Any combination reduces to a plane through the center in cosine
    # coordinates, so the complement always has two pieces.
    result = sweep_eigenspace(group_at(6), 25, 32, seed=5)
    assert result.histogram == {2: 25}
    assert result.non_converged == ()


def test_sweep_lambda11_histogram_and_predictor():
    result = sweep_eigenspace(group_at(11), 40, 64, seed=1)
    assert set(result.histogram) <= {2, 3, 4}
    assert result.non_converged == ()
    for sample in result.samples:
        assert sample.predicted is not None
        assert sample.boundary_distance is not None
        if sample.boundary_distance > 1e-2:
            assert sample.predicted.count == sample.count.total


def test_predictor_matches_grid_away_from_boundaries():
    rng = np.random.default_rng(314)
    group = group_at(11)
    checked = 0
    while checked < 20:
        a, b, c = rng.normal(size=3)
        norm = math.sqrt(a * a + b * b + c * c)
        a, b, c = a / norm, b / norm, c / norm
        if boundary_distance(a, b, c) <= 1e-2:
            continue
        predicted = predict_components(reduce_to_quadric(a, b, c)).count
        count = count_nodal_domains(lambda11_combo(a, b, c), 64)
        assert count.total == predicted, (a, b, c)
        checked += 1


def random_combos(value, count, seed, box=CUBE):
    group = next(g for g in enumerate_groups(box, value) if g.value == value)
    rng = np.random.default_rng(seed)
    combos = []
    for _ in range(count):
        coeffs = rng.normal(size=group.multiplicity)
        combos.append(EigenCombo(group, tuple(coeffs / np.linalg.norm(coeffs))))
    return combos


def mode_combos(value, modes, count, seed):
    """Random combinations of ``modes`` in the cube's group at ``value``, 0 on its other modes."""
    group = group_at(value)
    rng = np.random.default_rng(seed)
    combos = []
    for _ in range(count):
        coeffs = dict(zip((ModeTriple(*m) for m in modes), rng.normal(size=len(modes))))
        combos.append(EigenCombo(group, tuple(coeffs.get(mode, 0.0) for mode in group.modes)))
    return combos


def full_grid_count(combo, n0, cap):
    """count_nodal_domains's doubling policy, counted on whole grids only."""
    prev = count_components(sample_field(combo, n0))
    n = 2 * n0
    while True:
        current = count_components(sample_field(combo, n))
        if current.total == prev.total:
            return replace(current, converged=True)
        if 2 * n > cap:
            return current
        prev, n = current, 2 * n


# (combinations, n0, cap, mirrors and inversion of the grid at 2*n0)
QUOTIENT_CASES = {
    "lambda11-symmetric": (random_combos(11, 6, 1), 32, 128, (1, 1, 1), 0),
    "lambda12-antisymmetric": (random_combos(12, 2, 2), 16, 64, (-1, -1, -1), 0),
    "lambda24-antisymmetric": (random_combos(24, 4, 3), 16, 64, (-1, -1, -1), 0),
    "mode123-mixed": ([pure_combo(1, 2, 3)], 16, 64, (1, -1, 1), 0),
    "lambda6-no-parity": (random_combos(6, 4, 4), 16, 64, (0, 0, 0), -1),
    "lambda14-no-parity": (random_combos(14, 4, 5), 16, 64, (0, 0, 0), -1),
    "lambda9-g-even": (random_combos(9, 4, 8), 16, 64, (0, 0, 0), 1),
    "lambda17-g-even": (random_combos(17, 4, 9), 16, 64, (0, 0, 0), 1),
    "lambda14-x-mirror-only": (
        mode_combos(14, [(1, 2, 3), (1, 3, 2)], 3, 11), 16, 64, (1, 0, 0), 0),
    "lambda14-y-mirror-only": (
        mode_combos(14, [(2, 1, 3), (3, 1, 2)], 3, 12), 16, 64, (0, 1, 0), 0),
    "lambda9-z-antimirror-only": (
        mode_combos(9, [(1, 2, 2), (2, 1, 2)], 3, 13), 16, 64, (0, 0, -1), 0),
    # The zero planes x, y = pi/3 and 2pi/3 cross every mirror plane.
    "mode331-zeros-on-mirror-planes": ([pure_combo(3, 3, 1)], 24, 96, (1, 1, 1), 0),
    "box112-lambda10-mixed-g": (random_combos(10, 2, 10, BoxSpec(1, 1, 2)), 16, 64, (0, 0, 0), 0),
    "n0-17-odd-then-even": (random_combos(11, 3, 6), 17, 68, (1, 1, 1), 0),
}


@pytest.mark.parametrize("case", list(QUOTIENT_CASES))
def test_quotient_count_matches_full_grid(case):
    combos, n0, cap, mirrors, inversion = QUOTIENT_CASES[case]
    for combo in combos:
        grid = sample_field(combo, 2 * n0, quotient=True)
        assert (grid.mirrors, grid.inversion) == (mirrors, inversion)
        count = count_nodal_domains(combo, n0, cap)
        assert count == full_grid_count(combo, n0, cap), combo.coeffs
        n = n0
        while n <= count.resolution_used:
            full = sample_field(combo, n)
            quotient = sample_field(combo, n, quotient=True)
            if n % 2:
                assert (quotient.mirrors, quotient.inversion) == ((0, 0, 0), 0)
            # The quotient's samples are bitwise those of the full grid's corner.
            corner = tuple(slice(0, size) for size in quotient.values.shape)
            assert np.array_equal(quotient.values, full.values[corner])
            assert count_components(quotient) == count_components(full)
            n *= 2


@pytest.mark.parametrize("case", list(QUOTIENT_CASES))
def test_counts_do_not_depend_on_the_slabs(case, monkeypatch):
    # Every grid here fits one slab by default; one x-row per slab makes each
    # component cross slab faces, and the counts must not change.
    combos, n0, _, _, _ = QUOTIENT_CASES[case]
    grids = [
        sample_field(combo, n, quotient)
        for combo in combos
        for n in (n0, 2 * n0)
        for quotient in (False, True)
    ]
    whole = [count_components(grid) for grid in grids]
    assert all(grid.shape[0] * grid.shape[1] * grid.shape[2] <= nodal.SLAB_POINTS for grid in grids)
    monkeypatch.setattr(nodal, "SLAB_POINTS", 1)
    assert [count_components(grid) for grid in grids] == whole


@pytest.mark.parametrize("n", [16, 32])
def test_full_grids_are_bitwise_antipodal(n):
    # g sends the sample at (i, j, k) to the one at (n-i, n-j, n-k), exactly
    # epsilon times it, which the quotient by g takes for granted.
    for group in enumerate_groups(CUBE, 48):
        epsilon = 1.0 if group_parity(group) is Parity.EVEN else -1.0
        for combo in random_combos(group.value, 2, int(group.value)):
            values = sample_field(combo, n).values
            assert np.array_equal(values, epsilon * values[::-1, ::-1, ::-1]), group.value


def test_rows_are_bitwise_slices_of_values():
    grid = sample_field(random_combos(29, 1, 7)[0], 64)
    values = grid.values
    assert values.shape == grid.shape == (63, 63, 63)
    for start, stop in [(0, 1), (5, 21), (62, 63)]:
        assert np.array_equal(grid.rows(start, stop), values[start:stop])


def test_rows_into_a_buffer_are_bitwise_the_same():
    grid = sample_field(random_combos(29, 1, 7)[0], 64)
    buf = np.full(63 * 63 * 63 + 5, np.nan)
    for start, stop in [(0, 1), (5, 21), (0, 63)]:
        rows = grid.rows(start, stop, out=buf)
        assert np.shares_memory(rows, buf)
        assert np.array_equal(rows, grid.rows(start, stop))


def per_mode_factors(combo, grid):
    """``grid``'s factors built one active mode at a time, the way sample_field once did."""
    n = grid.n
    table = nodal._sine_table(n)
    ranges = [np.arange(1, size + 1) for size in grid.shape]
    planes, zs = [], []
    for coeff, mode in zip(combo.coeffs, combo.group.modes):
        if coeff != 0.0:
            l, m, k = mode.as_tuple()
            sx = coeff * table[(l * ranges[0]) % (2 * n)]
            planes.append(np.multiply.outer(sx, table[(m * ranges[1]) % (2 * n)]).ravel())
            zs.append(table[(k * ranges[2]) % (2 * n)])
    return np.array(planes), np.array(zs)


@pytest.mark.parametrize("case", list(QUOTIENT_CASES))
def test_sample_field_factors_are_bitwise_per_mode(case):
    # Every symmetry class: whole grids with mixed parities, mirror quotients
    # and antipodal quotients.
    combos, n0, _, _, _ = QUOTIENT_CASES[case]
    for combo in combos:
        for n in (n0, 2 * n0):
            for quotient in (False, True):
                grid = sample_field(combo, n, quotient)
                planes, zs = per_mode_factors(combo, grid)
                assert grid.planes.shape == planes.shape and grid.zs.shape == zs.shape
                assert grid.planes.tobytes() == planes.tobytes(), (n, quotient)
                assert grid.zs.tobytes() == zs.tobytes(), (n, quotient)


def join_partition(parent):
    """The classes of the union-find ``parent``, as a set of frozensets."""
    classes: dict[int, set[int]] = {}
    for a in range(len(parent)):
        classes.setdefault(nodal._root(parent, a), set()).add(a)
    return {frozenset(c) for c in classes.values()}


def face_labels(kind, rng, shape, count):
    """A label plane: long runs along the last axis, all labels distinct, or no labels."""
    if kind == "long-runs":
        runs = rng.integers(0, count + 1, size=(shape[0], shape[1] // 8))
        return np.repeat(runs, 8, axis=1)
    if kind == "no-runs":
        return rng.permutation(np.arange(1, shape[0] * shape[1] + 1)).reshape(shape)
    return np.zeros(shape, np.int64)


@pytest.mark.parametrize(
    "here_kind, there_kind",
    [("long-runs", "long-runs"), ("no-runs", "no-runs"), ("long-runs", "no-runs"),
     ("empty", "long-runs"), ("no-runs", "empty")],
)
def test_join_merges_exactly_the_facing_pairs(here_kind, there_kind):
    rng = np.random.default_rng(len(here_kind) * len(there_kind))
    shape = (12, 40)
    for _ in range(10):
        here, there = (face_labels(kind, rng, shape, 6) for kind in (here_kind, there_kind))
        bases = (3, 3 + shape[0] * shape[1] + 2)
        parent = list(range(bases[1] + shape[0] * shape[1] + 5))
        parent[2] = 1  # a merge made before, which the join must keep
        expected = {a: {a} for a in range(len(parent))}
        pairs = {(1, 2)} | {
            (bases[0] + a, bases[1] + b)
            for a, b in zip(here.ravel().tolist(), there.ravel().tolist())
            if a and b
        }
        for a, b in pairs:
            if expected[a] is not expected[b]:
                merged = expected[a] | expected[b]
                for c in merged:
                    expected[c] = merged
        nodal._join(parent, here.astype(np.int64), there.astype(np.int32), bases)
        assert join_partition(parent) == {frozenset(c) for c in expected.values()}


def planted_slab(rng, shape, lo, hi):
    """Samples of one sign with the box [lo, hi) replaced by random signs and zeros."""
    samples = np.full(shape, rng.choice([-1.0, 1.0]))
    inner = tuple(slice(a, b) for a, b in zip(lo, hi))
    p = rng.dirichlet([1.0, 1.0, 1.0])
    samples[inner] = rng.choice([-1.0, 0.0, 1.0], size=samples[inner].shape, p=p)
    return samples


def planted_box(rng, shape, case):
    """Bounds [lo, hi) of a sub-box for ``case``: ("face", axis, side), ("band", axis)
    for one spanning the other two axes, or ("inside",) for one anywhere."""
    lo = [int(rng.integers(0, size)) for size in shape]
    hi = [int(rng.integers(a + 1, size + 1)) for a, size in zip(lo, shape)]
    if case[0] == "face":
        _, axis, side = case
        if side:
            hi[axis] = shape[axis]
        else:
            lo[axis] = 0
    elif case[0] == "band":
        for axis in range(3):
            if axis != case[1]:
                lo[axis], hi[axis] = 0, shape[axis]
    return lo, hi


def check_box_labels(samples):
    """``_label_box`` on each sign, against ``ndimage.label`` on the whole mask:
    the same count, and labels that correspond one to one, 0 to 0."""
    pair = np.stack([samples > 0, samples < 0])
    kinds = []
    for mask, (box, edge) in zip(pair, nodal._boxes(pair)):
        expected = np.empty(mask.shape, np.int32)
        count = ndimage.label(mask, structure=nodal._FACE_STRUCTURE, output=expected)
        labels = np.full(mask.shape, -1, np.int32)
        scratch = np.full(8 * mask.size, 255, np.uint8)
        assert nodal._label_box(mask, box, edge, labels, scratch) == count
        pairs = set(zip(expected.ravel().tolist(), labels.ravel().tolist()))
        assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)
        assert all((a == 0) == (b == 0) for a, b in pairs)
        kinds.append("whole" if nodal._volume(box) >= mask.size else "E" if edge else "B")
    return kinds


BOX_CASES = {
    **{f"face-{'xyz'[axis]}-{'lo' if side == 0 else 'hi'}": ("face", axis, side)
       for axis in range(3) for side in (0, 1)},
    **{f"band-{'xyz'[axis]}": ("band", axis) for axis in range(3)},
    "inside": ("inside",),
}


@pytest.mark.parametrize("case", list(BOX_CASES))
def test_box_labels_match_whole_mask_labels(case):
    rng = np.random.default_rng(list(BOX_CASES).index(case))
    kinds = []
    for trial in range(60):
        # Every fourth slab is one x-row thick, as when one x-row fills a slab.
        shape = (1 if trial % 4 == 0 else int(rng.integers(2, 10)), *rng.integers(1, 12, 2))
        kinds += check_box_labels(planted_slab(rng, shape, *planted_box(rng, shape, BOX_CASES[case])))
    assert {"B", "E"} <= set(kinds), kinds


def test_box_labels_of_empty_full_and_zero_band_slabs():
    for shape in [(1, 1, 1), (1, 5, 7), (4, 1, 6), (6, 9, 8)]:
        # All zeros (both masks empty), and one sign throughout (one full, one empty).
        full = "whole" if shape == (1, 1, 1) else "E"  # E is one cell
        assert check_box_labels(np.zeros(shape)) == ["B", "B"]
        assert check_box_labels(np.ones(shape)) == [full, "B"]
        assert check_box_labels(-np.ones(shape)) == ["B", full]
        for axis in (axis for axis in range(3) if shape[axis] > 3):
            for sign, value in enumerate((1.0, -1.0)):
                # A band of zeros splits one sign into two regions, beyond the
                # two faces of an E that spans the other two axes.
                samples = np.full(shape, value)
                samples[(slice(None),) * axis + (1,)] = 0.0
                assert check_box_labels(samples)[sign] == "E"
                samples[(slice(None),) * axis + (-1,)] = -value
                check_box_labels(samples)


# Grids named by (eigenvalue, coefficients, n), counted with quotient=True:
# eigenvalue 11 at 256 (mirror quotient, several slabs), a census-sized
# eigenvalue-14 grid at 32 (antipodal quotient), and eigenvalue 6 at odd n
# (mixed parities, sampled whole).
HISTORY_GRIDS = [
    (11, (0.6, -0.3, 0.74), 256),
    (14, (0.5, -0.2, 0.1, 0.7, -0.3, 0.35), 32),
    (6, (0.4, -0.8, 0.45), 33),
]
COUNT_FIRST = """
from cubenodal import CUBE, EigenCombo, count_components, enumerate_groups, sample_field
value, coeffs, n = {!r}
group = next(g for g in enumerate_groups(CUBE, value) if g.value == value)
print(repr(count_components(sample_field(EigenCombo(group, coeffs), n, quotient=True))))
"""


def count_history_grid(value, coeffs, n):
    combo = EigenCombo(group_at(value), coeffs)
    return repr(count_components(sample_field(combo, n, quotient=True)))


def test_counts_do_not_depend_on_what_was_counted_before():
    # Every count writes into one workspace kept across counts; a grid
    # counted after others must count as it does first in a fresh process.
    in_turn = [count_history_grid(*key) for key in HISTORY_GRIDS + HISTORY_GRIDS[:1]]
    assert in_turn[3] == in_turn[0]
    for key, counted in zip(HISTORY_GRIDS, in_turn):
        fresh = subprocess.run(
            [sys.executable, "-c", COUNT_FIRST.format(key)],
            capture_output=True, text=True, check=True,
        )
        assert fresh.stdout.strip() == counted, key


def test_a_warm_count_allocates_no_slab():
    grid = sample_field(EigenCombo(group_at(11), (0.6, -0.3, 0.74)), 256, quotient=True)
    assert math.prod(grid.shape) > 4 * nodal.SLAB_POINTS
    expected = count_components(grid)
    tracemalloc.start()
    try:
        assert count_components(grid) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nodal.SLAB_POINTS * 8, peak


def test_importing_the_cli_leaves_out_scipy_stats():
    # scipy.stats would be most of the package's import time, and no command needs
    # it: the sweep draws its Halton points with nodal._scrambled_halton.
    # scipy.sparse stays out too: importing scipy.sparse.csgraph after the cli
    # raised peak RSS by 9.2 MiB, more than the benchmark's 5% bound on 64 MiB.
    code = (
        "import contextlib, io, sys\n"
        "from cubenodal import cli\n"
        "def unloaded(step):\n"
        "    for name in ('scipy.stats', 'scipy.sparse'):\n"
        "        assert name not in sys.modules, (name, step)\n"
        "unloaded('import')\n"
        "for argv in (['table'], ['table', '--box', '1,1,2'], ['screen'],\n"
        "             ['nodal', '--mode', '1,1,1', '--coeffs', '1'],\n"
        "             ['sweep', '--value', '11', '--samples', '2', '--resolution', '16'],\n"
        "             ['verdict', '--samples', '2', '--resolution', '16']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    unloaded(argv)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("dim", [*range(1, 13), 25])
def test_scrambled_halton_is_scipys_bit_for_bit(dim):
    from scipy.stats import qmc

    for seed in (0, 7, 2**32 - 1, 2**64):
        for n in (1, 2, 7, 500, 1001):
            expected = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
            points = nodal._scrambled_halton(dim, n, seed)
            assert points.shape == expected.shape
            assert points.tobytes() == expected.tobytes(), (seed, n)


def test_sweep_points_are_unchanged():
    # The points as drawn when scipy.stats was imported with the package.
    from scipy.special import ndtri
    from scipy.stats import qmc

    u = qmc.Halton(d=3, scramble=True, seed=7).random(3)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    expected = z / np.linalg.norm(z, axis=1)[:, None]
    result = sweep_eigenspace(group_at(11), 3, 16, seed=7)
    assert [s.coeffs for s in result.samples] == [tuple(row) for row in expected]
