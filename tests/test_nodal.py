import hashlib
import math
import platform
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
from cubenodal.cli import BOUNDARY_SKIP_RADIUS, sweep_evidence
from cubenodal.quadric import boundary_distance, sine_coeffs_from_modes
from helpers import child_env, group_at, lambda11_combo


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
    assert sweep_evidence(result)["records"][0]["predicted"] is None


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
    for record in sweep_evidence(result)["records"]:
        assert record["predicted"] is not None
        assert record["boundary_distance"] is not None
        if record["boundary_distance"] > BOUNDARY_SKIP_RADIUS:
            assert record["predicted"] == record["total"]


def test_predictor_matches_grid_away_from_boundaries():
    rng = np.random.default_rng(314)
    group = group_at(11)
    checked = 0
    while checked < 20:
        a, b, c = rng.normal(size=3)
        norm = math.sqrt(a * a + b * b + c * c)
        a, b, c = a / norm, b / norm, c / norm
        if boundary_distance(a, b, c) <= BOUNDARY_SKIP_RADIUS:
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
    # component cross slab faces, and the counts must not change, whether
    # the slots are found on the grid's samples or, where the z-lines have a
    # closed form, on their roots, which no slab size reaches.
    combos, n0, _, _, _ = QUOTIENT_CASES[case]
    grids = [
        sample_field(combo, n, quotient)
        for combo in combos
        for n in (n0, 2 * n0)
        for quotient in (False, True)
    ]
    whole = [count_components(grid) for grid in grids]
    assert all(grid.shape[0] * grid.shape[1] * grid.shape[2] <= nodal.SLAB_POINTS for grid in grids)
    for root_points in (0, nodal.ROOT_POINTS):
        monkeypatch.setattr(nodal, "ROOT_POINTS", root_points)
        for slab_points in (nodal.SLAB_POINTS, 1):
            with monkeypatch.context() as slabs:
                slabs.setattr(nodal, "SLAB_POINTS", slab_points)
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


@pytest.mark.parametrize("n", [16, 17, 64])
def test_rows_of_one_mode_are_the_matmuls_values(n):
    # One mode's samples are an outer product (np.multiply), not a matmul
    # over an inner dimension of 1.  The values must be equal, and so must
    # both masks; only the sign of an exact zero may differ.
    for mode in ((1, 1, 1), (2, 1, 3), (2, 2, 2), (3, 4, 1)):
        for quotient in (False, True):
            grid = sample_field(pure_combo(*mode), n, quotient)
            assert len(grid.planes) == 1
            sy = grid.shape[1]
            for start, stop in [(0, grid.shape[0]), (1, 3)]:
                rows = grid.rows(start, stop)
                expected = np.matmul(grid.planes[:, start * sy : stop * sy].T, grid.zs)
                expected = expected.reshape(rows.shape)
                assert np.array_equal(rows, expected), (mode, quotient)
                assert np.array_equal(rows > 0, expected > 0), (mode, quotient)
                assert np.array_equal(rows < 0, expected < 0), (mode, quotient)


def test_the_sine_table_is_shared_and_read_only():
    table = nodal._sine_table(24)
    assert nodal._sine_table(24) is table
    with pytest.raises(ValueError, match="read-only"):
        table[1] = 0.0


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


FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


def samples_grid(samples):
    """A ScalarGrid whose samples are ``samples``: its z-rows are the identity."""
    sz = samples.shape[2]
    return nodal.ScalarGrid(16, samples.shape, samples.reshape(-1, sz).T.copy(), np.eye(sz))


STALE_WORKSPACE = tuple(np.empty(8 * nodal.SLAB_POINTS + 16, np.uint8) for _ in range(2))


def sampled_slots(grid, slab_points):
    """``nodal._sampled_slots`` of ``grid`` in slabs of at most ``slab_points``
    samples, in a workspace full of stale bytes."""
    for buffer in STALE_WORKSPACE:
        buffer[: 8 * math.prod(grid.shape) + 16] = 255  # every byte the count can reach
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodal, "SLAB_POINTS", slab_points)
        patch.setattr(nodal, "_workspace", STALE_WORKSPACE)
        slots = nodal._sampled_slots(grid)
        assert all(a is b for a, b in zip(nodal._workspace, STALE_WORKSPACE))
    return slots


def slot_chains(signs, lo, hi, sy):
    """The chain of each slot, as ``nodal._label_slots`` numbers them: a
    signed slot that does not overlap the same slot of the line before it in
    its x-row, with its sign, starts a chain, in the order of (slot, line)."""
    joined = np.zeros(signs.shape, bool)
    joined[:, 1:] = (signs[:, 1:] == signs[:, :-1]) & (lo[:, 1:] < hi[:, :-1]) & (lo[:, :-1] < hi[:, 1:])
    joined[:, ::sy] = False
    return np.cumsum((signs != 0) & ~joined).reshape(signs.shape) - 1


def check_run_labels(samples):
    """The slots ``nodal._sampled_slots`` finds in the samples, and their
    labels, against ``ndimage.label`` on each sign's mask, with a carried
    x-row stacked on the slab: none, the slab's first x-row, and that row
    negated and reflected in y.  In one slab and in one x-row per slab, from
    a workspace full of stale bytes, the slots must be the same.  Checked:
    the masks painted from the slots, the count of each sign, the slots'
    lengths, and their components, which must map one to one onto the
    labels at the slots' first samples."""
    for carried in (None, samples[:1], -samples[:1, ::-1]):
        stacked = samples if carried is None else np.concatenate((carried, samples))
        grid = samples_grid(stacked)
        sy = stacked.shape[1]
        slots = sampled_slots(grid, nodal.SLAB_POINTS)
        assert all(np.array_equal(a, b) for a, b in zip(slots, sampled_slots(grid, 1)))
        check_slots(grid, *slots)
        signs, lo, hi = slots
        labelled = nodal._label_slots(grid, *slots)
        count = nodal._tally(grid, *labelled)
        negative, links = labelled[:2]
        # Each signed slot's component, and its first sample: x-row, line, z index.
        slot, line = np.nonzero(signs)
        labels = nodal._union(len(negative), *links)[slot_chains(*slots, sy)[slot, line]]
        at = (*np.divmod(line, sy), lo[slot, line])
        for sign, mask, counted in (
            (1, stacked > 0, count.positive_components),
            (-1, stacked < 0, count.negative_components),
        ):
            expected, n_labels = ndimage.label(mask, structure=FACE_STRUCTURE)
            assert counted == n_labels
            mine = signs[slot, line] == sign
            assert (hi - lo)[signs == sign].sum() == np.count_nonzero(mask)
            pairs = set(zip(labels[mine].tolist(), expected[tuple(a[mine] for a in at)].tolist()))
            assert {b for _, b in pairs} == set(range(1, n_labels + 1))
            assert len({a for a, _ in pairs}) == len(pairs) == n_labels


BOX_CASES = {
    **{f"face-{'xyz'[axis]}-{'lo' if side == 0 else 'hi'}": ("face", axis, side)
       for axis in range(3) for side in (0, 1)},
    **{f"band-{'xyz'[axis]}": ("band", axis) for axis in range(3)},
    "inside": ("inside",),
}


def slab_shape(rng, trial):
    # Every fourth slab is one x-row thick, as when one x-row fills a slab.
    return (1 if trial % 4 == 0 else int(rng.integers(2, 10)), *rng.integers(1, 12, 2))


@pytest.mark.parametrize("case", list(BOX_CASES))
def test_box_labels_match_whole_mask_labels(case):
    # Slabs of one sign with a box of random signs and zeros planted in them.
    rng = np.random.default_rng(list(BOX_CASES).index(case))
    for trial in range(60):
        shape = slab_shape(rng, trial)
        check_run_labels(planted_slab(rng, shape, *planted_box(rng, shape, BOX_CASES[case])))


@pytest.mark.parametrize("zeros", [0.0, 0.1, 0.5], ids=["signs", "sparse-zeros", "dense-zeros"])
def test_run_labels_match_whole_mask_labels_on_noise(zeros):
    # Many runs per line.  With no zeros every run that ends inside its line
    # meets one of the other sign, and opposite signs touch across every face.
    rng = np.random.default_rng(int(10 * zeros))
    p = [(1 - zeros) / 2, zeros, (1 - zeros) / 2]
    for trial in range(60):
        check_run_labels(rng.choice([-1.0, 0.0, 1.0], size=slab_shape(rng, trial), p=p))


def test_box_labels_of_empty_full_and_zero_band_slabs():
    for shape in [(1, 1, 1), (1, 5, 7), (4, 1, 6), (6, 9, 1), (6, 9, 8)]:
        check_run_labels(np.zeros(shape))
        check_run_labels(np.ones(shape))
        check_run_labels(-np.ones(shape))
        for axis in (axis for axis in range(3) if shape[axis] > 3):
            for value in (1.0, -1.0):
                # A band of zeros splits one sign into two regions; then the
                # other sign takes the last plane.
                samples = np.full(shape, value)
                samples[(slice(None),) * axis + (1,)] = 0.0
                check_run_labels(samples)
                samples[(slice(None),) * axis + (-1,)] = -value
                check_run_labels(samples)
        # One sign but for the last z index and the last y line, where the
        # other sign runs to the end of every line and of every x-row.
        samples = np.ones(shape)
        samples[..., -1] = samples[:, -1] = -1.0
        check_run_labels(samples)
        # Stripes of alternating sign across each axis, one component each.
        for axis in range(3):
            check_run_labels(np.indices(shape)[axis] % 2 * 2.0 - 1.0)


def oracle_combos(count, seed):
    """Random combinations of the cube's groups up to 300 with six modes or
    more; every third one only on the modes of one x-parity, so that its
    quotient has mirrors."""
    groups = [g for g in enumerate_groups(CUBE, 300) if g.multiplicity >= 6]
    rng = np.random.default_rng(seed)
    combos = []
    for i in range(count):
        group = groups[rng.integers(len(groups))]
        coeffs = rng.normal(size=group.multiplicity)
        if i % 3 == 2:
            parity = group.modes[rng.integers(group.multiplicity)].l % 2
            coeffs *= [mode.l % 2 == parity for mode in group.modes]
        combos.append(EigenCombo(group, tuple(coeffs)))
    return combos


ORACLE_COMBOS = oracle_combos(60, 19)


def root_combos(count, seed):
    """Random combinations of the cube's groups up to 60 on their modes of
    z-frequency 1 or 3 (even trials) or 1 or 2 (odd ones), whose z-lines
    have a closed form (``nodal._root_runs``)."""
    groups = enumerate_groups(CUBE, 60)
    rng = np.random.default_rng(seed)
    combos = []
    while len(combos) < count:
        group = groups[rng.integers(len(groups))]
        allowed = ({1, 3}, {1, 2})[len(combos) % 2]
        coeffs = rng.normal(size=group.multiplicity) * [m.n in allowed for m in group.modes]
        if coeffs.any():
            combos.append(EigenCombo(group, tuple(coeffs)))
    return combos


# Single modes of z-frequency 2 or 3: at n = 24, sin 3z is exactly 0 at
# z = pi/3 and 2pi/3.
ROOT_COMBOS = root_combos(24, 21) + [pure_combo(*mode) for mode in ((1, 1, 2), (2, 1, 2), (1, 1, 3))]


def rootless(grid):
    """Whether the z-lines of ``grid`` have no closed form with one sign
    change: z-frequency 3 on a whole z-axis, where 4cos^2 z - 1 turns."""
    return 3 in grid.zfreqs and not grid.mirrors[2]


def test_counts_match_whole_grid_labels(monkeypatch):
    # An oracle independent of the kernel: ndimage.label on the whole grid's
    # samples, against counts on whole grids, mirror quotients and antipodal
    # quotients, in one slab and with one x-row per slab.  The grids of
    # ROOT_COMBOS are counted on the slots of their z-lines' closed form,
    # with one threshold per line, but those of z-frequency 3 on a whole
    # z-axis (odd n, or no quotient), which are counted on their samples.
    monkeypatch.setattr(nodal, "ROOT_POINTS", 0)
    grids, expected = [], []
    for combo in ORACLE_COMBOS + ROOT_COMBOS:
        for n in (16, 17, 24, 32):
            values = sample_field(combo, n).values
            signs = tuple(
                ndimage.label(mask, structure=FACE_STRUCTURE)[1]
                for mask in (values > 0, values < 0)
            )
            for quotient in (False, True):
                grids.append(sample_field(combo, n, quotient))
                expected.append((*signs, np.count_nonzero(values == 0)))
                if combo in ROOT_COMBOS:
                    rooted = nodal._root_runs(grids[-1]) is not None
                    assert rooted != rootless(grids[-1]), (combo.coeffs, n, quotient)
    classes = {(grid.mirrors, grid.inversion) for grid in grids}
    assert {
        ((0, 0, 0), 0), ((0, 0, 0), 1), ((0, 0, 0), -1), ((1, 1, 1), 0), ((-1, -1, -1), 0),
        ((1, -1, -1), 0), ((-1, 1, 1), 0), ((1, 0, 0), 0), ((-1, 0, 0), 0),
    } <= classes
    for slab_points in (nodal.SLAB_POINTS, 1):
        monkeypatch.setattr(nodal, "SLAB_POINTS", slab_points)
        for grid, want in zip(grids, expected, strict=True):
            count = count_components(grid)
            got = (count.positive_components, count.negative_components, count.zero_samples)
            assert got == want, (grid.n, grid.mirrors, grid.inversion, slab_points)


def slot_masks(shape, signs, lo, hi):
    """The masks v > 0 and v < 0 of a grid of ``shape``, with one empty
    sample after each line, painted from slots of ``nodal._label_slots``'
    form, C per line."""
    sx, sy, sz = shape
    masks = []
    for sign in (1, -1):
        slot, line = np.nonzero(signs == sign)
        paint = np.zeros((sx * sy, sz + 1), np.int8)
        np.add.at(paint, (line, lo[slot, line]), 1)
        np.add.at(paint, (line, hi[slot, line]), -1)
        masks.append(np.cumsum(paint, axis=1, dtype=np.int8).reshape(sx, sy, sz + 1))
    return masks


def check_slots(grid, signs, lo, hi):
    """Slots of ``nodal._label_slots``' form against the grid's samples."""
    values = grid.values
    sx, sy, sz = grid.shape
    for painted_mask, mask in zip(slot_masks(grid.shape, signs, lo, hi), (values > 0, values < 0)):
        # Nothing is painted outside the lines, nor twice.
        assert not painted_mask[..., sz].any()
        assert np.array_equal(painted_mask[..., :sz], mask)
    assert signs.shape == lo.shape == hi.shape == (len(signs), sx * sy)
    # A slot of sign 0 overlaps nothing; the others lie in z order.
    assert np.all(lo[signs == 0] == 0) and np.all(hi[signs == 0] == 0)
    assert np.all((0 <= lo) & (lo < hi) & (hi <= sz) | (signs == 0))
    for s in range(len(signs)):
        for t in range(s + 1, len(signs)):
            both = (signs[s] != 0) & (signs[t] != 0)
            assert np.all(hi[s][both] <= lo[t][both])
            # Each run is whole: none starts where the one before it ends.
            assert not np.any((hi[s] == lo[t]) & (signs[s] == signs[t]) & both)


def check_root_signs(grid):
    slots = nodal._root_runs(grid)
    assert slots[0].shape == (2, grid.shape[0] * grid.shape[1])
    check_slots(grid, *slots)


def most_runs(values):
    """The most runs of one sign along z on any line of ``values``."""
    signs = np.sign(values).reshape(-1, values.shape[2])
    starts = signs != 0
    starts[:, 1:] &= signs[:, 1:] != signs[:, :-1]
    return int(starts.sum(axis=1).max())


@pytest.mark.parametrize("slab_points", [nodal.SLAB_POINTS, 1])
def test_sampled_slots_match_the_samples(slab_points):
    for combo in ORACLE_COMBOS:
        for n in (16, 17, 24):
            for quotient in (False, True):
                grid = sample_field(combo, n, quotient)
                slots = sampled_slots(grid, slab_points)
                check_slots(grid, *slots)
                assert len(slots[0]) == max(1, most_runs(grid.values)), (combo.coeffs, n, quotient)


# SHA-256 of the bytes of (signs, lo, hi) of each of the grids below, in
# turn, as nodal._root_runs found them when they were first pinned.
ROOT_SLOT_DIGESTS = {
    128: "9ce6b0e009c3b69ab7abac97c0389426d6b633505eae813c59878ade39a935a6",
    256: "8d845dc0e5429bce308e011c7d8b20966d417a0f12b629ba830ed117790de4b6",
}


@pytest.mark.parametrize("n", [128, 256])
def test_root_signs_match_the_default_sweep(n):
    # The first 20 grids of the default verdict's sweep at each resolution it counts.
    group = group_at(11)
    digest = hashlib.sha256()
    for coeffs in sphere_samples(3, 20, seed=0):
        grid = sample_field(EigenCombo(group, tuple(coeffs)), n, quotient=True)
        check_root_signs(grid)
        for slots in nodal._root_runs(grid):
            digest.update(slots.tobytes())
    assert digest.hexdigest() == ROOT_SLOT_DIGESTS[n]


def test_root_signs_match_random_grids():
    for combo in root_combos(40, 23):
        for n in (16, 17, 24, 33, 48):
            for quotient in (False, True):
                grid = sample_field(combo, n, quotient)
                if rootless(grid):
                    assert nodal._root_runs(grid) is None, (combo.coeffs, n, quotient)
                else:
                    check_root_signs(grid)


@pytest.mark.parametrize("n", [16, 17, 64, 65, 256])
def test_the_branch_must_fall(n):
    # 4cos^2 z - 1 turns at z = pi/2: it falls on the z-quotient but not on a
    # whole axis; 2 cos z falls on the whole axis.
    assert nodal._branch(n, 3, n - 1) is None
    assert nodal._branch(n, 3, n // 2) is not None
    assert nodal._branch(n, 2, n - 1) is not None


def random_slots(rng, shape, slots):
    """Slots of ``nodal._label_slots``' form for a grid of ``shape``: per line,
    ``slots`` intervals in z order of random signs, with zeros between and
    no two of one sign touching."""
    sx, sy, sz = shape
    lines = sx * sy
    cuts = np.sort(rng.integers(0, sz + 1, (lines, 2 * slots)), axis=1).astype(np.int32)
    lo, hi = cuts[:, 0::2].T.copy(), cuts[:, 1::2].T.copy()
    signs = rng.choice(np.array([-1, 0, 1], np.int8), (slots, lines), p=[0.45, 0.1, 0.45])
    signs *= hi > lo
    end, sign = np.full(lines, -1), np.zeros(lines, np.int8)
    for s in range(slots):
        clash = (signs[s] != 0) & (lo[s] == end) & (signs[s] == sign)
        signs[s][clash] *= -1
        end = np.where(signs[s] != 0, hi[s], end)
        sign = np.where(signs[s] != 0, signs[s], sign)
    lo[signs == 0], hi[signs == 0] = 0, 0
    return signs, lo, hi


@pytest.mark.parametrize("mirrors", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
def test_slot_labels_match_whole_mask_labels_on_noise(mirrors):
    # Random slots make many small components and every kind of link: the
    # counts of nodal._label_slots and its tail against ndimage.label on the
    # masks painted from the slots, reflected onto the whole grid on each
    # mirror axis.
    rng = np.random.default_rng(sum(mirrors) + 10 * mirrors[0])
    for trial in range(40):
        shape = tuple(int(size) for size in rng.integers(1 if trial % 4 else 2, 9, 3))
        slots = 1 + trial % 7
        signs, lo, hi = random_slots(rng, shape, slots)
        sx, sy, sz = shape
        grid = nodal.ScalarGrid(16, shape, np.zeros((1, sx * sy)), np.zeros((1, sz)), mirrors)
        count = nodal._tally(grid, *nodal._label_slots(grid, signs, lo, hi))
        whole = []
        for mask in slot_masks(shape, signs, lo, hi):
            mask = mask[..., :sz] == 1
            for axis in (axis for axis in range(3) if mirrors[axis]):
                image = np.flip(mask, axis).take(range(1, shape[axis]), axis)
                mask = np.concatenate((mask, image), axis)
            whole.append(mask)
        expected = [ndimage.label(mask, structure=FACE_STRUCTURE)[1] for mask in whole]
        zeros = np.count_nonzero(~(whole[0] | whole[1]))
        got = (count.positive_components, count.negative_components, count.zero_samples)
        assert got == (*expected, zeros), (trial, shape, slots)


def counted_on_slots(grid, monkeypatch):
    """The count of ``grid``, asserting that it was labelled on the slots of
    ``nodal._root_runs`` and not on those of its samples."""
    sampled = []
    original = nodal._sampled_slots
    with monkeypatch.context() as patch:
        patch.setattr(
            nodal, "_sampled_slots", lambda *args: sampled.append(args) or original(*args)
        )
        count = count_components(grid)
    assert not sampled
    return count


def test_slot_counts_match_sampled_counts(monkeypatch):
    group = group_at(11)
    # The first 20 grids of the default verdict's sweep at each resolution it counts.
    grids = [
        sample_field(EigenCombo(group, tuple(coeffs)), n, quotient=True)
        for n in (128, 256)
        for coeffs in sphere_samples(3, 20, seed=0)
    ]
    # The census's rooted grids: (32, 63, 63) antipodal quotients on
    # z-frequencies {1, 2}, g-odd (eigenvalue 6) and g-even (9).
    census = [sample_field(random_combos(value, 1, value)[0], 64, True) for value in (6, 9)]
    assert [grid.shape for grid in census] == [(32, 63, 63)] * 2
    assert [grid.inversion for grid in census] == [-1, 1]
    # At odd n the z-axis is whole, where 4cos^2 z - 1 turns: no slots.
    odd = sample_field(EigenCombo(group, (0.6, -0.3, 0.74)), 65)
    assert nodal._root_runs(odd) is None
    count, values = count_components(odd), odd.values
    expected = [ndimage.label(mask, FACE_STRUCTURE)[1] for mask in (values > 0, values < 0)]
    assert [count.positive_components, count.negative_components] == expected
    for grid in grids + census:
        assert math.prod(grid.shape) >= nodal.ROOT_POINTS
        count = counted_on_slots(grid, monkeypatch)
        assert repr(count) == repr(count_components(replace(grid, zfreqs=()))), (grid.n, grid.shape)


def python_union(count, pairs):
    """The least id of each id's class, by a plain union-find."""
    parent = list(range(count))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [root(x) for x in range(count)]


@pytest.mark.parametrize("seed", range(4))
def test_union_matches_a_plain_union_find(seed):
    rng = np.random.default_rng(seed)
    for count in (1, 2, 17, 300):
        for n_pairs in (0, 1, count // 2, count, 3 * count):
            a, b = rng.integers(0, count, (2, n_pairs))
            expected = python_union(count, zip(a.tolist(), b.tolist()))
            assert nodal._union(count, a, b).tolist() == expected, (count, n_pairs)


def test_union_of_no_pairs_one_id_and_a_long_chain():
    none = np.empty(0, np.intp)
    assert nodal._union(0, none, none).tolist() == []
    assert nodal._union(5, none, none).tolist() == list(range(5))
    assert nodal._union(1, np.zeros(1, np.intp), np.zeros(1, np.intp)).tolist() == [0]
    # A chain through every id, its links in a random order, and in order from
    # its far end, so that one round hooks each id to the next below it.
    count = 5000
    order = np.random.default_rng(0).permutation(count - 1)
    assert nodal._union(count, order + 1, order).tolist() == [0] * count
    far = np.arange(count - 1)[::-1]
    assert nodal._union(count, far + 1, far).tolist() == [0] * count
    # Two chains, the odd ids and the even ones.
    ids = np.arange(count - 2)
    assert nodal._union(count, ids, ids + 2).tolist() == [x % 2 for x in range(count)]


def counted_on_samples(grid, monkeypatch):
    """The count of ``grid``, asserting that its runs were found on its samples."""
    sampled = []
    original = nodal._sampled_slots
    with monkeypatch.context() as patch:
        patch.setattr(nodal, "ROOT_POINTS", 0)
        patch.setattr(
            nodal, "_sampled_slots", lambda *args: sampled.append(args) or original(*args)
        )
        count = count_components(grid)
    assert sampled
    return count


@pytest.mark.parametrize("skew", [0.0, 2.0**-52, -(2.0**-50), 2.0**-48, -(2.0**-46)])
def test_a_line_in_the_rounding_band_falls_back_to_samples(skew, monkeypatch):
    # Crossed planes: on the line (i, j) the sample at k = j is
    # sin x (sin y sin 3z - (1 + skew) sin 3y sin z), 0 or a few ulps of the
    # terms, so its sign is the matmul's rounding and the closed form cannot
    # settle it.
    grid = sample_field(lambda11_combo(1.0, -1.0 - skew, 0.0), 64, quotient=True)
    assert nodal._root_runs(grid) is None
    assert counted_on_samples(grid, monkeypatch) == count_components(replace(grid, zfreqs=()))
    # Skewed further, the same lines clear the band.
    assert nodal._root_runs(sample_field(lambda11_combo(1.0, -1.0 - 2.0**-30, 0.0), 64, True))


@pytest.mark.parametrize("offset", [0.0, 2.0**-49, -(2.0**-49)])
def test_a_threshold_on_a_lattice_sample_falls_back_to_samples(offset, monkeypatch):
    # A line with terms of z-frequency 1 and 3 whose closed form beta + alpha r
    # falls through 0 at its fifth sample: exactly there in floats, or a few
    # ulps before it (its last positive sample) or after it (its first
    # negative one).  The sample there is the matmul's rounding of
    # t[5] (beta + alpha r_5), which need not have that sign.  The other
    # lines are positive.
    n = 24
    table = nodal._sine_table(n)
    k = np.arange(1, n // 2 + 1)
    zs = np.array((table[k], table[3 * k % (2 * n)]))
    planes = np.array((np.ones(9), np.zeros(9)))
    planes[:, 4] = offset - zs[1, 4] / zs[0, 4], 1.0
    grid = nodal.ScalarGrid(n, (3, 3, n // 2), planes, zs, (0, 0, 1), zfreqs=(1, 3))
    assert nodal._root_runs(grid) is None
    assert counted_on_samples(grid, monkeypatch) == count_components(replace(grid, zfreqs=()))


def test_an_asymmetric_glue_plane_is_refused():
    # A g-even quotient is glued across its last x-row, which g must map to
    # itself; a row that breaks that is refused rather than glued wrongly.
    sx, sy, sz = 4, 7, 7
    grid = nodal.ScalarGrid(8, (sx, sy, sz), np.ones((1, sx * sy)), np.ones((1, sz)), inversion=1)
    assert count_components(grid) == nodal.NodalCount(1, 0, 0, 8, False)
    # A g-odd grid maps each run of the row onto one of the other sign.
    with pytest.raises(ValueError, match="not mapped to itself by g"):
        count_components(replace(grid, inversion=-1))
    planes = grid.planes.copy()
    planes[0, (sx - 1) * sy] = -1.0  # line j = 1 of the last x-row; its image j = 7 stays positive
    with pytest.raises(ValueError, match="not mapped to itself by g"):
        count_components(replace(grid, planes=planes))


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
            capture_output=True, text=True, check=True, env=child_env(),
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
    # 566 KiB measured, most of it the slots and _label_slots' masks; a
    # third more allows for numpy's own temporaries.
    assert peak < 768 * 1024, peak


def test_a_warm_sampled_count_allocates_little():
    # A grid with no closed form, counted in four slabs: its runs are kept
    # per slab until the slots are filled.
    combo = EigenCombo(group_at(26), (0.5, -0.2, 0.1, 0.7, -0.3, 0.35))
    grid = sample_field(combo, 128, quotient=True)
    assert grid.shape == (64, 127, 127) and nodal._root_runs(grid) is None
    assert math.prod(grid.shape) > 3 * nodal.SLAB_POINTS
    expected = count_components(grid)
    tracemalloc.start()
    try:
        assert count_components(grid) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 996 KiB measured, most of it the runs and the slots; a quarter more
    # allows for numpy's own temporaries.
    assert peak < 1248 * 1024, peak


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the mmap threshold is glibc's")
def test_a_warm_count_faults_few_pages():
    # A process's first count frees one large block, which raises glibc's
    # mmap threshold; then a count's run-sized temporaries come from the
    # heap's pages instead of fresh mmapped ones.  In a fresh process, so
    # that nothing else has raised the threshold.
    code = (
        "import resource\n"
        "from cubenodal import CUBE, EigenCombo, count_components, enumerate_groups, sample_field\n"
        "group = next(g for g in enumerate_groups(CUBE, 11) if g.value == 11)\n"
        "grid = sample_field(EigenCombo(group, (0.6, -0.3, 0.74)), 256, quotient=True)\n"
        "count_components(grid)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "count_components(grid)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env()
    )
    assert int(faults.stdout) < 20, faults.stdout


def test_importing_the_cli_leaves_out_scipy_stats():
    # No command loads any part of scipy.  scipy.stats would be most of the
    # package's import time: the sweep draws its Halton points with
    # nodal._scrambled_halton.  Importing scipy.sparse.csgraph after the cli
    # raised peak RSS by 9.2 MiB, more than the benchmark's 5% bound on 64 MiB.
    # nodal._label_slots labels the sign regions without scipy.ndimage, and
    # nodal._ndtri maps the points to the sphere without scipy.special, which
    # alone took about half the package's import time and memory.
    code = (
        "import contextlib, io, sys\n"
        "from cubenodal import cli\n"
        "def unloaded(step):\n"
        "    loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "    assert not loaded, (loaded, step)\n"
        "unloaded('import')\n"
        "for argv in (['table'], ['table', '--box', '1,1,2'], ['screen'],\n"
        "             ['nodal', '--mode', '1,1,1', '--coeffs', '1'],\n"
        "             ['sweep', '--value', '11', '--samples', '2', '--resolution', '16'],\n"
        "             ['verdict', '--samples', '2', '--resolution', '16']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    unloaded(argv)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


@pytest.mark.parametrize("dim", [*range(1, 13), 25])
def test_scrambled_halton_is_scipys_bit_for_bit(dim):
    from scipy.stats import qmc

    for seed in (0, 7, 2**32 - 1, 2**64):
        for n in (1, 2, 7, 500, 1001):
            expected = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
            points = nodal._scrambled_halton(dim, n, seed)
            assert points.shape == expected.shape
            assert points.tobytes() == expected.tobytes(), (seed, n)


def test_ndtri_is_scipys_bit_for_bit():
    from scipy.special import ndtri

    # Both clip ends, the branch edges exp(-2) and 1 - exp(-2) with their neighbours,
    # and both tails evenly in log y.
    ends = [1e-12, 1.0 - 1e-12]
    edges = [
        e for x in (math.exp(-2), 1.0 - math.exp(-2))
        for e in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))
    ]
    u = np.exp(np.random.default_rng(20).uniform(math.log(1e-12), math.log(0.5), 10**5))
    y = np.concatenate([
        *(
            np.clip(nodal._scrambled_halton(dim, 500, seed), 1e-12, 1.0 - 1e-12).ravel()
            for dim in range(1, 13)
            for seed in (0, 7, 2**32 - 1)
        ),
        ends,
        edges,
        u,
        1.0 - u,
    ])
    expected = ndtri(y)
    points = np.array([nodal._ndtri(x) for x in y.tolist()])
    mismatched = y[points.view(np.int64) != expected.view(np.int64)]
    assert points.tobytes() == expected.tobytes(), (len(mismatched), mismatched[:5])


def test_sweep_points_are_unchanged():
    # The points as drawn when scipy.stats was imported with the package.
    from scipy.special import ndtri
    from scipy.stats import qmc

    u = qmc.Halton(d=3, scramble=True, seed=7).random(3)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    expected = z / np.linalg.norm(z, axis=1)[:, None]
    result = sweep_eigenspace(group_at(11), 3, 16, seed=7)
    assert [s.coeffs for s in result.samples] == [tuple(row) for row in expected]
