import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubenodal import (
    CUBE,
    BoxSpec,
    ModeTriple,
    counting_function,
    enumerate_groups,
    product_nodal_count,
)
from cubenodal.spectrum import _axis_limit
from helpers import EIGENVALUE_TABLE, brute_force_count_below


def test_mode_triple_validates():
    with pytest.raises(ValueError):
        ModeTriple(0, 1, 1)
    with pytest.raises(ValueError):
        ModeTriple(1, -2, 1)
    assert ModeTriple(1, 2, 3).cube_eigenvalue == 14


def test_box_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        BoxSpec(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoxSpec(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        BoxSpec(1.0, 1.0, math.inf)


def test_ground_state_group():
    groups = enumerate_groups(CUBE, 3)
    assert len(groups) == 1
    (g,) = groups
    assert g.value == 3
    assert g.modes == (ModeTriple(1, 1, 1),)
    assert (g.k_min, g.k_max, g.multiplicity) == (1, 1, 1)


def test_group_at_14_is_all_six_permutations():
    last = enumerate_groups(CUBE, 14)[-1]
    assert last.value == 14
    assert (last.k_min, last.k_max) == (12, 17)
    expected = {(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}
    assert {m.as_tuple() for m in last.modes} == expected
    assert [m.as_tuple() for m in last.modes] == sorted(expected)


def test_group_at_27_mixes_two_families():
    group = next(g for g in enumerate_groups(CUBE, 27) if g.value == 27)
    assert group.multiplicity == 4
    assert (group.k_min, group.k_max) == (45, 48)
    assert group.representatives() == ((1, 1, 5), (3, 3, 3))


def test_final_group_at_48():
    last = enumerate_groups(CUBE, 48)[-1]
    assert last.value == 48
    assert last.modes == (ModeTriple(4, 4, 4),)
    assert (last.k_min, last.k_max) == (121, 121)


def test_full_table_matches_published_values():
    groups = enumerate_groups(CUBE, 48)
    assert len(groups) == len(EIGENVALUE_TABLE)
    for group, (k_min, k_max, value, reps) in zip(groups, EIGENVALUE_TABLE):
        assert group.value == value
        assert (group.k_min, group.k_max) == (k_min, k_max)
        assert group.representatives() == tuple(reps)


def test_index_ranges_tile_the_index_line():
    groups = enumerate_groups(CUBE, 48)
    indices = []
    for g in groups:
        indices.extend(range(g.k_min, g.k_max + 1))
    assert indices == list(range(1, 122))


def test_counting_function_examples():
    for lam in (-5, 0, 2.5, 3):
        assert counting_function(lam) == 0
    assert counting_function(6) == 1
    assert counting_function(48) == 120


def test_counting_function_matches_brute_force_oracle():
    lams = [x / 2 for x in range(6, 401)]  # 3.0 .. 200.0 in half-integer steps
    for lam in lams:
        assert counting_function(lam) == brute_force_count_below(lam)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=3.0, max_value=200.0, allow_nan=False))
def test_counting_function_oracle_property(lam):
    assert counting_function(lam) == brute_force_count_below(lam)


def dense_counting_function(box, lam):
    """The former numpy counting function: a dense (m, n) comparison per l."""
    a, b, g = box.alpha, box.beta, box.gamma
    if lam <= a + b + g:
        return 0
    mv = b * np.arange(1, _axis_limit(b, a + g, lam) + 1, dtype=float) ** 2
    nv = g * np.arange(1, _axis_limit(g, a + b, lam) + 1, dtype=float) ** 2
    return sum(
        int(((a * l * l + mv[:, None]) + nv[None, :] < lam).sum())
        for l in range(1, _axis_limit(a, b + g, lam) + 1)
    )


def test_counting_function_matches_the_dense_formula():
    # Bit for bit, also at lambdas that are eigenvalues (the bound is open)
    # and at the floats next to them.
    values = [g.value for g in enumerate_groups(CUBE, 120)]
    values += [g.value for g in enumerate_groups(CUBE, 2000)[-5:]]
    lams = [3.0, 5.5, 77.25, 1234.5]
    for value in values:
        lams += [value, math.nextafter(value, 0.0), math.nextafter(value, math.inf)]
    for lam in lams:
        assert counting_function(lam) == dense_counting_function(CUBE, lam), lam


def test_weyl_normalization_stays_in_band():
    # N(lam) <= (pi/6) lam^{3/2} with ratio above 1/2 on [50, 500].
    for lam in range(50, 501):
        ratio = counting_function(lam) / (math.pi / 6 * lam**1.5)
        assert 0.5 < ratio < 1.0, (lam, ratio)


def test_irrational_box_has_simple_eigenvalues():
    box = BoxSpec(1.0, math.sqrt(2), math.pi / 3)
    groups = enumerate_groups(box, 60.0)
    assert groups, "expected some eigenvalues"
    assert all(g.multiplicity == 1 for g in groups)
    values = [g.value for g in groups]
    assert values == sorted(values)


def test_enumerate_rejects_non_finite_bound():
    with pytest.raises(ValueError):
        enumerate_groups(CUBE, math.inf)


def test_product_nodal_count():
    assert product_nodal_count(ModeTriple(1, 1, 1)) == 1
    assert product_nodal_count(ModeTriple(1, 1, 2)) == 2
    assert product_nodal_count(ModeTriple(2, 3, 4)) == 24
