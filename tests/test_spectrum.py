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
from helpers import EIGENVALUE_TABLE, brute_force_count_below, brute_force_modes_upto


def test_mode_triple_validates():
    with pytest.raises(ValueError):
        ModeTriple(0, 1, 1)
    with pytest.raises(ValueError):
        ModeTriple(1, -2, 1)
    assert CUBE.eigenvalue(ModeTriple(1, 2, 3)) == 14


@pytest.mark.parametrize("axis", range(3))
def test_mode_triple_checks_every_input_that_is_not_a_positive_int(axis):
    def triple(value):
        args = [1, 1, 1]
        args[axis] = value
        return ModeTriple(*args)

    for value in (True, np.int64(2)):
        stored = triple(value).as_tuple()[axis]
        assert stored == value and type(stored) is int
    with pytest.raises(TypeError):
        triple(2.0)
    for value in (0, -1, np.int64(0)):
        with pytest.raises(ValueError):
            triple(value)


def test_mode_triples_compare_and_hash_as_their_tuples():
    triples = [(l, m, n) for l in (1, 2) for m in (1, 3) for n in (2, 1)]
    modes = [ModeTriple(*t) for t in triples]
    assert ModeTriple(np.int64(2), 1, True) == ModeTriple(2, 1, 1)
    assert hash(ModeTriple(np.int64(2), 1, True)) == hash(ModeTriple(2, 1, 1))
    assert len(set(modes + [ModeTriple(*t) for t in triples])) == len(triples)
    assert [m.as_tuple() for m in sorted(modes)] == sorted(triples)
    for a, b in zip(modes, modes[1:]):
        assert (a < b, a <= b, a == b) == (a.as_tuple() < b.as_tuple(), a.as_tuple() <= b.as_tuple(), False)


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
    top = math.isqrt(int(lam / min(a, b, g))) + 1  # every index of a mode below lam
    mv = b * np.arange(1, top + 1, dtype=float) ** 2
    nv = g * np.arange(1, top + 1, dtype=float) ** 2
    return sum(
        int(((a * l * l + mv[:, None]) + nv[None, :] < lam).sum()) for l in range(1, top + 1)
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


def brute_force_groups(box, lam_max):
    """(value, modes in lexicographic order, k_min) of every eigenvalue up to
    lam_max, grouping the brute-force modes by their exact eigenvalue."""
    by_value = {}
    for mode in sorted(brute_force_modes_upto(lam_max, box)):
        by_value.setdefault(box.eigenvalue(ModeTriple(*mode)), []).append(mode)
    groups, k = [], 1
    for value in sorted(by_value):
        groups.append((value, by_value[value], k))
        k += len(by_value[value])
    return groups


@pytest.mark.parametrize(
    "box, lam_max",
    [(CUBE, 300), (BoxSpec(1, 1, 2), 60), (BoxSpec(1, 1.4142135623, 2.2360679774), 60)],
    ids=["cube", "box-1-1-2", "box-irrational"],
)
def test_enumerate_groups_matches_a_brute_force_grouping(box, lam_max):
    groups = enumerate_groups(box, lam_max)
    modes = [m.as_tuple() for g in groups for m in g.modes]
    assert sorted(modes) == sorted(brute_force_modes_upto(lam_max, box))
    assert len(set(modes)) == len(modes)
    assert [(g.value, [m.as_tuple() for m in g.modes], g.k_min) for g in groups] == (
        brute_force_groups(box, lam_max)
    )
    assert [g.k_min for g in groups[1:]] == [g.k_max + 1 for g in groups[:-1]]
    assert (groups[0].k_min, groups[-1].k_max) == (1, len(modes))


@pytest.mark.parametrize(
    "box",
    [BoxSpec(1, 1.4142135623, 2.2360679774), BoxSpec(0.7, 1.3, 2.9)],
    ids=["box-irrational", "box-0.7-1.3-2.9"],
)
def test_enumerate_groups_ends_with_the_group_at_lambda_max(box):
    # The loops' last indices must round as the eigenvalue does: a limit
    # tested as weight*q*q + rest dropped 4 and 26 of these groups at their
    # own value (94 and 128 up to 400, which takes about 9 s to check).
    for group in enumerate_groups(box, 150):
        assert enumerate_groups(box, group.value)[-1] == group, group.value


def test_enumerate_rejects_non_finite_bound():
    with pytest.raises(ValueError):
        enumerate_groups(CUBE, math.inf)


def test_product_nodal_count():
    assert product_nodal_count(ModeTriple(1, 1, 1)) == 1
    assert product_nodal_count(ModeTriple(1, 1, 2)) == 2
    assert product_nodal_count(ModeTriple(2, 3, 4)) == 24
