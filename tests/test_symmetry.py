import pytest

from cubenodal import (
    CUBE,
    bounds,
    cli,
    spectrum,
    symmetry,
    BoxSpec,
    ModeTriple,
    Parity,
    eigenspace_parity,
    enumerate_groups,
    group_parity,
    symmetric_index,
    symmetric_indices,
    symmetry_excludes,
)
from helpers import brute_force_modes_upto


def test_parity_of_modes():
    assert eigenspace_parity(ModeTriple(1, 1, 1)) is Parity.EVEN
    assert eigenspace_parity(ModeTriple(1, 2, 2)) is Parity.EVEN
    assert eigenspace_parity(ModeTriple(1, 2, 3)) is Parity.ODD


def test_groups_have_uniform_parity_matching_value():
    for group in enumerate_groups(CUBE, 200):
        parities = {eigenspace_parity(m) for m in group.modes}
        assert len(parities) == 1
        expected = Parity.EVEN if int(group.value) % 2 == 1 else Parity.ODD
        assert parities == {expected}


def test_symmetric_index_examples():
    si = symmetric_index(CUBE, 9, Parity.EVEN)
    assert (si.j, si.bound) == (2, 4)
    si = symmetric_index(CUBE, 14, Parity.ODD)
    assert (si.j, si.bound) == (5, 10)
    si = symmetric_index(CUBE, 3, Parity.EVEN)
    assert (si.j, si.bound) == (1, 2)


def test_symmetric_index_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_index(CUBE, 10, Parity.EVEN)  # not an eigenvalue
    with pytest.raises(ValueError):
        symmetric_index(CUBE, 9, Parity.ODD)  # parity mismatch


def test_symmetry_exclusions():
    groups = {g.value: g for g in enumerate_groups(CUBE, 48)}
    assert symmetry_excludes(CUBE, groups[9])     # bound 4 < k_min 5
    assert symmetry_excludes(CUBE, groups[14])    # bound 10 < k_min 12
    assert not symmetry_excludes(CUBE, groups[6])  # bound 2 = k_min 2


def test_group_parity_rejects_mixed_group():
    # On box 1,1,2 eigenvalue 10 holds odd (1,1,2) and even (2,2,1).
    box = BoxSpec(1, 1, 2)
    group = next(g for g in enumerate_groups(box, 10) if g.value == 10)
    assert {eigenspace_parity(m) for m in group.modes} == {Parity.EVEN, Parity.ODD}
    with pytest.raises(ValueError):
        group_parity(group)
    with pytest.raises(ValueError):
        symmetry_excludes(box, group)
    # Above it, the even modes (1,1,1) and (2,2,1) lie below eigenvalue 12.
    assert symmetric_index(box, 12, Parity.EVEN).j == 3


def test_parity_subspace_indices_tile_the_index_line():
    groups = enumerate_groups(CUBE, 200)
    for group in groups:
        below = [g for g in groups if g.value < group.value]
        even = sum(g.multiplicity for g in below if group_parity(g) is Parity.EVEN)
        odd = sum(g.multiplicity for g in below if group_parity(g) is Parity.ODD)
        assert even + odd == group.k_min - 1


def test_symmetric_index_consistent_with_subspace_count():
    for group in enumerate_groups(CUBE, 100):
        parity = group_parity(group)
        si = symmetric_index(CUBE, group.value, parity)
        assert si.bound == 2 * si.j
        assert si.group == group


def test_build_screen_enumerates_the_spectrum_once(monkeypatch):
    calls = []

    def counted(box, lambda_max):
        calls.append(lambda_max)
        return spectrum.enumerate_groups(box, lambda_max)

    for module in (cli, bounds, symmetry):
        monkeypatch.setattr(module, "enumerate_groups", counted)
    screen = cli.build_screen(CUBE, 300)
    assert calls == [300]

    modes = brute_force_modes_upto(300)
    values = sorted({l * l + m * m + n * n for l, m, n in modes})
    assert [rec["value"] for rec in screen["records"]] == values
    for rec in screen["records"]:
        value = rec["value"]
        # A mode is even under the antipodal map iff l+m+n is odd.
        even = value % 2 == 1
        lower = [(l, m, n) for l, m, n in modes if l * l + m * m + n * n < value]
        below = sum((l + m + n) % 2 == even for l, m, n in lower)
        assert rec["k_min"] == len(lower) + 1
        assert rec["parity"] == ("even" if even else "odd")
        assert (rec["j"], rec["bound"]) == (below + 1, 2 * below + 2)
        assert rec["symmetry_excluded"] == (rec["bound"] < rec["k_min"])


def test_symmetric_indices_skip_mixed_groups_but_count_their_modes():
    box = BoxSpec(1, 1, 2)
    indices = symmetric_indices(enumerate_groups(box, 12))
    assert 10 not in indices
    assert (indices[12].parity, indices[12].j) == (Parity.EVEN, 3)
    assert indices[12] == symmetric_index(box, 12, Parity.EVEN)
