import math

import pytest

from cubenodal import (
    CUBE,
    FABER_KRAHN_RATIO,
    ScreeningRecord,
    counting_function,
    enumerate_groups,
    lattice_lower_bound,
    pleijel_cutoff,
    screen_candidates,
)
from cubenodal.bounds import _cutoff_poly
from helpers import brute_force_count_below, non_eigenvalue_samples


def test_faber_krahn_examples():
    by_value = {r.group.value: r for r in screen_candidates(17)}
    assert by_value[3].fk_pass              # 5.196 >= 4.189 at k = 1
    assert by_value[14].fk_pass             # 4.365 >= 4.189 at k = 12
    assert not by_value[17].fk_pass         # 3.894 <  4.189 at k = 18
    assert by_value[14].ratio == pytest.approx(4.3652, abs=1e-4)
    assert by_value[17].ratio == pytest.approx(3.8940, abs=1e-4)
    # The test is closed: a ratio of exactly 4 pi / 3 survives.
    group = by_value[3].group
    assert ScreeningRecord(group, FABER_KRAHN_RATIO).fk_pass
    assert not ScreeningRecord(group, math.nextafter(FABER_KRAHN_RATIO, 0.0)).fk_pass


def test_lattice_lower_bound_closed_form():
    expected = math.pi / 6 * 3**1.5 - 9 * math.pi / 4 + 3 - 1
    assert lattice_lower_bound(3) == pytest.approx(expected)
    assert lattice_lower_bound(3) == pytest.approx(-2.3479, abs=1e-4)


def test_lattice_lower_bound_domain():
    with pytest.raises(ValueError):
        lattice_lower_bound(2.999)


def test_lattice_lower_bound_below_counting_function():
    expected = math.pi / 6 * 11**1.5 - 3 * math.pi / 4 * 11 + 3 * math.sqrt(9) - 1
    assert lattice_lower_bound(11) == pytest.approx(expected)
    assert lattice_lower_bound(11) == pytest.approx(1.1842, abs=1e-3)
    assert brute_force_count_below(11) == 7
    assert 7 > lattice_lower_bound(11)
    assert brute_force_count_below(100) > lattice_lower_bound(100)


def test_lattice_lower_bound_strict_on_non_eigenvalues():
    violations = [
        lam
        for lam in non_eigenvalue_samples(200)
        if not brute_force_count_below(lam) > lattice_lower_bound(lam)
    ]
    assert violations == []


def test_lattice_lower_bound_strict_at_eigenvalues():
    values = sorted({g.value for g in enumerate_groups(CUBE, 200)})
    for lam in values:
        n = brute_force_count_below(lam)
        bound = lattice_lower_bound(lam)
        assert n > bound, (lam, n, bound)
        assert n >= math.ceil(bound)


def test_pleijel_cutoff_constants():
    mu, cutoff = pleijel_cutoff()
    assert mu == pytest.approx(6.97836, abs=1e-4)
    assert cutoff == pytest.approx(48.7, abs=0.05)
    assert cutoff == mu * mu


def test_cutoff_polynomial_brackets_root():
    assert _cutoff_poly(6.0) > 0
    assert _cutoff_poly(8.0) < 0
    mu, _ = pleijel_cutoff()
    assert abs(_cutoff_poly(mu)) < 1e-9


def test_cutoff_polynomial_follows_from_the_bounds():
    # A sharp k = N(lambda) + 1 must satisfy Faber-Krahn, k <= (3/(4 pi)) mu^3
    # with mu^2 = lambda, so the gap below is positive.  Where the screening
    # cubic is negative the gap must be too: the cubic minus the gap is
    # 3 sqrt(mu^2 - 2) - 3 mu + 3, which is >= 0 for mu >= 1.5.
    for i in range(2001):
        lam = 3 + i * (400 - 3) / 2000  # mu over [sqrt(3), 20]
        mu = math.sqrt(lam)
        gap = (3 / (4 * math.pi)) * mu**3 - lattice_lower_bound(lam) - 1
        diff = _cutoff_poly(mu) - gap
        assert diff >= 0, mu
        assert diff == pytest.approx(3 * math.sqrt(mu * mu - 2) - 3 * mu + 3, abs=1e-9)


def test_screen_candidates_on_the_cube():
    records = screen_candidates(48)
    assert [r.group.k_min for r in records if r.fk_pass] == [1, 2, 5, 8, 12]
    by_value = {r.group.value: r for r in records}
    assert not by_value[12].fk_pass        # 12^{3/2}/11 ~ 3.78
    assert by_value[6].fk_pass             # 6^{3/2}/2 ~ 7.35
    assert by_value[6].ratio == pytest.approx(7.3485, abs=1e-4)


def test_screening_is_a_stable_prefix():
    short = screen_candidates(48)
    long = screen_candidates(60)
    assert long[: len(short)] == short


def test_screening_complete_above_cutoff():
    # Past the cutoff, no group can pass the threshold at its first index.
    _, cutoff = pleijel_cutoff()
    for rec in screen_candidates(500):
        if rec.group.value > cutoff:
            assert not rec.fk_pass, rec.group.value


def test_candidate_equals_fk_pass():
    for rec in screen_candidates(100):
        assert rec.fk_pass == (rec.ratio >= FABER_KRAHN_RATIO)
        assert rec.ratio > 0


def test_counting_function_vs_library_consistency():
    # The library counting function and the direct loop describe one object.
    for lam in (3.5, 11, 48, 123.25, 200):
        assert counting_function(lam) == brute_force_count_below(lam)
