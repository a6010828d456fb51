"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The eigenspace sweep
(criterion 7) dominates the runtime at about half a minute; everything else
is seconds.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from cubenodal import (
    CUBE,
    EigenCombo,
    ModeTriple,
    Parity,
    SUBCASES,
    cli,
    count_nodal_domains,
    enumerate_groups,
    lattice_lower_bound,
    pleijel_cutoff,
    product_nodal_count,
    screen_candidates,
    symmetric_index,
    symmetry_excludes,
    sweep_eigenspace,
)
from helpers import (
    EIGENVALUE_TABLE,
    brute_force_count_below,
    brute_force_modes_upto,
    group_at,
    lambda11_combo,
    non_eigenvalue_samples,
)


def report(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


def test_criterion_01_table_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["table", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    groups = json.loads(out)["groups"]
    assert len(groups) == len(EIGENVALUE_TABLE)
    for got, (k_min, k_max, value, reps) in zip(groups, EIGENVALUE_TABLE):
        assert got["value"] == value
        assert (got["k_min"], got["k_max"]) == (k_min, k_max)
        assert [tuple(r) for r in got["representatives"]] == list(reps)
    by_value = {g["value"]: g for g in groups}
    assert by_value[38]["multiplicity"] == 9
    assert by_value[41]["multiplicity"] == 9
    assert groups[0]["value"] == 3 and groups[-1]["value"] == 48
    assert groups[-1]["k_min"] == groups[-1]["k_max"] == 121
    assert elapsed < 1.0
    report(1, f"table matches the published rows ({len(groups)} eigenvalues, "
              f"indices 1..121) in {elapsed:.3f}s")


def test_criterion_02_screening_candidates():
    records = screen_candidates(48)
    candidates = [r.group.k_min for r in records if r.fk_pass]
    assert candidates == [1, 2, 5, 8, 12]
    report(2, f"screening candidates are exactly k = {candidates}")


def test_criterion_03_cutoff_constants():
    mu, cutoff = pleijel_cutoff()
    assert mu == pytest.approx(6.97836, abs=1e-4)
    assert cutoff == pytest.approx(48.7, abs=0.05)
    report(3, f"mu root = {mu:.6f}, lambda cutoff = {cutoff:.4f}")


def test_criterion_04_lattice_bound_verification():
    start = time.perf_counter()
    samples = non_eigenvalue_samples(200, 3.0, 200.0)
    violations = [
        lam
        for lam in samples
        if not brute_force_count_below(lam) > lattice_lower_bound(lam)
    ]
    elapsed = time.perf_counter() - start
    assert violations == []
    assert elapsed < 1.0
    report(4, f"N(lambda) > closed-form bound at all 200 samples in {elapsed:.3f}s")


def test_criterion_05_symmetry_exclusions():
    si9 = symmetric_index(CUBE, 9, Parity.EVEN)
    assert (si9.parity, si9.j, si9.bound) == (Parity.EVEN, 2, 4)
    si14 = symmetric_index(CUBE, 14, Parity.ODD)
    assert (si14.parity, si14.j, si14.bound) == (Parity.ODD, 5, 10)
    assert symmetry_excludes(CUBE, group_at(9))
    assert symmetry_excludes(CUBE, group_at(14))
    report(5, "lambda=9 -> (even, j=2, bound 4) and lambda=14 -> (odd, j=5, "
              "bound 10), both excluded")


# One representative of each of the quadric predictor's 11 subcases, and three
# more ellipsoid and one-sheet positions.
FIGURE_CASES = [(s.representative, s.count) for s in SUBCASES.values()] + [
    ((0.2, 0.2, 0.6), 2),
    ((0.5, 0.8, -0.3), 2),
    ((0.8, 0.8, -0.6), 2),
]


def test_criterion_06_figure_case_counts():
    for abc, expected in FIGURE_CASES:
        start = time.perf_counter()
        count = count_nodal_domains(lambda11_combo(*abc), 128)
        elapsed = time.perf_counter() - start
        assert count.converged, abc
        assert count.resolution_used == 256, abc
        assert count.total == expected, (abc, count.total, expected)
        assert elapsed < 10.0, abc
    report(6, f"all {len(FIGURE_CASES)} reference cases converge at 128/256 to "
              "the published and predicted counts")


def test_criterion_07_lambda11_sweep():
    start = time.perf_counter()
    result = sweep_eigenspace(group_at(11), 500, 128, seed=0)
    elapsed = time.perf_counter() - start
    histogram = result.histogram
    assert set(histogram) <= {2, 3, 4}
    assert sum(histogram.values()) == 500
    assert result.non_converged == ()
    mismatches = [
        r["index"]
        for r in cli.sweep_evidence(result)["records"]
        if r["boundary_distance"] > cli.BOUNDARY_SKIP_RADIUS and r["predicted"] != r["total"]
    ]
    assert mismatches == []
    # Every sample's count, pinned: any drift in the counting kernel fails here.
    records = [
        (s.index, s.count.positive_components, s.count.negative_components,
         s.count.zero_samples, s.count.resolution_used, s.count.converged)
        for s in result.samples
    ]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "36cf216cb554e4839c18df109dbc599890c9c83038959821bd8b3473842e02cc"
    assert elapsed < 600.0
    report(7, f"500-sample sweep histogram {histogram}, predictor agreement "
              f"100% away from subcase boundaries, {elapsed:.0f}s")


def test_criterion_08_product_mode_oracle():
    start = time.perf_counter()
    triples = brute_force_modes_upto(27)
    for l, m, n in triples:
        mode = ModeTriple(l, m, n)
        group = group_at(CUBE.eigenvalue(mode))
        coeffs = tuple(1.0 if g == mode else 0.0 for g in group.modes)
        count = count_nodal_domains(EigenCombo(group, coeffs), 32)
        assert count.total == product_nodal_count(mode), (l, m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, f"grid count equals l*m*n for all {len(triples)} modes with "
              f"eigenvalue <= 27 in {elapsed:.1f}s")


def test_criterion_09_courant_bound_suite():
    rng = np.random.default_rng(20240521)
    checked = 0
    for group in enumerate_groups(CUBE, 27):
        for _ in range(50):
            coeffs = rng.normal(size=group.multiplicity)
            coeffs /= np.linalg.norm(coeffs)
            count = count_nodal_domains(EigenCombo(group, tuple(coeffs)), 32)
            assert count.total <= group.k_max, (group.value, coeffs)
            checked += 1
    report(9, f"nodal count <= k_max for {checked} random combinations over "
              "all groups up to eigenvalue 27")


def test_criterion_10_end_to_end_verdict(capsys):
    code = cli.main(["verdict", "--samples", "120", "--seed", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    sharp = {(e["k"], e["value"]) for e in data["sharp"]}
    assert sharp == {(1, 3), (2, 6)}
    assert data["courant_sharp"] == [1, 2]
    assert data["unresolved"] == []
    assert data["warnings"] == []
    report(10, "verdict: Courant sharp exactly k=1 (lambda=3) and k=2 "
               "(lambda=6), exit code 0")
