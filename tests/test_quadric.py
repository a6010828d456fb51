import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubenodal import (
    SUBCASES,
    boundary_distance,
    cli,
    predict_components,
    reduce_to_quadric,
)


def sine_combo(a, b, c, x, y, z):
    return (
        a * np.sin(x) * np.sin(y) * np.sin(3 * z)
        + b * np.sin(y) * np.sin(z) * np.sin(3 * x)
        + c * np.sin(z) * np.sin(x) * np.sin(3 * y)
    )


def quadric_form(q, u, v, w):
    return 4 * (q.A * u**2 + q.B * v**2 + q.C * w**2) - (q.A + q.B + q.C)


def test_reduction_permutation_rule():
    q = reduce_to_quadric(1.0, 1.0, 1.0)
    assert (q.A, q.B, q.C) == (1.0, 1.0, 1.0)
    q = reduce_to_quadric(1.0, 0.0, 0.0)
    assert (q.A, q.B, q.C) == (0.0, 0.0, 1.0)
    q = reduce_to_quadric(0.2, 0.9, -0.1)
    assert (q.A, q.B, q.C) == (0.9, -0.1, 0.2)


def test_reduction_rejects_zero_vector():
    with pytest.raises(ValueError):
        reduce_to_quadric(0.0, 0.0, 0.0)


def test_reduction_identity_pointwise():
    rng = np.random.default_rng(20240311)
    pts = rng.uniform(1e-3, math.pi - 1e-3, size=(1000, 3))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    sines = np.sin(x) * np.sin(y) * np.sin(z)
    for _ in range(100):
        abc = rng.normal(size=3)
        abc /= np.linalg.norm(abc)
        a, b, c = abc
        q = reduce_to_quadric(a, b, c)
        lhs = sine_combo(a, b, c, x, y, z)
        rhs = sines * quadric_form(q, np.cos(x), np.cos(y), np.cos(z))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_reduction_identity_at_center():
    # At (pi/2, pi/2, pi/2) each term is -coefficient and u=v=w=0.
    a, b, c = 1.0, 1.0, 1.0
    q = reduce_to_quadric(a, b, c)
    assert sine_combo(a, b, c, math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(-3.0)
    assert quadric_form(q, 0.0, 0.0, 0.0) == pytest.approx(-3.0)


@pytest.mark.parametrize(
    "abc,expected",
    [
        ((0.3, 0.3, 0.4), "ellipsoid interior"),
        ((0.2, 0.2, -0.4), "cone"),
        ((0.8, 0.8, -2.6), "two-sheet"),
        ((0.2, 0.9, -0.1), "one-sheet a<=1/4"),
        ((1.0, 1.0, 0.0), "cylinder ellipse interior"),
        ((0.0, 1.5, -0.5), "cylinder hyperbola"),
        ((1.0, -1.0, 0.0), "crossed planes"),
        ((1.0, 0.0, 0.0), "double planes"),
        # A*B*C underflows to -0.0; the sign comes from the one negative term.
        ((0.5, 0.5, -5e-324), "one-sheet a>1/4"),
    ],
)
def test_classify(abc, expected):
    assert predict_components(reduce_to_quadric(*abc)).name == expected


@pytest.mark.parametrize(
    "abc,count",
    [
        ((1.0, 1.0, 0.0), 2),
        ((1.0, -1.0, 0.0), 4),
        ((1.0, 0.0, 0.0), 3),
        ((0.0, 1.5, -0.5), 3),
        ((0.2, 0.2, -0.4), 3),
        ((0.3, 0.3, 0.4), 2),
        ((0.2, 0.2, 0.6), 2),
        ((0.1, 0.1, 0.8), 3),
        ((0.2, 0.9, -0.1), 3),
        ((0.5, 0.6, -0.1), 2),
        ((0.5, 0.8, -0.3), 2),
        ((0.8, 0.8, -0.6), 2),
        ((0.8, 0.8, -2.6), 3),
        ((0.5, 0.5, -5e-324), 2),
        # The product of the nonzero pair underflows: (0, 1, 1) and (1, -1, 0) scaled.
        ((0.0, 1e-170, 1e-170), 2),
        ((1e-170, -1e-170, 0.0), 4),
    ],
)
def test_predicted_counts(abc, count):
    assert predict_components(reduce_to_quadric(*abc)).count == count


def test_ellipsoid_edge_cut_details():
    pred = predict_components(reduce_to_quadric(0.1, 0.1, 0.8))
    assert pred.count == 3
    assert pred.name == "ellipsoid edge-cut"


def test_ellipsoid_boundary_uses_closed_subcase():
    # a+b exactly 1/4: tangent to the edges, reported as edge-cut.
    pred = predict_components(reduce_to_quadric(0.125, 0.125, 0.75))
    assert pred.count == 3
    assert pred.name == "ellipsoid edge-cut"


def test_counts_always_in_2_3_4():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b, c = rng.normal(size=3)
        if a == 0 and b == 0 and c == 0:
            continue
        assert predict_components(reduce_to_quadric(a, b, c)).count in {2, 3, 4}


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    ).filter(lambda t: max(abs(v) for v in t) > 1e-2),
    st.one_of(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-100, max_value=-0.01),
    ),
)
@example((1.54e-303, 1.0, -2.24e-26), -42.0)  # unscaled A*B*C underflows to -0.0
@example((1.0, -3.0, -5e-324), -1.5)  # the subnormal A/s underflows to 0
@example((0.0, 1.0, 2.9999999999999996), 2.5)  # small / (|P|+|Q|) rounds to 1/4
@example((0.0, 1.0, 1.0), 1e-170)  # the scaled pair's product underflows to 0
def test_scale_and_sign_invariance(abc, t):
    a, b, c = abc
    base = predict_components(reduce_to_quadric(a, b, c))
    scaled = predict_components(reduce_to_quadric(t * a, t * b, t * c))
    # Guard against float sign flips of a+b+c under scaling near the cone,
    # and against a subnormal coefficient that underflows to 0 when scaled.
    s, st_ = math.fsum(abc), math.fsum((t * a, t * b, t * c))
    if (s == 0) != (st_ == 0):
        return
    if any((v == 0) != (t * v == 0) for v in abc):
        return
    assert scaled.count == base.count
    assert scaled.name == base.name


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    ).filter(lambda t: max(abs(v) for v in t) > 1e-2),
    st.permutations([0, 1, 2]),
)
@example((2.0, -2.0, 1.4e-98), [2, 1, 0])  # -2 + 1.4e-98 + 2 rounds to a cone
def test_permutation_leaves_count_invariant(abc, perm):
    permuted = tuple(abc[i] for i in perm)
    assert (
        predict_components(reduce_to_quadric(*permuted)).count
        == predict_components(reduce_to_quadric(*abc)).count
    )


def test_boundary_distance_zero_on_boundaries():
    assert boundary_distance(1.0, 1.0, 0.0) == 0.0            # vanishing coefficient
    assert boundary_distance(0.2, 0.2, -0.4) == 0.0           # cone plane
    assert boundary_distance(0.125, 0.125, 0.75) == pytest.approx(0.0)  # a+b = 1/4
    assert boundary_distance(0.25, 0.9, -0.15) == pytest.approx(0.0)    # a = 1/4


def test_boundary_distance_positive_inside_subcases():
    for abc in [(0.3, 0.3, 0.4), (0.5, 0.6, -0.1), (0.8, 0.8, -2.6)]:
        assert boundary_distance(*abc) > 1e-2


def test_boundary_distance_scale_invariant():
    for abc in [(0.3, 0.3, 0.4), (0.5, 0.6, -0.1), (1.0, -2.0, 0.7)]:
        d1 = boundary_distance(*abc)
        for scale in (4.0, 1e-200, 1e200):  # the squares under- and overflow at the extremes
            d2 = boundary_distance(*(scale * v for v in abc))
            assert d1 == pytest.approx(d2), scale


def test_subcase_table_representatives():
    # Six subcases have a vanishing coefficient or lie on the cone plane, so
    # they are boundaries themselves; sweeps check the other five.
    degenerate = 0
    for name, entry in SUBCASES.items():
        abc = entry.representative
        assert entry.name == name
        assert predict_components(reduce_to_quadric(*abc)) is entry
        if 0.0 in abc or math.fsum(abc) == 0.0:
            degenerate += 1
            assert boundary_distance(*abc) == 0.0, name
        else:
            assert boundary_distance(*abc) > cli.BOUNDARY_SKIP_RADIUS, name
    assert (len(SUBCASES), degenerate) == (11, 6)
