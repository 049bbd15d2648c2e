import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chgeom import bending as bd
from chgeom import core
from chgeom import groups as gr
from chgeom import heisenberg as hb
from chgeom import presets as ps
from chgeom.errors import (
    BorderlineClassError,
    DegenerateInputError,
    DimensionError,
    FormViolationError,
    InvalidPointError,
    PointClassError,
)

np.random.seed(0)


def rand_lift(rng, kind="negative"):
    # rejection sample a lift of the requested sign
    while True:
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = core.herm_inner(z, z).real
        if kind == "negative" and q < -1e-3:
            return z
        if kind == "positive" and q > 1e-3:
            return z


def rand_similarity(rng):
    xi = rng.normal(size=1) + 1j * rng.normal(size=1)
    return hb.HeisSimilarity(
        rotation=np.array([[np.exp(1j * rng.normal())]]),
        translation=hb.HeisPoint(xi, float(rng.normal())),
        dilation=float(np.exp(0.5 * rng.normal())),
    )


def test_herm_inner_examples():
    assert np.isclose(core.herm_inner([0, 0, 1], [0, 0, 1]), -1)
    assert np.isclose(core.herm_inner([1, 0, 0], [0, 1, 0]), 0)
    assert np.isclose(core.herm_inner([1, 1, 1], [1, 1, 1]), 1)


def test_herm_inner_length_mismatch():
    with pytest.raises(DimensionError):
        core.herm_inner([1, 0], [0, 1, 0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_herm_inner_conjugate_symmetric(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert abs(core.herm_inner(z, w) - np.conj(core.herm_inner(w, z))) < 1e-12


def test_point_class_examples():
    assert core.point_class(core.ProjectivePoint([0, 0, 1])) == "negative"
    assert core.point_class(core.ProjectivePoint([0, 0.5, 0.5])) == "null"
    assert core.point_class(core.ProjectivePoint([1, 0, 0])) == "positive"


def test_zero_lift_rejected():
    with pytest.raises(InvalidPointError):
        core.ProjectivePoint([0, 0, 0])


def test_lift_validation_single_and_stack():
    # a strided lift (every other entry of a buffer) is an ordinary vector
    buf = np.array([0, 9, 0, 9, 1, 9], dtype=complex)
    point = core.ProjectivePoint(buf[::2])
    assert point.projectively_equal(core.ProjectivePoint([0, 0, 1]))
    # a (k, n+1) stack is validated as one batch, as orbit lifts are
    lifts = core._checked_lifts(np.eye(3), ndim=2)
    assert lifts.dtype == complex and lifts.tolist() == np.eye(3).tolist()
    for bad in ([[0, 0, 0], [0, 0, 1]], [[np.nan, 0, 1]], [[1], [2]], [0, 0, 1]):
        with pytest.raises(InvalidPointError):
            core._checked_lifts(np.array(bad, dtype=complex), ndim=2)
    with pytest.raises(InvalidPointError):
        core.ProjectivePoint([np.inf, 0, 1])


def test_projective_equality_scaling():
    p = core.ProjectivePoint([1, 2 + 1j, 3])
    q = core.ProjectivePoint(np.array([1, 2 + 1j, 3]) * (0.3 - 2.1j))
    r = core.ProjectivePoint([1, 2 + 1j, 3.001])
    assert p.projectively_equal(q)
    assert not p.projectively_equal(r)


def test_projective_apply_examples():
    p = core.ProjectivePoint([0, 0, 1])
    ident = core.Isometry(np.eye(3, dtype=complex))
    assert core.projective_apply(ident, p).projectively_equal(p)

    u = core.Isometry(np.diag([np.exp(1j * 0.7), 1, 1]))
    assert core.projective_apply(u, p).projectively_equal(p)

    vert = hb.embed_translation(np.zeros(1), 1.0)
    origin = core.ProjectivePoint([0, 0.5, 0.5])
    got = core.projective_apply(vert, origin)
    want = core.ProjectivePoint([0, (1 + 1j) / 2, (1 - 1j) / 2])
    assert got.projectively_equal(want)


def test_projective_apply_rejects_non_isometry():
    with pytest.raises(FormViolationError):
        core.projective_apply(np.diag([2.0, 1.0, 1.0]), core.ProjectivePoint([0, 0, 1]))


def test_projective_apply_preserves_class():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = hb.embed_isometry(rand_similarity(rng))
        for kind in ("negative", "positive"):
            p = core.ProjectivePoint(rand_lift(rng, kind))
            assert core.point_class(core.projective_apply(m, p)) == kind


def test_isometry_form_check():
    with pytest.raises(FormViolationError):
        core.Isometry(np.diag([1.0, 1.0, 2.0]))


def test_isometry_det_normalized():
    m = core.Isometry(np.diag([np.exp(1j * 0.3), 1, 1]) * (2.0 + 1.0j) / abs(2.0 + 1.0j))
    assert np.isclose(abs(np.linalg.det(m.matrix)), 1.0, atol=1e-8)


def test_isometry_inverse_and_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = hb.embed_isometry(rand_similarity(rng))
        h = hb.embed_isometry(rand_similarity(rng))
        prod = g @ h
        assert core.form_defect(prod.matrix) < 1e-8
        back = prod @ (h.inverse() @ g.inverse())
        assert core.is_projective_identity(back.matrix)


def test_bergman_distance_zero_on_equal():
    p = core.ProjectivePoint([0, 0, 1])
    q = core.ProjectivePoint([0, 0, 2.0 + 0j])
    assert core.bergman_distance(p, p) == 0.0
    assert core.bergman_distance(p, q) == 0.0


def test_bergman_vertical_formula():
    base = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 1.0))
    for u in (0.2, 0.5, 2.0, 7.0):
        other = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, u))
        d = core.bergman_distance(base, other)
        want = 2 * np.arccosh(np.sqrt((1 + u) ** 2 / (4 * u)))
        assert abs(d - want) < 1e-10
    same = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 1.0))
    assert core.bergman_distance(base, same) < 1e-12


def test_bergman_horizontal_value():
    x = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 1.0))
    y = hb.horo_to_projective(hb.HoroPoint(np.array([1.0 + 0j]), 0.0, 1.0))
    assert abs(core.bergman_distance(x, y) - 2 * np.arccosh(1.5)) < 1e-12


def test_bergman_rejects_null_points():
    p = core.ProjectivePoint([0, 0.5, 0.5])
    q = core.ProjectivePoint([0, 0, 1])
    with pytest.raises(PointClassError):
        core.bergman_distance(p, q)


def test_bergman_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b, c = (core.ProjectivePoint(rand_lift(rng)) for _ in range(3))
        dab = core.bergman_distance(a, b)
        dbc = core.bergman_distance(b, c)
        dac = core.bergman_distance(a, c)
        assert dac <= dab + dbc + 1e-9


def test_bergman_isometry_invariance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = core.ProjectivePoint(rand_lift(rng))
        q = core.ProjectivePoint(rand_lift(rng))
        m = hb.embed_isometry(rand_similarity(rng))
        d0 = core.bergman_distance(p, q)
        d1 = core.bergman_distance(core.projective_apply(m, p), core.projective_apply(m, q))
        assert abs(d0 - d1) < 1e-10


def test_classify_examples():
    assert core.classify_isometry(hb.embed_translation(np.zeros(1), 1.0)) == "parabolic"
    assert core.classify_isometry(core.Isometry(np.diag([np.exp(1j * np.pi / 3), 1, 1]))) == "elliptic"
    assert core.classify_isometry(hb.embed_dilation(np.exp(0.5))) == "loxodromic"
    assert core.classify_isometry(core.Isometry(np.eye(3, dtype=complex))) == "identity"


def test_classify_horizontal_translation():
    assert core.classify_isometry(hb.embed_translation(np.array([1.0 + 0j]), 0.0)) == "parabolic"
    assert core.classify_isometry(hb.embed_translation(np.array([0.3 - 0.4j]), 2.0)) == "parabolic"


def test_classify_screw_parabolic():
    s = hb.HeisSimilarity(
        rotation=np.array([[np.exp(1j * np.pi / 5)]]),
        translation=hb.HeisPoint(np.zeros(1), 1.0),
    )
    assert core.classify_isometry(hb.embed_isometry(s)) == "parabolic"


def test_classify_conjugation_invariant():
    rng = np.random.default_rng(21)
    reps = {
        "parabolic": hb.embed_translation(np.array([1.0 + 0j]), 0.7),
        "loxodromic": hb.embed_dilation(np.exp(0.5)),
        "elliptic": core.Isometry(np.diag([np.exp(1j * np.pi / 3), 1, 1])),
    }
    for want, m in reps.items():
        for _ in range(25):
            g = hb.embed_isometry(rand_similarity(rng))
            assert core.classify_isometry(g @ m @ g.inverse()) == want
        assert core.classify_isometry(m.inverse()) == want


def test_borderline_raises():
    # modulus spread sits between the decision threshold and the noise floor
    m = hb.embed_rotation(np.array([[np.exp(1j * np.pi / 3)]])) @ hb.embed_dilation(np.exp(2e-9))
    with pytest.raises(BorderlineClassError):
        core.classify_isometry(m)


def test_fixed_points_vertical_translation():
    pts = core.boundary_fixed_points(hb.embed_translation(np.zeros(1), 1.0))
    assert len(pts) == 1
    assert pts[0].projectively_equal(core.ProjectivePoint([0, -1, 1]))


def test_fixed_points_dilation():
    pts = core.boundary_fixed_points(hb.embed_dilation(np.exp(0.5)))
    assert len(pts) == 2
    infinity = core.ProjectivePoint([0, -1, 1])
    origin = core.ProjectivePoint([0, 0.5, 0.5])
    assert any(p.projectively_equal(infinity) for p in pts)
    assert any(p.projectively_equal(origin) for p in pts)


@pytest.mark.parametrize("xi,v", [(1.0, 0.0), (0.3 + 0.2j, 0.7)])
def test_fixed_points_of_a_one_column_kernel(xi, v):
    # a translation with a horizontal part is one Jordan block: M - I has
    # rank 2 and its kernel, the lift of infinity, is a single column
    m = hb.embed_translation(xi, v)
    _, tag, kernel = core._classified(m)
    assert tag == "parabolic" and kernel.shape[1] == 1
    (point,) = core.boundary_fixed_points(m)
    assert point.projectively_equal(core.infinity_point())
    assert core.point_class(point) == "null"


@pytest.mark.parametrize("xi", [0.3 + 0.2j, 3.0 + 0.2j])
def test_fixed_points_conjugated_vertical_translation(xi):
    # a parabolic whose eigenspace is two-dimensional keeps its one point,
    # here far from the origin, inside and outside the unit Cygan sphere
    g = (hb.embed_translation(xi, 0.7) @ hb.embed_dilation(np.exp(6.0))
         @ hb.inversion_matrix())
    m = g @ hb.embed_translation(0.0, 1.0) @ g.inverse()
    assert core.classify_isometry(m) == "parabolic"
    pts = core.boundary_fixed_points(m)
    assert len(pts) == 1
    # m is within 1e-5 of the identity, so its point is good to about 1e-6
    want = core.projective_apply(g, core.infinity_point())
    assert core.projective_lift_gap(pts[0].lift, want.lift) <= 1.2e-6
    assert core.projective_apply(m, pts[0]).projectively_equal(pts[0], tol=1e-8)
    # its kernel is null to about 1e-6 only, which read as u = -1.37e-6
    # at xi = 0.3 + 0.2i; the point is moved onto the null cone
    assert core.point_class(pts[0]) == "null"
    assert hb.projective_to_horo(pts[0]).u >= 0.0


@pytest.mark.parametrize("xi", [30.0, 100.0])
def test_fixed_points_far_parabolic_keep_their_digits(xi):
    # outside the unit Cygan sphere the step onto the null cone goes along
    # the null line through the origin; the one through infinity lost two
    # digits here
    g = hb.embed_translation(xi + 0.2j, 0.7) @ hb.inversion_matrix()
    m = g @ hb.embed_translation(0.0, 1.0) @ g.inverse()
    (point,) = core.boundary_fixed_points(m)
    assert core.point_class(point) == "null"
    want = core.projective_apply(g, core.infinity_point())
    assert core.projective_lift_gap(point.lift, want.lift) <= 1e-15


def test_fixed_points_complex_reflection_in_a_point():
    # the eigenspace at the double root is definite: it misses the null cone
    m = core.Isometry(np.diag([np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 4), 1]))
    assert core.classify_isometry(m) == "elliptic"
    assert core.boundary_fixed_points(m) == []


def test_fixed_points_chain_rotation():
    # a complex reflection in a complex line fixes its chain's two endpoints
    pts = core.boundary_fixed_points(core.Isometry(np.diag([np.exp(1j * np.pi / 4), 1, 1])))
    assert len(pts) == 2
    infinity = core.ProjectivePoint([0, -1, 1])
    origin = core.ProjectivePoint([0, 0.5, 0.5])
    assert any(p.projectively_equal(infinity) for p in pts)
    assert any(p.projectively_equal(origin) for p in pts)


def test_fixed_points_are_fixed():
    rng = np.random.default_rng(33)
    for _ in range(30):
        g = hb.embed_isometry(rand_similarity(rng))
        m = g @ hb.embed_dilation(np.exp(0.5)) @ g.inverse()
        for p in core.boundary_fixed_points(m):
            assert core.projective_apply(m, p).projectively_equal(p, tol=1e-6)


def test_fixed_points_identity_rejected():
    with pytest.raises(DegenerateInputError):
        core.boundary_fixed_points(core.Isometry(np.eye(3, dtype=complex)))


def schottky_words(length):
    """Every reduced word of the given length in the Schottky generators,
    as its raw matrix product, with the word."""
    a, b = ps.group_preset("schottky").isometries
    letters = {"a": a.matrix, "b": b.matrix,
               "A": a.inverse().matrix, "B": b.inverse().matrix}
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    for word in itertools.product("abAB", repeat=length):
        if all(inverse[x] != y for x, y in zip(word, word[1:])):
            yield "".join(word), functools.reduce(np.matmul, (letters[x] for x in word))


def accepted_schottky_words(length):
    """The words whose product Isometry accepts, as (word, Isometry)."""
    out = []
    for word, mat in schottky_words(length):
        try:
            out.append((word, core.Isometry(mat)))
        except FormViolationError:
            pass  # det rounds to 0 on some words of length 4 and more
    return out


def assert_loxodromic_with_both_points_fixed(word, iso):
    assert core.classify_isometry(iso) == "loxodromic", word
    points = core.boundary_fixed_points(iso)
    assert len(points) == 2, word
    j = core.form_matrix(2)
    inverse = j @ iso.matrix.conj().T @ j
    for p in points:
        # w p rounds by eps |w|^2 relative where w contracts, at the
        # repelling point; there the exact inverse expands instead
        gap = min(core.projective_lift_gap(iso.matrix @ p.lift, p.lift),
                  core.projective_lift_gap(inverse @ p.lift, p.lift))
        assert gap <= 1e-6, word


@pytest.mark.parametrize("length,accepted", [(1, 4), (2, 12), (3, 36), (4, 101), (5, 309)])
def test_long_schottky_words_are_loxodromic_with_both_fixed_points(length, accepted):
    # runs under pyproject's error::RuntimeWarning, so no warning escapes
    words = accepted_schottky_words(length)
    assert len(words) == accepted
    for word, iso in words:
        assert_loxodromic_with_both_points_fixed(word, iso)


def test_schottky_words_of_length_6_keep_both_fixed_points_or_say_borderline():
    words = accepted_schottky_words(6)
    assert len(words) == 924
    for word, iso in words:
        try:
            assert_loxodromic_with_both_points_fixed(word, iso)
        except BorderlineClassError:
            # only where the condition k = s0 / s1 has rounded the
            # middle singular direction away: eps k above 0.1
            sv = np.linalg.svd(iso.matrix, compute_uv=False)
            assert sv[0] / sv[1] > 1e15, word


def test_raw_powers_classify_without_runtime_warnings():
    # the determinant of a raw power rounds to 0 from a^4 on; every power
    # either classifies as loxodromic or raises a typed error
    a = ps.group_preset("schottky").isometries[0].matrix
    for k in range(2, 12):
        try:
            assert core.classify_isometry(np.linalg.matrix_power(a, k)) == "loxodromic"
        except FormViolationError:
            assert k in (4, 6, 9, 10, 11)


def test_classification_needs_n_2():
    m = hb.embed_dilation(np.exp(0.5), n=3)
    for fn in (core.classify_isometry, core.boundary_fixed_points):
        with pytest.raises(DimensionError):
            fn(m)
    # the identity needs no trace, in any dimension
    assert core.classify_isometry(core.Isometry(np.eye(4, dtype=complex))) == "identity"


def det_one_trace(mat):
    """The trace and matrix of mat scaled to det 1, as the classifier does."""
    sv = np.linalg.svd(mat, compute_uv=False)
    a = mat / sv[1]
    a = a / np.exp(1j * np.angle(np.linalg.det(a)) / 3.0)
    return complex(np.trace(a)), a


def test_discriminant_sign_matches_the_eigenvalue_spread():
    # f > 0 exactly where the eigenvalues leave the unit circle, wherever
    # the eigenvalue moduli can say so
    mats = [iso.matrix for name in ps.GROUP_PRESETS
            for iso in ps.group_preset(name).isometries]
    mats += [mat for length in (1, 2) for _, mat in schottky_words(length)]
    mats += [hb.embed_translation(0.4 + 0.3j, 1.0).matrix,
             hb.embed_dilation(np.exp(0.5)).matrix,
             hb.embed_rotation(np.array([[np.exp(0.9j)]])).matrix]
    for mat in mats:
        tau, a = det_one_trace(mat)
        moduli = np.abs(np.linalg.eigvals(a))
        assert (core._goldman(tau) > 0) == (moduli.max() / moduli.min() - 1 > 1e-6)


def _rotation(z):
    return hb.embed_rotation(np.array([[z]]))


NEAR_DEGENERATE = [
    ("loxodromic", lambda p: _rotation(np.exp(1j * np.pi / 3)) @ hb.embed_dilation(np.exp(p))),
    ("loxodromic", lambda p: _rotation(np.exp(0.01j)) @ hb.embed_dilation(np.exp(p))),
    ("elliptic", lambda p: core.Isometry(np.diag([np.exp(1j * p), 1, 1]))),
    ("elliptic", lambda p: core.Isometry(np.diag([np.exp(1j * p), np.exp(1j * p), 1]))),
    ("elliptic", lambda p: core.Isometry(np.diag([np.exp(1j * (0.7 + p)), np.exp(0.7j), 1]))),
    ("parabolic", lambda p: hb.embed_translation(0.0, p)),
    ("parabolic", lambda p: hb.embed_translation(p, 0.0)),
    ("parabolic", lambda p: _rotation(np.exp(1j * p)) @ hb.embed_translation(0.0, 1.0)),
]


def _similarities(rng, sigma, count=5):
    out = []
    for _ in range(count):
        angle, x, y, v, d = rng.normal(size=5)
        out.append(hb.embed_isometry(hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * angle)]]),
            translation=hb.HeisPoint(np.array([sigma * (x + 1j * y)]), sigma * v),
            dilation=float(np.exp(sigma * d)))))
    return out


def test_near_degenerate_sweep_answers_the_class_or_borderline():
    # each family member at p in logspace(-10, 0.4, 27), as built and under
    # five Heisenberg similarities at spread sigma = 1 and 2; an answer is
    # right, Borderline, or wrong.  Matrices Isometry rejects are skipped.
    rng = np.random.default_rng(2026)
    conjugators = {0: [None], 1: _similarities(rng, 1.0), 2: _similarities(rng, 2.0)}
    wrong = {sigma: 0 for sigma in conjugators}
    for want, family in NEAR_DEGENERATE:
        for p in np.logspace(-10, 0.4, 27):
            base = family(p)
            for sigma, gs in conjugators.items():
                for g in gs:
                    try:
                        m = base if g is None else core.Isometry(
                            g.matrix @ base.matrix @ g.inverse().matrix)
                    except FormViolationError:
                        continue
                    try:
                        got = core.classify_isometry(m)
                    except BorderlineClassError:
                        continue
                    right = got == want or (
                        got == "identity" and core.identity_gap(m.matrix) <= core.PROJ_TOL)
                    assert right or sigma > 0 or p < 1e-2, (want, p)
                    wrong[sigma] += not right
    # the eigen-cluster classifier this replaced gave 0, 1 and 48 wrong
    # answers here, and this one gives 0, 0 and 15
    assert wrong[0] == wrong[1] == 0
    assert wrong[2] < 48


def test_tiny_complex_reflection_under_a_large_similarity_is_not_parabolic():
    # a rotation by 1e-10 about a complex line, conjugated by dilation 16
    # and translation 4, meets tau / 3 as a triple root with M - lam I of
    # rank 1; the trace of that rank-1 part is not 0, so it is no parabolic
    g = hb.embed_isometry(hb.HeisSimilarity(
        translation=hb.HeisPoint(np.array([4.0 + 0j]), 0.0), dilation=16.0))
    m = core.Isometry(g.matrix @ np.diag([np.exp(1e-10j), 1, 1]) @ g.inverse().matrix)
    try:
        assert core.classify_isometry(m) != "parabolic"
    except BorderlineClassError:
        pass


def test_near_degenerate_members_get_their_class_when_p_is_not_small():
    for want, family in NEAR_DEGENERATE:
        for p in np.logspace(-2, 0.4, 7):
            assert core.classify_isometry(family(p)) == want, (want, p)


def test_infinity_point():
    inf = core.infinity_point(2)
    assert inf.projectively_equal(core.ProjectivePoint([0, -1, 1]))
    assert core.point_class(inf) == "null"


def ref_identity_gap(matrix):
    """identity_gap as it was before it worked in place."""
    m = np.asarray(matrix, dtype=complex)
    d = m.shape[-1]
    lam = np.trace(m, axis1=-2, axis2=-1) / d
    gap = (np.max(np.abs(m - lam[..., None, None] * np.eye(d)), axis=(-2, -1))
           / np.max(np.abs(m), axis=(-2, -1)))
    return float(gap) if m.ndim == 2 else gap


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 30.0),
       st.integers(2, 9), st.sampled_from(["C", "T", "F"]))
@settings(max_examples=50, deadline=None)
def test_identity_gap_batch_matches_scalar(seed, k, max_log_scale, d, layout):
    # near-scalar d x d matrices, each row of the stack at its own norm up
    # to 1e30, in C order, transposed or in Fortran order; the trace and the
    # diagonal are unrolled over d
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(k, 1, 1)) + 1j * rng.normal(size=(k, 1, 1))
    noise = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    eps = 10.0 ** rng.uniform(-15, 0, size=(k, 1, 1))
    scale = 10.0 ** rng.uniform(0, max_log_scale, size=(k, 1, 1))
    stack = scale * (lam * np.eye(d) + eps * noise)
    stack = {"C": stack, "T": stack.swapaxes(-1, -2),
             "F": np.asfortranarray(stack)}[layout]
    gaps = core.identity_gap(stack)
    assert gaps.shape == (k,)
    assert np.array_equal(gaps, [core.identity_gap(m) for m in stack])
    want = ref_identity_gap(stack)
    if d <= 3:
        # the trace is summed in sequence, np.trace's own order for d <= 3
        assert gaps.tobytes() == want.tobytes()
    else:
        # np.trace sums pairwise from d = 4 on: lam may move by about
        # 2 (d - 1) ulps of max|m|, and the gap by as much
        assert np.all(np.abs(gaps - want) <= 2 * d * np.finfo(float).eps)


def test_identity_gap_reads_any_memory_layout():
    # the transpose of a C-ordered matrix is Fortran-ordered, and so is its
    # modulus array; the overwritten diagonal must still reach the maximum
    eye = np.eye(3, dtype=complex)
    assert core.identity_gap(eye.T) == 0.0
    assert core.identity_gap(np.stack([eye, 2 * eye]).swapaxes(-1, -2)).tolist() == [0.0, 0.0]
    assert core.classify_isometry(core.Isometry(eye.T)) == "identity"


def test_identity_gap_matches_reference_off_the_finite_range():
    # a trace that overflows, and NaN or inf on and off the diagonal, as a
    # stack and one matrix at a time
    for d in (2, 3, 4):
        big = np.diag(np.full(d, 1e308 + 0j))
        two = np.eye(d) * 2.0
        stack = np.stack([big, big * 1j, two, two, two, two, np.zeros((d, d))])
        stack[2, 0, d - 1] = np.nan
        stack[3, 1, 1] = np.nan
        stack[4, d - 1, 0] = np.inf
        stack[5, d - 1, d - 1] = complex(np.inf, 1.0)
        with np.errstate(all="ignore"):
            gaps = core.identity_gap(stack)
            want = ref_identity_gap(stack)
            singles = [core.identity_gap(m) for m in stack]
            single_want = [ref_identity_gap(m) for m in stack]
        assert gaps.tobytes() == want.tobytes()
        assert all(type(g) is float for g in singles)
        assert np.array(singles).tobytes() == np.array(single_want).tobytes()
        assert np.all(np.isnan(gaps[:6]))
        assert core.identity_gap(stack[:0]).shape == (0,)
        with np.errstate(all="ignore"):
            flipped = stack.swapaxes(-1, -2)
            assert core.identity_gap(flipped).tobytes() == ref_identity_gap(flipped).tobytes()


@st.composite
def moduli_stacks(draw):
    width = draw(st.integers(1, 18))
    lead = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 6)),
                          st.tuples(st.integers(0, 4), st.integers(0, 4))))
    size = int(np.prod(lead, dtype=int)) * width
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                               -5e-324, 2.2250738585072014e-308, 1e308])
    values = draw(st.lists(st.one_of(st.floats(), special),
                           min_size=size, max_size=size))
    return np.abs(np.array(values, dtype=float).reshape(lead + (width,)))


@given(moduli_stacks())
@settings(max_examples=300, deadline=None)
def test_fold_maximum_matches_np_max(a):
    # _fold(np.maximum, ...) takes moduli only: on raw entries a -0.0 and a
    # +0.0 come out either way round, and np.max gives its default NaN for
    # any NaN, where the fold may keep a NaN's payload.  With NaNs at their
    # default bits the two agree bit for bit, signed and unsigned zeros
    # included.
    got, want = np.asarray(core._fold(np.maximum, a)), np.asarray(np.max(a, axis=-1))
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    a = np.where(np.isnan(a), np.nan, a)
    got = np.asarray(core._fold(np.maximum, a))
    assert got.tobytes() == np.asarray(np.max(a, axis=-1)).tobytes()


@pytest.mark.parametrize("eta", [-0.35, 0.0, 0.2])
def test_identity_gap_matches_reference_on_probe_levels(eta):
    gens = bd.deform_group(ps.bend_preset("hnn-bend"), eta)
    levels, _ = gr.element_ball(gens, 8, dedup=False)
    for _, stack in levels[1:]:
        assert core.identity_gap(stack).tobytes() == ref_identity_gap(stack).tobytes()


def test_identity_gap_scalar_returns_float():
    gap = core.identity_gap(np.diag([2.0, 2.0, 2.0 + 1e-3]))
    assert type(gap) is float
    assert gap == pytest.approx((2e-3 / 3) / 2.001)
