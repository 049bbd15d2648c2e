import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chgeom import core
from chgeom import heisenberg as hb
from chgeom.errors import PointAtInfinityError, PoleError

np.random.seed(0)


def rand_heis(rng):
    return hb.HeisPoint(rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal()))


def test_heis_mul_examples():
    e = hb.HeisPoint(np.zeros(1), 0.0)
    p = hb.HeisPoint(np.array([0.3 + 1j]), -2.0)
    got = hb.heis_mul(e, p)
    assert np.allclose(got.xi, p.xi) and got.v == p.v

    a = hb.HeisPoint(np.array([1.0 + 0j]), 0.0)
    b = hb.HeisPoint(np.array([1j]), 0.0)
    ab = hb.heis_mul(a, b)
    assert np.allclose(ab.xi, [1 + 1j]) and np.isclose(ab.v, -2.0)

    inv = hb.heis_inverse(p)
    back = hb.heis_mul(p, inv)
    assert np.allclose(back.xi, 0) and np.isclose(back.v, 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_heis_mul_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rand_heis(rng), rand_heis(rng), rand_heis(rng)
    left = hb.heis_mul(hb.heis_mul(a, b), c)
    right = hb.heis_mul(a, hb.heis_mul(b, c))
    assert np.allclose(left.xi, right.xi, atol=1e-12)
    assert np.isclose(left.v, right.v, atol=1e-12)


def test_cygan_norm_examples():
    assert hb.cygan_norm(hb.HoroPoint(np.zeros(1), 0.0, 0.0)) == 0.0
    assert np.isclose(hb.cygan_norm(hb.HoroPoint(np.array([1.0 + 0j]), 0.0, 0.0)), 1.0)
    p = hb.HoroPoint(np.array([1 + 1j]), 2.0, 0.0)
    assert np.isclose(hb.cygan_norm(p), 8.0 ** 0.25)


def test_cygan_dist_examples():
    a = hb.HeisPoint(np.zeros(1), 0.0)
    assert hb.cygan_dist(a, a) == 0.0
    b = hb.HeisPoint(np.array([1.0 + 0j]), 0.0)
    assert np.isclose(hb.cygan_dist(a, b), 1.0)
    c = hb.HeisPoint(np.array([1.0 + 0j]), 1.0)
    assert np.isclose(hb.cygan_dist(b, c), 1.0)


def test_cygan_dist_matches_group_difference():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a, b = rand_heis(rng), rand_heis(rng)
        diff = hb.heis_mul(hb.heis_inverse(a), b)
        d = hb.cygan_dist(a, b)
        assert np.isclose(d, hb.cygan_norm(diff), atol=1e-12)
        assert np.isclose(d, hb.cygan_dist(b, a), atol=1e-12)


def test_cygan_left_invariance():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b, g = rand_heis(rng), rand_heis(rng), rand_heis(rng)
        d0 = hb.cygan_dist(a, b)
        d1 = hb.cygan_dist(hb.heis_mul(g, a), hb.heis_mul(g, b))
        assert np.isclose(d0, d1, atol=1e-12)


def test_cygan_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a, b, c = rand_heis(rng), rand_heis(rng), rand_heis(rng)
        assert hb.cygan_dist(a, c) <= hb.cygan_dist(a, b) + hb.cygan_dist(b, c) + 1e-12


def test_cygan_dilation_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = rand_heis(rng), rand_heis(rng)
        r = float(np.exp(rng.normal()))
        assert np.isclose(hb.cygan_norm(hb.heis_dilate(a, r)), r * hb.cygan_norm(a), atol=1e-10)
        assert np.isclose(
            hb.cygan_dist(hb.heis_dilate(a, r), hb.heis_dilate(b, r)),
            r * hb.cygan_dist(a, b),
            atol=1e-10,
        )


def test_inversion_examples():
    p = hb.heis_inversion(hb.HeisPoint(np.array([1.0 + 0j]), 0.0))
    assert np.allclose(p.xi, [1.0]) and np.isclose(p.v, 0.0)

    q = hb.heis_inversion(hb.HeisPoint(np.zeros(1), 1.0))
    assert np.allclose(q.xi, 0) and np.isclose(q.v, -1.0)

    r = hb.HeisPoint(np.array([2.0 + 0j]), 3.0)
    rr = hb.heis_inversion(hb.heis_inversion(r))
    assert np.allclose(rr.xi, r.xi, atol=1e-12) and np.isclose(rr.v, r.v, atol=1e-12)


def test_inversion_pole():
    with pytest.raises(PoleError):
        hb.heis_inversion(hb.HeisPoint(np.zeros(1), 0.0))


def test_inversion_norm_reciprocal():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = rand_heis(rng)
        n = hb.cygan_norm(p)
        if n < 1e-6:
            continue
        assert np.isclose(hb.cygan_norm(hb.heis_inversion(p)) * n, 1.0, atol=1e-10)


def test_inversion_sphere_to_sphere():
    # S(0,r) maps onto S(0,1/r), sampled along the sphere
    rng = np.random.default_rng(19)
    r = 1.7
    for _ in range(100):
        xi = rng.normal() + 1j * rng.normal()
        v = rng.normal()
        p = hb.HeisPoint(np.array([xi]), v)
        scale = r / hb.cygan_norm(p)
        on_sphere = hb.heis_dilate(p, scale)
        image = hb.heis_inversion(on_sphere)
        assert np.isclose(hb.cygan_norm(image), 1 / r, atol=1e-10)


def test_inversion_matrix_matches_formula():
    minv = hb.inversion_matrix()
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = rand_heis(rng)
        if hb.cygan_norm(p) < 1e-3:
            continue
        lift = hb.horo_to_projective(p.as_horo())
        image = core.projective_apply(minv, lift)
        want = hb.heis_inversion(p)
        got = hb.projective_to_horo(image)
        assert np.allclose(got.xi, want.xi, atol=1e-9)
        assert np.isclose(got.v, want.v, atol=1e-9)


def test_similarity_apply_examples():
    p = hb.HoroPoint(np.array([1.0 + 0j]), 1.0, 0.0)
    ident = hb.HeisSimilarity()
    q = hb.heis_similarity_apply(ident, p)
    assert np.allclose(q.xi, p.xi) and q.v == p.v and q.u == p.u

    dil = hb.HeisSimilarity(dilation=2.0)
    q = hb.heis_similarity_apply(dil, p)
    assert np.allclose(q.xi, [2.0]) and np.isclose(q.v, 4.0) and q.u == 0.0

    rot = hb.HeisSimilarity(rotation=np.array([[1j]]))
    q = hb.heis_similarity_apply(rot, hb.HoroPoint(np.array([1.0 + 0j]), 0.0, 0.0))
    assert np.allclose(q.xi, [1j]) and np.isclose(q.v, 0.0)


def test_similarity_scales_cygan():
    rng = np.random.default_rng(29)
    for _ in range(100):
        s = hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * rng.normal())]]),
            translation=rand_heis(rng),
            dilation=float(np.exp(0.5 * rng.normal())),
        )
        a, b = rand_heis(rng), rand_heis(rng)
        ia = hb.heis_similarity_apply(s, a.as_horo()).boundary()
        ib = hb.heis_similarity_apply(s, b.as_horo()).boundary()
        assert np.isclose(hb.cygan_dist(ia, ib), s.dilation * hb.cygan_dist(a, b), atol=1e-9)


def test_similarity_compose_matches_apply():
    rng = np.random.default_rng(31)
    for _ in range(100):
        s1 = hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * rng.normal())]]),
            translation=rand_heis(rng),
            dilation=float(np.exp(0.5 * rng.normal())),
        )
        s2 = hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * rng.normal())]]),
            translation=rand_heis(rng),
            dilation=float(np.exp(0.5 * rng.normal())),
        )
        p = rand_heis(rng).as_horo()
        via_compose = hb.heis_similarity_apply(hb.similarity_compose(s1, s2), p)
        via_apply = hb.heis_similarity_apply(s1, hb.heis_similarity_apply(s2, p))
        assert np.allclose(via_compose.xi, via_apply.xi, atol=1e-10)
        assert np.isclose(via_compose.v, via_apply.v, atol=1e-10)


def test_embed_identity():
    m = hb.embed_isometry(hb.HeisSimilarity())
    assert core.is_projective_identity(m.matrix)


def test_embed_vertical_block():
    m = hb.embed_translation(np.zeros(1), 1.0).matrix
    want = np.array([[1 + 0.5j, 0.5j], [-0.5j, 1 - 0.5j]])
    assert np.allclose(m[1:, 1:], want, atol=1e-12)
    assert core.form_defect(m) < 1e-10


def test_embed_homomorphism_example():
    a = hb.HeisPoint(np.array([1.0 + 0j]), 0.0)
    b = hb.HeisPoint(np.array([1j]), 0.0)
    lhs = hb.embed_translation(a) @ hb.embed_translation(b)
    rhs = hb.embed_translation(hb.heis_mul(a, b))
    assert lhs.projectively_equal(rhs)


def test_embed_homomorphism_random():
    rng = np.random.default_rng(37)
    for _ in range(50):
        s1 = hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * rng.normal())]]),
            translation=rand_heis(rng),
            dilation=float(np.exp(0.5 * rng.normal())),
        )
        s2 = hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * rng.normal())]]),
            translation=rand_heis(rng),
            dilation=float(np.exp(0.5 * rng.normal())),
        )
        lhs = hb.embed_isometry(s1) @ hb.embed_isometry(s2)
        rhs = hb.embed_isometry(hb.similarity_compose(s1, s2))
        assert lhs.projectively_equal(rhs)


def test_embed_classification():
    assert core.classify_isometry(hb.embed_translation(np.array([0.5 + 0.5j]), 1.0)) == "parabolic"
    assert core.classify_isometry(hb.embed_dilation(1.3)) == "loxodromic"
    assert core.classify_isometry(hb.embed_rotation(np.array([[np.exp(0.9j)]]))) == "elliptic"


def test_embed_rejects_non_unitary():
    with pytest.raises(Exception):
        hb.HeisSimilarity(rotation=np.array([[2.0 + 0j]]))


def test_horo_round_trip_examples():
    p = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 0.0))
    assert p.projectively_equal(core.ProjectivePoint([0, 0.5, 0.5]))

    q = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 1.0))
    assert q.projectively_equal(core.ProjectivePoint([0, 0, 1]))
    assert np.isclose(core.herm_inner(q.lift, q.lift).real, -1.0)

    r = hb.HoroPoint(np.array([1 + 1j]), -2.0, 0.3)
    back = hb.projective_to_horo(hb.horo_to_projective(r))
    assert np.allclose(back.xi, r.xi, atol=1e-12)
    assert np.isclose(back.v, r.v, atol=1e-12)
    assert np.isclose(back.u, r.u, atol=1e-12)


def test_lift_height_identity():
    rng = np.random.default_rng(41)
    for _ in range(200):
        u = float(np.exp(rng.normal()))
        p = hb.HoroPoint(rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal()), u)
        z = hb.horo_to_projective(p).lift
        assert np.isclose(core.herm_inner(z, z).real, -u, atol=1e-12)


def test_far_boundary_images_read_height_zero():
    # Images of unit Cygan spheres about far centers c1 under the unit
    # inversion about far centers c0, at n = 3.  The form's rounding grows
    # with |z|^2, and about half of these heights round below -1e-9.
    rng = np.random.default_rng(5)
    lifts = []
    while len(lifts) < 300:
        c0, c1 = (hb.HeisPoint(rng.uniform(-30, 30, 2) + 1j * rng.uniform(-30, 30, 2),
                               rng.uniform(-900, 900)) for _ in range(2))
        if hb.cygan_dist(c0, c1) <= 2.0:
            continue
        t = hb.embed_translation(c0)
        inv = t @ hb.inversion_matrix(3) @ t.inverse()
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        angle = rng.uniform(-np.pi / 2, np.pi / 2)
        xi *= np.cos(angle) ** 0.5 / np.linalg.norm(xi)
        p = hb.heis_mul(c1, hb.HeisPoint(xi, np.sin(angle)))
        lifts.append(inv.matrix @ hb.horo_to_projective(p).lift)
    lifts = np.array(lifts)
    raw = -core._form_norms(lifts / (lifts[:, 2] + lifts[:, 3])[:, None])
    assert np.sum(raw < -1e-9) > 100
    heights = np.array([hb.projective_to_horo(core.ProjectivePoint(z)).u
                        for z in lifts])
    assert np.all(heights[raw < 0] == 0.0)
    assert np.all(heights[raw >= 0] == raw[raw >= 0])


def ref_lift_coords(lifts, tol):
    """_lift_coords as it was before it took maxima a column at a time."""
    k = lifts.shape[-1] - 2
    c = lifts[:, k] + lifts[:, k + 1]
    finite = np.abs(c) > tol * np.abs(lifts).max(axis=-1)
    z = lifts[finite] / c[finite, None]
    u = -core._form_norms(z)
    floor = -1e-9 * np.maximum(1.0, np.abs(z).max(axis=-1) ** 2)
    u[(floor < u) & (u < 0.0)] = 0.0
    return finite, z[:, :k], (z[:, k] - z[:, k + 1]).imag, u


def ref_projective_lift_gap(a, b):
    """projective_lift_gap as it was before it took maxima a column at a time."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a = a / np.abs(a).max(axis=-1, keepdims=True)
    b = b / np.abs(b).max(axis=-1, keepdims=True)
    minors = a[..., :, None] * b[..., None, :]
    gap = np.abs(minors - np.swapaxes(minors, -1, -2)).max(axis=(-2, -1))
    return float(gap) if gap.ndim == 0 else gap


def far_lift_stack(rng, count, n):
    """Lifts of horospherical points: heights above 0, at 0 and just below
    it, and rows at infinity (c = 0) and near it, every row at its own
    scale and phase, with entries up to 1e150."""
    xi = (rng.normal(size=(count, n - 1)) + 1j * rng.normal(size=(count, n - 1))) \
        * 10.0 ** rng.uniform(-3, 6, size=(count, 1))
    q = (np.abs(xi) ** 2).sum(axis=1)
    # the floor that reads a height as 0 is -1e-9 max(1, max|z_i|^2)
    floor = 1e-9 * np.maximum(1.0, (0.5 * (1.0 + q)) ** 2)
    u = np.choose(rng.integers(0, 5, count),
                  [np.exp(rng.normal(size=count)), np.zeros(count),
                   -0.5 * floor, -0.99 * floor, -2.0 * floor])
    lifts = hb._horo_lifts(xi, rng.normal(size=count), u)
    lifts[::7, n - 1] = -lifts[::7, n]  # at infinity
    lifts[3::11, n - 1] = -lifts[3::11, n] * (1 + 1e-11)  # between the tols
    lifts /= np.abs(lifts).max(axis=1)[:, None]
    return lifts * 10.0 ** rng.uniform(-5, 150, size=(count, 1)) \
        * np.exp(2j * np.pi * rng.uniform(size=(count, 1)))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_lift_coords_match_reference(n):
    rng = np.random.default_rng(n)
    lifts = far_lift_stack(rng, 3000, n)
    for tol in (1e-12, 1e-9):
        got, want = hb._lift_coords(lifts, tol), ref_lift_coords(lifts, tol)
        assert all(same_bits(x, y) for x, y in zip(got, want))
    finite, _, _, u = got
    assert 0 < np.count_nonzero(~finite) < len(lifts)
    assert np.count_nonzero(u == 0.0) > len(lifts) / 5


@pytest.mark.parametrize("n", [2, 3])
def test_projective_lift_gap_matches_reference(n):
    rng = np.random.default_rng(10 + n)
    lifts = far_lift_stack(rng, 1000, n)
    infinity = core.infinity_point(n).lift
    for a, b in [(lifts, infinity), (lifts, lifts[::-1]),
                 (lifts[:40, None], lifts[None, :30]), (lifts[0], lifts[1]),
                 (lifts[:0], infinity)]:
        assert same_bits(core.projective_lift_gap(a, b), ref_projective_lift_gap(a, b))
    assert type(core.projective_lift_gap(lifts[0], lifts[1])) is float


def test_projective_to_horo_infinity():
    with pytest.raises(PointAtInfinityError):
        hb.projective_to_horo(core.infinity_point(2))


def test_boundary_compatibility():
    rng = np.random.default_rng(43)
    for _ in range(100):
        s = hb.HeisSimilarity(
            rotation=np.array([[np.exp(1j * rng.normal())]]),
            translation=rand_heis(rng),
            dilation=float(np.exp(0.5 * rng.normal())),
        )
        u = 0.0 if rng.random() < 0.5 else float(np.exp(rng.normal()))
        p = hb.HoroPoint(rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal()), u)
        lhs = core.projective_apply(hb.embed_isometry(s), hb.horo_to_projective(p))
        rhs = hb.horo_to_projective(hb.heis_similarity_apply(s, p))
        assert lhs.projectively_equal(rhs, tol=1e-8)
