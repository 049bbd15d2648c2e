import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chgeom import cli
from chgeom import core
from chgeom import dirichlet as dm
from chgeom import groups as gr
from chgeom import heisenberg as hb
from chgeom import presets as ps
from chgeom.errors import (
    BudgetExceededError,
    DegenerateCenterError,
    DegenerateInputError,
    InvarianceError,
)


def cyclic_vertical():
    return gr.GroupGens([("a", hb.embed_translation(np.zeros(1, dtype=complex), 1.0))])


def cyclic_horizontal():
    return gr.GroupGens([("a", hb.embed_translation(np.array([1.0 + 0j]), 0.0))])


def z2_lattice():
    return gr.GroupGens(
        [
            ("a", hb.embed_translation(np.array([1.0 + 0j]), 0.0)),
            ("b", hb.embed_translation(np.zeros(1, dtype=complex), 1.0)),
        ]
    )


def slab_center(u=1.0):
    return core.ProjectivePoint(
        hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, u)).lift
    )


class TestBisectorMargin:
    def test_sign_near_each_endpoint(self):
        y = slab_center()
        g = hb.embed_translation(np.zeros(1, dtype=complex), 2.0)
        gy = core.projective_apply(g, y)
        near_y = core.ProjectivePoint(
            hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.1, 1.0)).lift
        )
        assert dm.bisector_margin(near_y, y, gy) < 0
        assert dm.bisector_margin(near_y, gy, y) > 0

    def test_midpoint_is_equidistant(self):
        y = slab_center()
        g = hb.embed_translation(np.zeros(1, dtype=complex), 2.0)
        gy = core.projective_apply(g, y)
        mid = core.ProjectivePoint(
            hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 1.0, 1.0)).lift
        )
        assert abs(dm.bisector_margin(mid, y, gy)) < 1e-12

    def test_coincident_points_rejected(self):
        y = slab_center()
        with pytest.raises(DegenerateInputError):
            dm.bisector_margin(y, y, y)


class TestSideCensus:
    def test_cyclic_vertical_two_sides(self):
        census = dm.dirichlet_side_census(
            cyclic_vertical(), slab_center(), enum_radius=3, rays=400
        )
        assert census.sides == ("A", "a")
        assert all(m >= dm.SIDE_MARGIN for m in census.margins.values())
        assert 0.0 < census.unbounded_ray_fraction < 1.0

    def test_cyclic_horizontal_two_sides(self):
        census = dm.dirichlet_side_census(
            cyclic_horizontal(), slab_center(), enum_radius=3, rays=400
        )
        assert census.sides == ("A", "a")

    def test_lattice_sides_grow_with_radius(self):
        c3 = dm.dirichlet_side_census(z2_lattice(), slab_center(), 3, rays=2000)
        c6 = dm.dirichlet_side_census(z2_lattice(), slab_center(), 6, rays=2000)
        assert len(c3.sides) == 12
        assert len(c6.sides) == 14
        assert set(c3.sides) < set(c6.sides)

    def test_nearest_generators_are_sides(self):
        census = dm.dirichlet_side_census(z2_lattice(), slab_center(), 3, rays=2000)
        assert {"a", "A", "b", "B"} <= set(census.sides)

    def test_determinism_per_seed(self):
        one = dm.dirichlet_side_census(z2_lattice(), slab_center(), 3, rays=600, seed=5)
        two = dm.dirichlet_side_census(z2_lattice(), slab_center(), 3, rays=600, seed=5)
        assert one.sides == two.sides
        assert one.margins == two.margins
        assert one.unbounded_ray_fraction == two.unbounded_ray_fraction

    def test_fixed_center_rejected(self):
        gens = gr.GroupGens([("a", hb.embed_rotation(np.array([[1j]])))])
        with pytest.raises(DegenerateCenterError):
            dm.dirichlet_side_census(gens, slab_center(), 2, rays=400)

    def test_boundary_center_rejected(self):
        boundary = core.ProjectivePoint(np.array([0, 0.5, 0.5], dtype=complex))
        with pytest.raises(DegenerateInputError):
            dm.dirichlet_side_census(cyclic_vertical(), boundary, 2, rays=400)


class TestParabolicProjection:
    def test_three_models(self):
        p = hb.HoroPoint(np.array([1 + 2j]), 5.0, 3.0)
        hl = dm.parabolic_projection(p, "horizontal-line", 1.0)
        assert np.allclose(hl.xi, [1.0]) and hl.v == 0.0 and hl.u == 1.0
        va = dm.parabolic_projection(p, "vertical-axis", 2.0)
        assert np.allclose(va.xi, [0.0]) and va.v == 5.0 and va.u == 2.0
        fh = dm.parabolic_projection(p, "full-horizontal", 1.0)
        assert np.allclose(fh.xi, [1.0]) and fh.v == 9.0 and fh.u == 1.0

    def test_idempotent_on_slice(self):
        p = hb.HoroPoint(np.array([0.7 + 0j]), 0.4, 1.0)
        q = dm.parabolic_projection(p, "full-horizontal", 1.0)
        r = dm.parabolic_projection(q, "full-horizontal", 1.0)
        assert np.allclose(q.xi, r.xi) and np.isclose(q.v, r.v)

    def test_full_horizontal_equivariance(self):
        # the twisted coordinate makes projection commute with the lattice
        p = hb.HeisPoint(np.array([0.3 + 0.9j]), 0.7)
        for shift in (hb.HeisPoint(np.array([1.0 + 0j]), 0.0),
                      hb.HeisPoint(np.zeros(1), 1.0)):
            moved = hb.heis_mul(shift, p)
            left = dm.parabolic_projection(moved.as_horo(), "full-horizontal", 1.0)
            proj = dm.parabolic_projection(p.as_horo(), "full-horizontal", 1.0)
            right = hb.heis_mul(shift, hb.HeisPoint(proj.xi, proj.v))
            assert np.allclose(left.xi, right.xi, atol=1e-12)
            assert np.isclose(left.v, right.v, atol=1e-12)

    def test_validation(self):
        p = hb.HoroPoint(np.zeros(1), 0.0, 1.0)
        with pytest.raises(ValueError):
            dm.parabolic_projection(p, "vertical-axis", 0.0)
        with pytest.raises(ValueError):
            dm.parabolic_projection(p, "diagonal", 1.0)


class TestPullbackDomain:
    def test_vertical_slice_two_sides(self):
        census = dm.pullback_domain_sides(cyclic_vertical(), "vertical-axis", 1.0, 3)
        assert census.sides == ("A", "a")
        assert census.stable is True

    def test_horizontal_slice_two_sides(self):
        census = dm.pullback_domain_sides(
            cyclic_horizontal(), "horizontal-line", 1.0, 3
        )
        assert census.sides == ("A", "a")
        assert census.stable is True

    def test_lattice_slice_four_sides(self):
        census = dm.pullback_domain_sides(
            z2_lattice(), "full-horizontal", 1.0, 3, rays=720
        )
        assert census.sides == ("A", "B", "a", "b")
        assert census.stable is True

    def test_loxodromic_generator_rejected(self):
        gens = gr.GroupGens([("a", hb.embed_dilation(np.e))])
        with pytest.raises(InvarianceError):
            dm.pullback_domain_sides(gens, "vertical-axis", 1.0, 2)

    def test_wrong_model_rejected(self):
        with pytest.raises(InvarianceError):
            dm.pullback_domain_sides(cyclic_horizontal(), "vertical-axis", 1.0, 2)


# --- reference censuses: the two copies the first-exit kernel replaced ---
# Kept verbatim with the scalar lifts they called: the tanh chord lift, the
# per-point slice lift and the per-matrix orbit lifts.  The slice census
# must match bit for bit.  The ball census moved to non-null chord lifts
# (sinh, cosh) of known norm -1, so its sides and unbounded fractions must
# match and its margins agree to 1e-12.


def ref_horo_to_projective(p):
    p = hb._horo(p)
    q = float(np.sum(np.abs(p.xi) ** 2))
    k = p.xi.shape[0]
    z = np.empty(k + 2, dtype=complex)
    z[:k] = p.xi
    z[k] = 0.5 * (1.0 - q - p.u + 1j * p.v)
    z[k + 1] = 0.5 * (1.0 + q + p.u - 1j * p.v)
    return core.ProjectivePoint(z)


def ref_slice_point(model, coords, u0, n=2):
    xi = np.zeros(n - 1, dtype=complex)
    if model == "vertical-axis":
        return hb.HoroPoint(xi, float(coords[0]), u0)
    if model == "horizontal-line":
        xi[0] = coords[0]
        return hb.HoroPoint(xi, 0.0, u0)
    xi[0] = coords[0]
    # slice coordinate w is the twisted height; xi here is real so v = w
    return hb.HoroPoint(xi, float(coords[1]), u0)


def ref_chord_lifts(directions, s):
    t = np.tanh(np.asarray(s, dtype=float) / 2.0)
    m, rd = directions.shape
    zc = directions[:, : rd // 2] + 1j * directions[:, rd // 2 :]
    lifts = np.empty((m, rd // 2 + 1), dtype=complex)
    if np.ndim(t) == 0:
        lifts[:, :-1] = t * zc
    else:
        lifts[:, :-1] = t[:, None] * zc
    lifts[:, -1] = 1.0
    return lifts


def ref_dirichlet_side_census(
    gens,
    center,
    enum_radius,
    rays=dm.DEFAULT_RAYS,
    seed=0,
    margin=dm.SIDE_MARGIN,
    budget=gr.DEFAULT_BUDGET,
):
    if rays < 100:
        raise ValueError("need at least 100 rays")
    if core.point_class(center) != "negative":
        raise DegenerateInputError("census center must be an interior point")

    levels, completed = gr.element_ball(gens, enum_radius, budget=budget)
    if completed < enum_radius:
        raise gr.BudgetExceededError(
            f"enumeration budget exhausted at radius {completed}",
            completed_radius=completed,
        )
    words = []
    mats = []
    for length, (ws, stack) in enumerate(levels):
        if length == 0:
            continue
        words.extend(ws)
        mats.append(stack)
    if not words:
        raise DegenerateInputError("no nontrivial elements to census")
    mats = np.concatenate(mats)

    frame = dm._ball_frame(center)
    back = frame.inverse().matrix
    orbit_lifts = np.array([back @ (m @ center.lift) for m in mats])
    cnorm = float(core.herm_inner(center.lift, center.lift).real)
    origin = np.zeros(orbit_lifts.shape[1], dtype=complex)
    origin[-1] = 1.0
    base_d = dm._distances_to_orbit(origin[None, :], orbit_lifts, cnorm)[0]
    if np.min(base_d) <= 1e-10:
        k = int(np.argmin(base_d))
        raise DegenerateCenterError(
            f"center is fixed by the nontrivial element {words[k]!r}"
        )

    horizon = float(np.max(base_d)) / 2.0 + 4.0
    n_real = 2 * (orbit_lifts.shape[1] - 1)
    dirs = dm._ray_directions(rays, n_real, seed=seed)

    # lockstep march: find the first step at which each ray is beaten
    lo = np.zeros(rays)
    hi = np.full(rays, np.nan)
    active = np.arange(rays)
    s = 0.0
    while active.size and s < horizon:
        s_next = min(s + dm.STEP, horizon)
        pts = ref_chord_lifts(dirs[active], s_next)
        dmin = np.min(dm._distances_to_orbit(pts, orbit_lifts, cnorm), axis=1)
        beaten = dmin < s_next
        hi[active[beaten]] = s_next
        lo[active[~beaten]] = s_next
        active = active[~beaten]
        s = s_next

    crossed = ~np.isnan(hi)
    unbounded = int(np.sum(~crossed))

    sides = {}
    idx = np.nonzero(crossed)[0]
    if idx.size:
        a = lo[idx].copy()
        b = hi[idx].copy()
        d_sub = dirs[idx]
        while np.max(b - a) > dm.BISECTION_TOL:
            mid = 0.5 * (a + b)
            pts = ref_chord_lifts(d_sub, mid)
            dmin = np.min(dm._distances_to_orbit(pts, orbit_lifts, cnorm), axis=1)
            beaten = dmin < mid
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness = ref_chord_lifts(d_sub, 0.5 * (a + b))
        dist = dm._distances_to_orbit(witness, orbit_lifts, cnorm)
        order = np.argsort(dist, axis=1)
        for r in range(idx.size):
            best = order[r, 0]
            second = dist[r, order[r, 1]] if dist.shape[1] > 1 else np.inf
            m = second - dist[r, best]
            if m < margin:
                continue  # borderline witness, discarded
            w = words[best]
            if w not in sides or m < sides[w]:
                sides[w] = float(m)

    side_words = tuple(sorted(sides))
    return dm.SideCensus(
        sides=side_words,
        margins={w: sides[w] for w in side_words},
        rays_used=rays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=unbounded / rays,
    )


def ref_slice_census(gens, model, u0, enum_radius, rays, margin, budget):
    levels, completed = gr.element_ball(gens, enum_radius, budget=budget)
    if completed < enum_radius:
        raise gr.BudgetExceededError(
            f"enumeration budget exhausted at radius {completed}",
            completed_radius=completed,
        )
    words = []
    mats = []
    for length, (ws, stack) in enumerate(levels):
        if length == 0:
            continue
        words.extend(ws)
        mats.append(stack)
    if not words:
        raise DegenerateInputError("no nontrivial elements to census")
    mats = np.concatenate(mats)

    dim = dm._model_dim(model)
    n = gens.dim - 1
    center = ref_slice_point(model, (0.0,) * dim, u0, n=n)
    ylift = ref_horo_to_projective(center).lift
    orbit_lifts = np.array([m @ ylift for m in mats])
    ynorm = float(core.herm_inner(ylift, ylift).real)
    base_d = dm._distances_to_orbit(ylift[None, :], orbit_lifts, ynorm)[0]
    if np.min(base_d) <= 1e-10:
        k = int(np.argmin(base_d))
        raise DegenerateCenterError(
            f"slice center is fixed by the nontrivial element {words[k]!r}"
        )

    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        nrays = 2
    else:
        angles = 2 * np.pi * (np.arange(rays) + 0.5) / rays
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        nrays = rays

    horizon = float(np.max(base_d)) / 2.0 + 4.0

    def slice_lifts(sub_dirs, radii):
        pts = []
        radii = np.broadcast_to(radii, (sub_dirs.shape[0],))
        for k in range(sub_dirs.shape[0]):
            coords = tuple(radii[k] * sub_dirs[k])
            pts.append(ref_horo_to_projective(ref_slice_point(model, coords, u0, n=n)).lift)
        return np.array(pts)

    def center_dist(lifts):
        return dm._distances_to_orbit(lifts, ylift[None, :], ynorm)[:, 0]

    lo = np.zeros(nrays)
    hi = np.full(nrays, np.nan)
    active = np.arange(nrays)
    t = 0.0
    # slice paths are not unit-speed geodesics; march the slice coordinate
    # until the ambient distance to the center clears the horizon
    while active.size and t < horizon * 3.0 + 10.0:
        t_next = t + dm.STEP
        pts = slice_lifts(dirs[active], t_next)
        dmin = np.min(dm._distances_to_orbit(pts, orbit_lifts, ynorm), axis=1)
        d0 = center_dist(pts)
        beaten = dmin < d0
        hi[active[beaten]] = t_next
        lo[active[~beaten]] = t_next
        active = active[~beaten & (d0 <= horizon)]
        t = t_next

    crossed = ~np.isnan(hi)
    unbounded = int(np.sum(~crossed))
    sides = {}
    idx = np.nonzero(crossed)[0]
    if idx.size:
        a = lo[idx].copy()
        b = hi[idx].copy()
        d_sub = dirs[idx]
        while np.max(b - a) > dm.BISECTION_TOL:
            mid = 0.5 * (a + b)
            pts = slice_lifts(d_sub, mid)
            dmin = np.min(dm._distances_to_orbit(pts, orbit_lifts, ynorm), axis=1)
            beaten = dmin < center_dist(pts)
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness = slice_lifts(d_sub, 0.5 * (a + b))
        dist = dm._distances_to_orbit(witness, orbit_lifts, ynorm)
        order = np.argsort(dist, axis=1)
        for r in range(idx.size):
            best = order[r, 0]
            second = dist[r, order[r, 1]] if dist.shape[1] > 1 else np.inf
            m = second - dist[r, best]
            if m < margin:
                continue
            w = words[best]
            if w not in sides or m < sides[w]:
                sides[w] = float(m)

    side_words = tuple(sorted(sides))
    return dm.SideCensus(
        sides=side_words,
        margins={w: sides[w] for w in side_words},
        rays_used=nrays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=unbounded / nrays,
    )


BALL_CASES = [
    ("cyclic-vertical", "origin", 3),
    ("cyclic-vertical", "origin", 6),
    ("z2-lattice", "slab", 3),
    ("dilation", "origin", 6),
]


@pytest.mark.parametrize("preset,where,radius", BALL_CASES)
def test_ball_census_matches_reference(preset, where, radius):
    gens = ps.group_preset(preset)
    center = slab_center() if where == "slab" else cli._ball_origin(gens.dim)
    got = dm.dirichlet_side_census(gens, center, radius)
    want = ref_dirichlet_side_census(gens, center, radius)
    assert got.sides == want.sides
    assert got.unbounded_ray_fraction == want.unbounded_ray_fraction
    assert got.rays_used == want.rays_used
    assert got.enumeration_radius == want.enumeration_radius
    assert got.stable is None
    for w in want.sides:
        assert abs(got.margins[w] - want.margins[w]) <= 1e-12


SLICE_CASES = [
    (cyclic_vertical, "vertical-axis", dm.DEFAULT_RAYS),
    (cyclic_horizontal, "horizontal-line", dm.DEFAULT_RAYS),
    (z2_lattice, "full-horizontal", 720),
]


@pytest.mark.parametrize("make_gens,model,rays", SLICE_CASES)
def test_slice_census_matches_reference_bit_for_bit(make_gens, model, rays):
    gens = make_gens()
    args = (gens, model, 1.0, 3, rays, dm.SIDE_MARGIN, gr.DEFAULT_BUDGET)
    got = dm._slice_census(*args)
    want = ref_slice_census(*args)
    assert got == want
    assert [repr(got.margins[w]) for w in got.sides] == [
        repr(want.margins[w]) for w in want.sides
    ]
    assert repr(got.unbounded_ray_fraction) == repr(want.unbounded_ray_fraction)


@pytest.mark.parametrize("model", ["vertical-axis", "horizontal-line", "full-horizontal"])
def test_batched_slice_lifts_equal_scalar_lifts(model):
    dim = dm._model_dim(model)
    rng = np.random.default_rng(3)
    coords = rng.normal(scale=4.0, size=(200, dim))
    coords[:3] = 0.0  # signed zeros must agree too
    coords[3] = -0.0
    for u0 in (1.0, 0.37):
        xi, v = dm._slice_coords(model, coords, 2)
        batch = hb._horo_lifts(xi, v, u0)
        for k in range(coords.shape[0]):
            scalar = hb.horo_to_projective(dm._slice_point(model, coords[k], u0)).lift
            ref = ref_horo_to_projective(ref_slice_point(model, tuple(coords[k]), u0)).lift
            assert batch[k].tobytes() == scalar.tobytes() == ref.tobytes()


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_finite, _finite), min_size=1, max_size=3),
    _finite,
    st.floats(min_value=0.0, max_value=1e6),
)
def test_horo_lifts_equal_old_scalar_formula(xi_parts, v, u):
    xi = np.array([complex(a, b) for a, b in xi_parts])
    p = hb.HoroPoint(xi, v, u)
    want = ref_horo_to_projective(p).lift
    got = hb.horo_to_projective(p).lift
    stack = hb._horo_lifts(np.stack([xi, xi]), np.array([v, v]), u)
    assert np.array_equal(got, want)
    assert np.array_equal(stack, np.stack([want, want]))
    # bit for bit, except that a zero imaginary part may change sign when
    # 0.5 v underflows (numpy's array loop skips the scalar cross terms)
    if v == 0.0 or abs(v) > 1e-300:
        assert got.tobytes() == want.tobytes()
        assert stack.tobytes() == np.stack([want, want]).tobytes()


@pytest.mark.parametrize("preset", ps.DIRICHLET_PRESETS)
def test_stacked_orbit_lifts_equal_per_matrix_loop(preset):
    # the stack products dirichlet_side_census and _slice_census use
    gens = ps.group_preset(preset)
    words, mats = dm._census_orbit(gens, 4, gr.DEFAULT_BUDGET)
    off_axis = core.ProjectivePoint(np.array([0.3 + 0.1j, -0.2j, 1.0]))
    for center in (cli._ball_origin(gens.dim), slab_center(0.7), off_axis):
        back = dm._ball_frame(center).inverse().matrix
        loop = np.array([back @ (m @ center.lift) for m in mats])
        stacked = (back @ (mats @ center.lift)[..., None])[..., 0]
        assert stacked.tobytes() == loop.tobytes()
        plain = np.array([m @ center.lift for m in mats])
        assert (mats @ center.lift).tobytes() == plain.tobytes()


def test_census_orbit_errors():
    with pytest.raises(BudgetExceededError) as info:
        dm._census_orbit(ps.group_preset("schottky"), 6, budget=100)
    assert info.value.completed_radius < 6
    with pytest.raises(DegenerateInputError):
        dm._census_orbit(ps.group_preset("schottky"), 0, gr.DEFAULT_BUDGET)


def test_chord_lifts_stay_timelike_far_out():
    # tanh(20) rounds to 1, so the old lift (tanh(s/2) u, 1) was null at s = 40
    dirs = dm._ray_directions(2000, 4)
    lifts = dm._chord_lifts(dirs, 40.0)
    j = np.array([1.0, 1.0, -1.0])
    norm = np.sum(j * np.abs(lifts) ** 2, axis=1)
    scale = np.sum(np.abs(lifts) ** 2, axis=1)
    assert np.all(np.abs(norm + 1.0) <= 1e-12 * scale)
    # with the known norm the census measures s back to the center
    origin = cli._ball_origin(3).lift
    d = dm._distances_to_orbit(lifts, origin[None, :], -1.0, -1.0)[:, 0]
    assert np.all(np.isfinite(d))
    assert np.allclose(d, 40.0, rtol=1e-12, atol=0)


def test_census_past_the_tanh_horizon_is_clean():
    # horizon 39: the march reaches s where the old chord lifts were null
    gens = ps.group_preset("dilation")
    census = dm.dirichlet_side_census(gens, cli._ball_origin(3), 70, rays=200)
    assert census.sides == ("A", "a")
    assert 0.0 < census.unbounded_ray_fraction < 1.0
