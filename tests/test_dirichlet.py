import functools
import json
import tracemalloc

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
    ParameterError,
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


def census_orbit(gens, radius, budget=gr.DEFAULT_BUDGET):
    """dm._census_orbit over the ball of the given radius."""
    return dm._census_orbit(gens, gr.element_ball(gens, radius, budget)[0])


def slice_census(gens, model, u0, radius, rays, margin, budget):
    """dm._slice_census over the ball of the given radius."""
    levels, _ = gr.element_ball(gens, radius, budget)
    return dm._slice_census(gens, model, u0, radius, levels, rays, margin)


def half_turn():
    """The order-2 group of the half-turn about the vertical line through
    (1, 0): x -> 2 - x on the horizontal line."""
    g = (hb.embed_translation(1.0, 0.0) @ hb.embed_rotation(np.array([[-1.0 + 0j]]))
         @ hb.embed_translation(-1.0, 0.0))
    return gr.GroupGens([("a", g)], involutive="a")


def slab_center(u=1.0):
    return core.ProjectivePoint(
        hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, u)).lift
    )


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
        assert len(c6.sides) == 15
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
        # the message names the first element that fixes the center
        with pytest.raises(DegenerateCenterError, match="element 'A'$"):
            dm.dirichlet_side_census(gens, slab_center(), 2, rays=400)

    def test_boundary_center_rejected(self):
        boundary = core.ProjectivePoint(np.array([0, 0.5, 0.5], dtype=complex))
        with pytest.raises(DegenerateInputError):
            dm.dirichlet_side_census(cyclic_vertical(), boundary, 2, rays=400)


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

    @pytest.mark.parametrize("preset, model", [("cyclic-vertical", "vertical-axis"),
                                               ("cyclic-horizontal", "horizontal-line")])
    def test_one_dimensional_slices_follow_two_rays(self, preset, model):
        gens = ps.group_preset(preset)
        few, many = (dm.pullback_domain_sides(gens, model, 1.0, 3, rays=rays)
                     for rays in (100, 2000))
        assert few == many
        assert few.rays_used == 2

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

    def test_one_ball_serves_both_radii(self, monkeypatch):
        # the R census takes the first R + 1 levels of the one R + 2 ball
        calls, censused = [], []
        real_ball, real_orbit = gr.element_ball, dm._census_orbit

        def element_ball(gens, max_len, *args):
            calls.append(max_len)
            return real_ball(gens, max_len, *args)

        def census_orbit(gens, levels):
            censused.append(len(levels))
            return real_orbit(gens, levels)

        monkeypatch.setattr(gr, "element_ball", element_ball)
        monkeypatch.setattr(dm, "_census_orbit", census_orbit)
        census = dm.pullback_domain_sides(z2_lattice(), "full-horizontal", 1.0, 3,
                                          rays=720)
        assert calls == [5]
        assert censused == [4, 6]
        assert census.enumeration_radius == 3

    @pytest.mark.parametrize("make_gens, model, radius", [
        (cyclic_vertical, "vertical-axis", 2), (cyclic_horizontal, "horizontal-line", 3),
        (z2_lattice, "full-horizontal", 3), (half_turn, "horizontal-line", 3)])
    def test_equals_one_census_per_radius(self, make_gens, model, radius):
        # each census as if over its own ball; the half-turn's ball ends at
        # length 1, before either radius
        gens = make_gens()
        first, second = (slice_census(gens, model, 1.0, r, 720, dm.SIDE_MARGIN,
                                      gr.DEFAULT_BUDGET) for r in (radius, radius + 2))
        census = dm.pullback_domain_sides(gens, model, 1.0, radius, rays=720)
        assert census == first._replace(stable=first.sides == second.sides)
        assert census.enumeration_radius == radius

    def test_budget_failure_at_the_radius_of_a_census_per_radius(self):
        # z2's ball fails at each radius up to 4 over these budgets; a
        # census per radius raised at the R ball's radius, else the R + 2's
        gens = z2_lattice()

        def completed(radius, budget):
            try:
                gr.element_ball(gens, radius, budget)
            except BudgetExceededError as err:
                return err.completed_radius

        seen = set()
        for budget in range(2, 70, 3):
            want = completed(3, budget)
            want = completed(5, budget) if want is None else want
            if want is None:
                continue
            with pytest.raises(BudgetExceededError) as err:
                dm.pullback_domain_sides(gens, "full-horizontal", 1.0, 3, rays=720,
                                         budget=budget)
            assert err.value.completed_radius == want
            seen.add(want)
        assert seen == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("rays", [0, -3, 99])
    def test_too_few_rays_rejected_before_enumerating(self, rays, monkeypatch):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(gr, "element_ball", enumerate_nothing)
        with pytest.raises(ParameterError, match="^need at least 100 rays$"):
            dm.pullback_domain_sides(z2_lattice(), "full-horizontal", 1.0, 3,
                                     rays=rays)

    def test_negative_seed_rejected_before_enumerating(self, monkeypatch):
        # _halton's digits of a negative seed stay at -1 under floor
        # division, so its loop never ended
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(gr, "element_ball", enumerate_nothing)
        with pytest.raises(ParameterError, match="^seed must be nonnegative$"):
            dm.dirichlet_side_census(z2_lattice(), core.ball_origin(), 3,
                                     seed=-1)

    @pytest.mark.parametrize("u0", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_height_rejected_before_enumerating(self, u0, monkeypatch):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(gr, "element_ball", enumerate_nothing)
        with pytest.raises(ParameterError,
                           match="^slice height u0 must be positive and finite$"):
            dm.pullback_domain_sides(z2_lattice(), "full-horizontal", u0, 3, rays=720)

    def test_unknown_model_rejected_before_enumerating(self, monkeypatch):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("enumerated")

        monkeypatch.setattr(gr, "element_ball", enumerate_nothing)
        with pytest.raises(ParameterError, match="^unknown model 'diagonal'$"):
            dm.pullback_domain_sides(z2_lattice(), "diagonal", 1.0, 3)

    @pytest.mark.parametrize("xi, v, model, preset, margin", [
        ((1.0, 0.0), 0.0, "horizontal-line", "cyclic-horizontal", 1.7827228760507272),
        ((0.0, 0.0), 1.0, "vertical-axis", "cyclic-vertical", 0.8913614380253636)])
    def test_n3_translation_slices_equal_n2(self, xi, v, model, preset, margin):
        # the same translation with xi_2 = 0 sees the n = 2 census
        gens = gr.GroupGens([("a", hb.embed_translation(np.array(xi, dtype=complex),
                                                         v))])
        census = dm.pullback_domain_sides(gens, model, 1.0, 3)
        n2 = dm.pullback_domain_sides(ps.group_preset(preset), model, 1.0, 3)
        assert census == n2
        assert census.sides == ("A", "a")
        assert census.margins == {"A": margin, "a": margin}

    def test_n3_translation_along_xi2_leaves_the_horizontal_line(self):
        gens = gr.GroupGens([("a", hb.embed_translation(np.array([0.0, 1.0 + 0j]),
                                                         0.0))])
        with pytest.raises(InvarianceError):
            dm.pullback_domain_sides(gens, "horizontal-line", 1.0, 3)


def rotation_group(angle):
    return gr.GroupGens([("a", hb.embed_rotation(np.array([[np.exp(1j * angle)]])))])


INVARIANCE_GROUPS = {
    "cyclic-vertical": cyclic_vertical,
    "cyclic-horizontal": cyclic_horizontal,
    "z2-lattice": z2_lattice,
    "half-turn": half_turn,
    "dilation": lambda: ps.group_preset("dilation"),
    "schottky": lambda: ps.group_preset("schottky"),
    "T(i, 0)": lambda: gr.GroupGens([("a", hb.embed_translation(1j, 0.0))]),
    "rotation(pi/3)": lambda: rotation_group(np.pi / 3),
    "T(1, 1)": lambda: gr.GroupGens([("a", hb.embed_translation(1.0, 1.0))]),
}
# the models each group's slice census accepts; it rejects the others
INVARIANT_MODELS = {
    "cyclic-vertical": {"vertical-axis", "full-horizontal"},
    "cyclic-horizontal": {"horizontal-line", "full-horizontal"},
    "z2-lattice": {"full-horizontal"},
    "half-turn": {"horizontal-line", "full-horizontal"},
    "dilation": set(),
    "schottky": set(),
    "T(i, 0)": set(),
    "rotation(pi/3)": {"vertical-axis"},
    "T(1, 1)": {"full-horizontal"},
}
MODELS = ("vertical-axis", "horizontal-line", "full-horizontal")


def invariance_accepts(gens, model, u0, monkeypatch):
    """Whether pullback_domain_sides gets past its invariance check to the
    enumeration, or raises InvarianceError."""
    class Enumerated(Exception):
        pass

    def enumerate_nothing(*args, **kwargs):
        raise Enumerated

    monkeypatch.setattr(gr, "element_ball", enumerate_nothing)
    try:
        dm.pullback_domain_sides(gens, model, u0, 3, rays=720)
    except Enumerated:
        return True
    except InvarianceError:
        return False


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("group", INVARIANCE_GROUPS)
def test_invariance_decisions(group, model, monkeypatch):
    gens = INVARIANCE_GROUPS[group]()
    assert invariance_accepts(gens, model, 1.0, monkeypatch) == (
        model in INVARIANT_MODELS[group])


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("group", ["cyclic-vertical", "cyclic-horizontal", "z2-lattice"])
def test_invariance_decisions_hold_at_every_height(group, model, monkeypatch):
    # far up, the images' heights round away from u0 by more than 1e-9;
    # the unit multiplier at infinity is what keeps the height
    gens = INVARIANCE_GROUPS[group]()
    for u0 in np.logspace(-6, 9, 10):
        assert invariance_accepts(gens, model, float(u0), monkeypatch) == (
            model in INVARIANT_MODELS[group])


@pytest.mark.parametrize("radius", [3, 5])
@pytest.mark.parametrize("u0", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("preset, model", [("cyclic-vertical", "vertical-axis"),
                                           ("cyclic-horizontal", "horizontal-line"),
                                           ("z2-lattice", "full-horizontal")])
def test_slice_sides_are_sides_of_the_ball_census(preset, model, u0, radius):
    # an independent route that owes nothing to the slice model: a bisector
    # the slice census certifies, crossed inside the slice, also bounds the
    # Dirichlet domain of the whole ball at the same center
    gens = ps.group_preset(preset)
    center = hb.horo_to_projective(hb.HoroPoint(0, 0, u0))
    on_slice = dm.pullback_domain_sides(gens, model, u0, radius, rays=720)
    in_ball = dm.dirichlet_side_census(gens, center, radius, rays=10_000)
    assert on_slice.sides
    assert set(on_slice.sides) <= set(in_ball.sides)


# --- reference censuses: the two copies the first-exit kernel replaced ---
# Kept verbatim with the scalar lifts they called: the tanh chord lift, the
# per-point slice lift and the per-matrix orbit lifts, and with the march in
# steps of STEP and the bisection to BISECTION_TOL that the package no
# longer has.  Both censuses solve for their exits in closed form.  Each
# margin is 2-Lipschitz along a unit-speed ray, so sides, unbounded
# fractions and the census bookkeeping must match and margins agree to
# 2 BISECTION_TOL; the slice rays, not unit-speed, stay within it too.

STEP = 0.05
BISECTION_TOL = 1e-9


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


def level_words(gens, levels):
    """Each level's words, spelled from its (parent, symbol) links."""
    words = gr.Words(gens, levels)
    flat = words.take(np.arange(words.starts[-1]))
    return [flat[a:b] for a, b in zip(words.starts[:-1], words.starts[1:])]


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
    spelled = level_words(gens, levels)
    for length, (ws, (_, stack)) in enumerate(zip(spelled, levels)):
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
    base_d = core._bergman_distances(origin[None, :], orbit_lifts, cnorm)[0]
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
        s_next = min(s + STEP, horizon)
        pts = ref_chord_lifts(dirs[active], s_next)
        dmin = np.min(core._bergman_distances(pts, orbit_lifts, cnorm), axis=1)
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
        while np.max(b - a) > BISECTION_TOL:
            mid = 0.5 * (a + b)
            pts = ref_chord_lifts(d_sub, mid)
            dmin = np.min(core._bergman_distances(pts, orbit_lifts, cnorm), axis=1)
            beaten = dmin < mid
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness = ref_chord_lifts(d_sub, 0.5 * (a + b))
        dist = core._bergman_distances(witness, orbit_lifts, cnorm)
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
    spelled = level_words(gens, levels)
    for length, (ws, (_, stack)) in enumerate(zip(spelled, levels)):
        if length == 0:
            continue
        words.extend(ws)
        mats.append(stack)
    if not words:
        raise DegenerateInputError("no nontrivial elements to census")
    mats = np.concatenate(mats)

    dim = len(dm._SLICES[model])
    n = gens.dim - 1
    center = ref_slice_point(model, (0.0,) * dim, u0, n=n)
    ylift = ref_horo_to_projective(center).lift
    orbit_lifts = np.array([m @ ylift for m in mats])
    ynorm = float(core.herm_inner(ylift, ylift).real)
    base_d = core._bergman_distances(ylift[None, :], orbit_lifts, ynorm)[0]
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
        return core._bergman_distances(lifts, ylift[None, :], ynorm)[:, 0]

    lo = np.zeros(nrays)
    hi = np.full(nrays, np.nan)
    active = np.arange(nrays)
    t = 0.0
    # slice paths are not unit-speed geodesics; march the slice coordinate
    # until the ambient distance to the center clears the horizon
    while active.size and t < horizon * 3.0 + 10.0:
        t_next = t + STEP
        pts = slice_lifts(dirs[active], t_next)
        dmin = np.min(core._bergman_distances(pts, orbit_lifts, ynorm), axis=1)
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
        while np.max(b - a) > BISECTION_TOL:
            mid = 0.5 * (a + b)
            pts = slice_lifts(d_sub, mid)
            dmin = np.min(core._bergman_distances(pts, orbit_lifts, ynorm), axis=1)
            beaten = dmin < center_dist(pts)
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness = slice_lifts(d_sub, 0.5 * (a + b))
        dist = core._bergman_distances(witness, orbit_lifts, ynorm)
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


def _same_census_up_to_bisection(got, want):
    assert got.sides == want.sides
    assert got.unbounded_ray_fraction == want.unbounded_ray_fraction
    assert got.rays_used == want.rays_used
    assert got.enumeration_radius == want.enumeration_radius
    for w in want.sides:
        assert abs(got.margins[w] - want.margins[w]) <= 2 * BISECTION_TOL


@pytest.mark.parametrize("preset,where,radius", BALL_CASES)
def test_ball_census_matches_reference(preset, where, radius):
    gens = ps.group_preset(preset)
    center = slab_center() if where == "slab" else core.ball_origin(gens.dim - 1)
    got = dm.dirichlet_side_census(gens, center, radius)
    _same_census_up_to_bisection(got, ref_dirichlet_side_census(gens, center, radius))
    assert got.stable is None


SLICE_CASES = [
    (cyclic_vertical, "vertical-axis", dm.DEFAULT_RAYS),
    (cyclic_horizontal, "horizontal-line", dm.DEFAULT_RAYS),
    (z2_lattice, "full-horizontal", 720),
]


@pytest.mark.parametrize("u0,radius", [(1.0, 3), (0.5, 5), (2.0, 2)])
@pytest.mark.parametrize("make_gens,model,rays", SLICE_CASES,
                         ids=[model for _, model, _ in SLICE_CASES])
def test_slice_census_matches_reference(make_gens, model, rays, u0, radius):
    args = (make_gens(), model, u0, radius, rays, dm.SIDE_MARGIN, gr.DEFAULT_BUDGET)
    _same_census_up_to_bisection(slice_census(*args), ref_slice_census(*args))


def slice_rays(gens, model, u0, radius, dirs):
    """The center lift, orbit lifts, z1 and z2 that _slice_census passes to
    _slice_exits for rays along dirs, and the lifts at slice coordinates."""
    n = gens.dim - 1
    _, mats = census_orbit(gens, radius)
    c = hb.horo_to_projective(ref_slice_point(model, (0.0,) * dirs.shape[1], u0, n)).lift

    def lifts(coords):
        return hb._horo_lifts(*dm._slice_coords(model, coords, n), u0)

    ahead, behind = lifts(dirs), lifts(-dirs)
    return c, mats @ c, (ahead - behind) / 2.0, (ahead + behind) / 2.0 - c, lifts


@pytest.mark.parametrize("u0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("make_gens,model", [(cyclic_horizontal, "horizontal-line"),
                                             (cyclic_vertical, "vertical-axis")])
def test_slice_exits_halfway_to_the_nearest_images(make_gens, model, u0):
    # c and a^{+-1} c lie at one height, so their bisectors cross the slice
    # halfway; at R=1 the runner-up at the witness is the other image
    gens = make_gens()
    for radius in (1, 3):
        c, orbit, z1, z2, _ = slice_rays(gens, model, u0, radius,
                                         np.array([[1.0], [-1.0]]))
        assert np.max(np.abs(dm._slice_exits(c, orbit, z1, z2) - 0.5)) <= 1e-13

    def point(t):
        return hb.horo_to_projective(ref_slice_point(model, (t,), u0))

    census = dm.pullback_domain_sides(gens, model, u0, 1)
    want = (core.bergman_distance(point(0.5), point(-1.0))
            - core.bergman_distance(point(0.5), point(1.0)))
    assert census.sides == ("A", "a")
    for w in census.sides:
        assert abs(census.margins[w] - want) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.25, max_value=4.0),
       st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), min_size=1,
                max_size=8))
def test_slice_exits_are_first_exits(u0, angles):
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    c, orbit, z1, z2, lifts = slice_rays(z2_lattice(), "full-horizontal", u0, 3,
                                         dirs)
    norm = float(core.herm_inner(c, c).real)
    for u, exit_t in zip(dirs, dm._slice_exits(c, orbit, z1, z2)):
        # full distances over the whole orbit: no image is nearer than the
        # center on a grid short of the exit, and one is just past it
        end = min(exit_t, 20.0)
        delta = 1e-7 * (1.0 + end)
        ts = np.append(np.linspace(0.0, end - delta, 64), end + delta)
        x = lifts(ts[:, None] * u)
        gap = (np.min(core._bergman_distances(x, orbit, norm), axis=1)
               - core._bergman_distances(x, c[None, :], norm)[:, 0])
        assert np.all(gap[:-1] > -1e-9)
        if exit_t <= 20.0:
            assert gap[-1] < 1e-9


def test_slice_census_peak_memory_is_bounded_by_chunks():
    # at R=8 and 6,000 rays: the march's peak was 20.7 MiB, and one
    # unchunked cubic over every ray-orbit pair at once 95.5 MiB
    args = (z2_lattice(), "full-horizontal", 1.0, 8, 6000, dm.SIDE_MARGIN,
            gr.DEFAULT_BUDGET)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        slice_census(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("model", ["vertical-axis", "horizontal-line", "full-horizontal"])
def test_batched_slice_lifts_equal_scalar_lifts(model):
    dim = len(dm._SLICES[model])
    rng = np.random.default_rng(3)
    coords = rng.normal(scale=4.0, size=(200, dim))
    coords[:3] = 0.0  # signed zeros must agree too
    coords[3] = -0.0
    for u0 in (1.0, 0.37):
        xi, v = dm._slice_coords(model, coords, 2)
        batch = hb._horo_lifts(xi, v, u0)
        for k in range(coords.shape[0]):
            scalar = hb.horo_to_projective(ref_slice_point(model, coords[k], u0)).lift
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
    _, mats = census_orbit(gens, 4)
    off_axis = core.ProjectivePoint(np.array([0.3 + 0.1j, -0.2j, 1.0]))
    for center in (core.ball_origin(gens.dim - 1), slab_center(0.7), off_axis):
        back = dm._ball_frame(center).inverse().matrix
        loop = np.array([back @ (m @ center.lift) for m in mats])
        stacked = (back @ (mats @ center.lift)[..., None])[..., 0]
        assert stacked.tobytes() == loop.tobytes()
        plain = np.array([m @ center.lift for m in mats])
        assert (mats @ center.lift).tobytes() == plain.tobytes()


def test_census_orbit_errors():
    with pytest.raises(BudgetExceededError) as info:
        dm.dirichlet_side_census(ps.group_preset("schottky"), core.ball_origin(), 6,
                                 budget=100)
    assert info.value.completed_radius < 6
    with pytest.raises(DegenerateInputError):
        census_orbit(ps.group_preset("schottky"), 0)


def test_chord_lifts_stay_timelike_far_out():
    # tanh(20) rounds to 1, so the old lift (tanh(s/2) u, 1) was null at s = 40
    dirs = dm._ray_directions(2000, 4)
    lifts = dm._chord_lifts(dirs, 40.0)
    j = np.array([1.0, 1.0, -1.0])
    norm = np.sum(j * np.abs(lifts) ** 2, axis=1)
    scale = np.sum(np.abs(lifts) ** 2, axis=1)
    assert np.all(np.abs(norm + 1.0) <= 1e-12 * scale)
    # with the known norm the census measures s back to the center
    origin = core.ball_origin().lift
    d = core._bergman_distances(lifts, origin[None, :], -1.0, -1.0)[:, 0]
    assert np.all(np.isfinite(d))
    assert np.allclose(d, 40.0, rtol=1e-12, atol=0)


def test_census_past_the_tanh_horizon_is_clean():
    # horizon 39: the march reaches s where the old chord lifts were null
    gens = ps.group_preset("dilation")
    census = dm.dirichlet_side_census(gens, core.ball_origin(), 70, rays=200)
    assert census.sides == ("A", "a")
    assert 0.0 < census.unbounded_ray_fraction < 1.0


# --- reference first-exit kernel: the arccosh march it replaced ---
# Kept verbatim: every (ray, orbit point) pair goes through a full Bergman
# distance and the witness loop sorts each row.  Run on the ball census's
# rays, it is the march that the closed-form exits must agree with.


def ref_first_exit_census(
    words, base_lift, orbit_lifts, norm, path, dirs, t_max, margin, enum_radius,
    path_norm=None,
):
    base_d = core._bergman_distances(base_lift[None, :], orbit_lifts, norm)[0]
    if np.min(base_d) <= 1e-10:
        k = int(np.argmin(base_d))
        raise DegenerateCenterError(
            f"center is fixed by the nontrivial element {words[k]!r}"
        )
    horizon = float(np.max(base_d)) / 2.0 + 4.0
    t_max = t_max(horizon)

    def beaten_at(sub_dirs, t):
        lifts, d_center = path(sub_dirs, t)
        dist = core._bergman_distances(lifts, orbit_lifts, norm, path_norm)
        dmin = np.min(dist, axis=1)
        return dmin < d_center, d_center

    nrays = dirs.shape[0]
    lo = np.zeros(nrays)
    hi = np.full(nrays, np.nan)
    active = np.arange(nrays)
    t = 0.0
    while active.size and t < t_max:
        t_next = min(t + STEP, t_max)
        beaten, d_center = beaten_at(dirs[active], t_next)
        hi[active[beaten]] = t_next
        lo[active[~beaten]] = t_next
        active = active[~beaten & (d_center <= horizon)]
        t = t_next

    crossed = ~np.isnan(hi)
    sides = {}
    idx = np.nonzero(crossed)[0]
    if idx.size:
        a = lo[idx].copy()
        b = hi[idx].copy()
        d_sub = dirs[idx]
        while np.max(b - a) > BISECTION_TOL:
            mid = 0.5 * (a + b)
            beaten, _ = beaten_at(d_sub, mid)
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness, _ = path(d_sub, 0.5 * (a + b))
        dist = core._bergman_distances(witness, orbit_lifts, norm, path_norm)
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
        rays_used=nrays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=int(np.sum(~crossed)) / nrays,
    )


def scaled_center():
    # a lift of form norm -0.0016, not -1
    return core.ProjectivePoint(
        0.1 * hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 0.25)).lift
    )


KERNEL_BALL_CASES = [
    ("cyclic-vertical", "origin", 6, 2000),
    ("z2-lattice", "origin", 6, 2000),
    ("z2-lattice", "slab", 3, 2000),
    ("z2-lattice", "scaled", 4, 2000),
    ("dilation", "origin", 6, 2000),
    ("schottky", "origin", 3, 2000),
]


def _same_census_bits(got, want):
    assert got == want
    assert [repr(got.margins[w]) for w in got.sides] == [
        repr(want.margins[w]) for w in want.sides
    ]
    assert repr(got.unbounded_ray_fraction) == repr(want.unbounded_ray_fraction)


def ref_ball_census(gens, center, radius, rays=dm.DEFAULT_RAYS, seed=0):
    """The ball census as the reference march computes it."""
    spell, mats = census_orbit(gens, radius)
    words = spell(np.arange(len(mats)))
    back = dm._ball_frame(center).inverse().matrix
    orbit = (back @ (mats @ center.lift)[..., None])[..., 0]
    norm = float(core.herm_inner(center.lift, center.lift).real)
    origin = core.ball_origin(gens.dim - 1).lift
    dirs = dm._ray_directions(rays, 2 * (orbit.shape[1] - 1), seed=seed)
    return ref_first_exit_census(
        words, origin, orbit, norm, lambda d, s: (dm._chord_lifts(d, s), s),
        dirs, lambda horizon: horizon, dm.SIDE_MARGIN, radius, path_norm=-1.0,
    )


@pytest.mark.parametrize("preset,where,radius,rays", KERNEL_BALL_CASES)
def test_ball_kernel_matches_arccosh_reference_bit_for_bit(preset, where, radius, rays):
    # the name predates the closed-form exits: margins now agree to 2e-9
    gens = ps.group_preset(preset)
    center = _kernel_center(gens, where)
    got = dm.dirichlet_side_census(gens, center, radius, rays=rays)
    _same_census_up_to_bisection(got, ref_ball_census(gens, center, radius, rays))


@pytest.mark.parametrize("seed", [0, 3])
def test_z2_census_at_benchmark_scale_matches_the_march(seed):
    # the dirichlet-z2-10 benchmark step: 10,000 rays over 220 images
    gens = ps.group_preset("z2-lattice")
    center = core.ball_origin(gens.dim - 1)
    got = dm.dirichlet_side_census(gens, center, 10, rays=10000, seed=seed)
    _same_census_up_to_bisection(got, ref_ball_census(gens, center, 10, 10000, seed))


def test_schottky_census_at_r5_stays_unbounded():
    # pins a known defect: uniform rays miss the small Schottky bisectors
    # (ROADMAP item 3), so a fix of that defect must update this test
    census = dm.dirichlet_side_census(ps.group_preset("schottky"),
                                      core.ball_origin(), 5)
    assert census.unbounded_ray_fraction == 1.0
    assert census.sides == ()


# --- reference exits: the full-matrix kernel the nearest-first one replaced ---
# Kept as it was: every ray against every image, _EXIT_CELLS ray-image
# pairs at a time.  _ball_exits visits the images nearest first and drops a
# ray once no image left can beat its exit, with the same operations on
# each ray-image pair, so the two must agree bit for bit.


def ref_exit_roots(dirs, orbit_lifts, norm):
    """Largest root below 1 of f for each ray and image (0 if none)."""
    n = orbit_lifts.shape[1] - 1
    last = orbit_lifts[:, -1]
    zbar = np.conj(orbit_lifts[:, :-1] / last[:, None]).T
    eps = -norm / (last.real ** 2 + last.imag ** 2)
    rho = (dirs[:, :n] + 1j * dirs[:, n:]) @ zbar
    x = rho.real
    y2 = rho.imag ** 2
    h = (x * x + y2) * eps - y2
    crossing = h > 0.0
    np.sqrt(h, out=h, where=crossing)
    p = x - 1.0
    c = p * p + y2 - eps
    t = p * (x + 1.0) + y2 + eps - 2.0 * h
    with np.errstate(divide="ignore", invalid="ignore"):
        root = c / t
    root[~crossing | ~(root < 1.0)] = 0.0
    return root


def ref_ball_exits(dirs, orbit_lifts, norm):
    chunk = max(1, dm._EXIT_CELLS // len(orbit_lifts))
    q = np.concatenate([
        np.max(ref_exit_roots(dirs[lo : lo + chunk], orbit_lifts, norm),
               axis=1, initial=0.0)
        for lo in range(0, dirs.shape[0], chunk)])
    with np.errstate(divide="ignore"):
        return -np.log(q)


def _kernel_center(gens, where):
    return {"origin": core.ball_origin(gens.dim - 1), "slab": slab_center(),
            "scaled": scaled_center()}[where]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("preset,where,radius,rays", KERNEL_BALL_CASES + [
    ("z2-lattice", "origin", 10, 10000),
    ("cyclic-vertical", "origin", 5, 2000)])  # 10 images: a BLAS edge tile
def test_nearest_first_exits_equal_the_full_matrix_bit_for_bit(
        preset, where, radius, rays, seed):
    center = _kernel_center(ps.group_preset(preset), where)
    _, orbit, norm, reach = _ball_orbit(preset, radius, center)
    dirs = dm._ray_directions(rays, 4, seed=seed)
    got = dm._ball_exits(dirs, orbit, norm, reach)
    assert got.tobytes() == ref_ball_exits(dirs, orbit, norm).tobytes()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("preset,radius,rays", [
    ("z2-lattice", 6, 2000), ("z2-lattice", 10, 10000),
    ("cyclic-vertical", 6, 2000), ("dilation", 6, 2000),
    ("schottky-file", 3, 2000), ("schottky-file", 4, 2000)])
def test_triangle_inequality_bounds_hold_within_the_slack(tmp_path, preset,
                                                          radius, rays, seed):
    # the bounds the kernels drop images on, as rounded: an image at reach r
    # from the center has no root of f short of s = r / 2, and lies at least
    # r - s from a witness at s, each less dm._SLACK.  The worst excess over
    # these cases is 1.1e-16, on dilation's nearest images
    gens = (schottky_generator_file(tmp_path) if preset == "schottky-file"
            else ps.group_preset(preset))
    spell, mats = census_orbit(gens, radius)
    origin = core.ball_origin(gens.dim - 1).lift
    orbit = mats @ origin
    reach, horizon = dm._horizon(spell, origin, orbit, -1.0)
    dirs = dm._ray_directions(rays, 4, seed=seed)
    for lo in range(0, rays, 1000):
        roots = ref_exit_roots(dirs[lo : lo + 1000], orbit, -1.0)
        with np.errstate(divide="ignore"):
            s = -np.log(np.maximum(roots, 0.0))
        assert np.all(reach / 2.0 - s <= dm._SLACK)
    s = dm._ball_exits(dirs, orbit, -1.0, reach)
    crossed = s < horizon
    witness = dm._chord_lifts(dirs[crossed], s[crossed])
    dist = core._bergman_distances(witness, orbit, -1.0, -1.0)
    assert np.all(reach - s[crossed, None] - dist <= dm._SLACK)


def test_a_ray_left_alone_rounds_as_in_the_full_product():
    # a product of one row is a gemv, which rounds otherwise than the
    # blocked kernel: alone, some rays get another largest root.  After 9999
    # copies of the ray that exits first, which fill more than one block,
    # each of them is left alone after the first block, and must still get
    # the full product's exit
    _, orbit, norm, reach = _ball_orbit("z2-lattice", 10, core.ball_origin())
    dirs = dm._ray_directions(2000, 4, seed=0)
    full = np.max(ref_exit_roots(dirs, orbit, norm), axis=1)
    first = int(np.argmax(full))
    for i in range(len(dirs)):
        if np.max(ref_exit_roots(dirs[i : i + 1], orbit, norm)) != full[i]:
            got = dm._ball_exits(dirs[[first] * 9999 + [i]], orbit, norm, reach)
            want = ref_ball_exits(dirs[[first, i]], orbit, norm)
            assert got[-1].tobytes() == want[-1].tobytes()


def test_far_field_exit_stays_beyond_the_horizon():
    # a ray that tends to a point on a bisector's boundary: rounding alone
    # gives it a root of about 1e-16 (ROADMAP item 3), an exit at s = 37.2
    # that no image makes.  The root is an image's at reach 3.6, so no bound
    # drops it, and the exit must stay past the horizon
    _, orbit, norm, reach = _ball_orbit("z2-lattice", 6, core.ball_origin())
    s = dm._ball_exits(np.array([[0.0, -1.0, 0.0, 0.0]]), orbit, norm, reach)
    assert s[0] > np.max(reach) / 2.0 + 4.0


# --- reference certification: the one-shot distance matrix it replaced ---
# _certify visits the images nearest first, in tiles of about _EXIT_CELLS
# distances, and drops a witness once no image left can come nearer than
# its runner-up; this takes all distances in one matrix, as the census did
# before.  Each witness keeps its nearest image, the first in index order
# among equals, and the runner-up's distance, so the two must give the
# same census bit for bit.


def ref_certify(spell, dist, nrays, margin, enum_radius):
    best = np.argmin(dist, axis=1)
    second = (np.partition(dist, 1, axis=1)[:, 1] if dist.shape[1] > 1
              else np.inf)
    m = second - dist[np.arange(dist.shape[0]), best]
    keep = m >= margin
    best, m = best[keep], m[keep]
    least = np.full(dist.shape[1], np.inf)
    np.minimum.at(least, best, m)
    g = sorted(set(best.tolist()))
    sides = dict(zip(spell(g), least[g].tolist()))
    side_words = tuple(sorted(sides))
    return dm.SideCensus(
        sides=side_words,
        margins={w: sides[w] for w in side_words},
        rays_used=nrays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=(nrays - dist.shape[0]) / nrays,
    )


@pytest.fixture
def certified(monkeypatch):
    """(witness count, (rows, images) of each tile, nearest-first census,
    one-shot census) of every _certify call."""
    calls, tiles = [], []
    nearest_first, visit = dm._certify, dm._nearest_first

    def logged(reach, count, dtypes, tile, done):
        def logged_tile(rows, cols, *bufs):
            tiles.append((len(rows), len(cols)))
            tile(rows, cols, *bufs)

        visit(reach, count, dtypes, logged_tile, done)

    def both(spell, witness, s, orbit_lifts, reach, norm, witness_norm, *rest):
        tiles.clear()
        got = nearest_first(spell, witness, s, orbit_lifts, reach, norm,
                            witness_norm, *rest)
        dist = core._bergman_distances(witness, orbit_lifts, norm, witness_norm)
        calls.append((len(witness), list(tiles), got,
                      ref_certify(spell, dist, *rest)))
        return got

    monkeypatch.setattr(dm, "_nearest_first", logged)
    monkeypatch.setattr(dm, "_certify", both)
    return calls


def schottky_generator_file(tmp_path):
    """The Schottky preset read back from a generator file, as the CLI reads it."""
    path = tmp_path / "schottky.json"
    path.write_text(json.dumps([[[[z.real, z.imag] for z in row] for row in iso.matrix]
                                for iso in ps.group_preset("schottky").isometries]))
    return cli._gens_from_isometries(
        [core.Isometry(m) for m in cli._load_generator_file(str(path))])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("preset,radius,rays", [
    ("z2-lattice", 10, 10000), ("cyclic-vertical", 6, 2000),
    ("cyclic-vertical", 5, 2000), ("schottky-file", 3, 2000)])
def test_chunked_certification_matches_one_shot(certified, tmp_path, preset,
                                                radius, rays, seed):
    gens = (schottky_generator_file(tmp_path) if preset == "schottky-file"
            else ps.group_preset(preset))
    dm.dirichlet_side_census(gens, core.ball_origin(gens.dim - 1), radius,
                             rays=rays, seed=seed)
    (witnesses, tiles, got, want), = certified
    _same_census_bits(got, want)
    if preset == "z2-lattice":
        # several blocks, and witnesses done before the last
        assert len(tiles) > 1 and tiles[-1][0] < witnesses


def test_chunked_slice_certification_matches_one_shot(certified):
    dm.pullback_domain_sides(z2_lattice(), "full-horizontal", 1.0, 3, rays=6000)
    assert len(certified) == 2  # at enum_radius and enum_radius + 2
    for witnesses, tiles, got, want in certified:
        # several blocks, and witnesses done before the last
        assert len(tiles) > 1 and tiles[-1][0] < witnesses
        _same_census_bits(got, want)


def test_certification_breaks_ties_by_index_across_blocks():
    # a witness at the origin and 16 images on its axis, of which 3 and 12
    # tie nearest to it.  The reaches put 12 in the first block and 3 in
    # the last, and the witness is never done, so the tie is decided where
    # the blocks merge, and as np.argmin decides it: for the lower index
    t = np.linspace(2.0, 3.0, 16)
    t[[3, 12]] = 1.5
    orbit = np.zeros((16, 3), dtype=complex)
    orbit[:, 2] = t
    reach = np.arange(16.0)
    reach[[3, 12]] = 15.5, 0.5
    witness = np.array([[0.0, 0.0, 1.0]], dtype=complex)

    def spell(rows):
        return [f"g{r}" for r in rows]

    got = dm._certify(spell, witness, np.array([100.0]), orbit, reach, -1.0,
                      -1.0, 100, 0.0, 1)
    dist = core._bergman_distances(witness, orbit, -1.0, -1.0)
    _same_census_bits(got, ref_certify(spell, dist, 100, 0.0, 1))
    assert got.sides == ("g3",) and got.margins == {"g3": 0.0}


def test_census_peak_memory_is_bounded_by_one_chunk():
    # the dirichlet-z2-10 benchmark step: before the witness distances were
    # chunked, the 10,000 x 220 distance matrix and its temporaries made the
    # peak 18 times 1,024 rays' complex products with the orbit, and chunks
    # of 1,024 rays still left about 18 MB.  Chunks of _EXIT_CELLS ray-orbit
    # pairs bound it whatever the orbit's size, at 8 MiB
    gens = ps.group_preset("z2-lattice")
    center = core.ball_origin(gens.dim - 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dm.dirichlet_side_census(gens, center, 10, rays=10000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * dm._EXIT_CELLS * 16


def test_census_depends_only_on_the_projective_center():
    # v != 0 gives the lift a complex last coordinate, whose phase used to
    # rotate the orbit against the fixed rays
    gens = z2_lattice()
    lift = hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.3, 1.0)).lift
    want = dm.dirichlet_side_census(gens, core.ProjectivePoint(lift), 4)
    for factor in (3 - 2j, 0.1):
        got = dm.dirichlet_side_census(gens, core.ProjectivePoint(lift * factor), 4)
        assert got.sides == want.sides
        assert got.unbounded_ray_fraction == want.unbounded_ray_fraction
        for w in want.sides:
            assert abs(got.margins[w] - want.margins[w]) <= 1e-9


def test_ball_frame_is_a_transvection_to_the_center():
    # the closed-form frame preserves the form to rounding and sends the
    # origin to the center, for centers up to distance 15 whose lifts have
    # any scale and phase; at the origin, where every CLI census runs, it
    # is exactly I
    rng = np.random.default_rng(11)
    for n in (2, 3):
        frame = dm._ball_frame(core.ball_origin(n)).matrix
        assert frame.tobytes() == np.eye(n + 1, dtype=complex).tobytes()
        for _ in range(500):
            u = rng.normal(size=n) + 1j * rng.normal(size=n)
            z = np.tanh(rng.uniform(0, 7.5)) * u / np.linalg.norm(u)
            scale = 10.0 ** rng.uniform(-5, 5) * np.exp(2j * np.pi * rng.uniform())
            center = core.ProjectivePoint(np.append(z, 1.0) * scale)
            m = dm._ball_frame(center).matrix
            assert core.form_defect(m) <= 4e-15 * np.max(np.abs(m)) ** 2
            assert core.projective_lift_gap(m[:, -1], center.lift) <= 2e-15


def _ball_orbit(preset, radius, center):
    gens = ps.group_preset(preset)
    _, mats = census_orbit(gens, radius)
    back = dm._ball_frame(center).inverse().matrix
    orbit = (back @ (mats @ center.lift)[..., None])[..., 0]
    norm = float(core.herm_inner(center.lift, center.lift).real)
    origin = core.ball_origin(gens.dim - 1).lift
    base_d = core._bergman_distances(origin[None, :], orbit, norm)[0]
    return origin, orbit, norm, base_d


@functools.cache
def _orbit_case(key):
    preset, radius, where = key
    center = scaled_center() if where == "scaled" else core.ball_origin()
    return _ball_orbit(preset, radius, center)


@pytest.mark.parametrize("preset", ps.DIRICHLET_PRESETS + ("schottky",))
@pytest.mark.parametrize("where", ["origin", "scaled"])
def test_ray_toward_a_nearest_image_exits_at_half_its_distance(preset, where):
    # by the triangle inequality no image beats the center before the
    # midpoint of [c, g c] when g c is a nearest image, and g c beats it
    # right after
    center = scaled_center() if where == "scaled" else core.ball_origin()
    _, orbit, norm, base_d = _ball_orbit(preset, 4, center)
    for g in np.nonzero(base_d <= base_d.min() * (1.0 + 1e-12))[0]:
        z = orbit[g, :-1] / orbit[g, -1]
        u = np.concatenate([z.real, z.imag])
        s = dm._ball_exits((u / np.linalg.norm(u))[None, :], orbit, norm,
                           base_d)[0]
        assert abs(s - base_d[g] / 2.0) <= 1e-12 * (1.0 + s)


_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("z2-lattice", 6, "origin"), ("z2-lattice", 4, "scaled"),
                     ("schottky", 3, "origin"), ("cyclic-vertical", 6, "origin"),
                     ("dilation", 6, "origin")]),
    st.lists(st.lists(_unit, min_size=4, max_size=4), min_size=1, max_size=8),
)
def test_ball_exits_are_first_exits(key, rays):
    _, orbit, norm, reach = _orbit_case(key)
    dirs = np.array([u for u in rays if np.linalg.norm(u) > 1e-3])
    if not dirs.size:
        return
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    s = dm._ball_exits(dirs, orbit, norm, reach)
    for u, exit_s in zip(dirs, s):
        # full distances over the whole orbit: no image is nearer than the
        # center on a grid short of the exit, which also catches beaten
        # stretches shorter than a march step, and one is just past it.
        # The check stops at 12, where distances round by ~1e-11; a ray
        # that grazes a bisector gains on it by less than that, so both
        # sides allow 1e-9.
        end = min(exit_s, 12.0)
        delta = 1e-7 * (1.0 + end)
        ts = np.append(np.linspace(0.0, end - delta, 64), end + delta)
        dist = core._bergman_distances(
            dm._chord_lifts(np.repeat(u[None, :], ts.size, axis=0), ts),
            orbit, norm, -1.0)
        gap = np.min(dist, axis=1) - ts
        tol = 1e-9 * (1.0 + ts)
        assert np.all(gap[:-1] > -tol[:-1])
        if exit_s <= 12.0:
            assert gap[-1] < tol[-1]
        else:
            assert gap[-1] > -tol[-1]


class TestHalton:
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_scipy_bit_for_bit(self, dim):
        from scipy.stats import qmc

        for count in (1, 17, 2000, 10000):
            plain = qmc.Halton(d=dim, scramble=False).random(count)
            assert np.array_equal(dm._halton(count, dim), plain)
            for seed in (1, 7, 12345):
                # the shift is the plain sequence's own seed-th point
                shift = qmc.Halton(d=dim, scramble=False).fast_forward(seed).random(1)
                assert np.array_equal(dm._halton(count, dim, seed=seed),
                                      (plain + shift) % 1)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**70), dim=st.integers(1, 6))
    def test_any_seed_gives_points_in_the_unit_cube(self, seed, dim):
        pts = dm._halton(50, dim, seed=seed)
        assert np.all(np.isfinite(pts))
        assert np.all((pts >= 0.0) & (pts < 1.0))


def test_ray_directions_are_shoemakes_map_for_n_2():
    for seed in (0, 1, 7):
        x = dm._halton(2000, 3, seed=seed)
        a, b = 2 * np.pi * x[:, 1], 2 * np.pi * x[:, 2]
        r1, r2 = np.sqrt(x[:, 0]), np.sqrt(1.0 - x[:, 0])
        want = np.column_stack([r1 * np.cos(a), r2 * np.cos(b),
                                r1 * np.sin(a), r2 * np.sin(b)])
        assert np.max(np.abs(dm._ray_directions(2000, 4, seed=seed) - want)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ray_directions_are_unit_and_balanced(n):
    for seed in (0, 5):
        dirs = dm._ray_directions(2000, 2 * n, seed=seed)
        assert dirs.shape == (2000, 2 * n)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-15
        # a uniform unit vector of R^2n has mean 0 and second moment I/2n
        assert np.max(np.abs(dirs.mean(axis=0))) < 0.01
        second = dirs.T @ dirs / len(dirs)
        assert np.max(np.abs(second - np.eye(2 * n) / (2 * n))) < 0.01
