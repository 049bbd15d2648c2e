import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chgeom import bending as bd
from chgeom import cli
from chgeom import core
from chgeom import dirichlet as dm
from chgeom import groups as gr
from chgeom import heisenberg as hb
from chgeom import presets as ps
from chgeom.errors import (
    BudgetExceededError,
    DegenerateInputError,
    DimensionError,
    FormViolationError,
    InvalidPackingError,
    InvalidPointError,
    ParameterError,
)


def cyclic_vertical():
    return gr.GroupGens([("a", hb.embed_translation(np.zeros(1, dtype=complex), 1.0))])


def z2_lattice():
    return gr.GroupGens(
        [
            ("a", hb.embed_translation(np.array([1.0 + 0j]), 0.0)),
            ("b", hb.embed_translation(np.zeros(1, dtype=complex), 1.0)),
        ]
    )


def schottky_pair(s=1.0):
    # two loxodromics with crossing axes: fixed points {0, inf} and {-1, 1}
    a = hb.embed_dilation(np.exp(s))
    p = np.array([[1, -1, 0], [0, 0, 1], [1, 1, 0]], dtype=complex)
    b = core.Isometry(p @ np.diag([np.exp(s), np.exp(-s), 1.0]) @ np.linalg.inv(p))
    return gr.GroupGens([("a", a), ("b", b)])


def two_sphere_packing():
    return gr.SpherePacking(
        [
            (hb.HeisPoint(np.array([3.0 + 0j]), 0.0), 1.0),
            (hb.HeisPoint(np.array([-3.0 + 0j]), 0.0), 1.0),
        ]
    )


def ball_origin():
    return core.ProjectivePoint(np.array([0, 0, 1], dtype=complex))


def total_words(levels):
    return sum(len(links) for links, _ in levels)


def level_words(gens, levels):
    """Each level's words, spelled from its (parent, symbol) links."""
    words = gr.Words(gens, levels)
    flat = words.take(np.arange(words.starts[-1]))
    return [tuple(flat[a:b]) for a, b in zip(words.starts[:-1], words.starts[1:])]


class TestGroupGens:
    def test_label_validation(self):
        t = hb.embed_translation(np.zeros(1, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            gr.GroupGens([("ab", t)])
        with pytest.raises(ValueError):
            gr.GroupGens([("a", t), ("a", t)])
        with pytest.raises(ValueError):
            gr.GroupGens([("1", t)])  # caseless must be declared involutive
        with pytest.raises(ValueError):
            gr.GroupGens([("a", t), ("A", t)])
        with pytest.raises(ValueError):
            gr.GroupGens([("a", t)], involutive="b")

    def test_empty_generator_set_rejected(self):
        # before any caller stacks no matrices or asks for a dimension
        with pytest.raises(DegenerateInputError, match="empty generator set"):
            gr.GroupGens([])

    def test_generators_of_different_sizes_rejected(self):
        # before element_ball stacks a 3x3 and a 4x4 matrix
        a, b = hb.embed_dilation(2.0), hb.embed_dilation(2.0, n=3)
        with pytest.raises(DimensionError, match="different dimensions"):
            gr.GroupGens([("a", a), ("b", b)])

    def test_alphabet_includes_inverses(self):
        gens = z2_lattice()
        symbols = [s for s, _ in gens.alphabet()]
        assert symbols == ["A", "B", "a", "b"]
        assert gens.inverse_label("a") == "A"

    def test_involutive_inverse_is_itself(self):
        gens, _ = gr.packing_inversion_group(two_sphere_packing())
        assert gens.inverse_label("1") == "1"
        symbols = [s for s, _ in gens.alphabet()]
        assert symbols == ["1", "2"]


class TestElementBall:
    def test_cyclic_count(self):
        levels, completed = gr.element_ball(cyclic_vertical(), 3)
        assert completed == 3
        assert [len(links) for links, _ in levels] == [1, 2, 2, 2]

    def test_free_pair_count(self):
        levels, completed = gr.element_ball(schottky_pair(), 2)
        assert completed == 2
        assert total_words(levels) == 17  # 1 + 4 + 12

    def test_lattice_commutation_dedup(self):
        levels, completed = gr.element_ball(z2_lattice(), 3)
        assert completed == 3
        # free reduced words would give 53; the Z^2 ball has 25 elements
        assert total_words(levels) == 25

    def test_finite_group_saturates(self):
        gens = gr.GroupGens([("a", hb.embed_rotation(np.array([[1j]])))])
        levels, completed = gr.element_ball(gens, 10)
        assert completed == 10
        assert total_words(levels) == 4

    def test_words_are_lexicographic(self):
        gens = schottky_pair()
        levels, _ = gr.element_ball(gens, 2)
        for ws in level_words(gens, levels):
            assert list(ws) == sorted(ws)


class TestOrbitEnumerate:
    def test_rejects_boundary_basepoint(self):
        base = core.ProjectivePoint(np.array([0, 0.5, 0.5], dtype=complex))
        with pytest.raises(DegenerateInputError):
            gr.orbit_enumerate(cyclic_vertical(), 2, base)

    def test_schottky_reduced_word_count(self):
        orbit = gr.orbit_enumerate(schottky_pair(), 6, ball_origin())
        assert len(orbit) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 7))
        assert orbit.lifts.shape == (len(orbit), 3)
        assert len(orbit.word_lengths) == len(orbit.distances) == len(orbit)

    def test_budget_error_stops_before_point_work(self, monkeypatch):
        # 1 + 4 + 12 + 36 = 53 words fit in the budget, the 108 of length 4 not
        def no_point_work(*args):
            raise AssertionError("orbit points computed past the budget")

        monkeypatch.setattr(core, "_bergman_distances", no_point_work)
        for call in (gr.orbit_enumerate, gr.word_metric_profile):
            with pytest.raises(BudgetExceededError) as err:
                call(schottky_pair(), 8, ball_origin(), budget=100)
            assert err.value.completed_radius == 3

    def test_record_fields(self):
        orbit = gr.orbit_enumerate(cyclic_vertical(), 2, ball_origin())
        row = {w: i for i, w in enumerate(orbit.words)}
        assert orbit.distances[row[""]] == 0.0
        assert orbit.word_lengths[row["aa"]] == 2
        # vertical translation by 2: cosh^2(d/2) = 1 + 1/1 with u = u' = 1
        expect = 2 * np.arccosh(np.sqrt(2.0))
        assert np.isclose(orbit.distances[row["aa"]], expect, atol=1e-10)
        assert core.ProjectivePoint(orbit.lifts[row["aa"]]).projectively_equal(
            hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 2.0, 1.0)))

    def test_orbit_validates_its_lift_stack(self):
        for bad in ([[0, 0, 1], [0, 0, 0]], [[np.inf, 0, 1], [0, 0, 1]]):
            with pytest.raises(InvalidPointError):
                gr.Orbit(np.array([0, 1]), np.array(bad, dtype=complex),
                         np.zeros(2), np.arange(2), None)


@pytest.mark.parametrize("call", [
    lambda gens, p: gr.orbit_enumerate(gens, 2, p),
    lambda gens, p: gr.word_metric_profile(gens, 2, p),
    lambda gens, p: gr.limit_set_sample(gens, 2, [p]),
    lambda gens, p: dm.dirichlet_side_census(gens, p, 2, rays=100),
], ids=["orbit", "profile", "limitset", "census"])
@pytest.mark.parametrize("lift", [[0, 1], [0, 0, 0, 1]], ids=["n1", "n3"])
def test_point_of_another_dimension_raises_dimension_error(call, lift):
    with pytest.raises(DimensionError, match="but the group acts on 3$"):
        call(z2_lattice(), core.ProjectivePoint(np.array(lift, dtype=complex)))


class TestWordMetricProfile:
    def test_dilation_translation_length(self):
        gens = gr.GroupGens([("a", hb.embed_dilation(np.exp(0.5)))])
        for length, dmin, dmax in gr.word_metric_profile(gens, 6):
            assert abs(dmax - length * 1.0) < 1e-9
            assert abs(dmin - length * 1.0) < 1e-9

    def test_triangle_bound(self):
        gens = schottky_pair()
        base = ball_origin()
        gen_disp = max(
            core.bergman_distance(base, core.projective_apply(iso, base))
            for iso in gens.isometries
        )
        for length, _, dmax in gr.word_metric_profile(gens, 6):
            assert dmax <= length * gen_disp + 1e-9


class TestPacking:
    def test_radius_validation(self):
        with pytest.raises(InvalidPackingError):
            gr.SpherePacking([(hb.HeisPoint(np.zeros(1), 0.0), -1.0)])

    def test_overlap_rejected(self):
        packing = gr.SpherePacking(
            [
                (hb.HeisPoint(np.array([0.0 + 0j]), 0.0), 1.0),
                (hb.HeisPoint(np.array([1.5 + 0j]), 0.0), 1.0),
            ]
        )
        with pytest.raises(InvalidPackingError):
            gr.packing_inversion_group(packing)

    def test_two_sphere_certificate(self):
        packing = two_sphere_packing()
        gens, cert = gr.packing_inversion_group(packing)
        assert cert.pairs_checked == 2
        # 1 - 1 / (6 - 1): the points of one ball nearest the other center
        assert abs(cert.min_margin - 0.8) <= 1e-15
        sampled = ref_sampled_margin(packing, gens)
        assert cert.min_margin <= sampled < cert.min_margin + 1e-3

    def test_bound_never_exceeds_sampled_margin(self):
        rng = np.random.default_rng(20261018)
        checked = 0
        while checked < 50:
            count = int(rng.integers(2, 5))
            # centers within Cygan norm about 5 of the origin, so that no
            # image point is far enough out to round to a negative height
            spheres = [(hb.HeisPoint(rng.uniform(-3, 3, 1) + 1j * rng.uniform(-3, 3, 1),
                                     float(rng.uniform(-20, 20))),
                        float(rng.uniform(0.2, 1.5)))
                       for _ in range(count)]
            try:
                gens, cert = gr.packing_inversion_group(gr.SpherePacking(spheres))
            except InvalidPackingError:
                continue
            checked += 1
            assert cert.pairs_checked == count * (count - 1)
            assert cert.min_margin > 0
            sampled = ref_sampled_margin(gr.SpherePacking(spheres), gens, samples=64)
            assert cert.min_margin <= sampled + 1e-12

    def test_generators_are_involutions(self):
        gens, _ = gr.packing_inversion_group(two_sphere_packing())
        for iso in gens.isometries:
            assert core.is_projective_identity((iso @ iso).matrix, tol=1e-9)

    def test_inversion_maps_exterior_sample_inside(self):
        packing = two_sphere_packing()
        gens, _ = gr.packing_inversion_group(packing)
        (c0, r0), (c1, r1) = packing.spheres
        inv0 = gens.isometries[0]
        p = hb.HeisPoint(np.array([-3.0 + 0.3j]), 0.7)  # inside ball 1 region
        image = hb.projective_to_horo(
            core.projective_apply(inv0, hb.horo_to_projective(p))
        ).boundary()
        assert hb.cygan_dist(image, c0) < r0

    def test_n3_packing_known_answer(self):
        packing = gr.SpherePacking(
            [
                (hb.HeisPoint(np.array([3.0 + 0j, 0j]), 0.0), 1.0),
                (hb.HeisPoint(np.array([-3.0 + 0j, 0j]), 0.0), 1.0),
            ]
        )
        gens, cert = gr.packing_inversion_group(packing)
        assert cert.pairs_checked == 2
        assert abs(cert.min_margin - 0.8) <= 1e-15
        # the matrix route obeys d(I(p), c) d(p, c) = r^2 at n = 3 as well
        (c0, _), (c1, _) = packing.spheres
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.uniform(-1, 1)
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            xi *= rng.uniform(0, 1) ** 0.5 * (1 - v**2) ** 0.25 / np.linalg.norm(xi)
            p = hb.heis_mul(c1, hb.HeisPoint(xi, v))  # in ball 1
            image = hb.projective_to_horo(core.projective_apply(
                gens.isometries[0], hb.horo_to_projective(p))).boundary()
            assert abs(hb.cygan_dist(image, c0) * hb.cygan_dist(p, c0) - 1.0) < 1e-8
            assert 1.0 - hb.cygan_dist(image, c0) >= cert.min_margin - 1e-12

    def test_far_center_raises_instead_of_nan_matrix(self):
        # the determinant of the inversion about (1000, 0) rounds to 0
        far = hb.HeisPoint(np.array([1000.0 + 0j]), 0.0)
        packing = gr.SpherePacking([(hb.HeisPoint(np.array([0j]), 0.0), 1.0),
                                    (far, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormViolationError):
                gr.sphere_inversion(far, 1.0)
            with pytest.raises(FormViolationError):
                gr.packing_inversion_group(packing)

    def test_identity_word_probe(self):
        gens, _ = gr.packing_inversion_group(two_sphere_packing())
        passed, gap = gr.identity_word_probe(gens, max_len=6)
        assert passed and gap > 1e-6

    def test_probe_detects_finite_order(self):
        gens = gr.GroupGens([("a", hb.embed_rotation(np.array([[1j]])))])
        passed, gap = gr.identity_word_probe(gens, max_len=4)
        assert not passed and gap < 1e-9


# --- sampled reference for the closed-form ping-pong bound --------------
# The sampled certificate that the closed form replaced, kept as the oracle
# the bound is checked against: it can only overestimate the true margin.


def ref_unit_sphere_samples(count):
    """Quasi-random points on the unit Cygan sphere of the n = 2 boundary."""
    pts = dm._halton(count, 2)
    v = 2.0 * pts[:, 0] - 1.0
    phase = 2 * np.pi * pts[:, 1]
    xi = (1.0 - v**2) ** 0.25 * np.exp(1j * phase)
    return xi[:, None], v


def ref_sampled_margin(packing, gens, samples=1000):
    """Least r_i - d(I_i(p), c_i) over samples p of the sphere of each ball j."""
    spheres = packing.spheres
    unit_xi, unit_v = ref_unit_sphere_samples(samples)
    min_margin = np.inf
    for j, (cj, rj) in enumerate(spheres):
        # boundary samples of ball j
        batch = [
            hb.heis_mul(cj, hb.heis_dilate(hb.HeisPoint(unit_xi[k], unit_v[k]), rj))
            for k in range(samples)
        ]
        for i, (ci, ri) in enumerate(spheres):
            if i == j:
                continue
            inv = gens.isometries[i]
            for p in batch:
                lift = hb.horo_to_projective(p)
                image = core.projective_apply(inv, lift)
                q = hb.projective_to_horo(image).boundary()
                margin = ri - hb.cygan_dist(q, ci)
                if margin < min_margin:
                    min_margin = margin
    return min_margin


# --- sequential reference for the batched dedup -------------------------
# The per-record dedup that _FirstKept replaced, kept verbatim with the
# scalar gap and lift equality it called, and the orbit distance formula
# that the shared Bergman kernel replaced.  The batched code must make the
# same decisions, in the same order, with bit-identical arithmetic.


def ref_stack_distances(lifts, base):
    # lifts are isometry images of base, so <w, w> = <base, base> exactly;
    # recomputing it squares the lift norm and loses everything to rounding
    # once distances pass ~35
    j = np.ones(base.shape[0])
    j[-1] = -1.0
    inner = (lifts * j) @ np.conj(base)
    bnorm = float(np.sum(j * base * np.conj(base)).real)
    ratio = np.abs(inner) ** 2 / (bnorm * bnorm)
    ratio = np.maximum(ratio, 1.0)
    return 2.0 * np.arccosh(np.sqrt(ratio))


def ref_matrix_gap(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return np.inf
    a = a / np.max(np.abs(a))
    b = b / np.max(np.abs(b))
    k = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
    if abs(b[k]) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase = b[k] / a[k]
    phase /= abs(phase)
    return float(np.max(np.abs(a - b / phase)))


def ref_lift_gap(x, y):
    a = x / np.max(np.abs(x))
    b = y / np.max(np.abs(y))
    minors = np.outer(a, b)
    return float(np.max(np.abs(minors - minors.T)))


def ref_element_ball(gens, max_len, budget=gr.DEFAULT_BUDGET):
    alpha = gens.alphabet()
    symbols = [s for s, _ in alpha]
    mats = np.stack([m for _, m in alpha])
    inv_idx = np.array(
        [symbols.index(gens.inverse_label(s)) for s in symbols], dtype=int
    )
    d = gens.dim
    seen = {}

    def register(keys, cand_m):
        keep = []
        for i in range(len(cand_m)):
            key = keys[i].tobytes()
            bucket = seen.get(key)
            if bucket is None:
                seen[key] = [cand_m[i]]
                keep.append(i)
                continue
            if all(ref_matrix_gap(cand_m[i], m) > 1e-6 for m in bucket):
                bucket.append(cand_m[i])
                keep.append(i)
        return keep

    ident = np.eye(d, dtype=complex)
    levels = [(("",), ident[None, :, :])]
    words = [""]
    stack = ident[None, :, :]
    last = np.array([-1])
    total = 1
    register(gr._canonical_rows(ident.reshape(1, -1)), ident[None, :, :])
    for length in range(1, max_len + 1):
        parts_w = []
        parts_m = []
        parts_order = []
        for si in range(len(symbols)):
            mask = last != inv_idx[si]
            if not np.any(mask):
                continue
            idx = np.nonzero(mask)[0]
            parts_m.append(stack[idx] @ mats[si])
            parts_w.append([words[i] + symbols[si] for i in idx])
            parts_order.append(idx * len(symbols) + si)
        if not parts_m:
            return levels, max_len
        cand_m = np.concatenate(parts_m)
        cand_w = [w for part in parts_w for w in part]
        order = np.argsort(np.concatenate(parts_order), kind="stable")
        cand_m = cand_m[order]
        cand_w = [cand_w[i] for i in order]
        if total + len(cand_w) > budget:
            return levels, length - 1
        keep = register(gr._canonical_rows(cand_m.reshape(len(cand_m), -1)), cand_m)
        if not keep:
            return levels, max_len
        cand_m = cand_m[keep]
        cand_w = [cand_w[i] for i in keep]
        total += len(cand_w)
        levels.append((tuple(cand_w), cand_m))
        words = cand_w
        stack = cand_m
        last = np.array([symbols.index(w[-1]) for w in cand_w])
    return levels, max_len


def ref_orbit(gens, max_len, basepoint, budget=gr.DEFAULT_BUDGET):
    """(records, completed radius) of the sequential orbit dedup."""
    levels, completed = ref_element_ball(gens, max_len, budget=budget)
    records = []
    seen = {}
    for length, (words, stack) in enumerate(levels):
        if length > completed:
            break
        lifts = stack @ basepoint.lift
        dists = ref_stack_distances(lifts, basepoint.lift)
        keys = gr._canonical_rows(lifts)
        for i, w in enumerate(words):
            key = keys[i].tobytes()
            bucket = seen.get(key)
            if bucket is not None:
                if any(ref_lift_gap(lifts[i], p) <= core.PROJ_TOL for p in bucket):
                    continue
                bucket.append(lifts[i])
            else:
                seen[key] = [lifts[i]]
            records.append((w, lifts[i], length, float(dists[i])))
    return records, completed


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def same_stack_bits(m, ref_m):
    """m is the complex reference stack ref_m bit for bit, or, for a real
    group's float64 m, ref_m's real parts, with imaginary parts all +0.0."""
    if m.dtype == np.float64:
        assert same_bits(ref_m.imag, np.zeros(ref_m.shape))
        m = m.astype(complex)
    return same_bits(m, ref_m)


def as_tuples(orbit):
    assert isinstance(orbit, gr.Orbit)
    return list(zip(orbit.words, orbit.lifts, orbit.word_lengths.tolist(),
                    orbit.distances.tolist()))


def assert_same_records(got, want):
    assert [r[0] for r in got] == [r[0] for r in want]
    assert [r[2] for r in got] == [r[2] for r in want]
    assert same_bits([r[1] for r in got], [r[1] for r in want])
    assert same_bits([r[3] for r in got], [r[3] for r in want])


class TestDedupMatchesSequentialReference:
    DEPTHS = {
        "z2-lattice": 5,  # true duplicates: the lattice commutes
        "fuchsian": 12,  # relations, and s fixes the basepoint
        "schottky": 7,  # rounding merges distinct far-out orbit points
        "dilation": 10,  # one generator: one orbit point per element
        "cyclic-vertical": 6,
    }
    # a real product rounds some zeros to +0.0 where the complex reference
    # has -0.0, so these balls match it in value; their orbits, bit for bit
    SIGNED_ZEROS = {"dilation"}

    @pytest.mark.parametrize("name", sorted(DEPTHS))
    def test_element_ball_and_orbit(self, name):
        depth = self.DEPTHS[name]
        gens = ps.group_preset(name)
        levels, completed = gr.element_ball(gens, depth)
        ref_levels, ref_completed = ref_element_ball(gens, depth)
        assert completed == ref_completed == depth
        assert level_words(gens, levels) == [w for w, _ in ref_levels]
        for (_, m), (_, ref_m) in zip(levels, ref_levels):
            if name in self.SIGNED_ZEROS:
                assert np.array_equal(m, ref_m)
            else:
                assert same_stack_bits(m, ref_m)
        orbit = gr.orbit_enumerate(gens, depth, ball_origin())
        ref_records, _ = ref_orbit(gens, depth, ball_origin())
        assert_same_records(as_tuples(orbit), ref_records)
        rows = gr.word_metric_profile(gens, depth, ball_origin())
        ref_rows = []
        for length in range(depth + 1):
            dists = [r[3] for r in ref_records if r[2] == length]
            if dists:
                ref_rows.append((length, min(dists), max(dists)))
        assert same_bits(rows, ref_rows)

    def test_the_cases_exercise_every_branch(self):
        sizes = {}
        for name, depth in self.DEPTHS.items():
            gens = ps.group_preset(name)
            levels, _ = gr.element_ball(gens, depth)
            free, _ = gr.element_ball(gens, depth, dedup=False)
            orbit = gr.orbit_enumerate(gens, depth, ball_origin())
            sizes[name] = (total_words(free), total_words(levels), len(orbit))
        assert sizes["z2-lattice"] == (1 + 4 * (3 ** 5 - 1) // 2, 61, 61)
        free, elements, points = sizes["fuchsian"]
        assert free > elements > points
        # Schottky is free, so every lost element or point is a false merge
        assert sizes["schottky"] == (4373, 4225, 444)

    def test_budget_limited_fuchsian(self):
        gens = ps.group_preset("fuchsian")
        ref_levels, ref_completed = ref_element_ball(gens, 28, budget=20_000)
        assert ref_completed < 28
        with pytest.raises(BudgetExceededError) as err:
            gr.element_ball(gens, 28, budget=20_000)
        assert err.value.completed_radius == ref_completed
        levels, completed = gr.element_ball(gens, ref_completed, budget=20_000)
        assert completed == ref_completed
        assert level_words(gens, levels) == [w for w, _ in ref_levels]
        assert same_stack_bits(np.concatenate([m for _, m in levels]),
                               np.concatenate([m for _, m in ref_levels]))
        ref_records, _ = ref_orbit(gens, 28, ball_origin(), budget=20_000)
        for call in (gr.orbit_enumerate, gr.word_metric_profile):
            with pytest.raises(BudgetExceededError) as err:
                call(gens, 28, ball_origin(), budget=20_000)
            assert err.value.completed_radius == ref_completed
        orbit = gr.orbit_enumerate(gens, ref_completed, ball_origin())
        assert_same_records(as_tuples(orbit), ref_records)

    @pytest.mark.parametrize("budget, completed", [(17, 2), (16, 1), (53, 3)])
    def test_budget_boundary(self, budget, completed):
        # a free group on two letters has 1, 4, 12, 36 words of length 0..3
        with pytest.raises(BudgetExceededError) as err:
            gr.element_ball(schottky_pair(), 6, budget=budget)
        assert err.value.completed_radius == completed
        levels, done = gr.element_ball(schottky_pair(), completed, budget=budget)
        assert done == completed
        assert total_words(levels) == [1, 5, 17, 53][completed]

    @pytest.mark.parametrize("name, radius", [
        ("fuchsian", 21), ("schottky", 10), ("z2-lattice", 12)])
    def test_budget_oracle_at_user_scale(self, name, radius):
        # the ball raises at the first L at which the elements up to length
        # L and the children of level L exceed the budget, where every kept
        # element past the identity has len(alphabet) - 1 children, the
        # identity len(alphabet); budgets one below and at each boundary
        gens = ps.group_preset(name)
        levels, _ = gr.element_ball(gens, radius)
        kept = np.array([len(links) for links, _ in levels])
        assert len(kept) == radius + 1
        size = len(gens.alphabet())
        children = kept * (size - 1)
        children[0] = size
        need = np.cumsum(kept) + children
        budgets = sorted({int(b) for b in need - 1} | {int(b) for b in need[:-1]})
        for budget in budgets:
            want = int(np.argmax(need > budget))
            assert need[want] > budget
            with pytest.raises(BudgetExceededError) as err:
                gr.element_ball(gens, 28, budget=budget)
            assert err.value.completed_radius == want, budget
            assert str(err.value) == f"enumeration budget exhausted at radius {want}"

    @pytest.mark.parametrize("lifts", [False, True])
    def test_kernel_on_forced_key_collisions(self, lifts):
        # unrelated items get forced keys from a set that grows level by
        # level, so equal keys join items that are not projectively equal,
        # and a level brings repeats of its own keys, repeats of earlier
        # levels' keys and new keys: keep returns exactly the first item of
        # each key not seen before, whatever the items are
        rng = np.random.default_rng(3)
        shape = (3,) if lifts else (3, 3)
        forced = {}  # item bytes -> its forced key

        def key(batch):
            return np.array([forced[x.tobytes()] for x in batch]).reshape(-1, 2)

        kernel = gr._FirstKept(key)
        seen = set()
        earlier = 0  # repeats of a key first seen at an earlier level
        for level in range(4):
            items = rng.normal(size=(50,) + shape) + 1j * rng.normal(size=(50,) + shape)
            keys = rng.integers(0, 2 + 2 * level, size=(50, 2)).astype(float)
            forced.update((x.tobytes(), k) for x, k in zip(items, keys))
            before = set(seen)
            want = []
            for i, k in enumerate(keys):
                earlier += k.tobytes() in before
                if k.tobytes() not in seen:
                    seen.add(k.tobytes())
                    want.append(i)
            idx, kept = kernel.keep(items)
            assert idx.tolist() == want
            assert same_bits(kept, items[want])
            assert 0 < len(want) < 50
        assert earlier > 0


class TestDedupUnderDegenerateHash(TestDedupMatchesSequentialReference):
    """The same comparisons with a key hash under which keys collide.

    "constant" puts every key in one hash run, "two-bits" in four, and
    "twelve-bits" leaves most runs single, so a new key often meets one
    different key with its hash.  Every match is confirmed on the full
    key, so the decisions must not change.
    """

    @pytest.fixture(autouse=True, params=["constant", "two-bits", "twelve-bits"])
    def degenerate_hash(self, request, monkeypatch):
        real = gr._key_hash
        mask = {"constant": 0, "two-bits": 3, "twelve-bits": 0xFFF}[request.param]
        monkeypatch.setattr(gr, "_key_hash",
                            lambda words: real(words) & np.uint64(mask))


def level_products(items):
    """A ball level's candidates as one batch, as element_ball built them
    before they were computed on demand: one GEMM per symbol."""
    d = items.stack.shape[1]
    out = np.empty((len(items), d, d), dtype=items.stack.dtype)
    for si, mat in enumerate(items.mats):
        rows = np.flatnonzero(items.sym == si)
        out[rows] = (items.stack[items.parent[rows]].reshape(-1, d) @ mat
                     ).reshape(-1, d, d)
    return out


@pytest.mark.parametrize("preset, depth, points", [
    ("fuchsian", 12, False), ("schottky", 7, False), ("dilation", 40, False),
    ("z2-lattice", 10, True)])
def test_keys_depend_on_the_item_alone(monkeypatch, preset, depth, points):
    # _FirstKept stores no keys and recomputes them to confirm a match, in
    # other batches than the level's; that is exact only if a key is a
    # function of its item alone, bit for bit.  A ball level's items are
    # products computed on demand, in batches of any rows, so a product
    # must depend on its row alone too
    levels = []
    real_decide = gr._FirstKept.decide

    def decide(self, items, *most_new):
        decision = real_decide(self, items, *most_new)
        levels.append((self.key, items, decision[0]))
        return decision

    monkeypatch.setattr(gr._FirstKept, "decide", decide)
    monkeypatch.setattr(gr, "_CHUNK", 100)  # batches cut across every level
    gens = ps.group_preset(preset)
    if points:
        gr.orbit_enumerate(gens, depth, ball_origin())
    else:
        gr.element_ball(gens, depth)
    checked = products = 0
    for key, items, idx in levels:
        if (isinstance(items, np.ndarray) and items.ndim == 2) != points:
            continue  # the orbit's element ball
        if isinstance(items, gr._Products):
            full = level_products(items)
            sub = np.arange(0, len(items), 3)
            single = np.concatenate([items[i:i + 1] for i in sub])
            assert items[:].tobytes() == full.tobytes()
            assert items[sub].tobytes() == full[sub].tobytes()
            assert items[sub[::-1]].tobytes() == full[sub[::-1]].tobytes()
            assert single.tobytes() == full[sub].tobytes()
            products += len(items)
        want = key(items[:])[idx]  # the level as one batch
        kept = items[idx]
        alone = np.concatenate([key(kept[i:i + 1]) for i in range(len(kept))])
        shifted = key(np.concatenate([items[:], kept]))[len(items):]
        assert alone.tobytes() == want.tobytes()
        assert key(kept[::-1])[::-1].tobytes() == want.tobytes()
        assert shifted.tobytes() == want.tobytes()
        checked += len(idx)
    least = 60 if preset == "dilation" else 200  # a cyclic group's ball is thin
    assert checked > least
    assert (products > least) != points


def test_orbit_decides_its_points_in_one_pass(monkeypatch):
    # the whole ball's lifts go through one decision, in word order
    batches = []
    real_decide = gr._FirstKept.decide

    def decide(self, items, *most_new):
        batches.append(items)
        return real_decide(self, items, *most_new)

    monkeypatch.setattr(gr._FirstKept, "decide", decide)
    gens = ps.group_preset("schottky")
    orbit = gr.orbit_enumerate(gens, 7, ball_origin())
    points = [items for items in batches if isinstance(items, np.ndarray)
              and items.ndim == 2]
    assert len(points) == 1
    assert len(points[0]) == orbit.ball_words.starts[-1] == 4225
    assert len(orbit) == 444


def test_exhausted_ball_confirms_nothing_at_its_last_level(monkeypatch):
    # at the profile budget, the new hashes of length 21 alone show that
    # length 22 cannot fit, so no repeat of length 21 is confirmed
    confirmed = []
    real_confirm = gr._FirstKept._confirm

    def confirm(self, items, at, rep):
        confirmed.append(len(self.kept))  # the length being decided
        return real_confirm(self, items, at, rep)

    monkeypatch.setattr(gr._FirstKept, "_confirm", confirm)
    with pytest.raises(BudgetExceededError) as err:
        gr.element_ball(ps.group_preset("fuchsian"), 28, budget=400_000)
    assert err.value.completed_radius == 21
    assert 20 in confirmed and 21 not in confirmed


def ref_canonical_rows(items, digits=9):
    """_canonical_rows as it was before it worked in place."""
    flat = items.reshape(len(items), -1)
    mag = np.abs(flat)
    mx = np.max(mag, axis=1)
    pivot = np.argmax(mag >= (1.0 - 1e-6) * mx[:, None], axis=1)
    pv = flat[np.arange(flat.shape[0]), pivot]
    canon = flat / pv[:, None]
    return np.round(canon.view(float), digits)


@pytest.mark.parametrize("preset, depth", [
    ("schottky", 10), ("fuchsian", 21), ("z2-lattice", 10), ("dilation", 10),
    ("cyclic-vertical", 6), ("cyclic-horizontal", 6), (-0.35, 8), (0.0, 8), (0.2, 8)])
def test_canonical_rows_match_reference(preset, depth):
    # the ball levels and orbit lifts at the depths the benchmark runs, and
    # hnn-bend at three angles
    gens = (ps.group_preset(preset) if isinstance(preset, str)
            else bd.deform_group(ps.bend_preset("hnn-bend"), preset))
    levels, _ = gr.element_ball(gens, depth, budget=400_000)
    for _, stack in levels:
        lifts = stack @ ball_origin().lift
        for items in (stack, lifts):
            assert same_bits(gr._canonical_rows(items), ref_canonical_rows(items))


def ref_key_hash(words):
    """_key_hash as it was before it summed a column at a time."""
    mixed = words + np.arange(words.shape[1], dtype=np.uint64) * gr._MIX[0]
    mixed *= gr._MIX[1]
    mixed ^= mixed >> 32
    mixed *= gr._MIX[2]
    mixed ^= mixed >> 29
    return mixed.sum(axis=1, dtype=np.uint64)


@pytest.mark.parametrize("width", [6, 9, 18])
def test_key_hash_matches_reference(width):
    # the words of lift keys, real matrix keys and complex matrix keys; the
    # column sums wrap around 2^64 as the axis sum does
    rng = np.random.default_rng(width)
    words = rng.integers(0, 2**64, size=(5000, width), dtype=np.uint64)
    words[:2] = [[0], [2**64 - 1]]
    assert same_bits(gr._key_hash(words), ref_key_hash(words))


@pytest.mark.parametrize("width", [6, 9, 18])
def test_confirm_compares_key_words(width):
    # keys whose entries are NaNs with payloads, -0.0 and +0.0: a key
    # equals its representative's exactly when all its uint64 words do, as
    # np.all(x == y, axis=1) says, so -0.0 and +0.0 differ and a NaN equals
    # only its own bits
    rng = np.random.default_rng(width)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000ABC,
                     0x7FF0000000000001], dtype=np.uint64).view(float)
    values = np.concatenate([nans, [0.0, -0.0, 1.0, -1.0]])
    seen = gr._FirstKept(lambda items: items)
    empty = (np.arange(40), np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int32))
    kept = seen.commit(rng.choice(values, size=(40, width)), empty)
    n = 3000  # more than one chunk
    rep = np.where(rng.random(n) < 0.5, rng.integers(0, 40, n), ~rng.integers(0, n, n))
    items = rng.choice(values, size=(n, width))
    # half the items copy their representative, some then with one entry
    # flipped between -0.0 and +0.0 or between two NaNs
    copied = np.flatnonzero(rng.random(n) < 0.5)
    items[copied] = np.where(rep[copied, None] >= 0, kept[np.maximum(rep[copied], 0)],
                             items[~np.minimum(rep[copied], -1)])
    flip = copied[rng.random(len(copied)) < 0.3]
    col = rng.integers(0, width, len(flip))
    items[flip, col] = rng.choice([0.0, -0.0, nans[0], nans[1]], len(flip))
    at = rng.permutation(n)[: n - 100]
    x = items[at].view(np.uint64)
    y = np.where(rep[at, None] >= 0, kept[np.maximum(rep[at], 0)],
                 items[~np.minimum(rep[at], -1)]).view(np.uint64)
    want = np.all(x == y, axis=1)
    assert 0.2 * len(at) < np.count_nonzero(want) < 0.8 * len(at)
    assert same_bits(seen._confirm(items, at, rep.astype(np.int32)), want)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
def test_equal_matrix_keys_bound_the_matrix_gap(seed, real):
    # dedup merges items on equal keys alone: two keys are equal when each
    # real part of the pivot-divided entries rounds into one bin of width
    # 1e-9, and the whisker lets the largest modulus exceed the pivot's by
    # 1e-6.  Move the entries of a and b to opposite edges of their bins, at
    # random scale and phase.  Matrices then stay within the 1e-6 that
    # elements are told apart by, and lifts within 2 sqrt(2) 1e-9 (1 + 1e-6)
    rng = np.random.default_rng(seed)
    k = 200
    for shape, gap, bound in [((3, 3), core.projective_matrix_gap, 1e-8),
                              ((3,), core.projective_lift_gap, 3e-9)]:
        width = int(np.prod(shape))
        size = (k, width)
        c = rng.normal(size=size) + (0 if real else 1j * rng.normal(size=size))
        p = rng.integers(0, width, size=k)
        c /= c[np.arange(k), p][:, None]
        c /= np.maximum(np.abs(c).max(axis=1), 1.0)[:, None] / 0.999
        late = np.flatnonzero(p < width - 1)
        peak = rng.integers(p[late] + 1, width)  # past the pivot, in its whisker
        c[late, peak] *= (1 + rng.uniform(0, 0.99e-6, len(late))) / np.abs(c[late, peak])
        c[np.arange(k), p] = 1.0  # the first entry within the whisker
        c = np.round(c, 9)  # the centres of the bins
        edge = 0.5e-9 * (1 - 1e-4)
        move = rng.choice([-edge, edge], size=size)
        if not real:
            move = move + 1j * rng.choice([-edge, edge], size=size)
        move[np.arange(k), p] = 0.0
        phases = (rng.choice([-1.0, 1.0], size=(2, k, 1)) if real
                  else np.exp(2j * np.pi * rng.uniform(size=(2, k, 1))))
        scales = 10.0 ** rng.uniform(-20, 20, size=(2, k, 1))
        a = ((c + move) * scales[0] * phases[0]).reshape((k,) + shape)
        b = ((c - move) * scales[1] * phases[1]).reshape((k,) + shape)
        equal = np.all(gr._canonical_rows(a) == gr._canonical_rows(b), axis=1)
        assert np.count_nonzero(equal) >= 0.9 * k
        assert np.max(gap(a[equal], b[equal])) <= bound


def test_element_ball_tests_no_matrix_gap(monkeypatch):
    # equal keys decide element merges, so the ball never measures a gap
    def no_gap(a, b):
        raise AssertionError("element_ball measured a matrix gap")

    groups = [ps.group_preset(name) for name in ps.GROUP_PRESETS]
    groups.append(bd.deform_group(ps.bend_preset("hnn-bend"), 0.2))
    monkeypatch.setattr(core, "projective_matrix_gap", no_gap)
    for gens in groups:
        gr.element_ball(gens, 8)


def test_orbit_enumerate_tests_no_lift_gap(monkeypatch):
    # equal keys decide orbit point merges too, so the orbit never measures
    # a lift gap
    def no_gap(a, b):
        raise AssertionError("orbit_enumerate measured a lift gap")

    groups = [ps.group_preset(name) for name in ps.GROUP_PRESETS]
    groups.append(bd.deform_group(ps.bend_preset("hnn-bend"), 0.2))
    monkeypatch.setattr(core, "projective_lift_gap", no_gap)
    for gens in groups:
        orbit = gr.orbit_enumerate(gens, 6, ball_origin())
        assert len(orbit) > 1


def test_element_ball_peak_memory_is_bounded_by_what_it_keeps():
    # the budget-limited fuchsian profile, which runs out after length 21:
    # before keys were recomputed on demand, the stored keys and level-wide
    # key temporaries made the peak 3.2 times the levels up to 21, before
    # candidates were computed on demand, a level's full candidate stack
    # made it 2.23 times, and while the exhausted ball still built and
    # returned length 21, 1.33 times
    gens = ps.group_preset("fuchsian")
    levels, completed = gr.element_ball(gens, 21, budget=400_000)
    assert completed == 21
    returned = sum(links.nbytes + stack.nbytes for links, stack in levels)
    del levels
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(BudgetExceededError) as err:
            gr.element_ball(gens, 28, budget=400_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert err.value.completed_radius == 21
    assert peak <= 1.2 * returned


def generator_file_group(tmp_path, iso):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[[[z.real, z.imag] for z in row]
                                 for row in iso.matrix.tolist()]]))
    isos = [core.Isometry(m) for m in cli._load_generator_file(str(path))]
    return cli._gens_from_isometries(isos)


@pytest.mark.parametrize("group, dtype", [
    (lambda _: ps.group_preset("fuchsian"), np.float64),
    (lambda _: ps.group_preset("dilation"), np.float64),
    (lambda _: bd.deform_group(ps.bend_preset("hnn-bend"), 0.0), np.float64),
    (lambda p: generator_file_group(p, hb.embed_translation(1.0, 0.0)), np.float64),
    (lambda _: ps.group_preset("schottky"), np.complex128),
    (lambda _: ps.group_preset("z2-lattice"), np.complex128),
    (lambda _: ps.group_preset("cyclic-vertical"), np.complex128),
    (lambda p: generator_file_group(p, hb.embed_rotation(1j)), np.complex128),
    (lambda _: bd.deform_group(ps.bend_preset("hnn-bend"), 0.1), np.complex128),
])
def test_ball_stacks_are_real_exactly_when_the_generators_are(tmp_path, group, dtype):
    for dedup in (True, False):
        levels, _ = gr.element_ball(group(tmp_path), 4, dedup=dedup)
        assert {stack.dtype for _, stack in levels} == {np.dtype(dtype)}


# The fuchsian preset (t: x -> x + 1, s: x -> 1/x) is PGL(2, Z), and these
# are its element counts by word length, from the exact oracle below.
PGL2Z_LEVEL_COUNTS = [1, 3, 6, 12, 24, 43, 71, 116, 190, 312, 512, 838, 1370,
                      2238, 3652, 5954, 9700, 15792, 25694, 41782, 67910, 110328]


def ref_pgl2z_levels(max_len):
    """Per length, the first words reaching each element of PGL(2, Z).

    Breadth-first over integer 2x2 matrices modulo +-1, in the alphabet
    order T, s, t of the fuchsian preset; a word multiplies its letters'
    matrices left to right, as element_ball does.
    """
    letters = (("T", (1, -1, 0, 1)), ("s", (0, 1, 1, 0)), ("t", (1, 1, 0, 1)))
    ident = (1, 0, 0, 1)
    seen = {ident}
    levels = [[("", ident)]]
    for _ in range(max_len):
        level = []
        for word, (a, b, c, d) in levels[-1]:
            for sym, (e, f, g, h) in letters:
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                if next(x for x in m if x) < 0:
                    m = tuple(-x for x in m)
                if m not in seen:
                    seen.add(m)
                    level.append((word + sym, m))
        levels.append(level)
    return [[word for word, _ in level] for level in levels]


def test_fuchsian_ball_matches_exact_oracle_at_profile_budget():
    # the CLI's profile budget, which runs out at length 22
    gens = ps.group_preset("fuchsian")
    with pytest.raises(BudgetExceededError) as err:
        gr.element_ball(gens, 28, budget=400_000)
    assert err.value.completed_radius == 21
    levels, completed = gr.element_ball(gens, 21, budget=400_000)
    assert completed == 21
    want = ref_pgl2z_levels(21)
    assert [len(level) for level in want] == PGL2Z_LEVEL_COUNTS
    assert [list(words) for words in level_words(gens, levels)] == want


def test_free_schottky_ball_at_user_scale():
    # the schottky preset is free of rank 2, so without dedup every reduced
    # word is its own element: 4 * 3^(L-1) of length L, 118,097 up to L = 10
    gens = ps.group_preset("schottky")
    levels, completed = gr.element_ball(gens, 10, dedup=False)
    assert completed == 10
    assert [len(links) for links, _ in levels] == \
        [1] + [4 * 3 ** (k - 1) for k in range(1, 11)]
    assert total_words(levels) == 1 + 2 * (3 ** 10 - 1) == 118_097
    spelled = level_words(gens, levels)
    words = [w for level in spelled for w in level]
    assert len(set(words)) == len(words)
    assert [len(w) for w in words] == np.repeat(
        np.arange(11), [len(level) for level in spelled]).tolist()
    cancel = [s + gens.inverse_label(s) for s, _ in gens.alphabet()]
    assert not any(pair in w for w in words for pair in cancel)
    # the reference's dedup merges nothing up to length 4
    ref_levels, _ = ref_element_ball(gens, 4)
    assert spelled[:5] == [w for w, _ in ref_levels]
    for (_, m), (_, ref_m) in zip(levels, ref_levels):
        assert same_bits(m, ref_m)


def test_probe_limit_set_and_exhausted_profile_spell_no_words(monkeypatch):
    def no_words(self, index):
        raise AssertionError("a word string was built")

    monkeypatch.setattr(gr.Words, "take", no_words)
    gens = ps.group_preset("fuchsian")
    assert gr.identity_word_probe(gens, max_len=8)[0]
    assert len(gr.limit_set_sample(gens, 6, ps.boundary_seeds(5, seed=0))) > 0
    with pytest.raises(BudgetExceededError):
        gr.word_metric_profile(gens, 28, budget=20_000)
    assert len(gr.word_metric_profile(gens, 8)) == 9


def test_census_spells_only_its_sides(monkeypatch):
    spelled = []
    take = gr.Words.take

    def recording_take(self, index):
        spelled.extend(np.asarray(index).tolist())
        return take(self, index)

    monkeypatch.setattr(gr.Words, "take", recording_take)
    census = dm.dirichlet_side_census(ps.group_preset("z2-lattice"),
                                      ball_origin(), 6, rays=2000)
    assert len(spelled) == len(census.sides) > 0


def _near_pairs(seed, k, max_log_scale, shape):
    """Stacks a, b with b ~ phase * scale * a, each row at its own norm."""
    rng = np.random.default_rng(seed)
    size = (k,) + shape
    axes = (k,) + (1,) * len(shape)
    a = (rng.normal(size=size) + 1j * rng.normal(size=size)) \
        * 10.0 ** rng.uniform(0, max_log_scale, size=axes)
    eps = 10.0 ** rng.uniform(-17, 0, size=axes)
    noise = rng.normal(size=size) + 1j * rng.normal(size=size)
    phase = np.exp(2j * np.pi * rng.uniform(size=axes))
    b = a * phase * 10.0 ** rng.uniform(0, max_log_scale, size=axes) \
        * (1 + eps * noise)
    return rng, a, b


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 30.0))
@settings(max_examples=50, deadline=None)
def test_matrix_gap_stack_matches_scalar(seed, k, max_log_scale):
    rng, a, b = _near_pairs(seed, k, max_log_scale, (3, 3))
    # rows where b nearly vanishes at a's largest entry take the
    # |b[k]| < 1e-12 branch; some are exact zeros
    flat_b = b.reshape(k, -1)
    top = np.argmax(np.abs(a.reshape(k, -1)), axis=1)
    small = np.flatnonzero(rng.random(k) < 0.3)
    flat_b[small, top[small]] *= rng.choice([0.0, 1e-14, 1e-13], size=len(small))
    gaps = core.projective_matrix_gap(a, b)
    want = [ref_matrix_gap(x, y) for x, y in zip(a, b)]
    assert same_bits(gaps, want)
    assert [core.projective_matrix_gap(x, y) for x, y in zip(a, b)] == want
    assert type(core.projective_matrix_gap(a[0], b[0])) is float


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 30.0))
@settings(max_examples=50, deadline=None)
def test_lift_gap_stack_matches_scalar(seed, k, max_log_scale):
    _, a, b = _near_pairs(seed, k, max_log_scale, (3,))
    want = [ref_lift_gap(x, y) for x, y in zip(a, b)]
    assert same_bits(core.projective_lift_gap(a, b), want)
    for x, y, gap in zip(a, b, want):
        p, q = core.ProjectivePoint(x), core.ProjectivePoint(y)
        assert p.projectively_equal(q) == (gap <= core.PROJ_TOL)


class TestBatchedProbe:
    @staticmethod
    def per_matrix_gap(gens, max_len):
        levels, _ = gr.element_ball(gens, max_len, dedup=False)
        return min(core.identity_gap(m) for _, stack in levels[1:] for m in stack)

    @pytest.mark.parametrize("eta", [0.0, 0.1, -0.35])
    def test_hnn_bend_matches_per_matrix_loop(self, eta):
        gens = bd.deform_group(ps.bend_preset("hnn-bend"), eta)
        _, gap = gr.identity_word_probe(gens, max_len=6)
        assert gap == self.per_matrix_gap(gens, 6)

    def test_schottky_matches_per_matrix_loop(self):
        gens = ps.group_preset("schottky")
        _, gap = gr.identity_word_probe(gens, max_len=6)
        assert gap == self.per_matrix_gap(gens, 6)


class TestLimitSet:
    def test_cyclic_dilation_accumulates(self):
        gens = gr.GroupGens([("a", hb.embed_dilation(np.exp(1.0)))])
        seed = hb.horo_to_projective(hb.HeisPoint(np.array([1.0 + 0j]), 0.0))
        cloud = gr.limit_set_sample(gens, 8, [seed])
        assert len(cloud) == 2
        radii = sorted(np.abs(cloud.xi[:, 0]))
        assert radii[0] < 1e-3 and radii[1] > 1e3

    def test_depth_validation(self):
        gens = cyclic_vertical()
        with pytest.raises(ValueError):
            gr.limit_set_sample(gens, 0, [ball_origin()])

    def test_no_seeds_rejected(self):
        # np.concatenate of no seeds' images raised a bare ValueError
        with pytest.raises(ParameterError, match="^need at least one seed$"):
            gr.limit_set_sample(cyclic_vertical(), 3, [])

    def test_schottky_cloud_size(self):
        cloud = gr.limit_set_sample(schottky_pair(), 5, [ball_origin()])
        assert len(cloud) == 4 * 3**4
        assert cloud.xi.shape[1] == 1

    def test_cloud_indexing(self):
        cloud = gr.HeisCloud(np.array([[1j], [2.0 + 0j]]), np.array([0.5, -1.0]))
        assert len(cloud) == 2
        p = cloud[1]
        assert isinstance(p, hb.HeisPoint) and p.v == -1.0

    def test_cloud_iterates_by_index(self):
        # the sequence protocol: __getitem__ until numpy raises IndexError
        cloud = gr.HeisCloud(np.array([[1j], [2.0 + 0j], [-3j]]), np.array([0.5, -1.0, 2.0]))
        points = list(cloud)
        assert len(points) == len(cloud)
        for i, p in enumerate(points):
            assert isinstance(p, hb.HeisPoint)
            assert np.array_equal(p.xi, cloud[i].xi) and p.v == cloud[i].v


class TestBoxDim:
    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_rows_match_unique(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(1, 3000)
        cells = rng.integers(-rng.integers(1, 6), rng.integers(1, 6), size=(rows, 3))
        assert gr._distinct_rows(cells) == len(np.unique(cells, axis=0))
        one = np.tile(rng.integers(-9, 9, size=3), (rows, 1))
        assert gr._distinct_rows(one) == len(np.unique(one, axis=0)) == 1

    def test_vertical_segment_dimension(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.0, 1.0, size=10_000)
        cloud = gr.HeisCloud(np.zeros((10_000, 1), dtype=complex), v)
        fit = gr.boxdim_estimate(cloud, [0.3, 0.2, 0.1, 0.05, 0.03])
        assert abs(fit.slope - 2.0) < 0.3

    def test_horizontal_segment_dimension(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 1.0, size=10_000)
        cloud = gr.HeisCloud(x[:, None].astype(complex), np.zeros(10_000))
        fit = gr.boxdim_estimate(cloud, [0.3, 0.2, 0.1, 0.05, 0.03])
        assert abs(fit.slope - 1.0) < 0.15

    def test_counts_monotone(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, size=2000)
        cloud = gr.HeisCloud(x[:, None].astype(complex), np.zeros(2000))
        fit = gr.boxdim_estimate(cloud, [0.4, 0.2, 0.1, 0.04])
        assert list(fit.counts) == sorted(fit.counts)

    def test_degenerate_cloud_rejected(self):
        cloud = gr.HeisCloud(np.zeros((1500, 1), dtype=complex), np.zeros(1500))
        with pytest.raises(DegenerateInputError):
            gr.boxdim_estimate(cloud, [0.3, 0.2, 0.1, 0.03])

    def test_scale_validation(self):
        rng = np.random.default_rng(1)
        cloud = gr.HeisCloud(
            rng.normal(size=(1200, 1)).astype(complex), np.zeros(1200)
        )
        with pytest.raises(ValueError):
            gr.boxdim_estimate(cloud, [0.3, 0.2, 0.1])  # too few
        with pytest.raises(ValueError):
            gr.boxdim_estimate(cloud, [0.3, 0.25, 0.2, 0.15])  # under a decade

    @pytest.mark.parametrize("bad", [0.0, -0.01, np.nan, np.inf])
    def test_scales_must_be_finite_and_positive(self, bad, capfd):
        # these reached LAPACK, which failed with LinAlgError and wrote
        # "DLASCL parameter number 4 had an illegal value" to stderr
        rng = np.random.default_rng(1)
        cloud = gr.HeisCloud(
            rng.normal(size=(1200, 1)).astype(complex), np.zeros(1200)
        )
        with pytest.raises(ParameterError, match="^scales must be finite and positive$"):
            gr.boxdim_estimate(cloud, [0.3, 0.1, 0.03, bad])
        assert capfd.readouterr().err == ""
