import numpy as np
import pytest

from chgeom import bending as bd
from chgeom import core
from chgeom import groups as gr
from chgeom import heisenberg as hb
from chgeom import presets as ps
from chgeom.errors import (
    BudgetExceededError,
    DegenerateInputError,
    DimensionError,
    InvalidPackingError,
    PoleError,
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
    return sum(len(ws) for ws, _ in levels)


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

    def test_alphabet_includes_inverses(self):
        gens = z2_lattice()
        symbols = [s for s, _ in gens.alphabet()]
        assert symbols == ["A", "B", "a", "b"]
        assert gens.inverse_label("a") == "A"

    def test_involutive_inverse_is_itself(self):
        gens, _ = gr.packing_inversion_group(two_sphere_packing(), samples=50)
        assert gens.inverse_label("1") == "1"
        symbols = [s for s, _ in gens.alphabet()]
        assert symbols == ["1", "2"]


class TestElementBall:
    def test_cyclic_count(self):
        levels, completed = gr.element_ball(cyclic_vertical(), 3)
        assert completed == 3
        assert [len(ws) for ws, _ in levels] == [1, 2, 2, 2]

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
        levels, _ = gr.element_ball(schottky_pair(), 2)
        for ws, _ in levels:
            assert list(ws) == sorted(ws)


class TestOrbitEnumerate:
    def test_rejects_boundary_basepoint(self):
        base = core.ProjectivePoint(np.array([0, 0.5, 0.5], dtype=complex))
        with pytest.raises(DegenerateInputError):
            gr.orbit_enumerate(cyclic_vertical(), 2, base)

    def test_schottky_reduced_word_count(self):
        records = gr.orbit_enumerate(schottky_pair(), 6, ball_origin())
        assert len(records) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 7))

    def test_budget_error_carries_partial(self):
        with pytest.raises(BudgetExceededError) as err:
            gr.orbit_enumerate(schottky_pair(), 8, ball_origin(), budget=100)
        assert err.value.completed_radius < 8
        assert len(err.value.partial) > 0

    def test_record_fields(self):
        records = gr.orbit_enumerate(cyclic_vertical(), 2, ball_origin())
        by_word = {r.word: r for r in records}
        assert by_word[""].distance == 0.0
        assert by_word["aa"].word_length == 2
        # vertical translation by 2: cosh^2(d/2) = 1 + 1/1 with u = u' = 1
        expect = 2 * np.arccosh(np.sqrt(2.0))
        assert np.isclose(by_word["aa"].distance, expect, atol=1e-10)


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
        gens, cert = gr.packing_inversion_group(two_sphere_packing(), samples=1000)
        assert cert.pairs_checked == 2
        assert cert.min_margin > 0
        assert np.isclose(cert.min_margin, 0.8001, atol=2e-3)

    def test_generators_are_involutions(self):
        gens, _ = gr.packing_inversion_group(two_sphere_packing(), samples=50)
        for iso in gens.isometries:
            assert core.is_projective_identity((iso @ iso).matrix, tol=1e-9)

    def test_inversion_maps_exterior_sample_inside(self):
        packing = two_sphere_packing()
        gens, _ = gr.packing_inversion_group(packing, samples=200)
        (c0, r0), (c1, r1) = packing.spheres
        inv0 = gens.isometries[0]
        p = hb.HeisPoint(np.array([-3.0 + 0.3j]), 0.7)  # inside ball 1 region
        image = hb.projective_to_horo(
            core.projective_apply(inv0, hb.horo_to_projective(p))
        ).boundary()
        assert hb.cygan_dist(image, c0) < r0

    def test_n3_packing_rejected(self):
        # the certificate samples the unit Cygan sphere of n = 2 only
        packing = gr.SpherePacking(
            [
                (hb.HeisPoint(np.array([3.0 + 0j, 0j]), 0.0), 1.0),
                (hb.HeisPoint(np.array([-3.0 + 0j, 0j]), 0.0), 1.0),
            ]
        )
        with pytest.raises(DimensionError):
            gr.packing_inversion_group(packing, samples=50)

    def test_identity_word_probe(self):
        gens, _ = gr.packing_inversion_group(two_sphere_packing(), samples=50)
        passed, gap = gr.identity_word_probe(gens, max_len=6)
        assert passed and gap > 1e-6

    def test_probe_detects_finite_order(self):
        gens = gr.GroupGens([("a", hb.embed_rotation(np.array([[1j]])))])
        passed, gap = gr.identity_word_probe(gens, max_len=4)
        assert not passed and gap < 1e-9


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


class TestHalton:
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_scipy_bit_for_bit(self, dim):
        from scipy.stats import qmc

        for count in (1, 17, 2000, 10000):
            plain = qmc.Halton(d=dim, scramble=False).random(count)
            assert np.array_equal(gr._halton(count, dim), plain)
            for seed in (0, 1, 7):
                scrambled = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
                assert np.array_equal(gr._halton(count, dim, seed=seed), scrambled)


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

    def test_schottky_cloud_size(self):
        cloud = gr.limit_set_sample(schottky_pair(), 5, [ball_origin()])
        assert len(cloud) == 4 * 3**4
        assert cloud.xi.shape[1] == 1

    def test_cloud_indexing(self):
        cloud = gr.HeisCloud(np.array([[1j], [2.0 + 0j]]), np.array([0.5, -1.0]))
        assert len(cloud) == 2
        p = cloud[1]
        assert isinstance(p, hb.HeisPoint) and p.v == -1.0


class TestBoxDim:
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


class TestCuspNeighborhood:
    def test_on_axis_image_not_contained(self):
        p = hb.HeisPoint(np.zeros(1, dtype=complex), 10.0)
        cusp = hb.HeisPoint(np.zeros(1, dtype=complex), 0.0)
        assert not gr.cusp_neighborhood_contains(p, cusp, "vertical-axis", 1.0)

    def test_unit_distance_image_contained(self):
        p = hb.HeisPoint(np.array([1.0 + 0j]), 0.0)
        cusp = hb.HeisPoint(np.zeros(1, dtype=complex), 0.0)
        assert gr.cusp_neighborhood_contains(p, cusp, "vertical-axis", 10.0)

    def test_pole_error_at_cusp(self):
        cusp = hb.HeisPoint(np.zeros(1, dtype=complex), 0.0)
        with pytest.raises(PoleError):
            gr.cusp_neighborhood_contains(
                hb.HeisPoint(np.zeros(1, dtype=complex), 0.0), cusp, "vertical-axis", 1.0
            )
