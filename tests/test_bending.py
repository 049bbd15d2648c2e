import numpy as np
import pytest

from chgeom import bending as bd
from chgeom import core
from chgeom import groups as gr
from chgeom import heisenberg as hb
from chgeom.errors import (
    BranchBoundaryError,
    DegenerateInputError,
    PointClassError,
)

PARAMS = bd.BendParams(np.pi / 6, np.pi / 4)


def boundary_point(x, v=0.0):
    return hb.horo_to_projective(hb.HeisPoint(np.array([complex(x)]), v))


def real_loxodromic(s):
    p = np.array([[1, -1, 0], [0, 0, 1], [1, 1, 0]], dtype=complex)
    return core.Isometry(p @ np.diag([np.exp(s), np.exp(-s), 1.0]) @ np.linalg.inv(p))


def hnn_spec():
    ga = hb.embed_dilation(np.exp(0.5))
    return bd.AmalgamSpec(
        g_alpha=ga,
        group_one=gr.GroupGens([("a", ga)]),
        hnn_partner=real_loxodromic(1.5),
    )


def amalgam_spec():
    ga = hb.embed_dilation(np.exp(0.5))
    return bd.AmalgamSpec(
        g_alpha=ga,
        group_one=gr.GroupGens([("a", ga)]),
        group_two=gr.GroupGens([("b", real_loxodromic(1.5))]),
    )


class TestBendParams:
    def test_valid(self):
        bd.BendParams(0.0, 0.3)
        bd.BendParams(-1.0, np.pi / 4)

    def test_zeta_range(self):
        with pytest.raises(ValueError):
            bd.BendParams(0.1, 0.0)
        with pytest.raises(ValueError):
            bd.BendParams(0.1, np.pi / 2)

    def test_eta_bound(self):
        with pytest.raises(ValueError):
            bd.BendParams(np.pi / 2, np.pi / 4)  # equality not allowed


class TestBendPlane:
    def test_rigid_sector_rotates(self):
        assert np.isclose(bd.bend_plane(1.0, PARAMS), np.exp(1j * np.pi / 6))

    def test_opposite_sector_fixed(self):
        assert bd.bend_plane(-1.0, PARAMS) == -1.0

    def test_transition_interpolates(self):
        assert np.isclose(bd.bend_plane(1j, PARAMS), 1j * np.exp(1j * np.pi / 12))

    def test_identity_at_zero_angle(self):
        params = bd.BendParams(0.0, np.pi / 4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            assert bd.bend_plane(z, params) == z

    def test_preserves_modulus_and_origin(self):
        rng = np.random.default_rng(3)
        assert bd.bend_plane(0.0, PARAMS) == 0.0
        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            assert np.isclose(abs(bd.bend_plane(z, PARAMS)), abs(z), atol=1e-14)

    def test_continuity_across_boundaries(self):
        eps = 1e-12
        for a in (PARAMS.zeta, -PARAMS.zeta, np.pi - PARAMS.zeta, PARAMS.zeta - np.pi):
            left = bd.bend_plane(np.exp(1j * (a - eps)), PARAMS)
            right = bd.bend_plane(np.exp(1j * (a + eps)), PARAMS)
            assert abs(left - right) < 1e-10

    def test_reflection_identity(self):
        neg = bd.BendParams(-np.pi / 6, np.pi / 4)
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = complex(rng.normal(), rng.normal())
            lhs = bd.bend_plane(z, neg)
            rhs = np.conj(bd.bend_plane(np.conj(z), PARAMS))
            assert abs(lhs - rhs) < 1e-14


class TestBendDistortion:
    def test_branch_values(self):
        assert np.isclose(bd.bend_distortion(1j, PARAMS), 1.5)
        assert np.isclose(bd.bend_distortion(-1j, PARAMS), 4.0 / 3.0)
        assert bd.bend_distortion(0.9 + 0.1j, PARAMS) == 1.0
        assert bd.bend_distortion(-2.0 + 0.3j, PARAMS) == 1.0

    def test_branch_boundary_rejected(self):
        for a in (PARAMS.zeta, -PARAMS.zeta, np.pi - PARAMS.zeta):
            with pytest.raises(BranchBoundaryError):
                bd.bend_distortion(np.exp(1j * a), PARAMS)

    def test_origin_rejected(self):
        with pytest.raises(DegenerateInputError):
            bd.bend_distortion(0.0, PARAMS)

    def test_matches_numerical_jacobian(self):
        h = 1e-6

        def svd_ratio(z):
            dx = (bd.bend_plane(z + h, PARAMS) - bd.bend_plane(z - h, PARAMS)) / (2 * h)
            dy = (bd.bend_plane(z + 1j * h, PARAMS) - bd.bend_plane(z - 1j * h, PARAMS)) / (2 * h)
            jac = np.array([[dx.real, dy.real], [dx.imag, dy.imag]])
            s = np.linalg.svd(jac, compute_uv=False)
            return s[0] / s[1]

        for z in (1.3j, -0.7j, 0.8 + 0.2j, 2.2 * np.exp(1j * 2.0), 1.1 * np.exp(-1j * 1.9)):
            assert abs(svd_ratio(z) - bd.bend_distortion(z, PARAMS)) < 1e-5


class TestBendHeisenberg:
    def test_examples(self):
        q = bd.bend_heisenberg(hb.HeisPoint(np.array([1.0 + 0j]), 0.0), PARAMS)
        assert np.isclose(q.xi[0], np.exp(1j * np.pi / 6))
        q = bd.bend_heisenberg(hb.HeisPoint(np.array([-1.0 + 0j]), 5.0), PARAMS)
        assert q.xi[0] == -1.0 and q.v == 5.0
        q = bd.bend_heisenberg(hb.HeisPoint(np.zeros(1, dtype=complex), 2.0), PARAMS)
        assert q.xi[0] == 0.0 and q.v == 2.0

    def test_commutes_with_dilations(self):
        rng = np.random.default_rng(5)
        for r in (0.5, 2.0, 3.7):
            for _ in range(100):
                p = hb.HeisPoint(
                    rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal())
                )
                left = bd.bend_heisenberg(hb.heis_dilate(p, r), PARAMS)
                right = hb.heis_dilate(bd.bend_heisenberg(p, PARAMS), r)
                assert np.allclose(left.xi, right.xi, atol=1e-12)
                assert np.isclose(left.v, right.v, atol=1e-12)

    def test_preserves_cygan_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = hb.HeisPoint(
                rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal())
            )
            q = bd.bend_heisenberg(p, PARAMS)
            assert np.isclose(hb.cygan_norm(q), hb.cygan_norm(p), atol=1e-12)

    def test_sector_actions(self):
        u = bd.unitary_rotation(PARAMS.eta)
        p = hb.HeisPoint(np.array([0.8 * np.exp(0.2j)]), 1.3)  # |arg| < zeta
        got = bd.bend_heisenberg(p, PARAMS)
        want = hb.projective_to_horo(
            core.projective_apply(u, hb.horo_to_projective(p))
        ).boundary()
        assert np.allclose(got.xi, want.xi, atol=1e-12)
        assert np.isclose(got.v, want.v, atol=1e-12)
        far = hb.HeisPoint(np.array([2.0 * np.exp(1j * 3.0)]), -0.4)
        got = bd.bend_heisenberg(far, PARAMS)
        assert np.allclose(got.xi, far.xi) and got.v == far.v


class TestUnitaryRotation:
    def test_zero_is_identity(self):
        assert core.is_projective_identity(bd.unitary_rotation(0.0).matrix)

    def test_pi_negates_xi(self):
        u = bd.unitary_rotation(np.pi)
        p = hb.HeisPoint(np.array([0.7 + 0.2j]), 1.1)
        q = hb.projective_to_horo(
            core.projective_apply(u, hb.horo_to_projective(p))
        ).boundary()
        assert np.allclose(q.xi, -p.xi, atol=1e-12)
        assert np.isclose(q.v, p.v, atol=1e-12)

    def test_inverse_pair(self):
        u = bd.unitary_rotation(0.7) @ bd.unitary_rotation(-0.7)
        assert core.is_projective_identity(u.matrix)

    def test_elliptic(self):
        assert core.classify_isometry(bd.unitary_rotation(0.7)) == "elliptic"


class TestAmalgamSpec:
    def test_kinds(self):
        assert hnn_spec().kind == "hnn"
        assert amalgam_spec().kind == "amalgam"

    def test_exactly_one_side(self):
        ga = hb.embed_dilation(np.exp(0.5))
        g1 = gr.GroupGens([("a", ga)])
        with pytest.raises(ValueError):
            bd.AmalgamSpec(g_alpha=ga, group_one=g1)
        with pytest.raises(ValueError):
            bd.AmalgamSpec(
                g_alpha=ga,
                group_one=g1,
                group_two=gr.GroupGens([("b", real_loxodromic(1.0))]),
                hnn_partner=real_loxodromic(1.0),
            )

    def test_g_alpha_must_be_axis_dilation(self):
        g1 = gr.GroupGens([("a", hb.embed_dilation(np.exp(0.5)))])
        with pytest.raises(ValueError):
            bd.AmalgamSpec(
                g_alpha=hb.embed_translation(np.zeros(1), 1.0),  # parabolic
                group_one=g1,
                hnn_partner=real_loxodromic(1.0),
            )
        with pytest.raises(ValueError):
            bd.AmalgamSpec(
                g_alpha=real_loxodromic(1.0),  # wrong fixed points
                group_one=g1,
                hnn_partner=real_loxodromic(1.5),
            )

    def test_g_alpha_is_classified_once(self, monkeypatch):
        # the class check and the fixed points share one trace class
        calls = []
        real = core._trace_class
        monkeypatch.setattr(core, "_trace_class",
                            lambda mat: calls.append(mat.tobytes()) or real(mat))
        spec = hnn_spec()
        assert calls.count(spec.g_alpha.matrix.tobytes()) == 1

    def test_group_one_must_be_real(self):
        ga = hb.embed_dilation(np.exp(0.5))
        complex_gens = gr.GroupGens([("a", bd.unitary_rotation(0.5) @ ga)])
        with pytest.raises(ValueError):
            bd.AmalgamSpec(
                g_alpha=ga, group_one=complex_gens, hnn_partner=real_loxodromic(1.0)
            )

    def test_label_collision(self):
        ga = hb.embed_dilation(np.exp(0.5))
        with pytest.raises(ValueError):
            bd.AmalgamSpec(
                g_alpha=ga,
                group_one=gr.GroupGens([("a", ga)]),
                hnn_partner=real_loxodromic(1.0),
                hnn_label="a",
            )


class TestDeformGroup:
    def test_zero_angle_returns_original(self):
        for spec in (hnn_spec(), amalgam_spec()):
            gens = bd.deform_group(spec, 0.0)
            assert gens.labels == ("a", "b")
            assert gens.isometries[1].projectively_equal(
                spec.hnn_partner or spec.group_two.isometries[0]
            )

    def test_amalgam_preserves_traces(self):
        spec = amalgam_spec()
        base = np.trace(spec.group_two.isometries[0].matrix)
        for eta in (0.1, 0.5, -0.3):
            deformed = bd.deform_group(spec, eta).isometries[1]
            assert np.isclose(np.trace(deformed.matrix), base, atol=1e-10)

    def test_hnn_literal_product(self):
        spec = hnn_spec()
        eta = np.pi / 6
        deformed = bd.deform_group(spec, eta).isometries[1]
        expect = bd.unitary_rotation(eta) @ spec.hnn_partner
        assert deformed.projectively_equal(expect)
        assert core.classify_isometry(deformed) == "loxodromic"

    def test_mixed_word_trace_varies(self):
        # the rotation commutes with the dilation, so a G1 element moving
        # the axis is needed before mixed words feel the deformation
        ga = hb.embed_dilation(np.exp(0.5))
        spec = bd.AmalgamSpec(
            g_alpha=ga,
            group_one=gr.GroupGens(
                [("a", ga), ("t", hb.embed_translation(np.array([1.0 + 0j]), 0.0))]
            ),
            group_two=gr.GroupGens([("b", real_loxodromic(1.5))]),
        )
        t = spec.group_one.isometries[1]

        def mixed_trace(eta):
            b = bd.deform_group(spec, eta).isometries[2]
            return np.trace((t @ b).matrix)

        assert abs(mixed_trace(0.0) - mixed_trace(0.4)) > 1e-3

    def test_hnn_letter_trace_varies(self):
        spec = hnn_spec()
        t0 = np.trace(bd.deform_group(spec, 0.0).isometries[1].matrix)
        t1 = np.trace(bd.deform_group(spec, 0.4).isometries[1].matrix)
        assert abs(t0 - t1) > 1e-3


class TestCartanInvariant:
    def test_r_circle_is_zero(self):
        alpha = bd.cartan_invariant(
            (boundary_point(1), boundary_point(-1), boundary_point(2))
        )
        assert abs(alpha) < 1e-9

    def test_chain_is_right_angle(self):
        alpha = bd.cartan_invariant(
            (boundary_point(0), boundary_point(0, 1.0), core.infinity_point(2))
        )
        assert abs(abs(alpha) - np.pi / 2) < 1e-12

    def test_generic_regression(self):
        alpha = bd.cartan_invariant(
            (boundary_point(1), boundary_point(1j), boundary_point(-1, 1.0))
        )
        assert abs(alpha - 1.5232132235179132) < 1e-12
        assert 0 < abs(alpha) < np.pi / 2

    def test_scale_invariance(self):
        pts = (boundary_point(1), boundary_point(1j), boundary_point(-1, 1.0))
        base = bd.cartan_invariant(pts)
        rng = np.random.default_rng(8)
        scaled = tuple(
            core.ProjectivePoint(p.lift * (rng.normal() + 1j * rng.normal()))
            for p in pts
        )
        assert np.isclose(bd.cartan_invariant(scaled), base, atol=1e-12)

    def test_isometry_invariance(self):
        pts = (boundary_point(1), boundary_point(1j), boundary_point(-1, 1.0))
        base = bd.cartan_invariant(pts)
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = (
                hb.embed_translation(
                    rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal())
                )
                @ hb.embed_rotation(np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]]))
                @ hb.embed_dilation(np.exp(rng.uniform(-1, 1)))
            )
            moved = tuple(core.projective_apply(g, p) for p in pts)
            assert np.isclose(bd.cartan_invariant(moved), base, atol=1e-10)

    def test_conjugation_flips_sign(self):
        pts = (boundary_point(1), boundary_point(1j), boundary_point(-1, 1.0))
        base = bd.cartan_invariant(pts)
        flipped = tuple(core.ProjectivePoint(np.conj(p.lift)) for p in pts)
        assert np.isclose(bd.cartan_invariant(flipped), -base, atol=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateInputError):
            bd.cartan_invariant((boundary_point(1), boundary_point(1), boundary_point(2)))

    def test_interior_point_rejected(self):
        interior = core.ProjectivePoint(np.array([0, 0, 1], dtype=complex))
        with pytest.raises(PointClassError):
            bd.cartan_invariant((interior, boundary_point(1), boundary_point(2)))


class TestBendSweep:
    def test_hnn_sweep_separates(self):
        report = bd.bend_sweep(
            hnn_spec(), [-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2],
            limit_depth=3, probe_len=4,
        )
        assert report.cartan_distinct
        assert report.zero_only_at_origin
        assert [r.eta for r in report.rows] == sorted(r.eta for r in report.rows)
        assert all(r.probe_passed for r in report.rows)
        by_eta = {r.eta: r.cartan_alpha for r in report.rows}
        assert abs(by_eta[0.1] + 0.002622326301501) < 1e-9
        for eta in (0.05, 0.1, 0.2):
            assert np.isclose(by_eta[eta], -by_eta[-eta], atol=1e-12)

    def test_amalgam_sweep_alpha_is_half_angle(self):
        report = bd.bend_sweep(amalgam_spec(), [0.0, 0.1], limit_depth=3, probe_len=4)
        by_eta = {r.eta: r.cartan_alpha for r in report.rows}
        assert abs(by_eta[0.1] - 0.05) < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bd.bend_sweep(hnn_spec(), [])

    def test_angle_out_of_sector_range(self):
        with pytest.raises(ValueError):
            bd.bend_sweep(hnn_spec(), [0.0, 1.6], zeta=np.pi / 4)

    def test_limit_points_present(self):
        report = bd.bend_sweep(hnn_spec(), [0.0, 0.1], limit_depth=3, probe_len=3)
        for row in report.rows:
            assert len(row.limit_points) == 4 * 3**2

    def test_tracking_skips_only_the_point_at_infinity(self):
        previous = boundary_point(1.0)
        infinity = core.infinity_point(2)
        near, far = boundary_point(1.5), boundary_point(-4.0)
        assert bd._nearest_fixed_point([infinity, far, near], previous) is near
        # any other failure of a candidate propagates: here a positive
        # point, whose height u = -3 is no horospherical coordinate
        outside = core.ProjectivePoint([2, 0, 1])
        with pytest.raises(ValueError, match="height u"):
            bd._nearest_fixed_point([infinity, outside, near], previous)
