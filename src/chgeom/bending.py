"""Sector bending of the boundary plane and angle-deformed groups.

The planar bend rotates a sector of C rigidly, tapers the rotation to zero
across two transition sectors, and leaves the opposite sector alone.  Its
Heisenberg extension acts on the xi-argument only, so it commutes with
dilations and preserves Cygan spheres.  Deformed groups premultiply or
conjugate the second factor by the unitary rotation; the Cartan angular
invariant of a tracked fixed-point triple separates the deformations.
"""

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import core
from . import groups as gr
from . import heisenberg as hb
from .errors import (
    BranchBoundaryError,
    DegenerateInputError,
    ParameterError,
    PointAtInfinityError,
    PointClassError,
)

CARTAN_TOL = 1e-9


class BendParams(namedtuple("BendParams", "eta zeta")):
    """Bend angle eta and sector half-width zeta."""

    __slots__ = ()

    def __new__(cls, eta, zeta):
        if not 0 < zeta < np.pi / 2:
            raise ParameterError("zeta must lie in (0, pi/2)")
        if not abs(eta) < np.pi - 2 * zeta:
            raise ParameterError("|eta| must be smaller than pi - 2 zeta")
        return super().__new__(cls, eta, zeta)

    # _replace builds through _make, so it validates as well
    _make = classmethod(lambda cls, fields: cls(*fields))


def _sector_schedule(a, params):
    """Rotation angle applied at argument a: eta, a taper, or zero.

    Symmetric in |a|, which reproduces the reflection rule
    phi_{-eta}(z) = conj(phi_eta(conj z)) with a single formula.
    """
    t = abs(a)
    if t <= params.zeta:
        return params.eta
    if t >= np.pi - params.zeta:
        return 0.0
    return params.eta * (np.pi - params.zeta - t) / (np.pi - 2 * params.zeta)


def bend_plane(z, params):
    """Piecewise sector rotation of the plane; fixes 0, preserves |z|."""
    z = complex(z)
    if z == 0:
        return 0j
    return z * np.exp(1j * _sector_schedule(np.angle(z), params))


def bend_distortion(z, params):
    """Linear distortion K >= 1 of the planar bend at z.

    Constant on each branch: 1 on the rigid sectors, the ratio of sector
    widths on the two transition sectors.  The argument must sit strictly
    inside a branch.
    """
    z = complex(z)
    if z == 0:
        raise DegenerateInputError("distortion is undefined at the origin")
    a = np.angle(z)
    t = abs(a)
    width = np.pi - 2 * params.zeta
    for boundary in (params.zeta, np.pi - params.zeta):
        if abs(t - boundary) < 1e-12:
            raise BranchBoundaryError(
                f"arg z = {a:.12f} lies on a branch boundary"
            )
    if t < params.zeta or t > np.pi - params.zeta:
        return 1.0
    # transition sectors: polar Jacobian has singular values {1, 1 + theta'}
    slope = -params.eta / width if a > 0 else params.eta / width
    r = 1.0 + slope
    return max(r, 1.0 / r)


def bend_heisenberg(p, params):
    """Boundary extension: rotate xi by the sector schedule, keep v.

    Fixes the vertical axis pointwise, matches the unitary rotation on the
    sector |arg xi| <= zeta and the identity opposite it, and commutes with
    Heisenberg dilations since only the xi-argument is read.
    """
    p = hb._horo(p)
    lead = p.xi[0]
    if lead == 0:
        return hb.HeisPoint(p.xi.copy(), p.v)
    theta = _sector_schedule(np.angle(lead), params)
    return hb.HeisPoint(p.xi * np.exp(1j * theta), p.v)


def unitary_rotation(eta, n=2):
    """Rotation about the vertical axis: diag(e^{i eta}, 1, ..., 1)."""
    mat = np.eye(n + 1, dtype=complex)
    mat[0, 0] = np.exp(1j * eta)
    return core.Isometry(mat)


def _is_projectively_real(matrix, tol=1e-9):
    return core.projective_matrix_gap(matrix, np.conj(matrix)) <= tol


class AmalgamSpec(namedtuple(
        "AmalgamSpec", "g_alpha group_one group_two hnn_partner hnn_label")):
    """A real group split as a free amalgam or HNN extension over <g_alpha>.

    g_alpha is an Isometry and group_one a GroupGens.  group_two holds the
    second amalgam factor; for an HNN splitting it is None and hnn_partner
    carries the stable letter (labelled hnn_label).
    """

    __slots__ = ()

    def __new__(cls, g_alpha, group_one, group_two=None, hnn_partner=None,
                hnn_label="b"):
        self = super().__new__(cls, g_alpha, group_one, group_two, hnn_partner,
                               hnn_label)
        if (self.group_two is None) == (self.hnn_partner is None):
            raise ParameterError("provide exactly one of group_two and hnn_partner")
        classified = core._classified(self.g_alpha)
        if classified[1] != "loxodromic":
            raise ParameterError("g_alpha must be loxodromic")
        fixed = core._fixed_points(*classified)
        n = self.g_alpha.n
        expected = (hb.horo_to_projective(hb.HeisPoint(np.zeros(n - 1), 0.0)),
                    core.infinity_point(n))
        for want in expected:
            if not any(want.projectively_equal(p, tol=1e-8) for p in fixed):
                raise ParameterError("g_alpha must fix the origin and infinity")
        for iso in self.group_one.isometries:
            if not _is_projectively_real(iso.matrix):
                raise ParameterError("group_one must preserve the real form")
        if self.hnn_partner is not None:
            if len(self.hnn_label) != 1:
                raise ParameterError("hnn_label must be a single symbol")
            if self.hnn_label in self.group_one.labels:
                raise ParameterError("hnn_label collides with a group_one label")
        else:
            clash = set(self.group_one.labels) & set(self.group_two.labels)
            if clash:
                raise ParameterError(
                    f"duplicate labels across factors: {sorted(clash)}")
        return self

    # _replace builds through _make, so it validates as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def kind(self):
        return "amalgam" if self.group_two is not None else "hnn"


def deform_group(spec, eta):
    """Angle-deformed generators: conjugate or premultiply by the rotation.

    group_one is untouched; amalgam factors become U g U^{-1} so their
    traces stay put, while the HNN stable letter becomes U g2, whose trace
    genuinely moves with eta.
    """
    u = unitary_rotation(eta, n=spec.g_alpha.n)
    pairs = list(zip(spec.group_one.labels, spec.group_one.isometries))
    if spec.kind == "amalgam":
        uinv = u.inverse()
        pairs += [
            (label, u @ iso @ uinv)
            for label, iso in zip(spec.group_two.labels, spec.group_two.isometries)
        ]
        involutive = spec.group_one.involutive | spec.group_two.involutive
    else:
        pairs.append((spec.hnn_label, u @ spec.hnn_partner))
        involutive = spec.group_one.involutive
    return gr.GroupGens(pairs, involutive=involutive)


class BoundaryTriple(namedtuple("BoundaryTriple", "p0 p1 p2")):
    """Three pairwise distinct boundary (null) points, as ProjectivePoints."""

    __slots__ = ()

    def __new__(cls, p0, p1, p2):
        pts = (p0, p1, p2)
        for p in pts:
            if core.point_class(p) != "null":
                raise PointClassError("triple points must be boundary points")
        for i in range(3):
            for j in range(i + 1, 3):
                if pts[i].projectively_equal(pts[j], tol=1e-10):
                    raise DegenerateInputError("triple points must be distinct")
        return super().__new__(cls, p0, p1, p2)

    # _replace builds through _make, so it validates as well
    _make = classmethod(lambda cls, fields: cls(*fields))


def cartan_invariant(t):
    """Cartan angular invariant of a boundary triple, in [-pi/2, pi/2].

    arg of the negated cyclic triple product of pairwise inner products;
    lift-scale phases cancel because each lift enters once linearly and
    once conjugated.  Zero exactly on R-circles, +-pi/2 exactly on chains.
    """
    if not isinstance(t, BoundaryTriple):
        t = BoundaryTriple(*t)
    z0, z1, z2 = t.p0.lift, t.p1.lift, t.p2.lift
    prod = (
        core.herm_inner(z0, z1)
        * core.herm_inner(z1, z2)
        * core.herm_inner(z2, z0)
    )
    return float(np.angle(-prod))


class SweepRow(NamedTuple):
    """One angle sample: deformation evidence and the tracked invariant."""

    eta: float
    cartan_alpha: float
    probe_passed: bool
    min_word_gap: float
    tracked_point: hb.HeisPoint
    limit_points: gr.HeisCloud


class SweepReport(NamedTuple):
    """Sorted sweep rows plus the separation verdicts across the grid."""

    rows: tuple
    cartan_distinct: bool
    zero_only_at_origin: bool


def _base_tracked_points(partner):
    """Both fixed points of the undeformed partner off the g_alpha axis.

    Returns (moving, anchor): the first becomes the tracked x2, the second
    stays fixed as the x1 of the Cartan triple.  A triple containing both
    origin and infinity would sit on an R-circle for every fixed point of
    the deformed partner (their v-coordinate vanishes identically), so the
    anchor must come from the partner itself.
    """
    n = partner.n
    origin = hb.horo_to_projective(hb.HeisPoint(np.zeros(n - 1), 0.0))
    infinity = core.infinity_point(n)
    off_axis = [
        p
        for p in core.boundary_fixed_points(partner)
        if not (p.projectively_equal(origin) or p.projectively_equal(infinity))
    ]
    if len(off_axis) < 2:
        raise DegenerateInputError(
            "partner needs two fixed points away from the g_alpha axis"
        )
    return off_axis[0], off_axis[1]


def _nearest_fixed_point(candidates, previous):
    best = None
    best_d = np.inf
    prev_pt = hb.projective_to_horo(previous).boundary()
    for p in candidates:
        try:
            q = hb.projective_to_horo(p).boundary()
        except PointAtInfinityError:
            continue  # the point at infinity is never the tracked one
        d = hb.cygan_dist(q, prev_pt)
        if d < best_d:
            best_d = d
            best = p
    if best is None:
        raise DegenerateInputError("no finite fixed point to track")
    return best


def bend_sweep(
    spec,
    etas,
    zeta=np.pi / 4,
    probe_len=8,
    probe_tol=1e-6,
    limit_depth=5,
    budget=gr.DEFAULT_BUDGET,
):
    """Deform the group along an angle grid and collect separation evidence.

    Per angle: the identity-word probe (its failure is recorded, not
    raised), the Cartan invariant of the triple (x1, origin, x2_eta) with
    x1 a fixed anchor point of the undeformed partner and x2_eta its other
    fixed point tracked through the deformation, and limit-set samples
    seeded at the tracked point.  Tracking walks the grid outward from 0
    picking the nearest fixed point at each step, so the reported
    invariant varies continuously along the grid.
    """
    etas = sorted(set(float(e) for e in etas))
    if not etas:
        raise ParameterError("empty angle grid")
    for eta in etas:
        BendParams(eta, zeta)  # range validation against the chosen sector

    n = spec.g_alpha.n
    origin = hb.horo_to_projective(hb.HeisPoint(np.zeros(n - 1), 0.0))
    # deform_group puts the partner right after group_one's generators
    partner = len(spec.group_one.labels)
    zero = deform_group(spec, 0.0)
    base, anchor = _base_tracked_points(zero.isometries[partner])

    rows = []
    # walk outward from eta = 0 on each side, so each step tracks the
    # previous point
    for side in ([e for e in etas if e >= 0.0], [e for e in etas[::-1] if e < 0.0]):
        tracked = base
        for eta in side:
            gens = zero
            if eta != 0.0:
                gens = deform_group(spec, eta)
                fixed = core.boundary_fixed_points(gens.isometries[partner])
                tracked = _nearest_fixed_point(fixed, tracked)
            try:
                passed, gap = gr.identity_word_probe(
                    gens, max_len=probe_len, tol=probe_tol, budget=budget
                )
            except gr.BudgetExceededError:
                passed, gap = False, float("nan")
            cloud = gr.limit_set_sample(gens, limit_depth, [tracked], budget=budget)
            rows.append(
                SweepRow(
                    eta=eta,
                    cartan_alpha=cartan_invariant((anchor, origin, tracked)),
                    probe_passed=passed,
                    min_word_gap=gap,
                    tracked_point=hb.projective_to_horo(tracked).boundary(),
                    limit_points=cloud,
                )
            )
    rows.sort(key=lambda r: r.eta)

    alphas = [r.cartan_alpha for r in rows]
    distinct = all(
        abs(alphas[i] - alphas[j]) > CARTAN_TOL
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )
    zero_only = all(
        (abs(r.cartan_alpha) <= CARTAN_TOL) == (r.eta == 0.0) for r in rows
    )
    return SweepReport(
        rows=tuple(rows), cartan_distinct=distinct, zero_only_at_origin=zero_only
    )
