"""Bisectors, Dirichlet side censuses, and parabolic slice domains.

The census conjugates the center to the ball-model origin, where geodesic
rays from the center are affine chords, then marches quasi-uniform ray
directions outward and records the first orbit element whose bisector the
ray crosses.  Sides are certified by witnesses with a strictness margin;
the census is a lower-bound certificate over the enumerated ball, never a
completeness claim.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from . import groups as gr
from . import heisenberg as hb
from .errors import (
    DegenerateCenterError,
    DegenerateInputError,
    InvarianceError,
)

DEFAULT_RAYS = 2000
STEP = 0.05
BISECTION_TOL = 1e-9
SIDE_MARGIN = 1e-6


@dataclass(frozen=True)
class SideCensus:
    """Certified Dirichlet sides with sampling evidence.

    margins maps each side word to the minimal strictness margin among its
    witnesses; stable is set by the slice census (None for the main one).
    """

    sides: tuple
    margins: dict
    rays_used: int
    enumeration_radius: int
    unbounded_ray_fraction: float
    stable: bool = None


def bisector_margin(z, y, gy):
    """d(z, y) - d(z, g y); the zero set is the bisector."""
    if y.projectively_equal(gy):
        raise DegenerateInputError("bisector of a point with itself")
    return core.bergman_distance(z, y) - core.bergman_distance(z, gy)


def _ball_frame(center):
    """J-unitary matrix sending the ball-model origin to the center."""
    lift = center.lift
    d = lift.shape[0]
    norm = core.herm_inner(lift, lift).real
    if norm >= 0:
        raise DegenerateInputError("center must be an interior point")
    b = lift / np.sqrt(-norm)
    cols = [b]
    for k in range(d):
        w = np.zeros(d, dtype=complex)
        w[k] = 1.0
        # J-orthogonal projection away from the accepted columns
        w = w + core.herm_inner(w, b) * b
        for v in cols[1:]:
            w = w - core.herm_inner(w, v) * v
        nw = core.herm_inner(w, w).real
        if nw > 1e-8:
            cols.append(w / np.sqrt(nw))
        if len(cols) == d:
            break
    if len(cols) < d:
        raise DegenerateInputError("failed to complete a frame at the center")
    q = np.column_stack(cols[1:] + [b])
    return core.Isometry(q)


def _ray_directions(count, real_dim, seed=0):
    """Quasi-uniform unit directions via Gaussianized low-discrepancy points."""
    from scipy.special import erfinv

    u = gr._halton(count, real_dim, seed=seed)
    g = erfinv(np.clip(2.0 * u - 1.0, -1 + 1e-12, 1 - 1e-12)) * np.sqrt(2.0)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    return g / norms[:, None]


def _chord_lifts(directions, s):
    """Ball-model lifts of the points at distance s along each ray."""
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


def _distances_to_orbit(lifts, orbit_lifts, orbit_norm=None):
    """Bergman distances between row batches of interior lifts.

    When orbit_lifts are isometry images of one point, pass its form norm
    as orbit_norm; recomputing <w, w> from a large-norm lift cancels
    catastrophically.
    """
    j = np.ones(lifts.shape[1])
    j[-1] = -1.0
    inner = (lifts * j) @ np.conj(orbit_lifts).T
    nl = np.sum((lifts * j) * np.conj(lifts), axis=1).real
    if orbit_norm is None:
        no = np.sum((orbit_lifts * j) * np.conj(orbit_lifts), axis=1).real
    else:
        no = np.full(orbit_lifts.shape[0], orbit_norm)
    ratio = np.abs(inner) ** 2 / (nl[:, None] * no[None, :])
    ratio = np.maximum(ratio, 1.0)
    return 2.0 * np.arccosh(np.sqrt(ratio))


def dirichlet_side_census(
    gens,
    center,
    enum_radius,
    rays=DEFAULT_RAYS,
    seed=0,
    margin=SIDE_MARGIN,
    budget=gr.DEFAULT_BUDGET,
):
    """First-exit side census of the Dirichlet domain centered at `center`.

    Marches `rays` quasi-uniform geodesic rays from the center until each
    first leaves the half-space of some enumerated element, refines the
    exit by bisection, and keeps the beating element when it wins by the
    strictness margin at the witness.  Rays reaching the horizon without a
    beater are reported in unbounded_ray_fraction.
    """
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

    frame = _ball_frame(center)
    back = frame.inverse().matrix
    orbit_lifts = np.array([back @ (m @ center.lift) for m in mats])
    cnorm = float(core.herm_inner(center.lift, center.lift).real)
    origin = np.zeros(orbit_lifts.shape[1], dtype=complex)
    origin[-1] = 1.0
    base_d = _distances_to_orbit(origin[None, :], orbit_lifts, cnorm)[0]
    if np.min(base_d) <= 1e-10:
        k = int(np.argmin(base_d))
        raise DegenerateCenterError(
            f"center is fixed by the nontrivial element {words[k]!r}"
        )

    horizon = float(np.max(base_d)) / 2.0 + 4.0
    n_real = 2 * (orbit_lifts.shape[1] - 1)
    dirs = _ray_directions(rays, n_real, seed=seed)

    # lockstep march: find the first step at which each ray is beaten
    lo = np.zeros(rays)
    hi = np.full(rays, np.nan)
    active = np.arange(rays)
    s = 0.0
    while active.size and s < horizon:
        s_next = min(s + STEP, horizon)
        pts = _chord_lifts(dirs[active], s_next)
        dmin = np.min(_distances_to_orbit(pts, orbit_lifts, cnorm), axis=1)
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
            pts = _chord_lifts(d_sub, mid)
            dmin = np.min(_distances_to_orbit(pts, orbit_lifts, cnorm), axis=1)
            beaten = dmin < mid
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness = _chord_lifts(d_sub, 0.5 * (a + b))
        dist = _distances_to_orbit(witness, orbit_lifts, cnorm)
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
    return SideCensus(
        sides=side_words,
        margins={w: sides[w] for w in side_words},
        rays_used=rays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=unbounded / rays,
    )


def parabolic_projection(p, model, u0):
    """Equivariant projection onto the invariant model at slice height u0.

    vertical-axis keeps v, horizontal-line keeps the real part of xi, and
    full-horizontal keeps (Re xi, v + 2 Re xi . Im xi), the twisted
    coordinate that makes the projection commute with the integer lattice.
    """
    if u0 <= 0:
        raise ValueError("slice height u0 must be positive")
    p = hb._horo(p)
    if model == "vertical-axis":
        return hb.HoroPoint(np.zeros_like(p.xi), p.v, u0)
    if model == "horizontal-line":
        return hb.HoroPoint(p.xi.real.astype(complex), 0.0, u0)
    if model == "full-horizontal":
        w = p.v + 2.0 * float(np.sum(p.xi.real * p.xi.imag))
        return hb.HoroPoint(p.xi.real.astype(complex), w, u0)
    raise ValueError(f"unknown model {model!r}")


def _slice_point(model, coords, u0, n=2):
    """HoroPoint of slice coordinates within the chosen model."""
    xi = np.zeros(n - 1, dtype=complex)
    if model == "vertical-axis":
        return hb.HoroPoint(xi, float(coords[0]), u0)
    if model == "horizontal-line":
        xi[0] = coords[0]
        return hb.HoroPoint(xi, 0.0, u0)
    xi[0] = coords[0]
    # slice coordinate w is the twisted height; xi here is real so v = w
    return hb.HoroPoint(xi, float(coords[1]), u0)


def _model_dim(model):
    if model in ("vertical-axis", "horizontal-line"):
        return 1
    if model == "full-horizontal":
        return 2
    raise ValueError(f"unknown model {model!r}")


def _check_invariance(gens, model, u0, tol=1e-9):
    probes = np.linspace(-1.3, 1.7, 5)
    for iso in gens.isometries:
        tag = core.classify_isometry(iso)
        if tag == "loxodromic":
            raise InvarianceError("loxodromic generator cannot fix the slice")
        inf_image = core.projective_apply(iso, core.infinity_point(gens.dim - 1))
        if not inf_image.projectively_equal(core.infinity_point(gens.dim - 1)):
            raise InvarianceError("generator does not fix infinity")
        for t in probes:
            coords = (t, 0.3 * t) if _model_dim(model) == 2 else (t,)
            x = _slice_point(model, coords, u0, n=gens.dim - 1)
            image = hb.projective_to_horo(
                core.projective_apply(iso, hb.horo_to_projective(x))
            )
            proj = parabolic_projection(image, model, u0)
            gap = float(np.max(np.abs(image.xi - proj.xi))) + abs(image.v - proj.v)
            if gap > tol:
                raise InvarianceError(
                    f"generator moves the {model} slice by {gap:.2e}"
                )


def pullback_domain_sides(
    gens,
    model,
    u0,
    enum_radius,
    rays=DEFAULT_RAYS,
    margin=SIDE_MARGIN,
    budget=gr.DEFAULT_BUDGET,
):
    """Side census restricted to the invariant slice V_{u0}.

    Rays stay inside the slice; distances are Bergman distances in the
    ambient space.  The census is run at enum_radius and enum_radius + 2
    and the stable flag records whether the side sets agree.
    """
    if not gens.labels:
        raise DegenerateInputError("empty generator set")
    _check_invariance(gens, model, u0)
    first = _slice_census(gens, model, u0, enum_radius, rays, margin, budget)
    second = _slice_census(gens, model, u0, enum_radius + 2, rays, margin, budget)
    return SideCensus(
        sides=first.sides,
        margins=first.margins,
        rays_used=first.rays_used,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=first.unbounded_ray_fraction,
        stable=first.sides == second.sides,
    )


def _slice_census(gens, model, u0, enum_radius, rays, margin, budget):
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

    dim = _model_dim(model)
    n = gens.dim - 1
    center = _slice_point(model, (0.0,) * dim, u0, n=n)
    ylift = hb.horo_to_projective(center).lift
    orbit_lifts = np.array([m @ ylift for m in mats])
    ynorm = float(core.herm_inner(ylift, ylift).real)
    base_d = _distances_to_orbit(ylift[None, :], orbit_lifts, ynorm)[0]
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
            pts.append(hb.horo_to_projective(_slice_point(model, coords, u0, n=n)).lift)
        return np.array(pts)

    def center_dist(lifts):
        return _distances_to_orbit(lifts, ylift[None, :], ynorm)[:, 0]

    lo = np.zeros(nrays)
    hi = np.full(nrays, np.nan)
    active = np.arange(nrays)
    t = 0.0
    # slice paths are not unit-speed geodesics; march the slice coordinate
    # until the ambient distance to the center clears the horizon
    while active.size and t < horizon * 3.0 + 10.0:
        t_next = t + STEP
        pts = slice_lifts(dirs[active], t_next)
        dmin = np.min(_distances_to_orbit(pts, orbit_lifts, ynorm), axis=1)
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
            dmin = np.min(_distances_to_orbit(pts, orbit_lifts, ynorm), axis=1)
            beaten = dmin < center_dist(pts)
            b[beaten] = mid[beaten]
            a[~beaten] = mid[~beaten]
        witness = slice_lifts(d_sub, 0.5 * (a + b))
        dist = _distances_to_orbit(witness, orbit_lifts, ynorm)
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
    return SideCensus(
        sides=side_words,
        margins={w: sides[w] for w in side_words},
        rays_used=nrays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=unbounded / nrays,
    )
