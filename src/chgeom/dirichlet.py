"""Bisectors, Dirichlet side censuses, and parabolic slice domains.

Both censuses run one first-exit kernel, `_first_exit_census`.  It marches
a batch of rays outward in lockstep until each is beaten, that is, until
some enumerated orbit image of the center is nearer than the center
itself; it bisects that first exit, and at the witness it certifies the
nearest image as a side when it beats the runner-up by a strictness
margin.  A census supplies its rays as a function path(dirs, t) that
returns, for a batch of directions and a parameter t (one scalar, or one
value per ray), the lifts of the points reached and their distances to
the center:

- the ball census conjugates the center to the ball-model origin, where
  geodesic rays are affine chords along quasi-uniform directions u; t is
  the distance itself and the lifts (sinh(t/2) u, cosh(t/2)) have form
  norm -1, which the kernel uses instead of recomputing it;
- the slice census walks straight lines in the coordinates of an
  invariant slice (see parabolic_projection); t is the slice coordinate
  and the distance is the ambient Bergman distance.

The census is a lower-bound certificate over the enumerated ball, never a
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
    """Ball-model lifts, of form norm -1, at distance s along each ray."""
    half = np.asarray(s, dtype=float)[..., None] / 2.0
    m, rd = directions.shape
    lifts = np.empty((m, rd // 2 + 1), dtype=complex)
    lifts[:, :-1] = np.sinh(half) * (
        directions[:, : rd // 2] + 1j * directions[:, rd // 2 :]
    )
    lifts[:, -1:] = np.cosh(half)
    return lifts


def _distances_to_orbit(lifts, orbit_lifts, orbit_norm=None, lift_norm=None):
    """Bergman distances between row batches of interior lifts.

    When orbit_lifts are isometry images of one point, pass its form norm
    as orbit_norm, and pass lift_norm when every lift has a known norm;
    recomputing <w, w> from a large-norm lift cancels catastrophically.
    """
    j = np.ones(lifts.shape[1])
    j[-1] = -1.0
    inner = (lifts * j) @ np.conj(orbit_lifts).T
    if lift_norm is None:
        nl = np.sum((lifts * j) * np.conj(lifts), axis=1).real
    else:
        nl = np.full(lifts.shape[0], lift_norm)
    if orbit_norm is None:
        no = np.sum((orbit_lifts * j) * np.conj(orbit_lifts), axis=1).real
    else:
        no = np.full(orbit_lifts.shape[0], orbit_norm)
    ratio = np.abs(inner) ** 2 / (nl[:, None] * no[None, :])
    ratio = np.maximum(ratio, 1.0)
    return 2.0 * np.arccosh(np.sqrt(ratio))


def _census_orbit(gens, enum_radius, budget):
    """Words and matrices of the nontrivial elements of the word ball."""
    levels, completed = gr.element_ball(gens, enum_radius, budget=budget)
    if completed < enum_radius:
        raise gr.BudgetExceededError(
            f"enumeration budget exhausted at radius {completed}",
            completed_radius=completed,
        )
    words = [w for ws, _ in levels[1:] for w in ws]
    if not words:
        raise DegenerateInputError("no nontrivial elements to census")
    return words, np.concatenate([stack for _, stack in levels[1:]])


def _first_exit_census(
    words, base_lift, orbit_lifts, norm, path, dirs, t_max, margin, enum_radius,
    path_norm=None,
):
    """March, bisect and certify the first bisector exit of every ray.

    base_lift is the center and orbit_lifts its images under `words`, all
    of form norm `norm`; path_norm is the norm of every path lift when it
    is known (None recomputes it per lift).  A ray that is not beaten
    drops out once its distance to the center passes the horizon or its
    parameter reaches t_max(horizon).
    """
    base_d = _distances_to_orbit(base_lift[None, :], orbit_lifts, norm)[0]
    if np.min(base_d) <= 1e-10:
        k = int(np.argmin(base_d))
        raise DegenerateCenterError(
            f"center is fixed by the nontrivial element {words[k]!r}"
        )
    horizon = float(np.max(base_d)) / 2.0 + 4.0
    t_max = t_max(horizon)

    def beaten_at(sub_dirs, t):
        lifts, d_center = path(sub_dirs, t)
        dist = _distances_to_orbit(lifts, orbit_lifts, norm, path_norm)
        dmin = np.min(dist, axis=1)
        return dmin < d_center, d_center

    # lockstep march: find the first step at which each ray is beaten
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
        dist = _distances_to_orbit(witness, orbit_lifts, norm, path_norm)
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
        rays_used=nrays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=int(np.sum(~crossed)) / nrays,
    )


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
    words, mats = _census_orbit(gens, enum_radius, budget)

    back = _ball_frame(center).inverse().matrix
    # stacked matrix-vector products: bit for bit those of a per-matrix loop
    orbit_lifts = (back @ (mats @ center.lift)[..., None])[..., 0]
    cnorm = float(core.herm_inner(center.lift, center.lift).real)
    origin = np.zeros(orbit_lifts.shape[1], dtype=complex)
    origin[-1] = 1.0
    dirs = _ray_directions(rays, 2 * (orbit_lifts.shape[1] - 1), seed=seed)
    # rays from the origin are unit-speed: the parameter is the distance
    return _first_exit_census(
        words, origin, orbit_lifts, cnorm,
        lambda sub_dirs, s: (_chord_lifts(sub_dirs, s), s),
        dirs, lambda horizon: horizon, margin, enum_radius, path_norm=-1.0,
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


def _slice_coords(model, coords, n):
    """(xi, v) of a stack of slice coordinates (..., model dim)."""
    xi = np.zeros(coords.shape[:-1] + (n - 1,), dtype=complex)
    if model == "vertical-axis":
        return xi, coords[..., 0]
    xi[..., 0] = coords[..., 0]
    if model == "horizontal-line":
        return xi, np.zeros(coords.shape[:-1])
    # slice coordinate w is the twisted height; xi here is real so v = w
    return xi, coords[..., 1]


def _slice_point(model, coords, u0, n=2):
    """HoroPoint of slice coordinates within the chosen model."""
    xi, v = _slice_coords(model, np.asarray(coords, dtype=float), n)
    return hb.HoroPoint(xi, v, u0)


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
    words, mats = _census_orbit(gens, enum_radius, budget)
    dim = _model_dim(model)
    n = gens.dim - 1
    ylift = hb.horo_to_projective(_slice_point(model, (0.0,) * dim, u0, n=n)).lift
    ynorm = float(core.herm_inner(ylift, ylift).real)

    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        angles = 2 * np.pi * (np.arange(rays) + 0.5) / rays
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])

    def path(sub_dirs, t):
        xi, v = _slice_coords(model, np.asarray(t)[..., None] * sub_dirs, n)
        lifts = hb._horo_lifts(xi, v, u0)
        return lifts, _distances_to_orbit(lifts, ylift[None, :], ynorm)[:, 0]

    # slice paths are not unit-speed geodesics; march the slice coordinate
    # until the ambient distance to the center clears the horizon
    return _first_exit_census(
        words, ylift, mats @ ylift, ynorm, path, dirs,
        lambda horizon: horizon * 3.0 + 10.0, margin, enum_radius,
    )
