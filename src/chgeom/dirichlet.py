"""Bisectors, Dirichlet side censuses, and parabolic slice domains.

A census follows rays from the center to their first exit, where some
enumerated orbit image of the center becomes nearer than the center itself.
There, at the witness, it certifies the nearest image as a side when it
beats the runner-up by a strictness margin.  Only witnesses take Bergman
distances to the orbit.

The ball census conjugates the center to the ball-model origin, where the
ray along a unit direction u has lifts x(s) = (sinh(s/2) u, cosh(s/2)) of
form norm -1, and solves for each exit in closed form.  As cosh^2(d(x, y)/2)
= |<x, y>|^2 / (<x, x> <y, y>), an image w = (w', w_n) of form norm -kappa
beats x(s) when |<x, w>|^2 < kappa cosh^2(s/2).  With z = w'/w_n, the ball
coordinates of w, rho = u . conj(z), eps = kappa / |w_n|^2 = 1 - |z|^2,
P = rho - 1, Q = rho + 1 and q = e^-s, that is f(q) < 0 for

    f(q) = (|Q|^2 - eps) q^2 - 2 (Re(P conj Q) + eps) q + |P|^2 - eps.

f(1) = 4 |z|^2 > 0 unless w fixes the center, which the census rejects, so
the exit is at s = -log q for the largest root q < 1 over the orbit.  The
directions u are Halton points under an exact equal-area map onto the unit
sphere of C^n (Shoemake, Uniform random rotations, Graphics Gems III, 1992,
for n = 2); a seed shifts the points modulo 1 (Cranley and Patterson, SIAM
J. Numer. Anal. 13, 1976).

The slice census follows straight lines t -> t u in the coordinates of an
invariant slice: the points (xi, v, u0) that are 0 off the columns of
(Re xi_1, v) that _SLICES lists for the model.  The lines are not
geodesics, and their lifts x(t) = c + t z1 + t^2 z2 are quadratic in t,
with z2 on the line of infinity.  As <g c, g c> = <c, c>, an image g c
beats x(t) when

    D(t) = |<x, g c>|^2 - |<x, c>|^2 < 0.

Every slice generator fixes infinity with a unit multiplier (loxodromic
ones are rejected), so |<z2, g c>| = |<z2, c>|, the t^4 terms cancel and D
is a real cubic, with D(0) > 0 unless g fixes the center.  With s = 1/t,
D(1/s) s^3 / D(0) = s^3 + k1 s^2 + k2 s + k3, and the exit is at t = 1/s for
the largest root s > 0 over the orbit where the cubic changes sign: by
Cardano's formula for one real root, the cosine formula for three.

The ball exits and the certification that both censuses share visit the
orbit images nearest the center c first, in blocks that make about
_EXIT_CELLS ray-image pairs with the rays still active, and drop a ray once
no image left can change its answer.  By the triangle inequality an image
g c beats no point within d(c, g c) / 2 of c, and lies at least
d(c, g c) - s from a point at distance s: so a ray is done once its exit is
short of half the next image's reach, and a witness at s once that reach,
less s, exceeds its runner-up's distance, each less the rounding allowance
_SLACK.  Where the bounds hold as rounded (see _SLACK), the answers are
the full scan's bit for bit.

The census is a lower-bound certificate over the enumerated ball, never a
completeness claim.
"""

import math
from typing import NamedTuple

import numpy as np

from . import core
from . import groups as gr
from . import heisenberg as hb
from .errors import (
    DegenerateCenterError,
    DegenerateInputError,
    InvarianceError,
    ParameterError,
)

DEFAULT_RAYS = 2000
SIDE_MARGIN = 1e-6
_EXIT_CELLS = 1 << 16  # ray-image pairs per tile, to bound temporaries
_LANES = 4  # image columns per BLAS zgemm micro-kernel (OpenBLAS, x86-64)
# Rounding allowance on the triangle-inequality bounds.  As rounded, the
# bounds hold to 1.1e-16 over the tested censuses (on dilation's nearest
# images, where a root and its image's reach tie exactly); 1e-9 leaves
# seven orders of magnitude and prunes as well.  Far out, a root or a
# distance rounds by about eps e^s (ROADMAP item 3), past the allowance
# from s ~ 15 on, where the full scan's answer is rounding noise too.
_SLACK = 1e-9


class SideCensus(NamedTuple):
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


def _ball_frame(center):
    """J-unitary matrix sending the ball-model origin to the center.

    The transvection [[I + p p*/(1 + c), p], [p*, c]] = J + v v*/(1 + c),
    v = (p, 1 + c), where b = (p, c) is the center's lift scaled to
    <b, b> = -1 with c real and positive, so the frame, and the census run
    in it, depend only on the projective point.  At the origin it is
    exactly I.
    """
    lift = center.lift
    norm = core.herm_inner(lift, lift).real
    if norm >= 0:
        raise DegenerateInputError("center must be an interior point")
    # the last coordinate of an interior point is never 0
    b = lift * (np.conj(lift[-1]) / abs(lift[-1])) / np.sqrt(-norm)
    c = b[-1].real
    v = np.append(b[:-1], 1.0 + c)
    j = core.form_matrix(len(b) - 1)
    return core.Isometry(j + np.outer(v, v.conj()) / (1.0 + c))


def _halton(count, dim, seed=0):
    """First `count` points of the Halton sequence in [0, 1)^dim.

    Coordinate j is the radical inverse of the index in the j-th prime base
    (Halton 1960), matching scipy.stats.qmc.Halton(dim, scramble=False) bit
    for bit.  A seed shifts every point by the sequence's own seed-th point,
    modulo 1 (a Cranley-Patterson rotation, SIAM J. Numer. Anal. 13, 1976);
    its digits are taken with Python ints, so any seed >= 0 is valid and
    seed 0 is no shift.
    """
    bases = [p for p in range(2, max(dim, 2) ** 2)
             if all(p % q for q in range(2, math.isqrt(p) + 1))][:dim]
    out = np.zeros((count, dim))
    shift = np.zeros(dim)
    for j, base in enumerate(bases):
        q, k, scale = np.arange(count), seed, 1.0 / base
        while q.any() or k:
            out[:, j] += (q % base) * scale
            shift[j] += (k % base) * scale
            q, k, scale = q // base, k // base, scale / base
    return (out + shift) % 1.0


def _ray_directions(count, real_dim, seed=0):
    """Quasi-uniform unit vectors u of C^n, as (count, 2n) real rows.

    Real parts come first.  Halton points go through an exact equal-area
    map: the shares |u_k|^2 are Dirichlet(1, ..., 1) by stick breaking on
    the first n - 1 coordinates, and the last n coordinates are the phases.
    """
    n = real_dim // 2
    h = _halton(count, 2 * n - 1, seed=seed)
    w = np.empty((count, n))
    rest = np.ones(count)
    for k in range(n - 1):
        w[:, k] = rest * (1.0 - (1.0 - h[:, k]) ** (1.0 / (n - 1 - k)))
        rest = rest - w[:, k]
    w[:, -1] = rest
    r, angle = np.sqrt(w), 2 * np.pi * h[:, n - 1:]
    return np.hstack([r * np.cos(angle), r * np.sin(angle)])


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


def _census_orbit(gens, levels):
    """spell(rows), the words of the given rows of mats, and mats, the
    matrices of the nontrivial elements of element_ball's levels."""
    if len(levels) == 1:
        raise DegenerateInputError("no nontrivial elements to census")
    words = gr.Words(gens, levels)  # the identity is its element 0
    return (lambda rows: words.take(np.add(rows, 1)),
            np.concatenate([stack for _, stack in levels[1:]]))


def _horizon(spell, base_lift, orbit_lifts, norm):
    """reach, each image's distance from the base point, and the distance
    past which a ray is unbounded; rejects a fixed center."""
    reach = core._bergman_distances(base_lift[None, :], orbit_lifts, norm)[0]
    if np.min(reach) <= 1e-10:
        w = spell([np.argmin(reach)])[0]
        raise DegenerateCenterError(f"center is fixed by the nontrivial element {w!r}")
    return reach, float(np.max(reach)) / 2.0 + 4.0


def _nearest_first(reach, count, dtypes, tile, done):
    """Evaluate `count` rows against the orbit images, nearest to the
    center first: tile(rows, cols, *bufs) takes the images cols, in index
    order, with one (len(rows), len(cols)) buffer of each dtype, and a row
    drops out at a block's end once done(rows, d) says that no image at
    distance d or more from the center can change it.

    A block holds about _EXIT_CELLS // (active rows) images, so a tile
    holds about _EXIT_CELLS cells, or count * len(reach) for small orbits,
    and the buffers are reused from tile to tile.  BLAS rounds an image's
    products by the column's place in its product: the micro-kernel takes
    _LANES image columns at a time and an edge kernel the last k % _LANES,
    and a product of one row or one column is a gemv.  So every block is
    whole micro-kernel columns, the last k % _LANES images close the first
    block, and a lone row is doubled: then each product rounds as the one
    product over the whole orbit did.
    """
    k = len(reach)
    cut = k - k % _LANES
    order = np.argsort(reach[:cut], kind="stable")
    cells = min(_EXIT_CELLS, count * k)
    # a tile has at most cells, or two rows of at most cells // 2 +
    # 2 _LANES columns
    bufs = [np.empty(cells + 4 * _LANES, dtype=t) for t in dtypes]
    active = np.arange(count)
    lo = 0
    while active.size:
        width = cells // max(2, active.size) // _LANES * _LANES
        hi = min(lo + max(_LANES, width), cut)
        cols = np.sort(order[lo:hi] if lo else
                       np.append(order[:hi], np.arange(cut, k)))
        per = max(2, cells // len(cols))
        for r in range(0, active.size, per):
            rows = active[r : r + per]
            rows = rows if len(rows) > 1 else rows.repeat(2)
            size = len(rows) * len(cols)
            tile(rows, cols,
                 *(b[:size].reshape(len(rows), len(cols)) for b in bufs))
        if hi == cut:
            return
        lo = hi
        active = active[~done(active, reach[order[lo]])]


def _certify(spell, witness, s, orbit_lifts, reach, norm, witness_norm,
             nrays, margin, enum_radius):
    """SideCensus from the witnesses' Bergman distances to the orbit: each
    witness keeps only its nearest image, the first in index order among
    equals, and its margin over the runner-up, and a side keeps its least
    margin.  s is each witness's distance from the center, reach each
    image's, and witness_norm the form norm of every witness lift, or None
    to compute each.

    The images go nearest the center first (_nearest_first).  By the
    triangle inequality an image at reach r is at least r - s from a
    witness at s, so a witness is done once the next image's reach, less
    s and _SLACK, exceeds its runner-up's distance: no image left can come
    nearer than the runner-up, or tie it.
    """
    j = np.ones(witness.shape[1])
    j[-1] = -1.0
    lifts = witness * j
    others = np.conj(orbit_lifts).T
    nl = (core._form_norms(witness) if witness_norm is None
          else np.full(len(witness), witness_norm))
    scale = (nl * norm)[:, None]
    best = np.full(len(witness), len(orbit_lifts))
    first = np.full(len(witness), np.inf)
    second = np.full(len(witness), np.inf)

    def tile(rows, cols, inner, dist):
        # core._bergman_distances, operation for operation
        np.matmul(lifts[rows], others[:, cols], out=inner)
        np.abs(inner, out=dist)
        np.square(dist, out=dist)
        np.divide(dist, scale[rows], out=dist)
        np.maximum(dist, 1.0, out=dist)
        np.sqrt(dist, out=dist)
        np.arccosh(dist, out=dist)
        np.multiply(dist, 2.0, out=dist)
        # the least two distances so far, equal ones counted twice as
        # np.partition does, and the nearest image, the first in index
        # order among equals as np.argmin takes it
        at = np.argmin(dist, axis=1)
        lane = np.arange(len(rows))
        near = dist[lane, at]
        dist[lane, at] = np.inf
        runner = core._fold(np.minimum, dist)
        was, at = first[rows], cols[at]
        second[rows] = np.minimum(np.maximum(was, near),
                                  np.minimum(second[rows], runner))
        won = (near < was) | ((near == was) & (at < best[rows]))
        first[rows] = np.where(won, near, was)
        best[rows] = np.where(won, at, best[rows])

    _nearest_first(reach, len(witness), (complex, float), tile,
                   lambda rows, d: d - s[rows] - _SLACK > second[rows])
    m = second - first
    keep = m >= margin
    least = np.full(len(orbit_lifts), np.inf)
    side = np.zeros(len(orbit_lifts), dtype=bool)
    np.minimum.at(least, best[keep], m[keep])
    side[best[keep]] = True
    g = np.flatnonzero(side).tolist()
    sides = dict(zip(spell(g), least[g].tolist()))
    side_words = tuple(sorted(sides))
    return SideCensus(
        sides=side_words,
        margins={w: sides[w] for w in side_words},
        rays_used=nrays,
        enumeration_radius=enum_radius,
        unbounded_ray_fraction=(nrays - len(witness)) / nrays,
    )


def _ball_exits(dirs, orbit_lifts, norm, reach):
    """Distance from the center, at the ball origin, to each ray's first exit:
    the module docstring's f(q) over the orbit lifts (inf if no root).

    The images go nearest the center first (_nearest_first).  By the
    triangle inequality an image at reach r beats no point of a ray short
    of r / 2, so its root is at most e^-(r / 2), and a ray is done once
    its largest root so far reaches e^-(d / 2 - _SLACK) for the next
    image's reach d.
    """
    n = orbit_lifts.shape[1] - 1
    last = orbit_lifts[:, -1]
    zbar = np.conj(orbit_lifts[:, :-1] / last[:, None]).T
    eps = -norm / (last.real ** 2 + last.imag ** 2)
    u = dirs[:, :n] + 1j * dirs[:, n:]
    q = np.zeros(dirs.shape[0])

    def tile(rows, cols, rho, y2, h, p, c, t, crossing):
        # in place, each pair's operations in one fixed order, so a root's
        # bits do not depend on the tile it falls in
        np.matmul(u[rows], zbar[:, cols], out=rho)
        e = eps[cols]
        x = rho.real
        np.square(rho.imag, out=y2)
        # f = a q^2 - 2 b q + c has b^2 - a c = 4 h^2 for
        # h^2 = eps |rho|^2 - Im(rho)^2, and changes sign only where h^2 > 0
        np.multiply(x, x, out=h)
        h += y2
        h *= e
        h -= y2
        np.greater(h, 0.0, out=crossing)
        np.sqrt(h, out=h, where=crossing)
        np.subtract(x, 1.0, out=p)
        np.multiply(p, p, out=c)
        c += y2
        c -= e
        # b = |rho|^2 - |z|^2 <= 0 (Cauchy-Schwarz), so t = b - 2 h does not
        # cancel, and c / t is the root largest below 1 whatever the sign of a
        np.add(x, 1.0, out=t)
        t *= p
        t += y2
        t += e
        h *= 2.0
        t -= h
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(c, t, out=c)
        # rounding alone can put a root at or above 1
        crossing &= c < 1.0
        np.copyto(c, 0.0, where=~crossing)
        q[rows] = np.maximum(q[rows], core._fold(np.maximum, c))

    _nearest_first(reach, len(u), (complex,) + (float,) * 5 + (bool,), tile,
                   lambda rows, d: q[rows] >= math.exp(_SLACK - d / 2.0))
    with np.errstate(divide="ignore"):
        return -np.log(q)


def _slice_exits(lift, orbit_lifts, z1, z2):
    """Slice parameter of each ray x(t) = lift + t z1 + t^2 z2 at its first
    exit: the module docstring's cubic over the orbit lifts (inf if no
    root)."""
    def re(x, y):  # Re(x conj(y)) at each image less at the center, the last
        xy = x.real * y.real + x.imag * y.imag
        return xy[..., :-1] - xy[..., -1:]

    j = np.ones(lift.shape[0])
    j[-1] = -1.0
    rows = np.conj(np.vstack([orbit_lifts, lift]) * j).T
    a = lift @ rows
    e0 = re(a, a)  # D(0) > 0, as _horizon rejects a fixed center
    s = np.empty(len(z1))
    chunk = max(1, _EXIT_CELLS // len(orbit_lifts))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(z1), chunk):
            b, c = z1[lo : lo + chunk] @ rows, z2[lo : lo + chunk] @ rows
            # s^3 + k1 s^2 + k2 s + k3 = D(1/s) s^3 / D(0)
            k1 = 2.0 * re(a, b) / e0
            k2 = (re(b, b) + 2.0 * re(a, c)) / e0
            k3 = 2.0 * re(b, c) / e0
            # the depressed cubic y^3 + p y + q in y = s + k1 / 3
            p = k2 - k1 * k1 / 3.0
            q = k1 * (k1 * k1 / 13.5 - k2 / 3.0) + k3
            h = (q / 2.0) ** 2 + (p / 3.0) ** 3
            # h >= 0: the real root, by Cardano's formula without cancellation;
            # at h = 0 the double root is a tangency and the simple one the
            # crossing, and a triple root has w = y = 0
            w = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(h), q))
            y = w - np.divide(p, 3.0 * w, out=np.zeros_like(w), where=w != 0.0)
            # h < 0, so p < 0: the largest of three, by the cosine formula
            three = h < 0.0
            r = np.sqrt(p[three] / -3.0)
            cos3 = np.clip(q[three] / (-2.0 * r ** 3), -1.0, 1.0)
            y[three] = 2.0 * r * np.cos(np.arccos(cos3) / 3.0)
            s[lo : lo + chunk] = np.max(y - k1 / 3.0, axis=1, initial=0.0)
        return 1.0 / s


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

    Follows `rays` quasi-uniform geodesic rays from the center, solves in
    closed form for the point where each first leaves the half-space of
    some enumerated element, and keeps the beating element when it wins by
    the strictness margin there.  Rays with no exit short of the horizon
    are reported in unbounded_ray_fraction.
    """
    if rays < 100:
        raise ParameterError("need at least 100 rays")
    if seed < 0:
        raise ParameterError("seed must be nonnegative")
    gens.check_dim(center, "census center")
    if core.point_class(center) != "negative":
        raise DegenerateInputError("census center must be an interior point")
    levels, _ = gr.element_ball(gens, enum_radius, budget)
    spell, mats = _census_orbit(gens, levels)

    back = _ball_frame(center).inverse().matrix
    # one flat product, then stacked ones: bit for bit a per-matrix loop
    d = len(center.lift)
    lifts = (mats.reshape(-1, d) @ center.lift).reshape(-1, d, 1)
    orbit_lifts = (back @ lifts)[..., 0]
    cnorm = float(core.herm_inner(center.lift, center.lift).real)
    reach, horizon = _horizon(spell, core.ball_origin(d - 1).lift, orbit_lifts,
                              cnorm)
    dirs = _ray_directions(rays, 2 * (orbit_lifts.shape[1] - 1), seed=seed)
    s = _ball_exits(dirs, orbit_lifts, cnorm, reach)
    crossed = s < horizon
    witness = _chord_lifts(dirs[crossed], s[crossed])  # of form norm -1
    return _certify(spell, witness, s[crossed], orbit_lifts, reach, cnorm,
                    -1.0, rays, margin, enum_radius)


# the slice coordinates of each model, as columns of (Re xi_1, v)
_SLICES = {"vertical-axis": [1], "horizontal-line": [0], "full-horizontal": [0, 1]}


def _slice_coords(model, coords, n):
    """(xi, v) of a stack of slice coordinates (..., len(_SLICES[model])):
    the model's columns of (Re xi_1, v) hold them, the rest is 0."""
    x = np.zeros(coords.shape[:-1] + (2,))
    x[..., _SLICES[model]] = coords
    xi = np.zeros(coords.shape[:-1] + (n - 1,), dtype=complex)
    xi[..., 0] = x[..., 0]
    return xi, x[..., 1]


def _check_invariance(gens, model, u0, tol=1e-9):
    """Raise InvarianceError unless each generator fixes infinity with a
    unit multiplier, so keeps the height u0, and moves five probe points of
    the slice by at most tol off its coordinates."""
    n = gens.dim - 1
    t = np.linspace(-1.3, 1.7, 5)
    probes = np.column_stack([t, 0.3 * t])[:, :len(_SLICES[model])]
    lifts = hb._horo_lifts(*_slice_coords(model, probes, n), u0)
    infinity = core.infinity_point(n).lift
    for iso in gens.isometries:
        image = iso.matrix @ infinity
        if core.projective_lift_gap(image, infinity) > core.PROJ_TOL:
            raise InvarianceError("generator does not fix infinity")
        if abs(abs(image[-1]) - 1.0) > tol:
            raise InvarianceError("loxodromic generator cannot fix the slice")
        _, xi, v, _ = hb._lift_coords(lifts @ iso.matrix.T, 1e-12)
        on = np.column_stack([xi[:, 0].real, v])[:, _SLICES[model]]
        on_xi, on_v = _slice_coords(model, on, n)
        gap = float(np.max(np.max(np.abs(xi - on_xi), axis=1) + np.abs(v - on_v)))
        if gap > tol:
            raise InvarianceError(f"generator moves the {model} slice by {gap:.2e}")


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

    The model names the slice's coordinates among (Re xi_1, v), with every
    other coordinate 0 and the height u0: vertical-axis spans v,
    horizontal-line Re xi_1, and full-horizontal both.  Each generator
    must fix infinity with a unit multiplier, so keep the height, and
    keep five probe points of the slice on it to 1e-9, or the census
    raises InvarianceError.  Rays start at (0, 0, u0) and stay inside the
    slice; distances are Bergman distances in the ambient space.  The
    census is run at enum_radius and enum_radius + 2 and the stable flag
    records whether the side sets agree.  One ball, enumerated at
    enum_radius + 2, serves both radii: its first enum_radius + 1 levels
    are the ball at enum_radius.  The 1-D models, vertical-axis and
    horizontal-line, have only the two rays +1 and -1: they ignore rays
    and report rays_used == 2, and the rule rays >= 100 holds for every
    model alike.
    """
    if rays < 100:
        raise ParameterError("need at least 100 rays")
    if not 0 < u0 < math.inf:
        raise ParameterError("slice height u0 must be positive and finite")
    if model not in _SLICES:
        raise ParameterError(f"unknown model {model!r}")
    _check_invariance(gens, model, u0)
    levels, _ = gr.element_ball(gens, enum_radius + 2, budget)
    first = _slice_census(gens, model, u0, enum_radius, levels[:enum_radius + 1],
                          rays, margin)
    second = _slice_census(gens, model, u0, enum_radius + 2, levels, rays, margin)
    return first._replace(stable=first.sides == second.sides)


def _slice_census(gens, model, u0, enum_radius, levels, rays, margin):
    """The slice census over the ball levels, reported at enum_radius."""
    spell, mats = _census_orbit(gens, levels)
    n = gens.dim - 1
    ylift = hb._horo_lifts(np.zeros(n - 1, dtype=complex), 0.0, u0)
    ynorm = float(core.herm_inner(ylift, ylift).real)
    orbit_lifts = (mats.reshape(-1, n + 1) @ ylift).reshape(-1, n + 1)
    reach, horizon = _horizon(spell, ylift, orbit_lifts, ynorm)

    if len(_SLICES[model]) == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        angles = 2 * np.pi * (np.arange(rays) + 0.5) / rays
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])

    def lifts(coords):
        return hb._horo_lifts(*_slice_coords(model, coords, n), u0)

    # x(t) = ylift + t z1 + t^2 z2 from the lifts at t = 1 and t = -1
    ahead, behind = lifts(dirs), lifts(-dirs)
    t = _slice_exits(ylift, orbit_lifts, (ahead - behind) / 2.0,
                     (ahead + behind) / 2.0 - ylift)
    crossed = np.isfinite(t)
    witness = lifts(t[crossed, None] * dirs[crossed])
    s = core._bergman_distances(witness, ylift[None, :], ynorm)[:, 0]
    near = s <= horizon
    return _certify(spell, witness[near], s[near], orbit_lifts, reach, ynorm,
                    None, len(dirs), margin, enum_radius)
