"""Heisenberg group arithmetic, the Cygan metric, and horospherical coordinates.

The boundary of CH^n minus one point carries the Heisenberg group structure
H = C^{n-1} x R with product

    (xi1, v1) (xi2, v2) = (xi1 + xi2, v1 + v2 + 2 Im <<xi1, xi2>>),

where <<x, y>> = sum x_k conj(y_k) is linear in the first slot.  Interior
points get horospherical coordinates (xi, v, u) with height u > 0.  The
Cygan metric on the boundary, the similarity group (rotations, dilations,
left translations), the inversion fixing the unit sphere, and the matrix
embeddings of all of these into the isometry group live here.

Conventions: the distinguished point at infinity is never a HoroPoint; it is
the projective point with lift (0, ..., -1, 1).  The lift of (xi, v, u) is

    ( xi, (1 - <<xi,xi>> - u + iv)/2, (1 + <<xi,xi>> + u - iv)/2 ),

which satisfies <z, z> = -u.
"""

import numpy as np

from . import core
from .errors import DimensionError, ParameterError, PointAtInfinityError, PoleError

ROTATION_TOL = 1e-10


def _as_xi(xi):
    """Coerce xi to a complex vector; scalars become length-1 vectors."""
    arr = np.atleast_1d(np.asarray(xi, dtype=complex))
    if arr.ndim != 1:
        raise DimensionError("xi must be a scalar or a 1-d complex vector")
    return arr


class HeisPoint:
    """Boundary point (xi, v) in C^{n-1} x R."""

    __slots__ = ("xi", "v")

    def __init__(self, xi, v):
        self.xi = _as_xi(xi)
        self.v = float(v)

    @property
    def n(self):
        return self.xi.shape[0] + 1

    def as_horo(self):
        return HoroPoint(self.xi, self.v, 0.0)


class HoroPoint:
    """Interior or boundary point (xi, v, u) with height u >= 0."""

    __slots__ = ("xi", "v", "u")

    def __init__(self, xi, v, u):
        u = float(u)
        if u < 0:
            raise ParameterError("height u must be nonnegative")
        self.xi = _as_xi(xi)
        self.v = float(v)
        self.u = u

    @property
    def n(self):
        return self.xi.shape[0] + 1

    def boundary(self):
        return HeisPoint(self.xi, self.v)


def _horo(p):
    """View a HeisPoint as a height-zero HoroPoint; pass HoroPoint through."""
    if isinstance(p, HoroPoint):
        return p
    return HoroPoint(p.xi, p.v, 0.0)


def pairing(x, y):
    """<<x, y>> = sum x_k conj(y_k), linear in the first argument."""
    x = _as_xi(x)
    y = _as_xi(y)
    if x.shape != y.shape:
        raise DimensionError("xi dimensions differ")
    return complex(np.sum(x * np.conj(y)))


def heis_mul(a, b):
    """Heisenberg group product."""
    if a.xi.shape != b.xi.shape:
        raise DimensionError("points live in different Heisenberg groups")
    twist = 2.0 * pairing(a.xi, b.xi).imag
    return HeisPoint(a.xi + b.xi, a.v + b.v + twist)


def heis_inverse(p):
    return HeisPoint(-p.xi, -p.v)


def cygan_norm(p):
    """Gauge | |xi|^2 + u - i v |^(1/2); accepts boundary or interior points."""
    p = _horo(p)
    q = float(np.sum(np.abs(p.xi) ** 2))
    return abs(q + p.u - 1j * p.v) ** 0.5


def cygan_dist(a, b):
    """Cygan distance, extended to interior points.

    On the boundary this is cygan_norm(a^{-1} b); the interior extension
    adds |u_a - u_b| to the real part of the gauge argument.
    """
    a = _horo(a)
    b = _horo(b)
    if a.xi.shape != b.xi.shape:
        raise DimensionError("points live in different Heisenberg groups")
    dq = float(np.sum(np.abs(a.xi - b.xi) ** 2))
    twist = a.v - b.v + 2.0 * pairing(a.xi, b.xi).imag
    return abs(dq + abs(a.u - b.u) - 1j * twist) ** 0.5


def heis_inversion(p):
    """The involution (xi, v) -> (xi / (|xi|^2 - iv), -v / (v^2 + |xi|^4)).

    Fixes the unit Cygan sphere setwise and swaps its inside and outside;
    the group origin is a pole (it maps to infinity).
    """
    q = float(np.sum(np.abs(p.xi) ** 2))
    w = q - 1j * p.v
    if abs(w) == 0.0:
        raise PoleError("the origin maps to infinity under inversion")
    return HeisPoint(p.xi / w, -p.v / (p.v**2 + q**2))


def inversion_matrix(n=2):
    """Matrix realization of the Heisenberg inversion: negate coordinate n.

    Conjugating lifts by diag(1, ..., 1, -1, 1) reproduces the boundary
    inversion formula exactly, and extends it to the interior.
    """
    d = np.ones(n + 1, dtype=complex)
    d[n - 1] = -1.0
    return core.Isometry(np.diag(d))


class HeisSimilarity:
    """Rotation A in U(n-1), then dilation by r > 0, then left translation."""

    __slots__ = ("rotation", "translation", "dilation")

    def __init__(self, rotation=None, translation=None, dilation=1.0, n=2):
        if rotation is None:
            rotation = np.eye(n - 1)
        rotation = np.atleast_2d(np.asarray(rotation, dtype=complex))
        defect = np.max(np.abs(rotation.conj().T @ rotation - np.eye(rotation.shape[0])))
        if defect > ROTATION_TOL:
            raise ParameterError(f"rotation part is not unitary (defect {defect:.3e})")
        if translation is None:
            translation = HeisPoint(np.zeros(rotation.shape[0]), 0.0)
        dilation = float(dilation)
        if dilation <= 0:
            raise ParameterError("dilation factor must be positive")
        self.rotation = rotation
        self.translation = translation
        self.dilation = dilation

    @property
    def n(self):
        return self.rotation.shape[0] + 1


def heis_dilate(p, r):
    """delta_r (xi, v, u) = (r xi, r^2 v, r^2 u); scales Cygan data by r."""
    p = _horo(p)
    return HoroPoint(r * p.xi, r * r * p.v, r * r * p.u)


def heis_similarity_apply(s, p):
    """Apply rotation, then dilation, then translation."""
    p = _horo(p)
    r = s.dilation
    xi = r * (s.rotation @ p.xi)
    v = r * r * p.v
    t = s.translation
    twist = 2.0 * pairing(t.xi, xi).imag
    return HoroPoint(t.xi + xi, t.v + v + twist, r * r * p.u)


def similarity_compose(s1, s2):
    """The similarity acting as s1 after s2."""
    a = s1.rotation @ s2.rotation
    r = s1.dilation * s2.dilation
    moved = HeisPoint(s1.dilation * (s1.rotation @ s2.translation.xi),
                      s1.dilation**2 * s2.translation.v)
    t = heis_mul(s1.translation, moved)
    return HeisSimilarity(rotation=a, translation=t, dilation=r)


def _embed_rotation(a):
    k = a.shape[0]
    m = np.eye(k + 2, dtype=complex)
    m[:k, :k] = a
    return m


def _embed_translation(xi, v):
    xi = _as_xi(xi)
    k = xi.shape[0]
    q = float(np.sum(np.abs(xi) ** 2))
    w = 0.5 * (q - 1j * v)
    m = np.zeros((k + 2, k + 2), dtype=complex)
    m[:k, :k] = np.eye(k)
    m[:k, k] = xi
    m[:k, k + 1] = xi
    m[k, :k] = -np.conj(xi)
    m[k + 1, :k] = np.conj(xi)
    m[k, k] = 1.0 - w
    m[k, k + 1] = -w
    m[k + 1, k] = w
    m[k + 1, k + 1] = 1.0 + w
    return m


def _embed_dilation(r, k):
    s = np.log(r)
    m = np.eye(k + 2, dtype=complex)
    m[k, k] = np.cosh(s)
    m[k, k + 1] = -np.sinh(s)
    m[k + 1, k] = -np.sinh(s)
    m[k + 1, k + 1] = np.cosh(s)
    return m


def embed_isometry(s):
    """Embed a Heisenberg similarity as a form-preserving matrix.

    The embedding is a group homomorphism, and its boundary action through
    projective lifts agrees with heis_similarity_apply.
    """
    k = s.rotation.shape[0]
    t = s.translation
    m = (_embed_translation(t.xi, t.v)
         @ _embed_dilation(s.dilation, k)
         @ _embed_rotation(s.rotation))
    return core.Isometry(m)


def embed_translation(xi, v=None):
    """Shorthand for embedding the left translation by (xi, v)."""
    if v is None:
        xi, v = xi.xi, xi.v
    xi = _as_xi(xi)
    sim = HeisSimilarity(rotation=np.eye(xi.shape[0]),
                         translation=HeisPoint(xi, v))
    return embed_isometry(sim)


def embed_dilation(r, n=2):
    sim = HeisSimilarity(dilation=r, n=n)
    return embed_isometry(sim)


def embed_rotation(a):
    sim = HeisSimilarity(rotation=a)
    return embed_isometry(sim)


def _horo_lifts(xi, v, u):
    """Lifts of a stack of (xi, v, u): xi is (..., n-1), v and u broadcast."""
    q = (np.abs(xi) ** 2).sum(axis=-1)
    k = xi.shape[-1]
    z = np.empty(xi.shape[:-1] + (k + 2,), dtype=complex)
    z[..., :k] = xi
    z[..., k] = 0.5 * (1.0 - q - u + 1j * v)
    z[..., k + 1] = 0.5 * (1.0 + q + u - 1j * v)
    return z


def horo_to_projective(p):
    """Lift (xi, v, u) to C^{n,1}; the lift satisfies <z, z> = -u."""
    p = _horo(p)
    return core.ProjectivePoint(_horo_lifts(p.xi, p.v, p.u))


def _lift_coords(lifts, tol):
    """(finite, xi, v, u) of a (k, n+1) lift stack, u = -<z, z> at c = 1.

    A row whose c = z_n + z_{n+1} is at most tol times its largest entry is
    the point at infinity: finite is False there, and xi, v and u cover
    the finite rows only.  The rounding error of u grows with |z|^2, so a
    height within 1e-9 max(1, max|z_i|^2) below 0 reads as 0.
    """
    k = lifts.shape[-1] - 2
    c = lifts[:, k] + lifts[:, k + 1]
    finite = np.abs(c) > tol * core._fold(np.maximum, np.abs(lifts))
    z = lifts[finite] / c[finite, None]
    u = -core._form_norms(z)
    floor = -1e-9 * np.maximum(1.0, core._fold(np.maximum, np.abs(z)) ** 2)
    u[(floor < u) & (u < 0.0)] = 0.0
    return finite, z[:, :k], (z[:, k] - z[:, k + 1]).imag, u


def projective_to_horo(p, tol=1e-12):
    """Horospherical coordinates of a projective point away from infinity."""
    finite, xi, v, u = _lift_coords(p.lift[None, :], tol)
    if not finite[0]:
        raise PointAtInfinityError("the point at infinity has no horospherical coordinates")
    return HoroPoint(xi[0], v[0], u[0])
