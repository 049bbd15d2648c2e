"""Hermitian linear algebra and the projective model of complex hyperbolic space.

Complex hyperbolic n-space CH^n is modeled on the negative lines of C^{n,1},
the vector space C^{n+1} equipped with the indefinite Hermitian form

    <z, w> = z_1 conj(w_1) + ... + z_n conj(w_n) - z_{n+1} conj(w_{n+1}),

linear in the first argument.  Interior points are lines on which the form is
negative, boundary points are null lines, and isometries are matrices that
preserve the form, taken up to a unit scalar.

Example:

    >>> import numpy as np
    >>> from chgeom import core
    >>> p = core.ProjectivePoint([0, 0, 1])
    >>> core.point_class(p)
    'negative'
    >>> m = core.Isometry(np.diag([np.exp(0.5), 1.0, 1.0]))   # doctest: +SKIP

Isometries of CH^2 (n = 2) are classified by the trace of the matrix scaled
to det 1 through Goldman's discriminant; only where it is 0 to rounding does
a rank test on M - lam I tell a parabolic from a complex reflection.
"""

import numpy as np

from .errors import (
    BorderlineClassError,
    DegenerateInputError,
    DimensionError,
    FormViolationError,
    InvalidPointError,
    PointClassError,
)

# Working tolerances.  FORM_TOL is scaled by the squared matrix norm when
# checking products of many generators, since the defect of an exact
# isometry computed in floating point grows like eps * |M|^2.
FORM_TOL = 1e-10
PROJ_TOL = 1e-9
NULL_TOL = 1e-12

# Classification compares each quantity with a first-order bound on its
# rounding, in units of _EPS, times the safety factor _ROUND: the bounds
# drop second-order terms and unit constants, and det's phase, for one,
# came within 1.01 of its bound eps k^2 on well-conditioned matrices.
_EPS = float(np.finfo(float).eps)
_ROUND = 16.0


def form_matrix(n=2):
    """The diagonal form matrix J = diag(1, ..., 1, -1) on C^{n,1}."""
    j = np.eye(n + 1)
    j[n, n] = -1.0
    return j


def herm_inner(z, w):
    """Indefinite Hermitian product of two vectors in C^{n,1}.

    Linear in the first argument, conjugate-linear in the second.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape != w.shape or z.ndim != 1:
        raise DimensionError(f"vector shapes differ: {z.shape} vs {w.shape}")
    return np.sum(z[:-1] * np.conj(w[:-1])) - z[-1] * np.conj(w[-1])


def _fold(ufunc, a):
    """ufunc.reduce(a, axis=-1) one column at a time: numpy reduces a short
    last axis slowly, row by row.  A single row has nothing to gain and
    takes ufunc.reduce itself.  The columns go in sequence, so a float sum
    may round otherwise than ufunc.reduce's pairwise order; the callers
    fold maxima of moduli, uint64 sums (which wrap around 2^64 either way),
    booleans, and the census's roots and distances, which hold no NaN and
    whose zeros' signs it never reads, where the order does not matter.
    Otherwise maxima must be of moduli: on raw entries -0.0 and +0.0 can
    come out either way round, and a NaN may keep its payload where np.max
    gives the default NaN."""
    if a.size == a.shape[-1]:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        ufunc(out, a[..., j], out=out)
    return out


def _checked_lifts(lifts, ndim):
    lifts = np.asarray(lifts, dtype=complex)
    if lifts.ndim != ndim or lifts.shape[-1] < 2:
        raise InvalidPointError("lift must be a vector of length >= 2")
    if not np.isfinite(lifts).all():
        raise InvalidPointError("lift has non-finite entries")
    if (_fold(np.maximum, np.abs(lifts)) == 0.0).any():
        raise InvalidPointError("zero lift does not define a point")
    return lifts


class ProjectivePoint:
    """A point of projective space: a nonzero lift vector up to scale."""

    __slots__ = ("lift",)

    def __init__(self, lift):
        self.lift = _checked_lifts(lift, ndim=1)

    @property
    def n(self):
        return self.lift.shape[0] - 1

    def normalized_lift(self):
        """Lift divided by its largest-modulus entry (that entry becomes 1).

        The pivot is the first entry within a relative whisker of the
        maximum so that nearly-tied entries pick the same pivot across
        different numerical paths to the same point.
        """
        mag = np.abs(self.lift)
        k = int(np.argmax(mag >= (1.0 - 1e-6) * np.max(mag)))
        return self.lift / self.lift[k]

    def projectively_equal(self, other, tol=PROJ_TOL):
        """Equality as lines, tested on scale-normalized lifts."""
        if self.lift.shape != other.lift.shape:
            return False
        return projective_lift_gap(self.lift, other.lift) <= tol

    def __repr__(self):
        return f"ProjectivePoint({np.array2string(self.lift, precision=6)})"


def infinity_point(n=2):
    """The distinguished boundary point at infinity, lift (0, ..., 0, -1, 1)."""
    lift = np.zeros(n + 1, dtype=complex)
    lift[n - 1] = -1.0
    lift[n] = 1.0
    return ProjectivePoint(lift)


def ball_origin(n=2):
    """The origin of the ball model, lift (0, ..., 0, 1)."""
    lift = np.zeros(n + 1, dtype=complex)
    lift[n] = 1.0
    return ProjectivePoint(lift)


def point_class(p, tol=NULL_TOL):
    """Sign class of a projective point: 'negative', 'null' or 'positive'.

    Negative lines are interior points of CH^n, null lines boundary points.
    The null band is relative: |<z,z>| / |z|^2 < tol.
    """
    z = p.lift
    q = float(np.real(herm_inner(z, z)))
    scale = float(np.sum(np.abs(z) ** 2))
    if abs(q) / scale < tol:
        return "null"
    return "negative" if q < 0 else "positive"


def form_defect(matrix):
    """Sup-norm of M* J M - J, the obstruction to preserving the form."""
    matrix = np.asarray(matrix, dtype=complex)
    j = form_matrix(matrix.shape[0] - 1)
    return float(np.max(np.abs(matrix.conj().T @ j @ matrix - j)))


class Isometry:
    """A form-preserving matrix up to unit scalar, det-normalized on creation.

    The matrix must satisfy M* J M = J; the check is scaled by |M|^2 so that
    long products of exact isometries are not rejected for accumulated
    floating-point drift.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise DimensionError("matrix must be square of size n+1 >= 2")
        scale = max(1.0, float(np.max(np.abs(m))) ** 2)
        defect = form_defect(m)
        if defect > FORM_TOL * scale:
            raise FormViolationError(
                f"matrix does not preserve the Hermitian form (defect {defect:.3e})",
                defect=defect,
            )
        det = abs(np.linalg.det(m))
        if not 0.0 < det < np.inf:
            # far-out products can round the determinant to 0 or overflow it
            raise FormViolationError(
                f"matrix determinant {det:.3e} cannot be normalized")
        # the division keeps signed zeros: a -0.0 part of an entry can come
        # out as -0.0, so the dedup keys cannot rely on it to clear them
        self.matrix = m / det ** (1.0 / m.shape[0])

    @property
    def n(self):
        return self.matrix.shape[0] - 1

    def inverse(self):
        # J M* J is the exact inverse of a form isometry, no solver needed
        j = form_matrix(self.n)
        return Isometry(j @ self.matrix.conj().T @ j)

    def __matmul__(self, other):
        return Isometry(self.matrix @ other.matrix)

    def projectively_equal(self, other, tol=PROJ_TOL):
        return projective_matrix_gap(self.matrix, other.matrix) <= tol

    def __repr__(self):
        return f"Isometry(n={self.n})"


def _unit_rows(x):
    """Vectors on the last axis divided by their largest modulus."""
    return x / _fold(np.maximum, np.abs(x))[..., None]


def projective_lift_gap(a, b):
    """Largest 2x2 minor of two scale-normalized lifts; 0 iff proportional.

    Stacks of lifts (leading batch axes, broadcast against each other) give
    an array of gaps; two single lifts give a float.
    """
    a = _unit_rows(np.asarray(a, dtype=complex))
    b = _unit_rows(np.asarray(b, dtype=complex))
    # 2x2 minors a_i b_j - a_j b_i vanish iff the lifts are proportional
    minors = a[..., :, None] * b[..., None, :]
    dev = np.abs(minors - np.swapaxes(minors, -1, -2))
    gap = _fold(np.maximum, dev.reshape(dev.shape[:-2] + (dev.shape[-1] ** 2,)))
    return float(gap) if gap.ndim == 0 else gap


def projective_matrix_gap(a, b):
    """Distance between two matrices as projective transformations.

    Scale-normalizes both, aligns the unit phase on the largest entry of a,
    and returns the relative sup-norm difference.  Stacks of matrices
    (leading batch axes, broadcast against each other) give an array of
    gaps; two single matrices give a float, or inf when their shapes differ.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != b.shape[-2:]:
        return np.inf
    a, b = np.broadcast_arrays(a, b)
    a = _unit_rows(a.reshape(a.shape[:-2] + (-1,)))
    b = _unit_rows(b.reshape(b.shape[:-2] + (-1,)))
    k = np.abs(a).argmax(axis=-1)[..., None]
    ak, bk = np.take_along_axis(a, k, -1), np.take_along_axis(b, k, -1)
    # hypot rounds like abs() of one complex scalar; the array abs may not
    small = np.hypot(bk.real, bk.imag) < 1e-12
    phase = np.where(small, 1.0, bk) / np.where(small, 1.0, ak)
    phase = phase / np.hypot(phase.real, phase.imag)
    gap = np.abs(a - np.where(small, b, b / phase)).max(axis=-1)
    return float(gap) if gap.ndim == 0 else gap


def identity_gap(matrix):
    """Relative sup-norm distance of a matrix from the scalar matrices.

    A stack of matrices (leading batch axes) gives an array of gaps, one per
    matrix; a single matrix gives a float.  The gap is max|m - lam I| /
    max|m| with lam = tr(m) / d, bit for bit; off the diagonal |m - lam I|
    is |m|, so one modulus array serves both, its diagonal overwritten.  A
    non-finite lam gives NaN, as lam * 0 does in the formula.  The trace,
    the diagonal and the maxima go a column at a time (see `_fold`): numpy
    reduces the short axes of a stack of small matrices slowly, row by row.
    The trace is summed in sequence, which is np.trace's order for d <= 3;
    from d = 4 on np.trace sums pairwise and may round otherwise.
    """
    m = np.asarray(matrix, dtype=complex)
    d = m.shape[-1]
    lam = sum((m[..., i, i] for i in range(1, d)), m[..., 0, 0]) / d
    # dev is a view of flat whatever m's memory layout, so the diagonal
    # written into dev is in flat's maximum
    flat = np.abs(m).reshape(m.shape[:-2] + (d * d,))
    dev = flat.reshape(m.shape)
    scale = _fold(np.maximum, flat)
    for i in range(d):
        dev[..., i, i] = np.abs(m[..., i, i] - lam)
    gap = np.where(np.isfinite(lam), _fold(np.maximum, flat) / scale, np.nan)
    return float(gap) if m.ndim == 2 else gap


def is_projective_identity(matrix, tol=PROJ_TOL):
    return identity_gap(matrix) <= tol


def projective_apply(m, p):
    """Apply an isometry to a projective point: lift -> M lift."""
    if isinstance(m, Isometry):
        mat = m.matrix
    else:
        mat = np.asarray(m, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(mat))) ** 2)
        if form_defect(mat) > FORM_TOL * scale:
            raise FormViolationError("matrix does not preserve the Hermitian form")
    if mat.shape[1] != p.lift.shape[0]:
        raise DimensionError("matrix and point dimensions differ")
    return ProjectivePoint(mat @ p.lift)


def _form_norms(lifts):
    """<z, z> of each row of a lift stack, as reals."""
    j = np.ones(lifts.shape[-1])
    j[-1] = -1.0
    return ((lifts * j) * lifts.conj()).sum(axis=-1).real


def _bergman_distances(lifts, others, others_norm=None, lift_norm=None):
    """Bergman distances between every row of `lifts` and every row of `others`.

    When a stack's rows are isometry images of one point, pass that point's
    form norm (others_norm, or lift_norm when every lift has it):
    recomputing <w, w> from a large-norm lift cancels catastrophically once
    distances pass ~35.
    """
    j = np.ones(lifts.shape[1])
    j[-1] = -1.0
    inner = (lifts * j) @ np.conj(others).T
    nl = _form_norms(lifts) if lift_norm is None else np.full(len(lifts), lift_norm)
    no = _form_norms(others) if others_norm is None else np.full(len(others), others_norm)
    ratio = np.abs(inner) ** 2 / (nl[:, None] * no[None, :])
    return 2.0 * np.arccosh(np.sqrt(np.maximum(ratio, 1.0)))


def bergman_distance(p, q):
    """Distance in the Bergman metric between two interior points.

    Uses cosh^2(d/2) = <z,w><w,z> / (<z,z><w,w>), which is scale-free and
    invariant under every form isometry.
    """
    for x in (p, q):
        if point_class(x) != "negative":
            raise PointClassError("bergman_distance needs interior (negative) points")
    zz = float(np.real(herm_inner(p.lift, p.lift)))
    ww = float(np.real(herm_inner(q.lift, q.lift)))
    zw = herm_inner(p.lift, q.lift)
    ratio = (abs(zw) ** 2) / (zz * ww)
    if ratio < 1.0:
        ratio = 1.0
    return 2.0 * float(np.arccosh(np.sqrt(ratio)))


def _goldman(tau):
    """Goldman's discriminant f(tau) = |tau|^4 - 8 Re tau^3 + 18 |tau|^2 - 27."""
    t2 = tau.real * tau.real + tau.imag * tau.imag
    return t2 * t2 - 8.0 * (tau * tau * tau).real + 18.0 * t2 - 27.0


def _trace_class(mat):
    """(class, kernel) of a non-identity isometry of CH^2.  Where f = 0
    leaves the class to linear algebra, kernel holds orthonormal columns
    spanning ker(M - lam I) at the double (triple) root lam of the
    characteristic polynomial; otherwise it is None."""
    if mat.shape != (3, 3):
        raise DimensionError("isometries are classified for n = 2 only")
    sv = np.linalg.svd(mat, compute_uv=False)
    # a form isometry times c has singular values |c| (e^t, 1, e^-t): the
    # middle one is the scale, whatever det has rounded to
    k, a = sv[0] / sv[1], mat / sv[1]
    # entry error of a: what its form defect shows, and never below rounding
    err = form_defect(a) / k + _EPS * k
    tau = complex(a[0, 0] + a[1, 1] + a[2, 2])
    # f >= (|tau| - 3)^3 (|tau| + 1) > 0 once |tau| > 3, whatever the phase;
    # the middle singular value is good to eps times the largest
    if abs(tau) / (1.0 + _ROUND * _EPS * k) - 3.0 * _ROUND * err > 3.0:
        return "loxodromic", None
    phase = np.exp(1j * np.angle(np.linalg.det(a)) / 3.0)
    a, tau = a / phase, tau / phase
    # the scale is good to eps k, and det's phase to eps k^2, its condition
    drift = _EPS * k * (1.0 + k)
    t = abs(tau)
    dtau = 3.0 * err + drift * t
    f = _goldman(tau)
    df = _ROUND * (((4.0 * t + 24.0) * t + 36.0) * t * dtau
                   + _EPS * (((t + 8.0) * t + 18.0) * t * t + 27.0))
    if abs(f) > df:
        return ("loxodromic" if f > 0 else "elliptic"), None
    # f = 0 to rounding: the double root of x^3 - tau x^2 + conj(tau) x - 1
    # is a root of its derivative, and a triple root is tau / 3
    delta = tau * tau - 3.0 * tau.conjugate()
    ddelta = (2.0 * t + 3.0) * dtau
    triple = abs(delta) <= _ROUND * ddelta
    if triple:
        lam, dlam = tau / 3.0, dtau / 3.0
    else:
        r = np.sqrt(delta)
        lam = min(((tau + r) / 3.0, (tau - r) / 3.0),
                  key=lambda x: abs(((x - tau) * x + tau.conjugate()) * x - 1.0))
        dlam = (dtau + ddelta / abs(r)) / 3.0
    n = a - lam * np.eye(3)
    u, s, vh = np.linalg.svd(n)
    noise = _ROUND * (3.0 * (err + drift) + _EPS * s[0])
    cut = noise + 3.0 * _ROUND * dlam
    if s[0] <= cut:
        raise BorderlineClassError("the element is the identity to rounding")
    if s[2] > cut:
        raise BorderlineClassError(f"f = {f:.2e} is within {df:.2e} of 0, yet no double root")
    if s[1] > cut:
        # one eigenvector at the root: a Jordan block, certified only well
        # clear of the cut, since a split pair conjugated by a matrix of
        # condition kappa shows s1 / s2 up to kappa^2; 100 admits kappa < 10
        if s[1] <= 100.0 * cut:
            raise BorderlineClassError("the rank of M - lam I is ambiguous")
        return "parabolic", vh[2:].conj().T
    # a 2-dimensional eigenspace: M - lam I is a scalar on it, the error of
    # lam, while on a split pair it is not
    v = vh[1:].conj().T
    pair = v.conj().T @ n @ v
    if np.abs(pair - (np.trace(pair) / 2.0) * np.eye(2)).max() > noise:
        raise BorderlineClassError("an eigenvalue pair that the trace cannot split")
    if not triple:
        return "elliptic", v
    # a rank-1 part of trace 0 is nilpotent, a parabolic; one of nonzero
    # trace is a complex reflection near the identity
    if abs(s[0] * np.vdot(vh[0].conj(), u[:, 0])) > noise:
        raise BorderlineClassError("a near-triple eigenvalue that is not nilpotent")
    return "parabolic", v


def _classified(m):
    """(matrix, class, kernel) of an isometry or its matrix: _trace_class's
    class and kernel, or 'identity' and None."""
    mat = m.matrix if isinstance(m, Isometry) else Isometry(m).matrix
    if is_projective_identity(mat):
        return mat, "identity", None
    return (mat,) + _trace_class(mat)


def classify_isometry(m):
    """Classify as 'identity', 'elliptic', 'parabolic' or 'loxodromic'.

    n = 2 only: other n raise DimensionError, the identity aside.  The
    trace tau of the matrix scaled to det 1 decides: Goldman's f(tau) =
    |tau|^4 - 8 Re tau^3 + 18 |tau|^2 - 27 is positive exactly for
    loxodromic and negative exactly for regular elliptic elements (Goldman
    1999, Thm 6.2.4).  Where f is 0 to rounding, the rank and nilpotency of
    M - lam I at the double root lam tell a complex reflection (elliptic)
    from a parabolic.  What the rounding bounds cannot separate raises
    BorderlineClassError.
    """
    return _classified(m)[1]


def boundary_fixed_points(m):
    """Null fixed lines of an isometry of CH^2, in a canonical order.

    By the trace class, with no null-cone threshold: a loxodromic element
    has two, the attracting lines of M and of its exact inverse J M* J,
    each the kernel at the eigenvalue of largest modulus.  Otherwise the
    kernel of M - lam I that the class was read from: a one-dimensional
    kernel (a parabolic Jordan block) is the point; on a two-dimensional
    one the eigenvectors of the Gram matrix decide.  A parabolic's point
    is the one whose eigenvalue is nearest 0, moved onto the null cone (see
    _onto_null_cone), a complex reflection in a complex line (indefinite
    Gram) fixes the two chain endpoints, and one in a point (definite
    Gram) fixes none; neither does a regular elliptic.  n = 2 only, as for
    classify_isometry.
    """
    return _fixed_points(*_classified(m))


def _onto_null_cone(z):
    """The null lift z - <z, z> e / (2 conj <z, e>), for a kernel that is
    null only to its rounding (about 1e-6 near the identity).  The null
    direction e = e_n - e_{n+1}, toward infinity, keeps the Heisenberg
    (xi, v) and sets u to 0; outside the unit Cygan sphere e = e_n +
    e_{n+1}, toward the origin, has the larger |<z, e>| and smaller step."""
    toward, away = z[-2] + z[-1], z[-2] - z[-1]  # <z, e> for the two e
    sign, pair = (-1.0, toward) if abs(toward) >= abs(away) else (1.0, away)
    e = np.zeros(len(z))
    e[-2:] = 1.0, sign
    return z - (herm_inner(z, z).real / (2.0 * np.conj(pair))) * e


def _fixed_points(mat, tag, kernel, eig=None):
    """boundary_fixed_points of a matrix of the class and kernel that
    _classified gave; eig, if given, is np.linalg.eigvals(mat)."""
    if tag == "identity":
        raise DegenerateInputError("identity fixes every point")
    j = form_matrix(2)
    lifts = []
    if tag == "loxodromic":
        # the largest eigenvalue and its kernel keep their digits however
        # far out the word is; the smallest ones are rounding noise there
        inverse = j @ mat.conj().T @ j
        eig = np.linalg.eigvals(mat) if eig is None else eig
        for space, values in ((mat, eig), (inverse, np.linalg.eigvals(inverse))):
            lam = max(values, key=abs)
            lifts.append(np.linalg.svd(space - lam * np.eye(3))[2][-1].conj())
    elif kernel is not None and kernel.shape[1] == 1:
        lifts = [_onto_null_cone(kernel[:, 0])]
    elif kernel is not None:
        d, w = np.linalg.eigh(kernel.conj().T @ j @ kernel)
        neg, pos = kernel @ w[:, 0], kernel @ w[:, 1]
        if tag == "parabolic":
            lifts = [_onto_null_cone(neg if abs(d[0]) <= abs(d[1]) else pos)]
        elif d[0] < 0 < d[1]:
            # the null cone meets the eigenspace in a circle of lines:
            # report its two real-combination representatives
            a, b = np.sqrt(-d[0]), np.sqrt(d[1])
            lifts = [b * neg + a * pos, b * neg - a * pos]
    points = [ProjectivePoint(lift) for lift in lifts]
    points.sort(key=lambda p: tuple(np.round(p.normalized_lift().view(float), 7)))
    return points
