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

Classification of isometries (elliptic / parabolic / loxodromic) is by
spectrum, with defective cases resolved through rank tests rather than raw
eigenvalue moduli, which are unreliable for Jordan blocks.
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
CLASS_TOL = 1e-8

# Eigenvalues closer than _CLUSTER_TOL are treated as one algebraic cluster;
# within a cluster, singular values of M - (cluster mean) I below _SMALL_SIGMA
# times the largest one count toward the geometric multiplicity.  The cluster
# mean is trusted even for defective blocks (rounding scatters a Jordan
# block's eigenvalues symmetrically, so the mean stays accurate), while the
# individual scattered eigenvalues are not.
#
# The cut has to separate two populations: true kernel directions, which stay
# below ~1e-13 relative even after conjugation by norm-100 elements, and
# genuine rank directions, which can fall to ~4e-5 relative for the Jordan
# part of a badly conditioned parabolic and ~3e-4 for products of sphere
# inversions (matrix norms in the thousands).  1e-9 sits safely between.
_CLUSTER_TOL = 1e-3
_SMALL_SIGMA = 1e-9
_SIGMA_BAND = 10.0
_SPREAD_FLOOR = 1e-11


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


def form_defect(matrix, n=None):
    """Sup-norm of M* J M - J, the obstruction to preserving the form."""
    matrix = np.asarray(matrix, dtype=complex)
    if n is None:
        n = matrix.shape[0] - 1
    j = form_matrix(n)
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


def _eigen_clusters(eigenvalues, tol=_CLUSTER_TOL):
    """Group eigenvalues within tol of each other (single linkage)."""
    m = len(eigenvalues)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for k in range(i + 1, m):
            if abs(eigenvalues[i] - eigenvalues[k]) <= tol:
                parent[find(i)] = find(k)
    clusters = {}
    for i in range(m):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def _cluster_eigenspace(matrix, mean):
    """Basis of the numerical near-kernel of (M - mean I).

    Returns (basis columns, singular values, ambiguous flag).  The rank cut
    sits at _SMALL_SIGMA relative to the largest singular value of the
    shifted matrix; singular values inside the band just above the cut make
    the multiplicity structure ambiguous.
    """
    m = np.asarray(matrix, dtype=complex)
    shifted = m - mean * np.eye(m.shape[0])
    _, s, vh = np.linalg.svd(shifted)
    smax = max(s[0], 1e-300)
    cut = _SMALL_SIGMA * smax
    small = s <= cut
    ambiguous = np.any((s > cut) & (s < _SIGMA_BAND * cut))
    basis = vh.conj().T[:, small]
    return basis, s, bool(ambiguous)


def _resolve_clusters(mat, eigenvalues):
    """Split the spectrum into clusters backed by rank evidence.

    Returns (lam, mean, basis) triples: the eigenvalues assigned to the
    cluster, their mean, and an orthonormal near-kernel basis of
    (mat - mean I).  A basis narrower than len(lam) certifies a defective
    cluster.  Clusters whose members share no near-eigenvector are split at
    finer tolerances until the evidence is consistent; raises
    BorderlineClassError when no consistent reading exists.
    """
    out = []

    def visit(lam, ctol):
        mean = complex(np.mean(lam))
        basis, _, ambiguous = _cluster_eigenspace(mat, mean)
        if ambiguous:
            raise BorderlineClassError(
                "eigenspace rank is ambiguous at the working tolerance",
                eigenvalues=eigenvalues,
            )
        nsmall = basis.shape[1]
        if nsmall > len(lam):
            raise BorderlineClassError(
                "more near-null directions than the cluster multiplicity",
                eigenvalues=eigenvalues,
            )
        if nsmall >= 1:
            out.append((lam, mean, basis))
            return
        # no shared eigenvector: the cluster merged genuinely distinct
        # eigenvalues, so split it at a finer scale
        fine = ctol / 50.0
        if len(lam) == 1 or fine < 1e-9:
            raise BorderlineClassError(
                "eigenvalue cluster cannot be resolved above the noise floor",
                eigenvalues=eigenvalues,
            )
        subs = _eigen_clusters(lam, tol=fine)
        if len(subs) == 1:
            visit(lam, fine)
        else:
            for idx in subs:
                visit(lam[idx], fine)

    for idx in _eigen_clusters(eigenvalues):
        visit(eigenvalues[list(idx)], _CLUSTER_TOL)
    return out


def classify_isometry(m):
    """Classify as 'identity', 'elliptic', 'parabolic' or 'loxodromic'.

    Loxodromic means an eigenvalue off the unit circle (after det
    normalization); among unit-spectrum elements, elliptic means
    diagonalizable with an interior fixed point and parabolic means
    defective.  Genuinely ambiguous inputs raise BorderlineClassError
    rather than guessing.
    """
    if not isinstance(m, Isometry):
        m = Isometry(np.asarray(m, dtype=complex))
    mat = m.matrix
    if is_projective_identity(mat):
        return "identity"

    eigenvalues = np.linalg.eigvals(mat)
    j = form_matrix(mat.shape[0] - 1)
    any_defective = False
    has_negative_vector = False
    moduli = []
    for lam, mean, basis in _resolve_clusters(mat, eigenvalues):
        if basis.shape[1] < len(lam):
            # defective cluster: the scattered eigenvalues are artifacts,
            # only the mean is trustworthy
            any_defective = True
            moduli.append(abs(mean))
            continue
        moduli.extend(np.abs(lam))
        gram = basis.conj().T @ j @ basis
        if float(np.min(np.linalg.eigvalsh(gram))) < -1e-10:
            has_negative_vector = True

    spread = max(moduli) / min(moduli) - 1.0
    if any_defective:
        # a defective block in a form isometry forces a unit spectrum, so a
        # large measured spread would contradict the rank evidence
        if spread > CLASS_TOL:
            raise BorderlineClassError(
                "defective cluster coexists with off-circle moduli",
                eigenvalues=eigenvalues,
            )
        return "parabolic"
    if spread > CLASS_TOL:
        return "loxodromic"
    if spread > _SPREAD_FLOOR:
        raise BorderlineClassError(
            f"eigenvalue modulus spread {spread:.3e} is inside the ambiguity "
            "band between unit and loxodromic spectrum",
            eigenvalues=eigenvalues,
        )
    if has_negative_vector:
        return "elliptic"
    # diagonalizable with unit spectrum forces an interior fixed point;
    # not seeing one means the numerics cannot be trusted here
    raise BorderlineClassError(
        "diagonalizable unit spectrum without a visible interior fixed point",
        eigenvalues=eigenvalues,
    )


def boundary_fixed_points(m):
    """Null fixed lines of an isometry, projectively deduplicated.

    Parabolic elements yield one point, loxodromic two.  Elliptic elements
    may yield zero (regular rotation) or a pair of chain endpoints when an
    eigenspace meets the null cone.
    """
    mat = m.matrix if isinstance(m, Isometry) else Isometry(m).matrix
    if is_projective_identity(mat):
        raise DegenerateInputError("identity fixes every point")

    j = form_matrix(mat.shape[0] - 1)
    eigenvalues = np.linalg.eigvals(mat)
    found = []
    for lam, _, basis in _resolve_clusters(mat, eigenvalues):
        for sub in _refine_eigenspaces(mat, lam, basis):
            found.extend(_null_lines_in_eigenspace(sub, j))
    points = []
    for lift in found:
        cand = ProjectivePoint(lift)
        if not any(cand.projectively_equal(q, tol=1e-6) for q in points):
            points.append(cand)
    points.sort(key=lambda p: _lift_sort_key(p))
    return points


def _refine_eigenspaces(mat, lam, basis):
    """Split a semisimple cluster basis by sub-eigenvalue when possible.

    A coarse cluster can merge distinct eigenvalues; null lines must come
    from genuine eigenspaces, so re-diagonalize the restriction and split
    whenever the sub-eigenvalues separate cleanly.  Defective clusters and
    numerically coincident sub-eigenvalues pass through unchanged.
    """
    k = basis.shape[1]
    if k < 2 or k < len(lam):
        return [basis]
    restricted = basis.conj().T @ mat @ basis
    mu, vecs = np.linalg.eig(restricted)
    groups = _eigen_clusters(mu, tol=1e-9)
    if len(groups) == 1:
        return [basis]
    out = []
    for idx in groups:
        q, _ = np.linalg.qr(vecs[:, idx])
        out.append(basis @ q)
    return out


def _null_lines_in_eigenspace(basis, j):
    """Representative null-cone lifts inside one eigenspace."""
    gram = basis.conj().T @ j @ basis
    d, w = np.linalg.eigh(gram)
    null_mask = np.abs(d) <= 1e-8
    lifts = [basis @ w[:, k] for k in np.where(null_mask)[0]]
    if not lifts and d.shape[0] >= 2 and d[0] < 0 < d[-1]:
        # indefinite eigenspace: the null cone meets it in a circle of
        # lines; report the two real-combination representatives
        neg = basis @ w[:, 0]
        pos = basis @ w[:, -1]
        a = np.sqrt(-d[0])
        b = np.sqrt(d[-1])
        lifts.append(b * neg + a * pos)
        lifts.append(b * neg - a * pos)
    return lifts


def _lift_sort_key(p):
    z = p.normalized_lift()
    return tuple(np.round(z.view(float), 7))
