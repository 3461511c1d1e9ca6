"""Shared dense linear algebra: vectorization, rank decisions, samplers,
the matrix exponential and unitary eigenframes."""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from . import tolerances
from .errors import ConditioningError, InputError

Array = np.ndarray


def frob(m: Array) -> float:
    return float(np.linalg.norm(m))


def frobs(stack) -> list[float]:
    """frob of each matrix (or array) of a stack, in one call, bit for bit:
    [] for an empty stack.

    np.linalg.norm reads its argument in memory order (ravel order 'K')
    and adds two 1-D dots, re . re + im . im for complex entries; here each
    matrix is read in that order and its dots are stacked (1, N) @ (N, 1)
    row products, which numpy takes as the same dot.  A stacked
    norm(..., axis=(-2, -1)) sums in another order and would not match.
    """
    x = np.asarray(stack)
    if not issubclass(x.dtype.type, np.inexact):
        x = x.astype(float)
    # each matrix's axes in decreasing stride, as ravel order 'K' reads them
    axes = sorted(range(1, x.ndim), key=lambda axis: -abs(x.strides[axis]))
    rows = x.transpose(0, *axes).reshape(len(x), 1, math.prod(x.shape[1:]))

    def dots(part):
        return (part @ part.swapaxes(-1, -2))[:, 0, 0]

    squares = dots(rows.real) + dots(rows.imag) if np.iscomplexobj(rows) else dots(rows)
    return np.sqrt(squares).tolist()


def tuple_distance(a: Array, b: Array) -> float:
    """Frobenius distance of two (..., n, n) image tuples: the square root
    of the Python sum of the squared frobs of a - b."""
    return float(np.sqrt(sum(gap ** 2 for gap in frobs(a - b))))


def vec(m: Array) -> Array:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(m).ravel(order="F")


def _converted(values, what: str, **options) -> Array:
    """np.array(values, **options); InputError naming what when they do
    not convert (a ragged nesting, a string that reads as no number)."""
    try:
        return np.array(values, **options)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} do not form one stack: {exc}") from exc


def real_array(values, what: str) -> Array:
    """A float copy of values; InputError naming what unless they form one
    array of real numbers (not a ragged nesting, a string, a complex
    number or an object)."""
    array = _converted(values, what)
    if array.dtype.kind not in "biuf":
        raise InputError(f"{what} must be real numbers, got {array.dtype} values")
    return array.astype(float, copy=False)


def generator_stack(matrices, count: int, n: int, what: str, rows: bool = False) -> Array:
    """Matrices indexed by generator as one read-only complex (count, n, n)
    stack: a copy in the input's memory layout (order 'K').  With rows, k >= 1
    such tuples as one (k, count, n, n) stack in C order, np.stack's layout.
    Ragged input, another shape and non-finite entries raise InputError
    naming what."""
    stack = _converted(matrices, what, dtype=complex, order="C" if rows else "K")
    lead = stack.shape[:1] if rows else ()
    if stack.shape != (*lead, count, n, n) or lead == (0,):
        raise InputError(f"{what} have shape {stack.shape}, "
                         f"expected ({'k >= 1, ' * rows}{count}, {n}, {n})")
    require_finite(stack, what)
    stack.setflags(write=False)
    return stack


def complex_array(values, what: str) -> Array:
    """A complex copy of values in their memory layout (order 'K');
    InputError naming what unless they form one array of numbers (not a
    ragged nesting, a string that reads as no number or an object)."""
    return _converted(values, what, dtype=complex, order="K")


def square_stack(matrices, what: str) -> Array:
    """One square matrix or a (..., n, n) stack of them as a complex copy
    in the input's memory layout; InputError naming what when it does not
    convert, is not square or has a non-finite entry."""
    stack = complex_array(matrices, what)
    if stack.ndim < 2 or stack.shape[-1] != stack.shape[-2]:
        raise InputError(f"{what} have shape {stack.shape}, expected (..., n, n)")
    require_finite(stack, what)
    return stack


def require_finite(a: Array, what: str) -> None:
    """InputError naming what when an entry of a is NaN or infinite."""
    if not np.isfinite(a).all():
        raise InputError(f"{what} have a non-finite entry")


def ad_matrix(s: Array, s_inv: Array) -> Array:
    """Matrix of X -> S X S^-1 on column-stacked coordinates, for one
    matrix or a stack (leading axes broadcast): kron(S^-T, S), bit for
    bit, as one broadcast outer product, which costs less than np.kron's
    set-up at small n.  S^-T is made contiguous first: broadcasting a
    transposed view is several times slower at n >= 11.
    """
    n = s.shape[-1]
    s_inv_t = np.ascontiguousarray(np.swapaxes(s_inv, -1, -2))
    outer = s_inv_t[..., :, None, :, None] * s[..., None, :, None, :]
    return outer.reshape(outer.shape[:-4] + (n * n, n * n))


# Higham (2005), Table 2.3: the Padé degrees m, and the largest 1-norm
# theta_m at which the degree-m approximant of exp has backward error below
# the double unit roundoff.
_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                2.097847961257068e0, 5.371920351148152e0)
# Coefficients b_j / b_0 of the [m/m] Padé numerator, each a correctly
# rounded integer quotient: the constant term is exactly 1, so expm of the
# zero matrix is exactly the identity.
_PADE_COEFFICIENTS = {m: tuple(math.factorial(2 * m - j) * math.factorial(m)
                               / (math.factorial(2 * m) * math.factorial(j)
                                  * math.factorial(m - j))
                               for j in range(m + 1))
                      for m in _PADE_DEGREES}


def _pade_choice(norm: float) -> tuple[int, int]:
    """(degree m, squarings s) for a matrix of the given 1-norm."""
    for m, theta in zip(_PADE_DEGREES, _PADE_THETAS):
        if norm <= theta:
            return m, 0
    return 13, math.ceil(math.log2(norm / _PADE_THETAS[-1]))


def _pade(a: Array, m: int, eye: Array) -> Array:
    """Degree-m Padé approximant of exp on a (k, n, n) stack, as Higham's
    odd part U and even part V: r = (V - U)^-1 (V + U)."""
    c = _PADE_COEFFICIENTS[m]
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
                 + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye)
        v = (a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
             + c[6] * a6 + c[4] * a4 + c[2] * a2 + eye)
    else:
        powers = [a2]
        while len(powers) < m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum((c[2 * k + 3] * p for k, p in enumerate(powers)), c[1] * eye)
        v = sum((c[2 * k + 2] * p for k, p in enumerate(powers)), eye)
    return np.linalg.solve(v - u, v + u)


def expm(a: Array) -> Array:
    """Matrix exponential of one matrix or of each matrix of a (..., n, n)
    stack: Higham's (2005) scaling and squaring, the Padé degree m in
    (3, 5, 7, 9, 13) the least whose threshold theta_m bounds the 1-norm,
    and above theta_13 degree 13 on a / 2^s, squared s times.

    Degree and scaling are chosen per matrix, and each (degree, scaling)
    group is evaluated on a C-contiguous copy of its matrices, so every
    matrix of a stack gets exactly the value of expm called on it alone.
    A 1 x 1 matrix is its entry's exponential.  A non-finite entry is an
    InputError.
    """
    a = np.asarray(a)
    require_finite(a, "exponent matrices")
    n = a.shape[-1]
    if n == 1:
        return np.exp(a)
    flat = a.reshape(-1, n, n)
    choices = [_pade_choice(norm)
               for norm in np.abs(flat).sum(axis=-2).max(axis=-1).tolist()]
    out = np.empty_like(flat)
    eye = np.eye(n)
    for m, s in set(choices):
        chosen = [choice == (m, s) for choice in choices]
        r = _pade(flat[chosen] / 2.0 ** s, m, eye)
        for _ in range(s):
            r = r @ r
        out[chosen] = r
    return out.reshape(a.shape)


def unitary_eigenframe(u: Array):
    """Eigenvalues lam and a unitary eigenbasis V of a normal matrix,
    u = V diag(lam) V^H, for one matrix or each matrix of a (..., n, n)
    stack: every stacked factorization equals its one-matrix call bit for
    bit.

    V is the Q factor of np.linalg.eig's eigenvectors: eigenspaces of a
    normal matrix are orthogonal, so the QR only orthonormalises within a
    cluster of equal eigenvalues, where eig's vectors need not be
    orthogonal.  lam is then the diagonal of V^H u V.  Phase rule: each
    column of V is scaled so that its entry of largest modulus (the first
    of equal moduli) is real and positive.
    """
    _, w = np.linalg.eig(u)
    v, _ = np.linalg.qr(w)
    rows = np.abs(v).argmax(axis=-2)
    pivot = np.take_along_axis(v, rows[..., None, :], axis=-2)[..., 0, :]
    v = v * (pivot.conj() / np.abs(pivot))[..., None, :]
    lam = (v.conj() * (u @ v)).sum(axis=-2)
    return lam, v


def split_singular_values(svals: Array):
    """Partition singular values at the relative threshold SVD_RELATIVE
    times the larger of the top value and SVD_NATURAL_SCALE (tolerances).

    Returns (rank, margin).  margin is the ratio between the smallest kept
    and the largest discarded value (or the distance of the smallest kept
    value above the cutoff when nothing is discarded).  Raises
    ConditioningError when values straddle the threshold within
    RANK_AMBIGUITY_FACTOR, i.e. when the rank decision is not clear-cut.
    """
    svals = np.asarray(svals, dtype=float)
    if svals.size == 0:
        return 0, np.inf
    cutoff = tolerances.SVD_RELATIVE * max(float(svals[0]), tolerances.SVD_NATURAL_SCALE)
    kept = svals[svals > cutoff]
    discarded = svals[svals <= cutoff]
    if kept.size == 0:
        return 0, np.inf
    if discarded.size == 0:
        margin = float(kept[-1] / cutoff)
    else:
        largest_discarded = float(discarded[0])
        margin = np.inf if largest_discarded == 0.0 else float(kept[-1] / largest_discarded)
    if margin < tolerances.RANK_AMBIGUITY_FACTOR:
        raise ConditioningError(
            f"singular values straddle the rank threshold (margin {margin:.3g} "
            f"< {tolerances.RANK_AMBIGUITY_FACTOR:.3g})"
        )
    return int(kept.size), margin


def decided_rank(m: Array):
    """(rank, margin) of m from its singular values, by
    split_singular_values: the one rank decision of a matrix whose
    factors are not needed."""
    return split_singular_values(np.linalg.svd(m, compute_uv=False))


def unitary_real_form(m: Array, n: int) -> Array:
    """The real form of a complex (p n^2, q n^2) matrix m that maps u(n)^q
    into u(n)^p, as Ad of a unitary matrix does, in the coordinates A + S
    of u(n): X = A + iS, A real antisymmetric and S real symmetric, has
    coordinates Y = A + S, an isometry onto the real n x n matrices.

    A coordinate Y gives X = ((1 + i) Y - (1 - i) Y^T) / 2 (unitary_values),
    and Z = m X, in u(n), has coordinates Re Z + Im Z = Re((1 - i) Z); as
    (1 - i)(1 + i)/2 = 1 and (1 - i)^2/2 = -i, the form is
    Re(m + i m Pi) = Re m - (Im m) Pi, Pi the transpose of each column
    block's n x n coordinates.  Its singular values are m's: both
    coordinate maps are orthonormal.  One real subtraction, no index table
    and no matrix product; a (p n^2, q n^2) float array.
    """
    rows, blocks = m.shape[0], m.shape[1] // (n * n)
    out = np.empty((rows, blocks, n, n))
    np.subtract(m.real.reshape(rows, blocks, n, n),
                m.imag.reshape(rows, blocks, n, n).swapaxes(-1, -2), out=out)
    return out.reshape(m.shape)


def unitary_values(y: Array, n: int) -> Array:
    """The inverse of unitary_real_form's coordinates A + S: the values in
    u(n)^p of real (p n^2, k) columns y, each n x n block Y giving
    X = ((1 + i) Y - (1 - i) Y^T) / 2, so X + X^H = 0 bit for bit.  An
    isometry: real-orthonormal y gives columns orthonormal under Re <X, X'>."""
    blocks = y.reshape(y.shape[0] // (n * n), n, n, y.shape[1])
    return (((1 + 1j) * blocks - (1 - 1j) * blocks.swapaxes(1, 2)) / 2).reshape(y.shape)


def triangular_values(m: Array) -> Array:
    """The singular values of m, up to roundoff, from the triangle of its
    QR (Chan's R-SVD, 1982).  For a tall m no factor as tall as m is
    formed: the QR keeps its triangle alone, and the values-only SVD is of
    a square of m's column count."""
    return np.linalg.svd(np.linalg.qr(m, mode="r"), compute_uv=False)


def nullspace(m: Array) -> Array:
    """Orthonormal nullspace basis (columns), with an unambiguous rank cut."""
    m = np.atleast_2d(np.asarray(m))
    _, svals, vh = np.linalg.svd(m, full_matrices=True)
    rank, _ = split_singular_values(svals)
    return vh[rank:].conj().T


def column_space(m: Array) -> Array:
    """Orthonormal column-space basis (columns), with the same rank rule."""
    m = np.atleast_2d(np.asarray(m))
    u, svals, _ = np.linalg.svd(m, full_matrices=False)
    rank, _ = split_singular_values(svals)
    return u[:, :rank]


def complement_within(z: Array, b: Array) -> Array:
    """Orthonormal basis of col(z) orthogonal to col(b).

    Both inputs must have orthonormal columns; col(b) is assumed to lie
    (numerically) inside col(z).
    """
    if b.shape[1] == 0:
        return z
    projected = z - b @ (b.conj().T @ z)
    u, svals, _ = np.linalg.svd(projected, full_matrices=False)
    return u[:, svals > tolerances.COMPLEMENT_SINE]


def canonical_frame(v: Array) -> Array:
    """Orthonormal frame of col(v), for orthonormal columns v, that depends
    on the subspace alone: the Q factor of v (v^H G), the projector onto
    col(v) applied to a probe G seeded by the shape of v (real for a real
    v), with each column's phase making diag(R) positive.  C-contiguous,
    as a column_stack of cocycle values is, so projections round alike.
    Raises ConditioningError above tolerances.FRAME_PROBE_CONDITION.
    """
    rows, cols = v.shape
    if cols == 0:
        return np.ascontiguousarray(v)
    rng = np.random.default_rng((rows, cols))
    if np.iscomplexobj(v):
        probe = complex_gaussian(rng, (rows, cols))
    else:
        probe = rng.standard_normal((rows, cols))
    # v (v^H G) = (v q) r with v q orthonormal: the small factor's QR is
    # the frame's, and its singular values are those of v (v^H G)
    q, r = np.linalg.qr(v.conj().T @ probe)
    condition = np.linalg.cond(r)
    if not condition <= tolerances.FRAME_PROBE_CONDITION:
        raise ConditioningError(f"frame probe condition {condition:.3g} exceeds "
                                f"{tolerances.FRAME_PROBE_CONDITION:.3g}")
    d = np.diagonal(r)
    return v @ (q * (d / np.abs(d)))


@runtime_checkable
class RandomStream(Protocol):
    """What the samplers draw from: numpy's Generator, or a stand-in that
    forwards its standard_normal draws."""

    def standard_normal(self, size=None): ...


def complex_gaussians(rng: np.random.Generator, count: int, shapes) -> tuple[Array, ...]:
    """count rounds of complex Gaussian arrays, one (count, *shape) array
    for each shape: the stream of count rounds of complex_gaussian(rng,
    shape) over the shapes in turn, from one standard_normal draw of
    count rows, each row every shape's real block, then its imaginary
    one.  A shape is a tuple or an integer length."""
    shapes = [tuple(shape) if np.iterable(shape) else (shape,) for shape in shapes]
    sizes = [math.prod(shape) for shape in shapes]
    rows = rng.standard_normal((count, 2 * sum(sizes)))
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        real = rows[:, start:start + size].reshape(count, *shape)
        imag = rows[:, start + size:start + 2 * size].reshape(count, *shape)
        arrays.append(real + 1j * imag)
        start += 2 * size
    return tuple(arrays)


def complex_gaussian(rng: np.random.Generator, shape) -> Array:
    """Array of the given shape with independent standard normal real and
    imaginary parts, drawn as the whole real block, then the imaginary one:
    the one-round case of complex_gaussians.  Every complex draw of the
    package goes through complex_gaussians, so seeded streams depend on
    this one order."""
    return complex_gaussians(rng, 1, (shape,))[0][0]


def haar_stack(gaussians: Array) -> Array:
    """Haar-distributed U(n) samples from complex Ginibre matrices, one for
    one (n, n) matrix or for each matrix of a (..., n, n) stack: the Q
    factor of its QR, each column's phase making diag(R) positive.  A
    stack's samples equal the one-matrix calls bit for bit."""
    q, r = np.linalg.qr(gaussians)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng: np.random.Generator, n: int) -> Array:
    """Haar-distributed U(n) sample: haar_stack of one complex Ginibre
    matrix."""
    return haar_stack(complex_gaussian(rng, (n, n)))


def ginibre(rng: np.random.Generator, n: int) -> Array:
    return complex_gaussian(rng, (n, n)) / np.sqrt(2 * n)


def polar_unitary(m: Array) -> Array:
    """Nearest unitary matrix in Frobenius norm (polar factor), of one
    matrix or of each matrix of a stack."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh
