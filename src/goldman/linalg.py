"""Shared dense linear algebra: vectorization, rank decisions, samplers."""

from __future__ import annotations

import numpy as np

from . import tolerances
from .errors import ConditioningError

Array = np.ndarray


def frob(m: Array) -> float:
    return float(np.linalg.norm(m))


def vec(m: Array) -> Array:
    """Column-stacking vectorization (Fortran order)."""
    return np.asarray(m).ravel(order="F")


def unvec(v: Array, n: int) -> Array:
    return np.asarray(v).reshape((n, n), order="F")


def ad_matrix(s: Array, s_inv: Array) -> Array:
    """Matrix of X -> S X S^-1 acting on column-stacked coordinates."""
    return np.kron(s_inv.T, s)


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


def nullspace(m: Array) -> Array:
    """Orthonormal nullspace basis (columns), with an unambiguous rank cut."""
    m = np.atleast_2d(np.asarray(m))
    _, svals, vh = np.linalg.svd(m, full_matrices=True)
    rank, _ = split_singular_values(svals)
    return vh[rank:].conj().T


def row_space(m: Array) -> Array:
    """Orthonormal row-space basis (columns): the complement of nullspace(m).

    A thin SVD with the same rank rule as nullspace, so the rank decision
    and its ConditioningError are the same without the full right factor.
    """
    m = np.atleast_2d(np.asarray(m))
    _, svals, vh = np.linalg.svd(m, full_matrices=False)
    rank, _ = split_singular_values(svals)
    return vh[:rank].conj().T


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


def complement_dimension(z_perp: Array, b: Array) -> int:
    """Column count of complement_within(z, b) without forming z.

    z_perp has orthonormal columns spanning the orthogonal complement of
    col(z).  The singular values of (I - b b^H) z are the sines of the
    principal angles between col(z) and col(b), padded with ones; those
    of (I - z_perp z_perp^H) b are their cosines.  A sine above s =
    tolerances.COMPLEMENT_SINE is a cosine below sqrt(1 - s**2), so the
    count of kept directions is dim col(z) less the cosines at or above it.
    """
    z_dim = z_perp.shape[0] - z_perp.shape[1]
    if b.shape[1] == 0:
        return z_dim
    projected = b - z_perp @ (z_perp.conj().T @ b)
    cosines = np.linalg.svd(projected, compute_uv=False)
    cutoff = np.sqrt(1 - tolerances.COMPLEMENT_SINE ** 2)
    return z_dim - int(np.count_nonzero(cosines >= cutoff))


def haar_unitary(rng: np.random.Generator, n: int) -> Array:
    """Haar-distributed U(n) sample (QR of a complex Ginibre matrix)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ginibre(rng: np.random.Generator, n: int) -> Array:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def polar_unitary(m: Array) -> Array:
    """Nearest unitary matrix in Frobenius norm (polar factor)."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def real_flatten(z: Array) -> Array:
    """Real coordinates of a complex vector: [Re; Im]."""
    z = np.asarray(z)
    return np.concatenate([z.real, z.imag])
