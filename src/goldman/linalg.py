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


def split_singular_values(svals: Array, rel_tol: float = tolerances.SVD_RELATIVE,
                          ambiguity: float = tolerances.RANK_AMBIGUITY_FACTOR,
                          scale_floor: float = 1.0):
    """Partition singular values at a relative threshold.

    The cutoff is rel_tol times the larger of the top singular value and
    scale_floor.  The floor matters for matrices that are pure roundoff
    noise (e.g. adjoint-action constraints of rank-one representations,
    which are exactly zero in exact arithmetic): a purely relative cutoff
    would promote the largest noise entry to rank one.  The operators
    handled here all have unit natural scale.

    Returns (rank, margin).  margin is the ratio between the smallest kept
    and the largest discarded value (or the distance of the smallest kept
    value above the cutoff when nothing is discarded).  Raises
    ConditioningError when values straddle the threshold within the
    ambiguity factor, i.e. when the rank decision is not clear-cut.
    """
    svals = np.asarray(svals, dtype=float)
    if svals.size == 0:
        return 0, np.inf
    cutoff = rel_tol * max(float(svals[0]), scale_floor)
    kept = svals[svals > cutoff]
    discarded = svals[svals <= cutoff]
    if kept.size == 0:
        return 0, np.inf
    if discarded.size == 0:
        margin = float(kept[-1] / cutoff)
    else:
        largest_discarded = float(discarded[0])
        margin = np.inf if largest_discarded == 0.0 else float(kept[-1] / largest_discarded)
    if margin < ambiguity:
        raise ConditioningError(
            f"singular values straddle the rank threshold (margin {margin:.3g} "
            f"< {ambiguity:.3g})"
        )
    return int(kept.size), margin


def nullspace(m: Array, rel_tol: float = tolerances.SVD_RELATIVE) -> Array:
    """Orthonormal nullspace basis (columns), with an unambiguous rank cut."""
    m = np.atleast_2d(np.asarray(m))
    _, svals, vh = np.linalg.svd(m, full_matrices=True)
    rank, _ = split_singular_values(svals, rel_tol)
    return vh[rank:].conj().T


def complement_within(z: Array, b: Array) -> Array:
    """Orthonormal basis of col(z) orthogonal to col(b).

    Both inputs must have orthonormal columns; col(b) is assumed to lie
    (numerically) inside col(z).
    """
    if b.shape[1] == 0:
        return z
    projected = z - b @ (b.conj().T @ z)
    u, svals, _ = np.linalg.svd(projected, full_matrices=False)
    keep = svals > 0.5
    return u[:, keep]


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
