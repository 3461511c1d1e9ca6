"""The Goldman symplectic pairing on cocycles, two independent ways.

The production path is the closed form in the dual generators,

    omega(chi1, chi2) = sum_k  B(chi1(alpha_k), Ad(sigma(R_{k-1})) chi2(a_k))
                              - B(chi1(beta_k),  Ad(sigma(R_k))     chi2(b_k)),

with B(u, v) = tr(uv).  The oracle path evaluates the cup-product
2-cochain on the fundamental two-cycle through the group-ring
anti-involution of the Fox derivatives.  The two share only the word
algebra; their agreement is a standing cross-check of both.

The closed form is bilinear in the two cocycles and chi -> chi(w) is a
fixed linear map (word_jacobian), so the form is one matrix W per
representation, omega(x, y) = x.flat @ W @ y.flat.  Gram matrices are
assembled from it as V^T W V; pairing_dual stays the letterwise
single-pair evaluation.

The pairing is complex bilinear, skew on cohomology classes, and
independent of the choice of cocycle representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import DegenerateFormError, InputError
from .cocycles import Cocycle, CocycleBasis, extend, extend_ring, word_jacobian
from .linalg import ad_matrix, frob, split_singular_values
from .reps import Representation, evaluate
from .words import anti_involution


def _common_base(chi1: Cocycle, chi2: Cocycle) -> Representation:
    if not chi1.base.same_base(chi2.base):
        raise InputError("pairing requires cocycles over the same base representation")
    return chi1.base


def pairing_dual(chi1: Cocycle, chi2: Cocycle) -> complex:
    """Closed-form pairing in the dual generators alpha_k, beta_k."""
    rep = _common_base(chi1, chi2)
    pres = rep.presentation
    duals = pres.dual_generators()
    total = 0.0 + 0.0j
    for k in range(1, pres.genus + 1):
        alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
        s_prev = evaluate(rep, pres.relator(k - 1))
        s_k = evaluate(rep, pres.relator(k))
        av = chi2.values[2 * (k - 1)]
        bv = chi2.values[2 * (k - 1) + 1]
        total += np.trace(extend(chi1, alpha) @ (s_prev @ av @ np.linalg.inv(s_prev)))
        total -= np.trace(extend(chi1, beta) @ (s_k @ bv @ np.linalg.inv(s_k)))
    return complex(total)


def pairing_cup(chi1: Cocycle, chi2: Cocycle) -> complex:
    """Cup-product cochain evaluated on the fundamental two-cycle.

    Equals -sum over generators of B(chi1(# dR/dx), chi2(x)) with # the
    group-ring anti-involution; chi1 is extended linearly to the ring.
    """
    rep = _common_base(chi1, chi2)
    cycle = rep.presentation.fundamental_two_cycle()
    total = 0.0 + 0.0j
    for coefficient, generator in cycle.pairs:
        index = generator.runs[0][0]
        total -= np.trace(
            extend_ring(chi1, anti_involution(coefficient)) @ chi2.values[index]
        )
    return complex(total)


def dual_form_matrix(rep: Representation) -> np.ndarray:
    """Matrix W of the closed-form pairing: omega(x, y) = x.flat @ W @ y.flat.

    With tr(XY) = vec(X)^T T vec(Y) for the transpose permutation T, the
    closed form reads W = sum_k J(alpha_k)^T T Ad(sigma(R_{k-1})) E_{a_k}
    - J(beta_k)^T T Ad(sigma(R_k)) E_{b_k}, where J is word_jacobian and
    E selects a generator block; so column block a_k (b_k) of W is the
    alpha_k (beta_k) term.  Representation.dual_form caches the result.
    """
    pres = rep.presentation
    n = rep.rank
    duals = pres.dual_generators()
    # vec(X^T) = vec(X)[transpose] for column-stacked n x n matrices X
    transpose = np.arange(n * n).reshape((n, n), order="F").T.ravel(order="F")

    def trace_ad(word):
        return ad_matrix(evaluate(rep, word), evaluate(rep, word.inverse()))[transpose]

    blocks = []
    for k in range(1, pres.genus + 1):
        alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
        blocks.append(word_jacobian(rep, alpha).T @ trace_ad(pres.relator(k - 1)))
        blocks.append(-word_jacobian(rep, beta).T @ trace_ad(pres.relator(k)))
    w = np.hstack(blocks)
    w.setflags(write=False)
    return w


def gram_matrix(cocycles) -> np.ndarray:
    """Pairings of every ordered pair of cocycles over one base: V^T W V.

    Entry (i, j) is omega(c_i, c_j); V holds the flattened cocycles as
    columns and W is the base representation's cached dual_form.
    """
    cocycles = list(cocycles)
    if not cocycles:
        return np.zeros((0, 0), dtype=complex)
    rep = cocycles[0].base
    for chi in cocycles[1:]:
        _common_base(cocycles[0], chi)
    v = np.column_stack([chi.flat for chi in cocycles])
    return v.T @ rep.dual_form @ v


@dataclass(frozen=True, eq=False)
class GoldmanGram:
    """Skew Gram matrix of the pairing on a list of cocycles."""

    base: Representation
    vectors: tuple[Cocycle, ...]
    matrix: np.ndarray

    @property
    def skewness_residual(self) -> float:
        return frob(self.matrix + self.matrix.T)

    def rank(self):
        """(rank, margin) of the Gram matrix at the global threshold."""
        svals = np.linalg.svd(self.matrix, compute_uv=False)
        return split_singular_values(svals)


def gram(basis: CocycleBasis, space: str = "h1-complement") -> GoldmanGram:
    """Gram matrix of the pairing on a basis.

    space selects the cocycles: "z1" or "h1-complement".
    """
    if space == "z1":
        vectors = basis.basis
    elif space == "h1-complement":
        vectors = basis.h1_complement
    else:
        raise InputError(f"unknown Gram space {space!r}")
    matrix = gram_matrix(vectors)
    matrix.setflags(write=False)
    return GoldmanGram(base=basis.base, vectors=tuple(vectors), matrix=matrix)


@dataclass(frozen=True, eq=False)
class SymplecticBasis:
    """Darboux pairs (e_i, f_i) with pairing matrix the standard block J.

    transform holds the change of basis: column c of transform expresses
    the c-th output vector in the input basis, ordered e_1..e_m f_1..f_m.
    """

    base: Representation
    e: tuple[Cocycle, ...]
    f: tuple[Cocycle, ...]
    transform: np.ndarray

    @property
    def pair_count(self) -> int:
        return len(self.e)

    @property
    def normal_form_residual(self) -> float:
        """Largest entry of the Gram matrix of e_1..e_m f_1..f_m minus J."""
        expected = standard_block_j(self.pair_count)
        return float(np.abs(gram_matrix(self.e + self.f) - expected).max())


def standard_block_j(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def symplectic_basis(g: GoldmanGram) -> SymplecticBasis:
    """Skew Gram-Schmidt: reduce a nondegenerate skew form to block J.

    Pivots take the first remaining vector as e and its largest partner
    as f; both choices are deterministic, so a Gram matrix already in
    standard block form comes back with the identity transform.
    """
    matrix = np.array(g.matrix)
    d = matrix.shape[0]
    if d % 2 != 0:
        raise DegenerateFormError(f"odd-dimensional skew form (d={d}) is degenerate")
    scale = max(np.abs(matrix).max(), 1.0)
    threshold = 1e-10 * scale

    basis = [np.eye(d, dtype=complex)[:, i] for i in range(d)]

    def omega(x, y):
        return complex(x @ matrix @ y)

    e_vectors, f_vectors = [], []
    remaining = list(range(d))
    active = {i: basis[i] for i in remaining}
    while remaining:
        i = remaining[0]
        e_vec = active[i]
        pair_values = [abs(omega(e_vec, active[j])) for j in remaining[1:]]
        if not pair_values or max(pair_values) <= threshold:
            raise DegenerateFormError(
                "skew form is degenerate on the requested space",
                null_vector=e_vec)
        j = remaining[1:][int(np.argmax(pair_values))]
        f_vec = active[j] / omega(e_vec, active[j])
        for k in remaining:
            if k in (i, j):
                continue
            u = active[k]
            active[k] = u - omega(u, f_vec) * e_vec + omega(u, e_vec) * f_vec
        remaining = [k for k in remaining if k not in (i, j)]
        e_vectors.append(e_vec)
        f_vectors.append(f_vec)

    transform = np.column_stack(e_vectors + f_vectors)

    def combine(coeffs):
        flat = sum(c * v.flat for c, v in zip(coeffs, g.vectors))
        from .cocycles import from_flat

        return from_flat(g.base, flat)

    e_cocycles = tuple(combine(transform[:, c]) for c in range(len(e_vectors)))
    f_cocycles = tuple(combine(transform[:, len(e_vectors) + c])
                       for c in range(len(f_vectors)))
    return SymplecticBasis(base=g.base, e=e_cocycles, f=f_cocycles,
                           transform=transform)


@dataclass(frozen=True)
class UnitaryLocusReport:
    """Outcome of the reality/nondegeneracy check on the unitary locus."""

    max_imaginary: float
    offending_pair: tuple[int, int] | None
    real_rank: int
    expected_rank: int
    margin: float
    passed: bool

    def lines(self):
        yield f"max-imaginary: {self.max_imaginary:.6e}"
        if self.offending_pair is not None:
            yield f"offending-pair: {self.offending_pair[0]} {self.offending_pair[1]}"
        yield f"real-rank: {self.real_rank}"
        yield f"expected-rank: {self.expected_rank}"
        yield f"rank-margin: {self.margin:.6e}"
        yield f"verdict: {'PASS' if self.passed else 'FAIL'}"


def unitary_restriction_check(cocycles) -> UnitaryLocusReport:
    """Check that pairings of anti-Hermitian-valued cocycles are real and
    that the resulting real skew form is nondegenerate.

    These are the finite-dimensional shadows of the statement that the
    pairing restricts to (a multiple of) the natural Kaehler form on the
    unitary locus; the trace form is negative-definite on anti-Hermitian
    matrices, which is what forces the values real.
    """
    cocycles = list(cocycles)
    if not cocycles:
        raise InputError("need at least one cocycle")
    base = cocycles[0].base
    if base.flavor != "unitary":
        raise InputError("unitary restriction check requires a unitary base")
    for chi in cocycles:
        for m in chi.values:
            if frob(m + m.conj().T) > tolerances.VERIFICATION * max(1.0, frob(m)):
                raise InputError("cocycle values are not anti-Hermitian")
    d = len(cocycles)
    matrix = gram_matrix(cocycles)
    imag = np.abs(matrix.imag)
    max_imag = float(imag.max())
    offending = None
    if max_imag >= tolerances.UNITARY_IMAGINARY:
        i, j = np.unravel_index(int(np.argmax(imag)), imag.shape)
        offending = (int(i), int(j))
    svals = np.linalg.svd(matrix.real, compute_uv=False)
    rank, margin = split_singular_values(svals)
    passed = max_imag < tolerances.UNITARY_IMAGINARY and rank == d
    return UnitaryLocusReport(
        max_imaginary=max_imag,
        offending_pair=offending,
        real_rank=rank,
        expected_rank=d,
        margin=margin,
        passed=passed,
    )
