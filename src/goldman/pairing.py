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
assembled from it as V^T W V; pairing_dual stays the single-pair
evaluation, word by word.  pairing_duals is the closed form over many
pairs at once, each pair over its own base (the points of a chart, where
no W is worth building): one stacked fold of the dual words coded once
per presentation, bit for bit pairing_dual pair by pair.

The pairing is complex bilinear, skew on cohomology classes, and
independent of the choice of cocycle representatives.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import DegenerateFormError, InputError, require_type
from .cocycles import (Cocycle, CocycleStack, _fold, common_base, extend, linear_combination,
                       ring_values, stack_cocycles, word_jacobian)
from .linalg import ad_matrix, decided_rank, frob, frobs
from .reps import UNITARY, Representation, _word_product, evaluate, evaluate_words
from .words import is_integer


def pairing_dual(chi1: Cocycle, chi2: Cocycle) -> complex:
    """Closed-form pairing in the dual generators alpha_k, beta_k, of two
    cocycles; InputError (exit 2) for anything else."""
    if not (isinstance(chi1, Cocycle) and isinstance(chi2, Cocycle)):
        raise InputError("pairing_dual pairs two cocycles")
    rep = common_base((chi1, chi2))
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


def pairing_duals(pairs) -> np.ndarray:
    """pairing_dual of each (chi1, chi2) pair of a non-empty sequence, bit
    for bit, as one complex array.

    The two cocycles of a pair share one base; different pairs may sit
    over different bases of one genus and rank, such as the points of a
    chart.  The chi1 of every pair are folded over the dual words in one
    stacked fold, each over its own base's letter tables, with the dual
    words coded once per presentation (Presentation.dual_codes); each
    relator prefix s_0 ... s_g is one stacked product over all the bases;
    and the 2g traces are added in pairing_dual's order.  InputError
    (exit 2) for an empty sequence, anything but pairs of cocycles, a pair
    over two bases, or pairs that mix genus or rank.
    """
    if not (isinstance(pairs, Sequence) and pairs):
        raise InputError("pairing_duals pairs a non-empty sequence of cocycle pairs")
    for pair in pairs:
        if not (isinstance(pair, Sequence) and len(pair) == 2
                and all(isinstance(chi, Cocycle) for chi in pair)):
            raise InputError("pairing_duals pairs a sequence of (cocycle, cocycle) pairs")
    bases = [common_base(pair) for pair in pairs]
    shape = bases[0].images.shape
    if any(base.images.shape != shape for base in bases):
        raise InputError("paired cocycles mix genus or rank")
    pres = bases[0].presentation
    tables = tuple(np.stack(table) for table in zip(*(base.letter_tables for base in bases)))
    chi1 = np.stack([chi.values for chi, _ in pairs])
    chi2 = np.stack([chi.values for _, chi in pairs])
    folded = _fold(tables, chi1, pres.dual_codes)
    prefixes = [_word_product(tables[0], pres.relator(k)) for k in range(pres.genus + 1)]
    inverses = [np.linalg.inv(s) for s in prefixes]
    total = np.zeros(len(pairs), dtype=complex)
    for k in range(1, pres.genus + 1):
        a, b = 2 * (k - 1), 2 * (k - 1) + 1
        total += np.trace(folded[:, a] @ (prefixes[k - 1] @ chi2[:, a] @ inverses[k - 1]),
                          axis1=-2, axis2=-1)
        total -= np.trace(folded[:, b] @ (prefixes[k] @ chi2[:, b] @ inverses[k]),
                          axis1=-2, axis2=-1)
    return total


def pairing_cup(chi1: Cocycle | CocycleStack,
                chi2: Cocycle | CocycleStack) -> complex | np.ndarray:
    """Cup-product cochain evaluated on the fundamental two-cycle.

    Equals -sum over generators of B(chi1(# dR/dx), chi2(x)) with # the
    group-ring anti-involution; chi1 is extended linearly to the ring.

    chi1 and chi2 are two cocycles, paired to a complex number, or two
    CocycleStacks of k cocycles over one base, paired row by row to k
    values; one pair is the one-row stack.  The anti-involuted two-cycle
    is coded once per presentation (Presentation.two_cycle_codes), and
    all its words are folded for every row at once (ring_values), so each
    value is bit for bit the letterwise sum.  The oracle reads neither
    the pairing matrix W nor a Fox Jacobian.
    """
    single = isinstance(chi1, Cocycle)
    if single != isinstance(chi2, Cocycle):
        raise InputError("pair two cocycles or two cocycle stacks")
    if single:
        chi1, chi2 = stack_cocycles((chi1,)), stack_cocycles((chi2,))
    rep = common_base((chi1, chi2))
    if len(chi1) != len(chi2):
        raise InputError(f"cannot pair {len(chi1)} cocycles with {len(chi2)}")
    ring = ring_values(rep, chi1.values, rep.presentation.two_cycle_codes)
    traces = np.trace(ring @ chi2.values, axis1=-2, axis2=-1)
    total = np.zeros(len(traces), dtype=complex)
    for trace in traces.T:  # generator by generator, as the letterwise sum
        total -= trace
    return complex(total[0]) if single else total


def dual_form_matrix(rep: Representation) -> np.ndarray:
    """Matrix W of the closed-form pairing: omega(x, y) = x.flat @ W @ y.flat.

    With tr(XY) = vec(X)^T T vec(Y) for the transpose permutation T, the
    closed form reads W = sum_k J(alpha_k)^T T Ad(sigma(R_{k-1})) E_{a_k}
    - J(beta_k)^T T Ad(sigma(R_k)) E_{b_k}, where J is word_jacobian and
    E selects a generator block; so column block a_k (b_k) of W is the
    alpha_k (beta_k) term.  Representation.dual_form caches the result.
    """
    pres = require_type(rep, Representation, "the representation").presentation
    n = rep.rank
    duals = pres.dual_generators()
    # vec(X^T) = vec(X)[transpose] for column-stacked n x n matrices X
    transpose = np.arange(n * n).reshape((n, n), order="F").T.ravel(order="F")
    # T Ad(sigma(R_k)) for k = 0 .. g, from the images of R_k and R_k^-1
    prefixes = [pres.relator(k) for k in range(pres.genus + 1)]
    images = evaluate_words(rep, prefixes + [word.inverse() for word in prefixes])
    trace_ad = ad_matrix(images[:len(prefixes)], images[len(prefixes):])[:, transpose]

    blocks = []
    for k in range(1, pres.genus + 1):
        alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
        blocks.append(word_jacobian(rep, alpha).T @ trace_ad[k - 1])
        blocks.append(-word_jacobian(rep, beta).T @ trace_ad[k])
    w = np.hstack(blocks)
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class GoldmanGram:
    """Skew Gram matrix of the pairing on a stack of cocycles; its base is
    the stack's."""

    vectors: CocycleStack
    matrix: np.ndarray

    @property
    def skewness_residual(self) -> float:
        return frob(self.matrix + self.matrix.T)

    def rank(self):
        """(rank, margin) of the Gram matrix at the global threshold."""
        return decided_rank(self.matrix)


def gram(cocycles) -> GoldmanGram:
    """Pairings of every ordered pair of cocycles over one base, V^T W V,
    read-only: entry (i, j) is omega(c_i, c_j).

    The one constructor of GoldmanGram: pass basis.basis (Z1) or
    basis.h1_complement of a CocycleBasis, each a CocycleStack kept as
    it is, or cocycles read from files, stacked once (stack_cocycles);
    column i of V is Cocycle.flat of cocycle i, and W is the base's
    cached dual_form.
    """
    stack = stack_cocycles(cocycles)
    # a C-contiguous V (np.column_stack's layout) fixes the BLAS path of the
    # product, and with it the digits that gram.txt prints
    v = np.ascontiguousarray(stack.flat.T)
    matrix = v.T @ stack.base.dual_form @ v
    matrix.setflags(write=False)
    return GoldmanGram(vectors=stack, matrix=matrix)


@dataclass(frozen=True, eq=False)
class SymplecticBasis:
    """Darboux pairs (e_i, f_i) with pairing matrix the standard block J.

    transform holds the change of basis: column c of transform expresses
    the c-th output vector in the input basis, ordered e_1..e_m f_1..f_m.
    """

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
        return float(np.abs(gram(self.e + self.f).matrix - expected).max())


def standard_block_j(m: int) -> np.ndarray:
    """The standard skew block [[0, I_m], [-I_m, 0]]; InputError (exit 2)
    unless m is an integer >= 0."""
    if not is_integer(m) or m < 0:
        raise InputError(f"pair count must be an integer >= 0, got {m!r}")
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
    matrix = np.array(require_type(g, GoldmanGram, "the Gram matrix").matrix)
    d = matrix.shape[0]
    if d % 2 != 0:
        raise DegenerateFormError(f"odd-dimensional skew form (d={d}) is degenerate")
    scale = max(np.abs(matrix).max(), 1.0)
    threshold = tolerances.SYMPLECTIC_PIVOT * scale

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
    combined = tuple(linear_combination(g.vectors.base, transform.T, g.vectors))
    m = len(e_vectors)
    return SymplecticBasis(e=combined[:m], f=combined[m:], transform=transform)


@dataclass(frozen=True)
class UnitaryLocusReport:
    """Outcome of the reality/nondegeneracy check on the unitary locus."""

    max_imaginary: float
    real_rank: int
    expected_rank: int
    passed: bool


def unitary_restriction_check(cocycles) -> UnitaryLocusReport:
    """Check that pairings of anti-Hermitian-valued cocycles are real and
    that the resulting real skew form is nondegenerate.

    These are the finite-dimensional shadows of the statement that the
    pairing restricts to (a multiple of) the natural Kaehler form on the
    unitary locus; the trace form is negative-definite on anti-Hermitian
    matrices, which is what forces the values real.
    """
    g = gram(cocycles)
    stack = g.vectors
    if stack.base.flavor != UNITARY:
        raise InputError("unitary restriction check requires a unitary base")
    values = stack.values.reshape(-1, stack.base.rank, stack.base.rank)
    gaps = frobs(values + np.swapaxes(values.conj(), -1, -2))
    if any(gap > tolerances.VERIFICATION * max(1.0, size)
           for gap, size in zip(gaps, frobs(values))):
        raise InputError("cocycle values are not anti-Hermitian")
    d = len(stack)
    max_imag = float(np.abs(g.matrix.imag).max())
    rank, _ = decided_rank(g.matrix.real)
    passed = max_imag < tolerances.UNITARY_IMAGINARY and rank == d
    return UnitaryLocusReport(max_imaginary=max_imag, real_rank=rank,
                              expected_rank=d, passed=passed)
