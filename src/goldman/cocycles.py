"""Group cocycles valued in n x n matrices under the adjoint action.

A cocycle chi assigns a matrix to each generator and extends to all words
by chi(uv) = chi(u) + Ad(sigma(u)) chi(v); these are the tangent vectors
of the representation variety, with coboundaries delta_v tangent to the
conjugation orbit.  The quotient Z1/B1 is the tangent space of the
character variety, of complex dimension (2g-2) n^2 + 2 at irreducible
points.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances
from .errors import ConditioningError, InputError, require_type
from .linalg import (RandomStream, canonical_frame, column_space, complement_within,
                     complex_gaussian, frob, frobs, generator_stack, nullspace,
                     split_singular_values, square_stack, triangular_values, unitary_values)
from .reps import (UNITARY, Representation, evaluate_words, fox_jacobian,
                   relator_tangent_matrix)
from .words import (GroupRingElement, GroupWord, RingCodes, WordBatch, join_batches,
                    letter_codes, letter_fox_terms, ring_codes)


@dataclass(frozen=True, eq=False)
class Cocycle:
    """Generator values of a cocycle over a base representation.

    values is a read-only complex (2g, n, n) stack in generator order, from
    any sequence of 2g matrices; flat is its column-stacked concatenation
    vec(chi(a1)), vec(chi(b1)), ..., the coordinates of the pairing matrix
    W and of the cocycle frames.

    The container does not enforce the relator constraint chi(R) = 0:
    finite-difference cocycles carry an O(h^2) defect by nature.  Use
    relator_residual to measure it; exact constructions keep it at
    roundoff level.
    """

    base: Representation
    values: np.ndarray

    def __post_init__(self):
        rep = require_type(self.base, Representation, "the cocycle's base")
        object.__setattr__(self, "values", generator_stack(
            self.values, rep.presentation.generator_count, rep.rank, "cocycle values"))

    @cached_property
    def flat(self) -> np.ndarray:
        return self.values.transpose(0, 2, 1).ravel()

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def __add__(self, other: "Cocycle") -> "Cocycle":
        common_base((self, other))
        return Cocycle(self.base, self.values + other.values)

    def __mul__(self, scalar) -> "Cocycle":
        return Cocycle(self.base, scalar * self.values)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class CocycleStack(Sequence):
    """Cocycles over one base as one read-only (k, 2g, n, n) stack of
    their generator values, the form the stacked kernels read: k >= 1
    tuples checked by Cocycle's rules and copied in C order, np.stack's
    layout, built by stack_cocycles or from_flat.  A read-only sequence:
    stack[i] is the Cocycle of row i, a slice the CocycleStack of its rows.
    An empty slice is an InputError (exit 2), not an empty stack: every
    stacked kernel, and generator_stack(rows=True), reads at least one row."""

    base: Representation
    values: np.ndarray

    def __post_init__(self):
        rep = require_type(self.base, Representation, "the cocycles' base")
        object.__setattr__(self, "values", generator_stack(
            self.values, rep.presentation.generator_count, rep.rank, "cocycle stack values",
            rows=True))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = self.values[index]
            if not len(rows):
                raise InputError(f"empty slice {index} of {len(self)} cocycles: "
                                 f"a CocycleStack holds k >= 1 rows")
            return CocycleStack(self.base, rows)
        return Cocycle(self.base, self.values[index])

    @cached_property
    def flat(self) -> np.ndarray:
        """(k, 2g n^2) rows: row i is Cocycle.flat of cocycle i; from_flat inverts it."""
        return self.values.transpose(0, 1, 3, 2).reshape(len(self), -1)


def stack_cocycles(cocycles) -> CocycleStack:
    """The CocycleStack of a non-empty sequence of cocycles over one base,
    or a CocycleStack itself, unchanged; InputError (exit 2) when it is
    empty, mixes bases or is not a sequence (a lone Cocycle is not)."""
    if isinstance(cocycles, CocycleStack):
        return cocycles
    try:
        items = iter(cocycles)
    except TypeError:
        raise InputError(f"expected a sequence of cocycles, "
                         f"got {type(cocycles).__name__}") from None
    cocycles = tuple(items)
    return CocycleStack(common_base(cocycles), [chi.values for chi in cocycles])


def common_base(cocycles) -> Representation:
    """The base representation of a non-empty sequence of cocycles or
    cocycle stacks; InputError (exit 2) when it is empty, holds anything
    else, or two of them live over different bases."""
    if not cocycles:
        raise InputError("need at least one cocycle")
    for chi in cocycles:
        require_type(chi, (Cocycle, CocycleStack), "each cocycle")
    first, *rest = cocycles
    for chi in rest:
        if not first.base.same_base(chi.base):
            raise InputError("cocycles live over different base representations")
    return first.base


def from_flat(base: Representation, flat: np.ndarray) -> CocycleStack:
    """The CocycleStack over base whose flat is the (k, 2g n^2) matrix flat."""
    n = base.rank
    return CocycleStack(base, np.reshape(flat, (len(flat), -1, n, n)).transpose(0, 1, 3, 2))


def linear_combination(base: Representation, coeffs, stack: CocycleStack):
    """The cocycle sum_i coeffs[i] * chi_i over base, for the cocycles chi_i
    of a CocycleStack; for an (s, k) coefficient matrix, the CocycleStack
    of its s row combinations.

    Each combination is bit for bit the Python sum 0 + c_0 chi_0 + c_1
    chi_1 + ...: a matrix product would reorder the sum.  The terms are
    added one at a time over all the rows, so the (s, k, 2g, n, n)
    products are never held at once; a row is the one-row matrix.  A
    caller that combines the same cocycles many times builds their stack
    once.  InputError (exit 2) when base is not a representation, stack is
    not a CocycleStack or lives over another base, or the coefficients are
    not numbers in one row or a non-empty matrix of as many columns as
    there are cocycles.
    """
    require_type(base, Representation, "the combination's base")
    require_type(stack, CocycleStack, "the cocycles to combine")
    coeffs = np.asarray(coeffs)
    k = len(stack)
    if (coeffs.dtype.kind not in "iufc" or coeffs.ndim not in (1, 2)
            or coeffs.shape[-1] != k or coeffs.size == 0):
        raise InputError(f"{k} cocycles need a row or a non-empty matrix of {k} numeric "
                         f"coefficients, got {coeffs.dtype} of shape {coeffs.shape}")
    if not base.same_base(stack.base):
        raise InputError("cocycles live over a different base representation")
    columns = coeffs.reshape(-1, k).T[:, :, None, None, None]
    total = columns[0] * stack.values[0]
    for column, values in zip(columns[1:], stack.values[1:]):
        total = total + column * values
    if coeffs.ndim == 1:
        return Cocycle(base, 0 + total[0])
    return CocycleStack(base, 0 + total)


def extend(chi: Cocycle, word: GroupWord) -> np.ndarray:
    """Value on one word: the one-row case of extend_words."""
    return extend_words(chi, [word])[0]


def word_jacobian(rep: Representation, word: GroupWord) -> np.ndarray:
    """Matrix of the linear map chi.flat -> vec chi(word), shape (n^2, 2g n^2):
    fox_jacobian over the word's letter terms (letter_fox_terms).
    InputError (exit 2) unless rep is a representation and word a word of
    its genus."""
    require_type(rep, Representation, "the representation")
    if require_type(word, GroupWord, "the word").genus != rep.genus:
        raise InputError("word and representation have different genus")
    return fox_jacobian(rep.images, rep.inverse_images, word, letter_fox_terms(word))


def extend_ring(chi: Cocycle, element: GroupRingElement) -> np.ndarray:
    """Linear extension of the cocycle to the integral group ring: the
    one-element case of ring_values."""
    rep = require_type(chi, Cocycle, "the cocycle").base
    if require_type(element, GroupRingElement, "the ring element").genus != rep.genus:
        raise InputError("ring element and cocycle have different genus")
    return ring_values(rep, chi.values, ring_codes(rep.presentation, (element,)))[0]


def ring_values(rep: Representation, values: np.ndarray, ring: RingCodes) -> np.ndarray:
    """Values of coded group-ring elements under cocycles over rep, shape
    (..., ring.count, n, n) for generator values (..., 2g, n, n).

    Every term's word is folded by extend_words' kernel, and each
    element's terms are added to zero in terms() order, coefficient times
    value: bit for bit the sum of coeff * chi(word) term by term.
    """
    folded = _fold(rep.letter_tables, values, ring.letters)
    n = rep.rank
    total = np.zeros((*values.shape[:-3], ring.count, n, n), dtype=complex)
    for elements, rows, coeffs in ring.slots:
        total[..., elements, :, :] += coeffs[:, None, None] * folded[..., rows, :, :]
    return total


def relator_residual(chi: Cocycle | CocycleStack) -> float | list[float]:
    """Norm of chi on the full relator: a float for a cocycle, one per row
    for a CocycleStack, the one-cocycle call being the one-row case.  The
    relator is folded by extend_words' kernel for every row at once.
    InputError (exit 2) for anything else."""
    single = isinstance(require_type(chi, (Cocycle, CocycleStack), "the cocycle"), Cocycle)
    pres = chi.base.presentation
    values = chi.values[None] if single else chi.values
    folded = _fold(chi.base.letter_tables, values, letter_codes(pres, [pres.relator()]))
    norms = frobs(folded[:, 0])
    return norms[0] if single else norms


def extend_words(chi: Cocycle, words) -> np.ndarray:
    """Values on many words at once via the twisted additivity law, shape
    (len(words), n, n).

    chi(empty) = 0 and chi(x^-1) = -Ad(sigma(x^-1)) chi(x).  Letters are
    folded in Horner form, right to left: with acc = chi(w) for the
    suffix w already read,

        chi(x w)    = chi(x) + x acc x^-1,
        chi(x^-1 w) = x^-1 (acc - chi(x)) x,

    where x stands for sigma(x).  Each letter costs two matrix products,
    where a left-to-right sum would also carry the prefix image and its
    inverse and conjugate every letter's value by them.  Both letter kinds
    take the one form

        acc = c + l (acc - d) r,

    with (l, r, c, d) = (x, x^-1, chi(x), 0) for a letter x and
    (x^-1, x, 0, chi(x)) for x^-1: one stacked step per letter position
    over the rows whose word reaches it (letter_codes), each row's fold
    starting at its own last letter from zero.  InputError (exit 2) unless
    chi is a cocycle and words an iterable of words, or a WordBatch, of its
    genus.
    """
    rep = require_type(chi, Cocycle, "the cocycle").base
    return _fold(rep.letter_tables, chi.values, letter_codes(rep.presentation, words))


def _fold(tables, values: np.ndarray, coded) -> np.ndarray:
    """extend_words' fold of the words coded by letter_codes under each
    cocycle of a (..., 2g, n, n) value stack: shape (..., words, n, n).
    tables are the (left, right) letter tables of the cocycles' base,
    Representation.letter_tables: one representation's (4g, n, n) pair,
    broadcast against every cocycle, or a (..., 4g, n, n) pair of
    per-cocycle tables, each cocycle folded over its own base."""
    left, right = tables
    zeros = np.zeros_like(values)
    plus = np.concatenate([values, zeros], axis=-3)
    minus = np.concatenate([zeros, values], axis=-3)
    codes, reach, restore = coded
    n = values.shape[-1]
    acc = np.zeros((*values.shape[:-3], len(codes), n, n), dtype=complex)
    for column, m in zip(codes.T[::-1], reach[::-1]):
        letters = column[:m]
        acc[..., :m, :, :] = (plus[..., letters, :, :] + left[..., letters, :, :]
                              @ (acc[..., :m, :, :] - minus[..., letters, :, :])
                              @ right[..., letters, :, :])
    return acc[..., restore, :, :]


def cocycle_law_residuals(chi: Cocycle, pairs) -> list[float]:
    """Residuals |chi(uv) - chi(u) - Ad(sigma(u)) chi(v)|, one per (u, v)
    pair: an iterable of (word, word) pairs, or a tuple (u, v) of two
    WordBatches of one size, paired row by row.

    The words uv, u and v of every pair are folded at once by
    extend_words, sigma(u) is one stacked product by evaluate_words, and
    the norms are one frobs call, so each residual is the same bit for bit
    as from extend, evaluate and frob pair by pair.  InputError (exit 2)
    unless chi is a cocycle and pairs word pairs or two batches.
    """
    require_type(chi, Cocycle, "the cocycle")
    if isinstance(pairs, tuple) and len(pairs) == 2 and all(
            isinstance(batch, WordBatch) for batch in pairs):
        u, v = pairs
        words = join_batches([u * v, u, v])
    else:
        pairs = list(require_type(pairs, Iterable, "the word pairs"))
        for pair in pairs:
            if len(require_type(pair, (tuple, list), "each word pair")) != 2:
                raise InputError(f"a word pair holds two words, got {len(pair)}")
            for word in pair:
                require_type(word, GroupWord, "each word of a pair")
        u, v = [x for x, _ in pairs], [y for _, y in pairs]
        words = [x * y for x, y in pairs] + u + v
    chi_uv, chi_u, chi_v = np.split(extend_words(chi, words), 3)
    sigma_u = evaluate_words(chi.base, u)
    return frobs(chi_uv - (chi_u + sigma_u @ chi_v @ np.linalg.inv(sigma_u)))


def coboundary(v: np.ndarray, rep: Representation):
    """delta_v with values Ad(sigma(x)) v - v on each generator: a Cocycle
    for one n x n matrix v, a CocycleStack of one coboundary per matrix
    for an (s, n, n) stack, each bit for bit its one-matrix call.
    InputError (exit 2) unless rep is a representation and v a finite
    matrix or stack of its rank."""
    require_type(rep, Representation, "the coboundary's base")
    v = square_stack(v, "coboundary arguments")
    if v.ndim > 3 or v.shape[-1] != rep.rank:
        raise InputError(f"coboundary arguments have shape {v.shape}, "
                         f"expected ([s, ]{rep.rank}, {rep.rank})")
    spread = v[..., None, :, :]  # one v per generator image
    values = rep.images @ spread @ rep.inverse_images - spread
    return Cocycle(rep, values) if v.ndim == 2 else CocycleStack(rep, values)


def star_involution(chi: Cocycle | CocycleStack) -> Cocycle | CocycleStack:
    """Valuewise conjugate transpose; needs a unitary base to stay a
    cocycle.  A CocycleStack maps row by row, each row bit for bit its
    one-cocycle call.  InputError (exit 2) for anything else."""
    _require_unitary(chi, "star involution")
    return type(chi)(chi.base, np.swapaxes(chi.values.conj(), -1, -2))


def anti_hermitian_part(chi: Cocycle | CocycleStack) -> Cocycle | CocycleStack:
    """Valuewise (chi - chi*)/2; for unitary bases this is again a cocycle.
    A CocycleStack maps row by row, each row bit for bit its one-cocycle
    call.  InputError (exit 2) for anything else."""
    _require_unitary(chi, "anti-Hermitian projection")
    return type(chi)(chi.base, (chi.values - np.swapaxes(chi.values.conj(), -1, -2)) / 2)


def _require_unitary(chi, what: str) -> None:
    """InputError (exit 2) unless chi is a cocycle or a CocycleStack over a
    unitary base."""
    require_type(chi, (Cocycle, CocycleStack), f"the cocycle of the {what}")
    if chi.base.flavor != UNITARY:
        raise InputError(f"{what} requires a unitary base representation")


def _decided_frame(frame: np.ndarray, count: int, space: str) -> np.ndarray:
    """frame, read-only, once its column count matches the rank decision."""
    if frame.shape[1] != count:
        raise ConditioningError(
            f"{space} basis has {frame.shape[1]} columns, the rank decision gave {count}")
    frame.setflags(write=False)
    return frame


@dataclass(frozen=True, eq=False)
class CocycleBasis:
    """Dimensions of Z1, B1 and H1, with orthonormal bases built on first read.

    dims is (dim Z1, dim B1, dim H1), fixed by cocycle_basis.  The frames
    of Z1 (the nullspace of constraint, the Fox relator constraint), B1
    (the column space of coboundary, the map v -> delta_v) and the H1
    complement (of B1 in Z1, whose pairings represent cohomology classes)
    are built on first read, and so are the CocycleStacks basis (Z1) and
    h1_complement of the canonical ones; a column count that disagrees
    with dims raises ConditioningError.
    """

    base: Representation
    dims: tuple[int, int, int]
    constraint: np.ndarray
    coboundary: np.ndarray

    @cached_property
    def z1_frame(self) -> np.ndarray:
        """Canonical orthonormal Z1 columns in flattened coordinates."""
        frame = canonical_frame(nullspace(self.constraint))
        return _decided_frame(frame, self.dims[0], "Z1")

    @cached_property
    def b1_frame(self) -> np.ndarray:
        """Orthonormal B1 columns in flattened coordinates, the leading left
        singular vectors of coboundary."""
        return _decided_frame(column_space(self.coboundary), self.dims[1], "B1")

    @cached_property
    def h1_frame(self) -> np.ndarray:
        """Canonical orthonormal H1-complement columns in flattened coordinates."""
        frame = canonical_frame(complement_within(self.z1_frame, self.b1_frame))
        return _decided_frame(frame, self.dims[2], "H1 complement")

    @cached_property
    def basis(self) -> CocycleStack:
        return from_flat(self.base, self.z1_frame.T)

    @cached_property
    def h1_complement(self) -> CocycleStack:
        return from_flat(self.base, self.h1_frame.T)

    def h1_coordinates(self, chi: Cocycle) -> np.ndarray:
        """Coefficients of the class of chi in the H1 complement basis.

        Orthogonal projection; insensitive to coboundary shifts because
        the complement is orthogonal to B1 by construction.
        """
        require_type(chi, Cocycle, "the cocycle")
        if not self.base.same_base(chi.base):
            raise InputError("cocycle over a different base representation")
        return self.h1_frame.conj().T @ chi.flat


def cocycle_basis(rep: Representation) -> CocycleBasis:
    """Decide dim Z1, B1 and H1; the bases are built when first read.

    The constraint chi(R) = 0 is the Fox expansion of the relator (the
    linear map that drives Newton projection); B1 is the column space of
    the representation's cached coboundary_map, the map v -> delta_v,
    whose rank is decided once in rep.coboundary_svd.  The dimensions
    come from cocycle_dimensions on the matrices that rep.decision_matrix
    chooses (the u(n) real forms at a unitary base); the frames read the
    complex ones.
    """
    require_type(rep, Representation, "the representation")
    constraint = relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images)
    dims = cocycle_dimensions(rep.decision_matrix(constraint), rep.coboundary_decision,
                              rep.coboundary_svd)
    return CocycleBasis(base=rep, dims=dims, constraint=constraint,
                        coboundary=rep.coboundary_map)


def expected_h1_dimension(genus: int, rank: int) -> int:
    """dim H1 at an irreducible point: (2g-2) n^2 + 2."""
    return (2 * genus - 2) * rank ** 2 + 2


def cocycle_dimensions(constraint: np.ndarray, coboundary: np.ndarray,
                       coboundary_svd) -> tuple[int, int, int]:
    """(dim Z1, dim B1, dim H1) = (q - k, k, q - 2k) for the nullspace Z1
    of C = constraint, with q = 2g n^2 columns, and the column space B1 of
    D = coboundary, whose decided triangular_values are coboundary_svd =
    (k, svals).  No tall orthonormal factor and no singular vector is
    formed.  C and D may be the u(n) real forms Re C - (Im C) Pi and
    Re D - (Im D) Pi (Representation.decision_matrix), C and D in the
    orthonormal coordinates A + S of u(n): their singular values and
    ||C D||_F, hence every decision, are the same up to roundoff.

    On a closed surface group H2 is dual to H0 under the trace form
    (Goldman, 1984), so rank C = n^2 - dim H2 = n^2 - dim H0 = rank D, and
    the one rank k decides all three dimensions.  Two guards raise
    ConditioningError: rank C, decided from triangular_values(C^H),
    differs from k; or sine_bound puts the largest sine between B1 and Z1
    above COMPLEMENT_SINE, so that B1 does not lie inside Z1.
    """
    svals = triangular_values(constraint.conj().T)
    r, _ = split_singular_values(svals)
    k, b_svals = coboundary_svd
    if r != k:
        raise ConditioningError(
            f"rank of the relator constraint {r} differs from dim B1 {k}")
    bound = sine_bound(constraint @ coboundary, svals[:r], b_svals[:k])
    if bound > tolerances.COMPLEMENT_SINE:
        raise ConditioningError(
            f"B1 leaves Z1: sine bound {bound:.3g} exceeds {tolerances.COMPLEMENT_SINE:.3g}")
    q = constraint.shape[1]
    return q - k, k, q - 2 * k


def sine_bound(product: np.ndarray, svals: np.ndarray, b_svals: np.ndarray) -> float:
    """Upper bound ||C D||_F / (sigma_r(C) sigma_k(D)) on the largest sine
    between B1 and Z1, from product = C D and the kept singular values of
    C and D alone.  With the kept parts C^H = R S_C V_C^H and
    D = b S_D V_D^H, the sines are the singular values of
    R^H b = S_C^-1 V_C^H (C D) V_D S_D^-1 (Bjorck and Golub, 1973), whose
    norm is at most the bound, as V_C and V_D have orthonormal rows.
    0 when r or k is 0, where there is no sine."""
    if svals.size == 0 or b_svals.size == 0:
        return 0.0
    return frob(product) / (svals[-1] * b_svals[-1])


def random_cocycle(basis: CocycleBasis, rng: np.random.Generator,
                   space: str = "z1") -> Cocycle:
    """Random complex combination of basis cocycles (seeded, deterministic).

    space is "z1" (the Z1 basis) or "h1" (the H1 complement).  InputError
    (exit 2) when basis is not a CocycleBasis, rng is no RandomStream or
    space is not one of those strings.
    """
    require_type(basis, CocycleBasis, "the basis to draw from")
    # a Generator is a RandomStream; naming it first spares the protocol's slow check
    require_type(rng, (np.random.Generator, RandomStream), "the random stream")
    require_type(space, str, "the cocycle space")
    if space == "z1":
        pool = basis.basis
    elif space == "h1":
        pool = basis.h1_complement
    else:
        raise InputError(f"unknown cocycle space {space!r}, expected 'z1' or 'h1'")
    coeffs = complex_gaussian(rng, len(pool))
    return linear_combination(basis.base, coeffs, pool)


def real_locus_bases(basis: CocycleBasis) -> tuple[CocycleStack, CocycleStack]:
    """Canonical real-orthonormal bases of the anti-Hermitian-valued cocycles.

    Returns (z1_real, h1_real): CocycleStacks with anti-Hermitian values
    spanning, over the reals, the tangent space of the unitary character
    variety and a complement of the real coboundaries in it.  Real
    dimensions match the complex ones: dim_R = dim_C Z1 and dim_C H1.
    At a unitary base C maps u(n)^2g into u(n) and D maps u(n) into
    u(n)^2g, so in the coordinates A + S of u(n) the anti-Hermitian
    cocycles are ker C_R and the real coboundaries col D_R, C_R and D_R the
    real forms of rep.decision_matrix; unitary_values maps them to values.
    """
    rep = require_type(basis, CocycleBasis, "the cocycle basis").base
    if rep.flavor != UNITARY:
        raise InputError("the real locus requires a unitary base representation")
    z1_real = canonical_frame(nullspace(rep.decision_matrix(basis.constraint)))
    h1_real = canonical_frame(
        complement_within(z1_real, column_space(rep.decision_matrix(basis.coboundary))))
    return tuple(from_flat(rep, unitary_values(frame, rep.rank).T)
                 for frame in (z1_real, h1_real))
