"""Group cocycles valued in n x n matrices under the adjoint action.

A cocycle chi assigns a matrix to each generator and extends to all words
by chi(uv) = chi(u) + Ad(sigma(u)) chi(v); these are the tangent vectors
of the representation variety, with coboundaries delta_v tangent to the
conjugation orbit.  The quotient Z1/B1 is the tangent space of the
character variety, of complex dimension (2g-2) n^2 + 2 at irreducible
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditioningError, InputError
from .linalg import (ad_matrix, column_space, complement_dimension,
                     complement_within, frob, nullspace, real_flatten, row_space,
                     unvec, vec)
from .reps import UNITARY, Representation, evaluate, relator_tangent_matrix
from .words import GroupRingElement, GroupWord


@dataclass(frozen=True, eq=False)
class Cocycle:
    """Generator values of a cocycle over a base representation.

    The container does not enforce the relator constraint chi(R) = 0:
    finite-difference cocycles carry an O(h^2) defect by nature.  Use
    relator_residual to measure it; exact constructions keep it at
    roundoff level.
    """

    base: Representation
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = self.base.rank
        if len(self.values) != self.base.presentation.generator_count:
            raise InputError("one value per generator required")
        frozen = []
        for m in self.values:
            m = np.array(m, dtype=complex)
            if m.shape != (n, n):
                raise InputError(f"cocycle value has shape {m.shape}, expected {(n, n)}")
            if not np.isfinite(m).all():
                raise InputError("cocycle value has a non-finite entry")
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "values", tuple(frozen))

    def __call__(self, arg):
        if isinstance(arg, GroupWord):
            return extend(self, arg)
        if isinstance(arg, GroupRingElement):
            return extend_ring(self, arg)
        raise InputError(f"cannot evaluate a cocycle on {type(arg).__name__}")

    @cached_property
    def flat(self) -> np.ndarray:
        return np.concatenate([vec(m) for m in self.values])

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def __add__(self, other: "Cocycle") -> "Cocycle":
        _check_same_base(self, other)
        return Cocycle(self.base, tuple(x + y for x, y in zip(self.values, other.values)))

    def __sub__(self, other: "Cocycle") -> "Cocycle":
        _check_same_base(self, other)
        return Cocycle(self.base, tuple(x - y for x, y in zip(self.values, other.values)))

    def __mul__(self, scalar) -> "Cocycle":
        return Cocycle(self.base, tuple(scalar * m for m in self.values))

    __rmul__ = __mul__


def _check_same_base(one: Cocycle, other: Cocycle):
    if not one.base.same_base(other.base):
        raise InputError("cocycles live over different base representations")


def from_flat(base: Representation, flat: np.ndarray) -> Cocycle:
    n = base.rank
    values = tuple(unvec(flat[i * n * n:(i + 1) * n * n], n)
                   for i in range(base.presentation.generator_count))
    return Cocycle(base, values)


def extend(chi: Cocycle, word: GroupWord) -> np.ndarray:
    """Value on an arbitrary word via the twisted additivity law.

    chi(empty) = 0 and chi(x^-1) = -Ad(sigma(x^-1)) chi(x); letters are
    accumulated left to right with a running prefix image.
    """
    rep = chi.base
    if word.genus != rep.genus:
        raise InputError("word and cocycle have different genus")
    n = rep.rank
    total = np.zeros((n, n), dtype=complex)
    prefix = np.eye(n, dtype=complex)
    prefix_inv = np.eye(n, dtype=complex)
    for gen, sign in word.letters():
        if sign > 0:
            value = chi.values[gen]
            image, image_inv = rep.image(gen), rep.image(gen, -1)
        else:
            image, image_inv = rep.image(gen, -1), rep.image(gen)
            value = -image @ chi.values[gen] @ image_inv
        total += prefix @ value @ prefix_inv
        prefix = prefix @ image
        prefix_inv = image_inv @ prefix_inv
    return total


def word_jacobian(rep: Representation, word: GroupWord) -> np.ndarray:
    """Matrix of the linear map chi.flat -> vec chi(word), shape (n^2, 2g n^2).

    Fox calculus under Ad(sigma): a letter x_i contributes +Ad(prefix) to
    the column block of generator i, a letter x_i^-1 contributes
    -Ad(prefix x_i^-1).  One left-to-right pass keeps the running prefix
    and its inverse; the adjoint matrices of all letters are formed by a
    single batched Kronecker product.
    """
    if word.genus != rep.genus:
        raise InputError("word and representation have different genus")
    n = rep.rank
    count = rep.presentation.generator_count
    prefix = np.eye(n, dtype=complex)
    prefix_inv = np.eye(n, dtype=complex)
    prefixes, prefix_invs, gens, signs = [], [], [], []
    for gen, sign in word.letters():
        if sign > 0:
            prefixes.append(prefix)
            prefix_invs.append(prefix_inv)
        prefix = prefix @ rep.image(gen, sign)
        prefix_inv = rep.image(gen, -sign) @ prefix_inv
        if sign < 0:
            prefixes.append(prefix)
            prefix_invs.append(prefix_inv)
        gens.append(gen)
        signs.append(sign)
    blocks = np.zeros((count, n * n, n * n), dtype=complex)
    if gens:
        # kron(P^-T, P)[a n + b, c n + d] = P^-1[c, a] P[b, d]
        ad = np.einsum("mca,mbd->mabcd", np.array(prefix_invs), np.array(prefixes))
        ad = ad.reshape(len(gens), n * n, n * n) * np.array(signs)[:, None, None]
        np.add.at(blocks, np.array(gens), ad)
    return blocks.transpose(1, 0, 2).reshape(n * n, count * n * n)


def extend_ring(chi: Cocycle, element: GroupRingElement) -> np.ndarray:
    """Linear extension of the cocycle to the integral group ring."""
    rep = chi.base
    if element.genus != rep.genus:
        raise InputError("ring element and cocycle have different genus")
    n = rep.rank
    total = np.zeros((n, n), dtype=complex)
    for word, coeff in element.terms():
        total += coeff * extend(chi, word)
    return total


def relator_residual(chi: Cocycle) -> float:
    """Norm of chi on the full relator, computed by letterwise extension."""
    return frob(extend(chi, chi.base.presentation.relator()))


def cocycle_law_residual(chi: Cocycle, u: GroupWord, v: GroupWord) -> float:
    sigma_u = evaluate(chi.base, u)
    lhs = extend(chi, u * v)
    rhs = extend(chi, u) + sigma_u @ extend(chi, v) @ np.linalg.inv(sigma_u)
    return frob(lhs - rhs)


def coboundary(v: np.ndarray, rep: Representation) -> Cocycle:
    """delta_v with values Ad(sigma(x)) v - v on each generator."""
    v = np.asarray(v, dtype=complex)
    values = tuple(rep.image(i) @ v @ rep.image(i, -1) - v
                   for i in range(rep.presentation.generator_count))
    return Cocycle(rep, values)


def star_involution(chi: Cocycle) -> Cocycle:
    """Valuewise conjugate transpose; needs a unitary base to stay a cocycle."""
    if chi.base.flavor != UNITARY:
        raise InputError("star involution requires a unitary base representation")
    return Cocycle(chi.base, tuple(m.conj().T for m in chi.values))


def anti_hermitian_part(chi: Cocycle) -> Cocycle:
    """Valuewise (chi - chi*)/2; for unitary bases this is again a cocycle."""
    if chi.base.flavor != UNITARY:
        raise InputError("anti-Hermitian projection requires a unitary base")
    return Cocycle(chi.base, tuple((m - m.conj().T) / 2 for m in chi.values))


def _frame_cocycles(base: Representation, frame: np.ndarray) -> tuple[Cocycle, ...]:
    return tuple(from_flat(base, frame[:, j]) for j in range(frame.shape[1]))


def _decided_frame(frame: np.ndarray, count: int, space: str) -> np.ndarray:
    """The frame, read-only, once its column count matches the rank decision."""
    if frame.shape[1] != count:
        raise ConditioningError(
            f"{space} basis has {frame.shape[1]} columns, the rank decision gave {count}")
    frame.setflags(write=False)
    return frame


@dataclass(frozen=True, eq=False)
class CocycleBasis:
    """Dimensions of Z1, B1 and H1, with orthonormal bases built on first read.

    dims is (dim Z1, dim B1, dim H1), fixed by cocycle_basis from rank
    decisions alone.  The orthonormal bases basis (Z1), coboundary_basis
    (B1) and h1_complement are built from constraint (the Fox relator
    constraint, whose nullspace is Z1) and b1_frame (orthonormal
    B1 columns) the first time they are read; a column count that
    disagrees with dims raises ConditioningError.  h1_complement spans the
    orthogonal complement of the coboundaries inside the cocycle space;
    its pairings represent cohomology classes.
    """

    base: Representation
    dims: tuple[int, int, int]
    constraint: np.ndarray
    b1_frame: np.ndarray

    @cached_property
    def z1_frame(self) -> np.ndarray:
        """Orthonormal Z1 columns in flattened coordinates."""
        return _decided_frame(nullspace(self.constraint), self.dims[0], "Z1")

    @cached_property
    def h1_frame(self) -> np.ndarray:
        """Orthonormal H1-complement columns in flattened coordinates."""
        frame = complement_within(self.z1_frame, self.b1_frame)
        # C order, as a column_stack of the cocycles' flat values would be,
        # so that projections onto it round the same way
        return _decided_frame(np.ascontiguousarray(frame), self.dims[2], "H1 complement")

    @cached_property
    def basis(self) -> tuple[Cocycle, ...]:
        return _frame_cocycles(self.base, self.z1_frame)

    @cached_property
    def coboundary_basis(self) -> tuple[Cocycle, ...]:
        return _frame_cocycles(self.base, self.b1_frame)

    @cached_property
    def h1_complement(self) -> tuple[Cocycle, ...]:
        return _frame_cocycles(self.base, self.h1_frame)

    def h1_coordinates(self, chi: Cocycle) -> np.ndarray:
        """Coefficients of the class of chi in the H1 complement basis.

        Orthogonal projection; insensitive to coboundary shifts because
        the complement is orthogonal to B1 by construction.
        """
        if not self.base.same_base(chi.base):
            raise InputError("cocycle over a different base representation")
        return self.h1_frame.conj().T @ chi.flat


def cocycle_basis(rep: Representation) -> CocycleBasis:
    """Decide dim Z1, B1 and H1; the bases are built when first read.

    The constraint chi(R) = 0 is imposed through the Fox expansion of the
    relator (the same linear map that drives Newton projection); the
    coboundary space is the image of v -> delta_v.  Rank decisions use the
    global relative singular-value threshold: dim Z1 is 2g n^2 less the
    rank of the constraint, taken from its thin SVD, and dim H1 comes
    from cocycle_dimensions.  Bases are orthonormal in the flattened
    Frobenius metric.
    """
    n = rep.rank
    count = rep.presentation.generator_count
    constraint = relator_tangent_matrix(rep.presentation, rep.images, rep.flavor)
    row = row_space(constraint)

    delta = np.zeros((count * n * n, n * n), dtype=complex)
    for i in range(count):
        ad = ad_matrix(rep.image(i), rep.image(i, -1))
        delta[i * n * n:(i + 1) * n * n, :] = ad - np.eye(n * n)
    b1 = column_space(delta)
    b1.setflags(write=False)
    return CocycleBasis(base=rep, dims=cocycle_dimensions(row, b1),
                        constraint=constraint, b1_frame=b1)


def cocycle_dimensions(row: np.ndarray, b1_frame: np.ndarray) -> tuple[int, int, int]:
    """(dim Z1, dim B1, dim H1) from the constraint's row space and a B1 frame.

    Both arguments have orthonormal columns; Z1 is the orthogonal
    complement of row.  dim H1 is the number of columns complement_within
    would keep, counted from principal angles.  B1 not lying inside Z1
    shows as dim Z1 - dim B1 != dim H1 and raises ConditioningError.
    """
    dims = (row.shape[0] - row.shape[1], b1_frame.shape[1],
            complement_dimension(row, b1_frame))
    if dims[0] - dims[1] != dims[2]:
        raise ConditioningError(
            f"inconsistent dimensions: Z1 {dims[0]}, B1 {dims[1]}, complement {dims[2]}")
    return dims


def random_cocycle(basis: CocycleBasis, rng: np.random.Generator,
                   space: str = "z1") -> Cocycle:
    """Random complex combination of basis cocycles (seeded, deterministic)."""
    pool = {"z1": basis.basis, "h1": basis.h1_complement,
            "b1": basis.coboundary_basis}[space]
    coeffs = rng.standard_normal(len(pool)) + 1j * rng.standard_normal(len(pool))
    flat = sum(c * chi.flat for c, chi in zip(coeffs, pool))
    return from_flat(basis.base, flat)


def real_locus_bases(basis: CocycleBasis):
    """Real-orthonormal bases of the anti-Hermitian-valued cocycles.

    Returns (z1_real, h1_real): lists of cocycles with anti-Hermitian
    values spanning, over the reals, the tangent space of the unitary
    character variety and a complement of the real coboundaries in it.
    Real dimensions match the complex ones: dim_R = dim_C Z1 and dim_C H1.
    """
    rep = basis.base
    if rep.flavor != UNITARY:
        raise InputError("the real locus requires a unitary base representation")
    n = rep.rank

    candidates = []
    for chi in basis.basis:
        candidates.append(anti_hermitian_part(chi))
        candidates.append(anti_hermitian_part(1j * chi))
    cand = np.column_stack([real_flatten(c.flat) for c in candidates])
    z1_real = column_space(cand)

    # real coboundaries: delta of an anti-Hermitian matrix basis
    cob_vectors = []
    for p in range(n):
        for q in range(n):
            if p == q:
                v = np.zeros((n, n), dtype=complex)
                v[p, p] = 1j
                cob_vectors.append(real_flatten(coboundary(v, rep).flat))
            elif p < q:
                v = np.zeros((n, n), dtype=complex)
                v[p, q] = 1.0
                v[q, p] = -1.0
                cob_vectors.append(real_flatten(coboundary(v, rep).flat))
                v = np.zeros((n, n), dtype=complex)
                v[p, q] = 1j
                v[q, p] = 1j
                cob_vectors.append(real_flatten(coboundary(v, rep).flat))
    b1_real = column_space(np.column_stack(cob_vectors))

    h1_real = complement_within(z1_real, b1_real)

    half = cand.shape[0] // 2

    def to_cocycle(col):
        return from_flat(rep, col[:half] + 1j * col[half:])

    z1_list = [to_cocycle(z1_real[:, j]) for j in range(z1_real.shape[1])]
    h1_list = [to_cocycle(h1_real[:, j]) for j in range(h1_real.shape[1])]
    return z1_list, h1_list
