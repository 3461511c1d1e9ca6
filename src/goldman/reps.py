"""Surface-group representations into U(n) and GL(n,C).

A representation assigns an invertible matrix to each generator so that
the product-of-commutators relator evaluates to the identity.  Random
representations are exact by construction: the first g-1 handles are free
draws, and the last handle is produced by constructive commutator
factorization of the inverse of the partial relator image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import tolerances
from .errors import ConditioningError, ConvergenceError, InputError
from .linalg import (ad_matrix, frob, ginibre, haar_unitary, polar_unitary,
                     split_singular_values, unvec, vec)
from .words import GroupWord, Presentation

UNITARY = "unitary"
GENERAL_LINEAR = "general-linear"
FLAVORS = (UNITARY, GENERAL_LINEAR)


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images for a surface-group presentation.

    images are ordered like the generators: [a1, b1, a2, b2, ...].
    Construction enforces the relator defect and, for the unitary flavor,
    unitarity of every image.
    """

    presentation: Presentation
    rank: int
    images: tuple[np.ndarray, ...]
    flavor: str
    seed: int | None = None

    def __post_init__(self):
        n = self.rank
        if n < 1:
            raise InputError(f"rank must be >= 1, got {n}")
        if self.flavor not in FLAVORS:
            raise InputError(f"unknown flavor {self.flavor!r}")
        if len(self.images) != self.presentation.generator_count:
            raise InputError(
                f"expected {self.presentation.generator_count} generator images, "
                f"got {len(self.images)}"
            )
        frozen = []
        for m in self.images:
            m = np.array(m, dtype=complex)
            if m.shape != (n, n):
                raise InputError(f"generator image has shape {m.shape}, expected {(n, n)}")
            if not np.isfinite(m).all():
                raise InputError("generator image has a non-finite entry")
            if abs(np.linalg.det(m)) < 1e-12:
                raise InputError("generator image is numerically singular")
            if (self.flavor == UNITARY
                    and frob(m.conj().T @ m - np.eye(n)) > tolerances.CONSTRUCTION):
                raise InputError("generator image is not unitary within tolerance")
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "images", tuple(frozen))
        defect = relator_defect(self)
        if defect > tolerances.CONSTRUCTION:
            raise InputError(f"relator defect {defect:.3e} exceeds construction "
                             f"tolerance {tolerances.CONSTRUCTION:.1e}")

    @cached_property
    def inverse_images(self) -> tuple[np.ndarray, ...]:
        if self.flavor == UNITARY:
            return tuple(m.conj().T for m in self.images)
        return tuple(np.linalg.inv(m) for m in self.images)

    @cached_property
    def dual_form(self) -> np.ndarray:
        """Matrix W of the Goldman pairing, omega(x, y) = x.flat @ W @ y.flat;
        built once per representation by pairing.dual_form_matrix."""
        from .pairing import dual_form_matrix

        return dual_form_matrix(self)

    @property
    def genus(self) -> int:
        return self.presentation.genus

    def image(self, index: int, sign: int = 1) -> np.ndarray:
        return self.images[index] if sign > 0 else self.inverse_images[index]

    @cached_property
    def fingerprint(self) -> str:
        from .fileio import representation_fingerprint

        return representation_fingerprint(self)

    def same_base(self, other: "Representation") -> bool:
        return self is other or self.fingerprint == other.fingerprint


def evaluate(rep: Representation, word: GroupWord) -> np.ndarray:
    """Image of a word: multiplicative, identity on the empty word."""
    if word.genus != rep.genus:
        raise InputError("word and representation have different genus")
    out = np.eye(rep.rank, dtype=complex)
    for gen, exp in word.runs:
        m = rep.image(gen, 1 if exp > 0 else -1)
        for _ in range(abs(exp)):
            out = out @ m
    return out


def relator_defect(rep: Representation) -> float:
    """Frobenius distance of the evaluated full relator from the identity."""
    return _images_defect(rep.presentation, rep.images, rep.flavor)


def _word_product(images, inverses, word) -> np.ndarray:
    n = images[0].shape[0]
    out = np.eye(n, dtype=complex)
    for gen, sign in word.letters():
        out = out @ (images[gen] if sign > 0 else inverses[gen])
    return out


def _invert_all(images, flavor):
    if flavor == UNITARY:
        return [m.conj().T for m in images]
    return [np.linalg.inv(m) for m in images]


def _images_defect(presentation, images, flavor) -> float:
    inverses = _invert_all(images, flavor)
    r = _word_product(images, inverses, presentation.relator())
    return frob(r - np.eye(images[0].shape[0]))


def commutator_factor(u: np.ndarray, unitary: bool = True):
    """Factor a determinant-one matrix as a single commutator A B A^-1 B^-1.

    Diagonalize u = V diag(lambda) V^-1, take A = V P V^-1 with P the
    cyclic shift and B = V E V^-1 with E diagonal solving the eigenvalue
    ratio equations around the cycle; the cycle closes because the
    eigenvalues multiply to one.
    """
    tol = tolerances.CONSTRUCTION
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n):
        raise InputError("commutator_factor expects a square matrix")
    det = np.linalg.det(u)
    if abs(det - 1.0) > tol:
        raise InputError(f"determinant {det:.6g} is not 1 within {tol:.1e}")
    if unitary:
        if frob(u.conj().T @ u - np.eye(n)) > tol:
            raise InputError("matrix is not unitary within tolerance")
        # complex Schur of a normal matrix: orthonormal eigenbasis even for
        # degenerate eigenvalue clusters
        t, v = scipy.linalg.schur(u, output="complex")
        lam = np.diagonal(t).copy()
        lam = lam / np.abs(lam)
        v_inv = v.conj().T
    else:
        lam, v = np.linalg.eig(u)
        v_inv = np.linalg.inv(v)

    shift = np.zeros((n, n), dtype=complex)
    for i in range(n):
        shift[(i + 1) % n, i] = 1.0
    e = np.ones(n, dtype=complex)
    for i in range(1, n):
        e[i] = e[i - 1] / lam[i]
    if unitary:
        e = e / np.abs(e)
    a = v @ shift @ v_inv
    b = v @ np.diag(e) @ v_inv
    residual = frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u)
    if residual > tol:
        raise ConditioningError(
            f"commutator factorization residual {residual:.3e} exceeds {tol:.1e} "
            "(defective or ill-conditioned input)"
        )
    return a, b


def check_seed(seed: int) -> None:
    """Seeds are unsigned 64-bit integers, from the CLI and the API alike."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise InputError("seed must be an unsigned 64-bit integer")


def random_representation(genus: int, rank: int, flavor: str = UNITARY,
                          seed: int = 0) -> Representation:
    """Seeded representation with the relator exact by construction.

    For rank one all images commute, so every generator image is a free
    draw.  Otherwise the first g-1 handles are Haar/Ginibre draws and the
    last handle is a commutator factorization of the inverse partial
    relator image, rescaled to determinant one.
    """
    if flavor not in FLAVORS:
        raise InputError(f"unknown flavor {flavor!r}")
    check_seed(seed)
    pres = Presentation(genus)
    rng = np.random.default_rng(seed)
    n = rank

    def draw():
        if flavor == UNITARY:
            return haar_unitary(rng, n)
        return scipy.linalg.expm(0.7 * ginibre(rng, n))

    if n == 1:
        images = [draw() for _ in range(2 * genus)]
        return Representation(pres, n, tuple(images), flavor, seed=seed)

    images = [draw() for _ in range(2 * (genus - 1))]
    inverses = _invert_all(images + [np.eye(n)] * 2, flavor)
    partial = _word_product(images + [np.eye(n)] * 2, inverses,
                            pres.relator(genus - 1))
    target = np.linalg.inv(partial)
    det = np.linalg.det(target)
    target = target * det ** (-1.0 / n)
    a_g, b_g = commutator_factor(target, unitary=(flavor == UNITARY))
    images.extend([a_g, b_g])
    return Representation(pres, n, tuple(images), flavor, seed=seed)


def commutant_dimension(rep: Representation) -> int:
    """Dimension of the algebra commuting with every generator image.

    Stacks the Sylvester operators X -> g X - X g over all generators and
    counts the nullspace dimension; the representation is irreducible
    exactly when this is one.
    """
    n = rep.rank
    eye = np.eye(n)
    blocks = [np.kron(eye, m) - np.kron(m.T, eye) for m in rep.images]
    stacked = np.vstack(blocks)
    svals = np.linalg.svd(stacked, compute_uv=False)
    rank, _ = split_singular_values(svals)
    return n * n - rank


def is_irreducible(rep: Representation) -> bool:
    return commutant_dimension(rep) == 1


def relator_tangent_matrix(presentation: Presentation, images, flavor: str) -> np.ndarray:
    """Linearization of the relator evaluation map around given images.

    Perturbing images as exp(t D_x) g_x changes the relator image, to
    first order, by L(D) rho(R) where L is the group-ring pairing of the
    Fox derivatives of the relator with the D_x under conjugation.  The
    returned matrix represents L on column-stacked coordinates, shape
    (n^2, 2g n^2).  The same matrix is the cocycle relator constraint.
    """
    n = images[0].shape[0]
    inverses = _invert_all(images, flavor)
    blocks = []
    for index in range(presentation.generator_count):
        deriv = presentation.relator_derivative(index)
        block = np.zeros((n * n, n * n), dtype=complex)
        for word, coeff in deriv.terms():
            s = _word_product(images, inverses, word)
            s_inv = _word_product(images, inverses, word.inverse())
            block += coeff * ad_matrix(s, s_inv)
        blocks.append(block)
    return np.hstack(blocks)


def newton_project(presentation: Presentation, images, flavor: str,
                   seed: int | None = None) -> Representation:
    """Project approximate generator images back onto the relator variety.

    Gauss-Newton on the relator defect: each step solves the linearized
    relator constraint in the minimum-norm sense (a gauge slice orthogonal
    to the nullspace of the linearization, hence to the conjugation
    orbit), applies exp(D_x) g_x, and in the unitary flavor re-projects
    every image to the unitary group by polar decomposition.
    """
    images = [np.array(m, dtype=complex) for m in images]
    n = images[0].shape[0]
    eye = np.eye(n)
    defect = _images_defect(presentation, images, flavor)
    if defect > tolerances.NEWTON_TRUST_DEFECT:
        raise ConvergenceError(
            f"input defect {defect:.3e} outside the Newton trust region "
            f"{tolerances.NEWTON_TRUST_DEFECT:.1e}", defect=defect)

    for _ in range(tolerances.NEWTON_STEP_LIMIT):
        if defect <= tolerances.NEWTON_TARGET:
            break
        inverses = _invert_all(images, flavor)
        r = _word_product(images, inverses, presentation.relator())
        rhs = -vec((r - eye) @ np.linalg.inv(r))
        jac = relator_tangent_matrix(presentation, images, flavor)
        step, *_ = np.linalg.lstsq(jac, rhs, rcond=tolerances.SVD_RELATIVE)
        candidate = []
        for i in range(len(images)):
            d = unvec(step[i * n * n:(i + 1) * n * n], n)
            updated = scipy.linalg.expm(d) @ images[i]
            candidate.append(polar_unitary(updated) if flavor == UNITARY else updated)
        new_defect = _images_defect(presentation, candidate, flavor)
        if new_defect >= defect:
            break  # stalled; keep the best iterate seen
        images, defect = candidate, new_defect
    if defect > tolerances.CONSTRUCTION:
        raise ConvergenceError(
            f"Newton projection did not converge (final defect {defect:.3e})",
            defect=defect)
    return Representation(presentation, n, tuple(images), flavor, seed=seed)


def conjugate_representation(rep: Representation, c: np.ndarray) -> Representation:
    """Conjugate every generator image by a fixed invertible matrix.

    The result is a general-linear representation whatever the base
    flavor: conjugation by a non-unitary matrix leaves U(n).
    """
    c = np.asarray(c, dtype=complex)
    c_inv = np.linalg.inv(c)
    images = tuple(c @ m @ c_inv for m in rep.images)
    return Representation(rep.presentation, rep.rank, images, GENERAL_LINEAR, seed=rep.seed)
