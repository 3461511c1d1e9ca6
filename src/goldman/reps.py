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

from . import tolerances
from .errors import ConditioningError, ConvergenceError, InputError, require_type
from .linalg import (ad_matrix, complex_array, expm, frob, frobs, generator_stack, ginibre,
                     haar_unitary, polar_unitary, require_finite, split_singular_values,
                     square_stack, triangular_values, unitary_eigenframe, unitary_real_form,
                     vec)
from .words import GroupWord, Presentation, check_size, is_integer, letter_codes

UNITARY = "unitary"
GENERAL_LINEAR = "general-linear"
FLAVORS = (UNITARY, GENERAL_LINEAR)


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images for a surface-group presentation.

    images is a read-only complex (2g, n, n) stack ordered like the
    generators, [a1, b1, a2, b2, ...], from any sequence of 2g matrices;
    inverse_images is the read-only stack of their inverses.
    Construction enforces the relator defect, the seed rule of check_seed
    and, for the unitary flavor, unitarity of every image.
    """

    presentation: Presentation
    rank: int
    images: np.ndarray
    flavor: str
    seed: int | None = None

    def __post_init__(self):
        require_type(self.presentation, Presentation, "the presentation")
        check_settings(self.flavor, self.seed, seed_optional=True, rank=self.rank)
        images = generator_stack(self.images, self.presentation.generator_count, self.rank,
                                 "generator images")
        _check_images(images, self.flavor)
        object.__setattr__(self, "images", images)
        # finite images may still overflow the relator product: a NaN
        # defect is refused, not passed
        with np.errstate(over="ignore", invalid="ignore"):
            defect = relator_defect(self)
        if not defect <= tolerances.CONSTRUCTION:
            raise InputError(f"relator defect {defect:.3e} exceeds construction "
                             f"tolerance {tolerances.CONSTRUCTION:.1e}")

    @cached_property
    def inverse_images(self) -> np.ndarray:
        return _invert_all(self.images, self.flavor)

    @cached_property
    def letter_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only letter_table(images, inverse_images) and
        letter_table(inverse_images, images), built once: the image and
        the inverse image of each letter code, for every word walker."""
        tables = (letter_table(self.images, self.inverse_images),
                  letter_table(self.inverse_images, self.images))
        for table in tables:
            table.setflags(write=False)
        return tables

    @cached_property
    def coboundary_map(self) -> np.ndarray:
        """Read-only coboundary_matrix, the map v -> delta_v: B1 is its
        column space, the commutant its nullspace."""
        matrix = coboundary_matrix(self)
        matrix.setflags(write=False)
        return matrix

    def decision_matrix(self, m: np.ndarray) -> np.ndarray:
        """The matrix that a rank decision of m, a map between stacks of
        n x n matrices, reads.  At a unitary base Ad maps u(n) into u(n),
        so m's u(n) real form (linalg.unitary_real_form) is real with m's
        singular values, and its factorizations run in real arithmetic;
        the general-linear flavor has no real form and reads m itself."""
        return unitary_real_form(m, self.rank) if self.flavor == UNITARY else m

    @cached_property
    def coboundary_decision(self) -> np.ndarray:
        """Read-only decision_matrix of coboundary_map, formed once."""
        matrix = self.decision_matrix(self.coboundary_map)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def coboundary_svd(self) -> tuple[int, np.ndarray]:
        """(rank, svals) of coboundary_map: the triangular_values of its
        coboundary_decision, with the rank, dim B1, decided once by
        split_singular_values.  No singular vectors are formed."""
        svals = triangular_values(self.coboundary_decision)
        svals.setflags(write=False)
        return split_singular_values(svals)[0], svals

    @cached_property
    def dual_form(self) -> np.ndarray:
        """Matrix W of the Goldman pairing, omega(x, y) = x.flat @ W @ y.flat;
        built once per representation by pairing.dual_form_matrix."""
        from .pairing import dual_form_matrix

        return dual_form_matrix(self)

    @property
    def genus(self) -> int:
        return self.presentation.genus

    @cached_property
    def fingerprint(self) -> str:
        from .fileio import representation_fingerprint

        return representation_fingerprint(self)

    def same_base(self, other: "Representation") -> bool:
        return self is other or self.fingerprint == other.fingerprint


def evaluate(rep: Representation, word: GroupWord) -> np.ndarray:
    """Image of a word: multiplicative, identity on the empty word."""
    require_type(rep, Representation, "the representation")
    if require_type(word, GroupWord, "the word").genus != rep.genus:
        raise InputError("word and representation have different genus")
    return _word_product(rep.letter_tables[0], word)


def relator_defect(rep: Representation) -> float:
    """Frobenius distance of the evaluated full relator from the identity;
    InputError (exit 2) unless rep is a representation."""
    require_type(rep, Representation, "the representation")
    return frob(evaluate(rep, rep.presentation.relator()) - np.eye(rep.rank))


def evaluate_words(rep: Representation, words) -> np.ndarray:
    """Images of many words at once, GroupWords or a WordBatch, shape
    (len(words), n, n).

    evaluate's left-to-right product, one stacked product per letter
    position over the rows whose word reaches it (letter_codes), so each
    image is evaluate's bit for bit.  InputError (exit 2) unless rep is a
    representation.
    """
    table = require_type(rep, Representation, "the representation").letter_tables[0]
    codes, reach, restore = letter_codes(rep.presentation, words)
    out = np.repeat(np.eye(rep.rank, dtype=complex)[None], len(codes), axis=0)
    for column, m in zip(codes.T, reach):
        out[:m] = out[:m] @ table[column[:m]]
    return out[restore]


def letter_table(images, inverses) -> np.ndarray:
    """The letter images [images, inverses] of (..., 2g, n, n) stacks,
    indexed by letter code on axis -3; letter_table(inverses, images)
    holds each letter's inverse image."""
    return np.concatenate([images, inverses], axis=-3)


def _word_product(table, word) -> np.ndarray:
    """Left-to-right product of the letter images of a word, one step per
    code, in the letter_table of one (2g, n, n) image stack or of each of
    a (k, 2g, n, n) stack."""
    out = np.eye(table.shape[-1], dtype=complex)
    for code in word.codes:
        out = out @ table[..., code, :, :]
    return out


def _invert_all(images, flavor: str) -> np.ndarray:
    """Inverses of a (..., n, n) stack of images, as a new read-only
    stack: one stacked inversion, the conjugate transpose for the unitary
    flavor."""
    inverses = (np.swapaxes(images.conj(), -1, -2) if flavor == UNITARY
                else np.linalg.inv(images))
    inverses.setflags(write=False)
    return inverses


def check_settings(flavor: str, seed, *, seed_optional: bool = False, **sizes) -> None:
    """The one settings rule of RunConfig, random_representation and Representation,
    in this order: sizes by check_size, a known flavor, a seed by check_seed;
    seed_optional lets None through, a representation that no seed drew."""
    check_size(**sizes)
    if not isinstance(flavor, str) or flavor not in FLAVORS:
        raise InputError(f"unknown flavor {flavor!r}")
    if not (seed_optional and seed is None):
        check_seed(seed)


def _has_singular_image(images) -> bool:
    """Whether an image of a (..., n, n) stack has |det| below
    SINGULAR_IMAGE: one stacked det still factors each image on its own,
    and a det that overflows is not singular."""
    with np.errstate(over="ignore"):
        return bool((np.abs(np.linalg.det(images)) < tolerances.SINGULAR_IMAGE).any())


def _check_images(images, flavor: str) -> None:
    """InputError unless every image of a finite (..., n, n) stack is
    nonsingular and, for the unitary flavor, within CONSTRUCTION of U(n)
    in the Frobenius norm."""
    if _has_singular_image(images):
        raise InputError("generator image is numerically singular")
    if flavor == UNITARY:
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = _unitarity_gaps(images)
        if not (gaps <= tolerances.CONSTRUCTION).all():
            raise InputError("generator image is not unitary within tolerance")


def _unitarity_gaps(u: np.ndarray) -> np.ndarray:
    """||U^H U - I||_F of each matrix U of a (..., n, n) stack."""
    return np.linalg.norm(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1]), axis=(-2, -1))


def _accepted_points(presentation: Presentation, stack: np.ndarray, inverses: np.ndarray,
                     flavor: str, seed: int | None) -> tuple[Representation, ...]:
    """The points of newton_project's accepted (k, 2g, n, n) image stack,
    without Representation's __post_init__: its checks run once over the
    whole stack, and the relator gate is Newton's own, on final defects
    from the same _word_product over the same images and inverses.  Each
    point holds read-only copies of its images and of its row of
    inverses, the latter as its inverse_images, so no point inverts its
    images or evaluates its relator again."""
    n = stack.shape[-1]
    check_settings(flavor, seed, seed_optional=True, rank=n)
    require_finite(stack, "generator images")
    _check_images(stack, flavor)
    points = []
    for images, inverse_images in zip(stack, inverses):
        images, inverse_images = images.copy(), inverse_images.copy()
        images.setflags(write=False)
        inverse_images.setflags(write=False)
        point = object.__new__(Representation)
        for name, value in (("presentation", presentation), ("rank", n), ("images", images),
                            ("flavor", flavor), ("seed", seed),
                            ("inverse_images", inverse_images)):
            object.__setattr__(point, name, value)
        points.append(point)
    return tuple(points)


def commutator_factor(u: np.ndarray, unitary: bool = True):
    """Factor a determinant-one matrix as a single commutator A B A^-1 B^-1,
    for one n x n matrix or each matrix of a (..., n, n) stack, as expm
    takes them: every stacked factor equals its one-matrix call bit for
    bit.

    Diagonalize u = V diag(lambda) V^-1, take A = V P V^-1 with P the
    cyclic shift and B = V E V^-1 with E diagonal solving the eigenvalue
    ratio equations around the cycle; the cycle closes because the
    eigenvalues multiply to one.  Each matrix is checked on its own: a
    determinant off one, or for the unitary flavor a matrix off U(n), is
    an InputError, and a factorization whose residual exceeds
    CONSTRUCTION (a defective or ill-conditioned matrix) a
    ConditioningError.
    """
    tol = tolerances.CONSTRUCTION
    u = square_stack(u, "matrices to factor")
    n = u.shape[-1]
    det = np.linalg.det(u)
    off = np.abs(det - 1.0) > tol
    if off.any():
        raise InputError(f"determinant {np.ravel(det)[np.ravel(off)][0]:.6g} "
                         f"is not 1 within {tol:.1e}")
    if unitary:
        if (_unitarity_gaps(u) > tol).any():
            raise InputError("matrix is not unitary within tolerance")
        # orthonormal eigenbasis even for degenerate eigenvalue clusters
        lam, v = unitary_eigenframe(u)
        lam = lam / np.abs(lam)
        v_inv = np.swapaxes(v.conj(), -1, -2)
    else:
        lam, v = np.linalg.eig(u)
        v_inv = np.linalg.inv(v)

    shift = np.zeros((n, n), dtype=complex)
    for i in range(n):
        shift[(i + 1) % n, i] = 1.0
    e = np.ones(lam.shape, dtype=complex)
    for i in range(1, n):
        e[..., i] = e[..., i - 1] / lam[..., i]
    if unitary:
        e = e / np.abs(e)
    diagonal = np.zeros((*e.shape, n), dtype=complex)
    diagonal[..., np.arange(n), np.arange(n)] = e
    a = v @ shift @ v_inv
    b = v @ diagonal @ v_inv
    residuals = np.linalg.norm(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u,
                               axis=(-2, -1))
    if (residuals > tol).any():
        raise ConditioningError(
            f"commutator factorization residual {residuals.max():.3e} exceeds {tol:.1e} "
            "(defective or ill-conditioned input)"
        )
    return a, b


def check_seed(seed: int) -> None:
    """Seeds are unsigned 64-bit integers, from the CLI, the API and files alike."""
    if not is_integer(seed) or not 0 <= seed < 2 ** 64:
        raise InputError("seed must be an unsigned 64-bit integer")


def random_representation(genus: int, rank: int, flavor: str = UNITARY,
                          seed: int = 0) -> Representation:
    """Seeded representation with the relator exact by construction.

    For rank one all images commute, so every generator image is a free
    draw.  Otherwise the first g-1 handles are Haar/Ginibre draws and the
    last handle is a commutator factorization of the inverse partial
    relator image, rescaled to determinant one.
    """
    check_settings(flavor, seed, genus=genus, rank=rank)
    pres = Presentation(genus)
    rng = np.random.default_rng(seed)
    n = rank

    def draw():
        if flavor == UNITARY:
            return haar_unitary(rng, n)
        return expm(0.7 * ginibre(rng, n))

    if n == 1:
        return Representation(pres, n, [draw() for _ in range(2 * genus)], flavor,
                              seed=seed)

    # the last handle starts as the identity, so the relator reads the
    # partial relator of the first g-1 handles
    images = np.array([draw() for _ in range(2 * (genus - 1))] + [np.eye(n)] * 2,
                      dtype=complex)
    partial = _word_product(letter_table(images, _invert_all(images, flavor)),
                            pres.relator(genus - 1))
    target = np.linalg.inv(partial)
    det = np.linalg.det(target)
    target = target * det ** (-1.0 / n)
    images[-2:] = commutator_factor(target, unitary=(flavor == UNITARY))
    return Representation(pres, n, images, flavor, seed=seed)


def coboundary_matrix(rep: Representation) -> np.ndarray:
    """Matrix of v -> delta_v on column-stacked coordinates, shape (2g n^2, n^2):
    block i is Ad(rho(x_i)) - I, delta_v on x_i, from one stacked ad_matrix.
    Its column space is B1, and its nullspace the commutant of the images."""
    n = require_type(rep, Representation, "the representation").rank
    delta = ad_matrix(rep.images, rep.inverse_images)
    diagonal = np.arange(n * n)
    delta[:, diagonal, diagonal] -= 1
    return delta.reshape(-1, n * n)


def commutant_dimension(rep: Representation) -> int:
    """Dimension of the algebra commuting with every generator image.

    The nullity of coboundary_matrix, n^2 less the rank decided in
    rep.coboundary_svd: v commutes with every image exactly when
    delta_v = 0.  The representation is irreducible exactly when this is one.
    """
    rep = require_type(rep, Representation, "the representation")
    return rep.rank ** 2 - rep.coboundary_svd[0]


def relator_tangent_matrix(presentation: Presentation, images, inverses) -> np.ndarray:
    """Linearization of the relator evaluation map around given images.

    Perturbing images as exp(t D_x) g_x changes the relator image, to
    first order, by L(D) rho(R) where L is the group-ring pairing of the
    Fox derivatives of the relator with the D_x under conjugation.  The
    returned matrix represents L on column-stacked coordinates, shape
    (n^2, 2g n^2), or one such matrix per tuple of a (k, 2g, n, n) image
    stack, read with the given inverses.  The same matrix is the cocycle
    relator constraint: fox_jacobian over the relator's relator_fox_terms.
    """
    return fox_jacobian(np.asarray(images), np.asarray(inverses), presentation.relator(),
                        presentation.relator_fox_terms)


def fox_jacobian(images, inverses, word: GroupWord, terms) -> np.ndarray:
    """Sum over Fox terms (generator, length, coeff) of word of coeff *
    Ad(image of word's prefix of that length), in the column block of the
    generator: on its Fox terms, the matrix of chi.flat -> vec chi(word).
    One walk keeps every prefix image and its inverse.  Leading axes of
    the (..., 2g, n, n) images broadcast.  Terms are added one by one,
    each into its column block of the output layout, so the final reshape
    is a view: stacking all their Ad raised the peak memory of dims at
    n = 14 by 1.4 MB, and a transposed copy of the whole Jacobian made
    it 2.6 times slower at (2,14)."""
    *lead, count, n, _ = images.shape
    table, inverse_table = letter_table(images, inverses), letter_table(inverses, images)
    prefix = prefix_inv = np.eye(n, dtype=complex)
    prefixes, prefix_invs = [prefix], [prefix_inv]
    for code in word.codes:
        prefix = prefix @ table[..., code, :, :]
        prefix_inv = inverse_table[..., code, :, :] @ prefix_inv
        prefixes.append(prefix)
        prefix_invs.append(prefix_inv)
    # side by side: column block gen of row r is blocks[..., r, gen, :]
    blocks = np.zeros((*lead, n * n, count, n * n), dtype=complex)
    for gen, length, coeff in terms:
        blocks[..., :, gen, :] += coeff * ad_matrix(prefixes[length], prefix_invs[length])
    return blocks.reshape(*lead, n * n, count * n * n)


def newton_project(presentation: Presentation, images, flavor: str,
                   seed: int | None = None) -> tuple[Representation, ...]:
    """Project stacked approximate image tuples back onto the relator variety.

    Gauss-Newton on the relator defect: each step solves the linearized
    relator constraint in the minimum-norm sense (a gauge slice orthogonal
    to the nullspace of the linearization, hence to the conjugation
    orbit), applies exp(D_x) g_x, and in the unitary flavor re-projects
    every image to the unitary group by polar decomposition.

    images is a (k, 2g, n, n) stack of tuples, projected to a tuple of k
    representations; any other shape, or values that are not numbers
    (linalg.complex_array), is an InputError.  The tuples iterate
    together, each on its own schedule of trust check, target, stall and
    step limit: an iteration makes one relator_tangent_matrix call over
    the stack, on the inverses kept with the accepted tuples, one stacked
    exponential and polar projection, and one stacked inversion and word
    product for the relator images of the candidates, whose defects are
    one frobs call.  The least-squares step is taken per tuple, so each
    result is bit for bit that of projecting its tuple alone.  A NaN
    defect (finite images whose relator product overflows) is neither
    trusted nor an improvement.  ConvergenceError names the first tuple, in order, that
    leaves the trust region or does not converge.  The points carry the
    inverses Newton kept as their inverse_images (_accepted_points).
    """
    require_type(presentation, Presentation, "the presentation")
    check_settings(flavor, seed, seed_optional=True)
    stack = complex_array(images, "image tuples")
    if stack.ndim != 4 or stack.shape[1:3] != (presentation.generator_count, stack.shape[3]):
        raise InputError(f"newton_project expects a (k, 2g, n, n) stack of image "
                         f"tuples, got shape {stack.shape}")
    require_finite(stack, "image tuples")
    if _has_singular_image(stack):
        raise InputError("image tuples have a numerically singular image")
    n = stack.shape[-1]
    eye = np.eye(n)
    relator = presentation.relator()

    def relator_images(stack, inverses):
        # finite images may overflow the product: their defect is NaN,
        # which is neither trusted nor an improvement
        with np.errstate(over="ignore", invalid="ignore"):
            r = _word_product(letter_table(stack, inverses), relator)
            return r, frobs(r - eye)

    inverses = _invert_all(stack, flavor).copy()  # updated with each accepted tuple
    r, defects = relator_images(stack, inverses)
    trusted = [d <= tolerances.NEWTON_TRUST_DEFECT for d in defects]
    live = [i for i, ok in enumerate(trusted) if ok]
    for _ in range(tolerances.NEWTON_STEP_LIMIT):
        live = [i for i in live if not defects[i] <= tolerances.NEWTON_TARGET]
        if not live:
            break
        current, current_r = stack[live], r[live]
        rhs = -((current_r - eye) @ np.linalg.inv(current_r))
        jac = relator_tangent_matrix(presentation, current, inverses[live])
        steps = np.array([np.linalg.lstsq(j, vec(b), rcond=tolerances.SVD_RELATIVE)[0]
                          for j, b in zip(jac, rhs)])
        # block i of a step is D_i column-stacked, so the rows of its
        # reshape are the columns of D_i
        candidate = expm(steps.reshape(len(live), -1, n, n).swapaxes(-1, -2)) @ current
        if flavor == UNITARY:
            candidate = polar_unitary(candidate)
        new_inverses = _invert_all(candidate, flavor)
        new_r, new_defects = relator_images(candidate, new_inverses)
        improved = []
        for i, c, c_inv, m, d in zip(live, candidate, new_inverses, new_r, new_defects):
            if d < defects[i]:  # else stalled; keep the best iterate seen
                stack[i], inverses[i], r[i], defects[i] = c, c_inv, m, d
                improved.append(i)
        live = improved

    for ok, defect in zip(trusted, defects):
        if not ok:
            raise ConvergenceError(
                f"input defect {defect:.3e} outside the Newton trust region "
                f"{tolerances.NEWTON_TRUST_DEFECT:.1e}", defect=defect)
        if not defect <= tolerances.CONSTRUCTION:
            raise ConvergenceError(
                f"Newton projection did not converge (final defect {defect:.3e})",
                defect=defect)
    return _accepted_points(presentation, stack, inverses, flavor, seed)


def conjugate_representation(rep: Representation, c: np.ndarray) -> Representation:
    """Conjugate every generator image by a fixed invertible matrix.

    The result is a general-linear representation whatever the base
    flavor: conjugation by a non-unitary matrix leaves U(n).  InputError
    (exit 2) unless c is a finite n x n matrix with |det c| above
    SINGULAR_IMAGE * ||c||_2^n.  The cut is relative: |det c| / ||c||_2^n
    is the product of the singular values over the n-th power of the
    largest, so it refuses a near-singular c at any scale (the zero
    matrix included) and accepts a small scalar matrix.  InputError too
    unless rep is a representation.
    """
    require_type(rep, Representation, "the representation")
    c = generator_stack([c], 1, rep.rank, "conjugators")[0]
    if abs(np.linalg.det(c)) <= tolerances.SINGULAR_IMAGE * np.linalg.norm(c, 2) ** rep.rank:
        raise InputError("conjugator is numerically singular")
    return Representation(rep.presentation, rep.rank, c @ rep.images @ np.linalg.inv(c),
                          GENERAL_LINEAR, seed=rep.seed)
