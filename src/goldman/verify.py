"""The bundled property suite: every standing invariant, one line each.

A check is a measurement of one run and one stream: check_x(run, rng)
returns (samples, max residual, threshold), where the run (SuiteRun),
built from the configuration, shares its seeded objects among the
checks.  The runner, run_check, names, seeds and judges it: the check's
ALL_CHECKS row is the one place it is named, its stream is
run.rng(name), and it reports (name, samples, max residual, threshold,
verdict).  Checks never abort the suite; the caller turns any failure
into a nonzero exit status.

The checks that pair many cocycles over one fixed base (cup-dual-agreement,
class-invariance, antisymmetry, bilinearity, conjugation-equivariance)
evaluate the closed form through the base's cached matrix W,
omega(x, y) = x.flat @ W @ y.flat.  intersection-form evaluates the
closed form without W, all its pairs in one pairing_duals call, checked
against the cup product and the hand formula.

These five checks, commutator-factor, star-involution and
coboundary-containment stack their samples: complex_gaussians draws the
samples' numbers at once, in per-sample order, and omega, the cup
product, the commutator factors, the star involution and the
coboundaries are evaluated over whole stacks, bit for bit the per-sample
loops.  Moduli are np.hypot, which rounds as Python's abs(complex) does;
bilinearity's scalar right-hand sides stay in Python complex arithmetic.
Norms of a stack of matrices are one linalg.frobs call, bit for bit frob
matrix by matrix.  newton-projection and file-round-trip draw each image
tuple in one complex_gaussians call, the per-image stream.

Mutation mode (config.mutate = "dual-sign") deliberately flips a sign in
the dual-generator pairing (the b_k column blocks of the pairing matrix
W) so the cup/dual cross-check must fail; it exists to demonstrate that
the suite catches exactly that class of error.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import fileio, tolerances
from .charts import (FLAT, TRIVIALIZATION, Chart, closedness_check, closedness_floors,
                     closedness_residuals, convergence_order, deform, deformation_correction,
                     rh_differential, rh_word_value)
from .cocycles import (Cocycle, CocycleBasis, CocycleStack, anti_hermitian_part,
                       coboundary, cocycle_basis, cocycle_law_residuals,
                       expected_h1_dimension, linear_combination, random_cocycle, real_locus_bases,
                       relator_residual, stack_cocycles, star_involution)
from .config import RunConfig
from .errors import ConvergenceError
from .linalg import (complex_gaussian, complex_gaussians, expm, frobs, haar_stack, haar_unitary,
                     tuple_distance)
from .pairing import (gram, pairing_cup, pairing_duals, symplectic_basis,
                      unitary_restriction_check)
from .reps import (GENERAL_LINEAR, UNITARY, Representation,
                   commutant_dimension, commutator_factor, conjugate_representation,
                   evaluate_words, newton_project, random_representation,
                   relator_defect)
from .words import (GroupRingElement, GroupWord, Presentation, WordBatch,
                    anti_involution, commutator, fox_derivative, join_batches)

GRID = tuple((g, n) for g in (2, 3) for n in (1, 2, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    max_residual: float
    threshold: float
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"check {self.name}: samples={self.samples} "
                f"max-residual={self.max_residual:.6e} "
                f"threshold={self.threshold:.6e} verdict={verdict}")


# what a check measures: (samples, max residual, threshold)
Measurement = tuple[int, float, float]


def _worst(residuals) -> float:
    """The largest of residuals, 0.0 for none, and NaN when any is NaN,
    so that run_check fails the check: max() keeps its running value when
    a comparison with NaN is false, and would drop a NaN residual.
    math.isnan, as np.isnan on a Python float costs ten times more."""
    residuals = list(residuals)
    if any(math.isnan(r) for r in residuals):
        return np.nan
    return max([0.0, *residuals])


MAX_WORD_LENGTH = 8


def _letter_rows(pres: Presentation, rng, lengths: np.ndarray, width: int) -> np.ndarray:
    """The letter codes of words of the given lengths, one row each padded
    with 2c to width: every letter's generator in one draw, then every
    letter's sign in one (1 for x_i, 0 for x_i^-1)."""
    count = pres.generator_count
    total = int(lengths.sum())
    generators = rng.integers(0, count, size=total)
    signs = rng.integers(0, 2, size=total)
    inside = np.arange(width) < lengths[:, None]
    rows = np.full(inside.shape, 2 * count)
    rows[inside] = generators + count * (1 - signs)
    return rows


def _random_batch(pres: Presentation, rng, count: int, draws: int = 1) -> WordBatch:
    """draws batches of count random words of 0 to MAX_WORD_LENGTH letters,
    one after another: each draws every length in one call, then their
    letters (_letter_rows).  Every word of every draw is reduced at once."""
    raw = []
    for _ in range(draws):
        lengths = rng.integers(0, MAX_WORD_LENGTH + 1, size=count)
        raw.append((_letter_rows(pres, rng, lengths, MAX_WORD_LENGTH), lengths))
    rows, lengths = (np.concatenate(part) for part in zip(*raw))
    return pres.reduce_batch(rows, lengths)


def _random_words(pres: Presentation, rng, count: int) -> list[GroupWord]:
    """count random words (_random_batch), each a GroupWord."""
    return _random_batch(pres, rng, count).words()


def _random_pairs(pres: Presentation, rng, count: int,
                  draws: int = 1) -> tuple[WordBatch, WordBatch]:
    """draws batches of count pairs (u, v) of random words, each from one
    draw of 2 count words (_random_batch), u and v interleaved: the u and
    the v of every pair as two batches."""
    words = _random_batch(pres, rng, 2 * count, draws)
    return words[0::2], words[1::2]


def _random_ring_elements(pres: Presentation, rng, count: int) -> list[GroupRingElement]:
    """count random group ring elements of 1 to 3 terms: every term count in
    one draw, every coefficient in one (0 read as 1), then every term's
    word in one batch."""
    term_counts = rng.integers(1, 4, size=count).tolist()
    coeffs = rng.integers(-3, 4, size=sum(term_counts))
    terms = iter(zip(_random_words(pres, rng, len(coeffs)),
                     np.where(coeffs == 0, 1, coeffs).tolist()))
    out = []
    for term_count in term_counts:
        element = GroupRingElement.zero(pres.genus)
        for word, coeff in itertools.islice(terms, term_count):
            element = element + GroupRingElement.from_word(word, coeff)
        out.append(element)
    return out


def _trivial_rank_one(genus: int) -> Representation:
    """Rank-one identity images: the trivial action at the given genus."""
    return Representation(Presentation(genus), 1, np.ones((2 * genus, 1, 1)), UNITARY)


@dataclass(frozen=True, eq=False)
class SuiteRun:
    """One verify run: the seeded base point, its cocycle basis, its
    real-locus bases, the size grid and the grid's bases, each built on
    first use and kept, so skipped checks build nothing and a
    construction error surfaces in the first check that needs the
    object."""

    config: RunConfig

    @cached_property
    def rep(self) -> Representation:
        return self.config.representation()

    @cached_property
    def basis(self) -> CocycleBasis:
        return cocycle_basis(self.rep)

    @cached_property
    def real_locus(self):
        """(z1_real, h1_real) of the basis; unitary runs only."""
        return real_locus_bases(self.basis)

    @cached_property
    def grid(self) -> tuple[Representation, ...]:
        """The seeded unitary representation at every GRID size."""
        return tuple(random_representation(g, n, UNITARY, seed=self.config.seed)
                     for g, n in GRID)

    @cached_property
    def grid_bases(self) -> tuple[CocycleBasis, ...]:
        """The cocycle basis of every grid point: one rank decision each."""
        return tuple(cocycle_basis(rep) for rep in self.grid)

    def rng(self, name: str) -> np.random.Generator:
        """The deterministic random stream of one check."""
        return np.random.default_rng([self.config.seed & 0xFFFFFFFF,
                                      zlib.crc32(name.encode())])


# ----------------------------------------------------------------- word core

def check_word_reduction_confluence(run: SuiteRun, rng) -> Measurement:
    """Random-order cancellation agrees with the eager reducer."""
    pres = Presentation(run.config.genus)
    count = pres.generator_count
    failures = 0
    samples = 100
    # the letter lists in one batch; each cancellation site is drawn from
    # the list as reduced so far
    lengths = rng.integers(0, 14, size=samples)
    for row, length in zip(_letter_rows(pres, rng, lengths, 13).tolist(), lengths.tolist()):
        letters = [(code % count, 1 if code < count else -1) for code in row[:length]]
        eager = pres.word(letters)
        work = list(letters)
        while True:
            sites = [i for i in range(len(work) - 1)
                     if work[i][0] == work[i + 1][0]
                     and work[i][1] == -work[i + 1][1]]
            if not sites:
                break
            i = sites[int(rng.integers(0, len(sites)))]
            del work[i:i + 2]
        if pres.word(work) != eager:
            failures += 1
    return samples, failures, 0.0


def check_fox_product_rule(run: SuiteRun, rng) -> Measurement:
    """d(uv) = du + u dv on 100 random pairs per generator, one draw each."""
    pres = Presentation(run.config.genus)
    count = pres.generator_count
    failures = 0
    left, right = _random_pairs(pres, rng, 100, count)
    for pair, (uv, u, v) in enumerate(zip(*(batch.words()
                                            for batch in (left * right, left, right)))):
        index = pair // 100  # one draw of 100 pairs per generator
        if fox_derivative(uv, index) != fox_derivative(u, index) + u * fox_derivative(v, index):
            failures += 1
    return count * 100, failures, 0.0


def check_fox_closed_form(run: SuiteRun, rng) -> Measurement:
    """Recursive Fox derivative of the relator vs the partial-product forms."""
    failures = 0
    samples = 0
    for genus in (1, 2, 3):
        pres = Presentation(genus)
        for k in range(1, genus + 1):
            r_prev, r_k = pres.relator(k - 1), pres.relator(k)
            closed_a = (GroupRingElement.from_word(r_prev)
                        - GroupRingElement.from_word(r_k * pres.b(k)))
            closed_b = (GroupRingElement.from_word(r_prev * pres.a(k))
                        - GroupRingElement.from_word(r_k))
            samples += 2
            if pres.relator_derivative(2 * (k - 1)) != closed_a:
                failures += 1
            if pres.relator_derivative(2 * (k - 1) + 1) != closed_b:
                failures += 1
    return samples, failures, 0.0


def check_dual_generator_identities(run: SuiteRun, rng) -> Measurement:
    """Dual commutators telescope to inverse partial relators; the inverse
    generators are recovered from the dual side."""
    failures = 0
    samples = 0
    for genus in (1, 2, 3):
        pres = Presentation(genus)
        duals = pres.dual_generators()
        script_r = pres.identity()
        for k in range(1, genus + 1):
            alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
            samples += 3
            if commutator(alpha, beta) != pres.relator(k - 1) * pres.relator(k).inverse():
                failures += 1
            prev_script_r = script_r
            script_r = script_r * commutator(alpha, beta)
            if script_r != pres.relator(k).inverse():
                failures += 1
            if pres.a(k).inverse() != script_r * beta * prev_script_r.inverse():
                failures += 1
            samples += 1
            if pres.b(k).inverse() != prev_script_r * alpha * script_r.inverse():
                failures += 1
    return samples, failures, 0.0


def check_anti_involution(run: SuiteRun, rng) -> Measurement:
    pres = Presentation(run.config.genus)
    failures = 0
    samples = 50
    elements = _random_ring_elements(pres, rng, 2 * samples)
    for e, f in zip(elements[0::2], elements[1::2]):
        if anti_involution(anti_involution(e)) != e:
            failures += 1
        if anti_involution(e * f) != anti_involution(f) * anti_involution(e):
            failures += 1
        if anti_involution(e + f) != anti_involution(e) + anti_involution(f):
            failures += 1
    return samples, failures, 0.0


def check_two_cycle_shape(run: SuiteRun, rng) -> Measurement:
    failures = 0
    for genus in (1, 2, 3):
        pres = Presentation(genus)
        cycle = pres.fundamental_two_cycle()
        if len(cycle) != 2 * genus:
            failures += 1
        for coefficient, generator in cycle.pairs:
            if len(generator) != 1:
                failures += 1
    return 3, failures, 0.0


# ------------------------------------------------------------------ rep core

def check_evaluate_multiplicative(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    pres = rep.presentation
    samples = 100
    u, v = _random_pairs(pres, rng, samples)
    images = evaluate_words(rep, join_batches([u * v, u, v]))
    uv, u, v = images[:samples], images[samples:2 * samples], images[2 * samples:]
    rhs = u @ v
    worst = _worst(gap / max(1.0, size) for gap, size in zip(frobs(uv - rhs), frobs(rhs)))
    return samples, worst, 1e-12


def check_partial_relator_determinants(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    images = evaluate_words(rep, [rep.presentation.relator(k) for k in range(rep.genus + 1)])
    worst = _worst(np.abs(np.linalg.det(images) - 1.0).tolist())
    return rep.genus + 1, worst, tolerances.CONSTRUCTION


def check_commutator_factor(run: SuiteRun, rng) -> Measurement:
    """Special unitary and general determinant-one matrices at n = 2, 3, 4
    factor as commutators: per n, 17 rounds of three Ginibre matrices (a
    unitary's, a general matrix's and its perturbation), each kind
    factored as one stack."""
    residuals = []
    samples = 0
    for n in (2, 3, 4):
        unitary_draw, general_draw, noise = complex_gaussians(rng, 17, ((n, n),) * 3)
        for m, unitary in ((haar_stack(unitary_draw), True),
                           (haar_stack(general_draw) + 0.3 * noise, False)):
            m = m * (np.linalg.det(m) ** (-1.0 / n))[:, None, None]
            a, b = commutator_factor(m, unitary=unitary)
            residuals.extend(frobs(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - m))
            samples += len(m)
    return samples, _worst(residuals), tolerances.CONSTRUCTION


def check_representation_reproducibility(run: SuiteRun, rng) -> Measurement:
    one = run.rep
    two = run.config.representation()  # an independent fresh build
    identical = (np.array_equal(one.images, two.images)
                 and one.fingerprint == two.fingerprint)
    return 2, 0.0 if identical else 1.0, 0.0


def check_construction_quality(run: SuiteRun, rng) -> Measurement:
    """Relator defect and irreducibility over the seeded size grid."""
    reps = [basis.base for basis in run.grid_bases]
    if any(commutant_dimension(rep) != 1 for rep in reps):
        return len(reps), 1.0, 0.0
    return len(reps), _worst(map(relator_defect, reps)), 1e-12


def check_newton_projection(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    n = rep.rank
    failures = 0

    (projected,) = newton_project(rep.presentation, rep.images[None], rep.flavor)
    if not np.array_equal(projected.images, rep.images):
        failures += 1

    count = rep.presentation.generator_count
    (z,) = complex_gaussians(rng, count, ((n, n),))
    if rep.flavor == UNITARY:
        z = (z - np.swapaxes(z.conj(), -1, -2)) / 2
    noisy = (np.eye(n) + 1e-3 * z) @ rep.images
    (repaired,) = newton_project(rep.presentation, noisy[None], rep.flavor)
    if relator_defect(repaired) > tolerances.CONSTRUCTION:
        failures += 1

    samples = 2
    if n > 1:  # rank one is abelian: every image tuple satisfies the relator
        samples = 3
        far = haar_stack(complex_gaussians(rng, count, ((n, n),))[0])
        try:
            newton_project(rep.presentation, far[None], UNITARY)
        except ConvergenceError:
            pass
        else:
            failures += 1
    return samples, failures, 0.0


# -------------------------------------------------------------- cocycle core

def _cocycle_law_residuals(run: SuiteRun, rng) -> list[float]:
    """cocycle_law_residuals of each basis cocycle on its own 100 random
    pairs, one draw each: every draw is reduced at once, and each
    cocycle's pairs are 100 rows of the two batches."""
    basis = run.basis
    u, v = _random_pairs(basis.base.presentation, rng, 100, len(basis.basis))
    return [residual for start, chi in zip(range(0, len(u), 100), basis.basis)
            for residual in cocycle_law_residuals(chi, (u[start:start + 100],
                                                        v[start:start + 100]))]


def check_cocycle_law_on_basis(run: SuiteRun, rng) -> Measurement:
    residuals = _cocycle_law_residuals(run, rng)
    return len(residuals), _worst(residuals), run.config.tolerance("verification")


def check_dimension_formula(run: SuiteRun, rng) -> Measurement:
    failures = 0
    for (g, n), basis in zip(GRID, run.grid_bases):
        dims = basis.dims
        if dims[2] != expected_h1_dimension(g, n) or dims[0] - dims[1] != dims[2]:
            failures += 1
    return len(GRID), failures, 0.0


def check_coboundary_containment(run: SuiteRun, rng) -> Measurement:
    """Coboundaries of 20 random matrices, one stack, satisfy the relator
    and lie in Z1: each is projected on the Z1 frame as a stacked
    matrix-vector product, as one coboundary alone would be."""
    rep, basis = run.rep, run.basis
    n = rep.rank
    frame = basis.z1_frame
    (v,) = complex_gaussians(rng, 20, ((n, n),))
    deltas = coboundary(v, rep)
    columns = deltas.flat[:, :, None]
    residuals = deltas.flat - (frame @ (frame.conj().T @ columns))[:, :, 0]
    return 20, _worst(relator_residual(deltas) + frobs(residuals)), 1e-10


def check_star_involution(run: SuiteRun, rng) -> Measurement:
    """The star involution squares to the identity, maps delta_v to
    delta_(v*) and negates anti-Hermitian parts, over 20 samples of a
    random cocycle and a random matrix drawn as one stack each."""
    rep, basis = run.rep, run.basis
    n = rep.rank
    chis, v = _z1_samples(basis, rng, 20, 1, (n, n))
    again = star_involution(star_involution(chis))
    lhs = star_involution(coboundary(v, rep))
    rhs = coboundary(np.swapaxes(v.conj(), -1, -2), rep)
    anti = anti_hermitian_part(chis)
    flipped = star_involution(anti)
    differences = np.concatenate([again.values - chis.values, lhs.values - rhs.values,
                                  flipped.values + anti.values])
    return 20, _worst(frobs(differences.reshape(-1, n, n))), 1e-12


def check_real_locus_dimensions(run: SuiteRun, rng) -> Measurement:
    basis = run.basis
    z1_real, h1_real = run.real_locus
    ok = len(z1_real) == basis.dims[0] and len(h1_real) == basis.dims[2]
    return 2, 0.0 if ok else 1.0, 0.0


# -------------------------------------------------------------- goldman core

def _dual_pairing(rep: Representation, flip_b: bool = False):
    """omega at one fixed base through its cached matrix W, row by row
    over two CocycleStacks of one length: omega(x, y) = x.flat @ W @ y.flat
    for each pair of rows, as stacked (1, N) row products, which equal the
    one-pair products bit for bit (a 2-D X @ W would not).  flip_b is the
    deliberate error of --mutate dual-sign: the handle-b terms enter with
    a flipped sign, i.e. a copy of W has its b_k column blocks negated."""
    w = rep.dual_form
    if flip_b:
        w = np.array(w)
        n2 = rep.rank ** 2
        for k in range(rep.genus):
            w[:, (2 * k + 1) * n2:(2 * k + 2) * n2] *= -1
    return lambda xs, ys: ((xs.flat[:, None, :] @ w) @ ys.flat[:, :, None])[:, 0, 0]


def _moduli(z: np.ndarray) -> list[float]:
    """|z| of each entry as Python's abs(complex) rounds it, which np.abs
    of a complex array need not."""
    return np.hypot(z.real, z.imag).tolist()


def _z1_samples(basis: CocycleBasis, rng, samples: int, cocycles: int, *shapes):
    """samples rounds, as the per-sample loops drew them, of `cocycles`
    random_cocycle draws from the Z1 basis and then one complex_gaussian
    of each shape: a CocycleStack per cocycle draw, then a
    (samples, *shape) array per shape."""
    pool = basis.basis
    draws = complex_gaussians(rng, samples, (len(pool),) * cocycles + shapes)
    return (*(linear_combination(basis.base, c, pool) for c in draws[:cocycles]),
            *draws[cocycles:])


def check_cup_dual_agreement(run: SuiteRun, rng) -> Measurement:
    omega = _dual_pairing(run.rep, flip_b=run.config.mutate == "dual-sign")
    samples = 100
    chi1s, chi2s = _z1_samples(run.basis, rng, samples, 2)
    worst = _worst(_moduli(omega(chi1s, chi2s) - pairing_cup(chi1s, chi2s)))
    return samples, worst, 1e-10


def check_class_invariance(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    omega = _dual_pairing(rep)
    samples = 100
    chi1s, chi2s, v = _z1_samples(run.basis, rng, samples, 2, (rep.rank, rep.rank))
    deltas = coboundary(v, rep).values
    base_value = omega(chi1s, chi2s)
    left = omega(CocycleStack(rep, chi1s.values + deltas), chi2s)
    right = omega(chi1s, CocycleStack(rep, chi2s.values + deltas))
    return samples, _worst(_moduli(left - base_value) + _moduli(right - base_value)), 1e-9


def check_antisymmetry(run: SuiteRun, rng) -> Measurement:
    omega = _dual_pairing(run.rep)
    samples = 100
    chi1s, chi2s = _z1_samples(run.basis, rng, samples, 2)
    return samples, _worst(_moduli(omega(chi1s, chi2s) + omega(chi2s, chi1s))), 1e-9


def check_bilinearity(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    omega = _dual_pairing(rep)
    samples = 25
    chi1s, chi2s, chi3s, s = _z1_samples(run.basis, rng, samples, 3, ())
    scale = s[:, None, None, None]
    left = omega(CocycleStack(rep, scale * chi1s.values + chi3s.values), chi2s)
    right = omega(chi1s, CocycleStack(rep, scale * chi2s.values + chi3s.values))
    residuals = []
    # s omega(x, y) + omega(z, y) in Python complex arithmetic, sample by sample
    for scalar, lhs1, lhs2, xy, zy, xz in zip(
            s.tolist(), left.tolist(), right.tolist(), omega(chi1s, chi2s).tolist(),
            omega(chi3s, chi2s).tolist(), omega(chi1s, chi3s).tolist()):
        residuals += [abs(lhs1 - (scalar * xy + zy)), abs(lhs2 - (scalar * xy + xz))]
    return samples, _worst(residuals), 1e-9


def _conjugator(rng, n: int) -> np.ndarray:
    """A non-unitary conjugator of condition number at most e^0.8: a Haar
    unitary times diag(exp(0.4 u)), u uniform in [-1, 1]^n.  The check's
    absolute threshold needs the bound: roundoff grows with cond(c)."""
    return haar_unitary(rng, n) * np.exp(0.4 * rng.uniform(-1, 1, n))


def check_conjugation_equivariance(run: SuiteRun, rng) -> Measurement:
    rep, basis = run.rep, run.basis
    c = _conjugator(rng, rep.rank)
    c_inv = np.linalg.inv(c)
    moved = conjugate_representation(rep, c)
    omega, omega_moved = _dual_pairing(rep), _dual_pairing(moved)
    samples = 25
    chi1s, chi2s = _z1_samples(basis, rng, samples, 2)
    moved1, moved2 = (CocycleStack(moved, c @ chis.values @ c_inv) for chis in (chi1s, chi2s))
    worst = _worst(_moduli(omega_moved(moved1, moved2) - omega(chi1s, chi2s)))
    return samples, worst, 1e-9


def check_gram_structure(run: SuiteRun, rng) -> Measurement:
    basis = run.basis
    g_complement = gram(basis.h1_complement)
    rank, margin = g_complement.rank()
    ok = (g_complement.skewness_residual <= run.config.tolerance("verification")
          and rank == basis.dims[2] and margin >= 1e3)
    g_full = gram(basis.basis)
    rank_full, _ = g_full.rank()
    ok = ok and rank_full == basis.dims[2]
    residual = g_complement.skewness_residual if ok else 1.0
    return 2, residual, run.config.tolerance("verification")


def check_intersection_form(run: SuiteRun, rng) -> Measurement:
    """Trivial rank-one action: the Gram of indicator cocycles is the
    standard intersection form, and matches the hand closed form."""
    genus = max(run.config.genus, 2)
    rep = _trivial_rank_one(genus)
    count = 2 * genus
    indicators = [Cocycle(rep, row.reshape(count, 1, 1)) for row in np.eye(count)]
    expected = np.zeros((count, count))
    for k in range(genus):
        expected[2 * k, 2 * k + 1] = 1.0
        expected[2 * k + 1, 2 * k] = -1.0
    # every ordered pair in one stacked cup call, row i * count + j
    cups = pairing_cup(stack_cocycles([chi for chi in indicators for _ in indicators]),
                       stack_cocycles(indicators * count)).reshape(count, count)
    xs, ys = complex_gaussians(rng, 20, (count, count))
    randoms = [(Cocycle(rep, x.reshape(count, 1, 1)), Cocycle(rep, y.reshape(count, 1, 1)))
               for x, y in zip(xs, ys)]
    # the indicator pairs, then the random ones, in one stacked closed form
    duals = pairing_duals([(chi1, chi2) for chi1 in indicators for chi2 in indicators]
                          + randoms).tolist()
    residuals = []
    for i in range(count):
        for j in range(count):
            residuals += [abs(duals[i * count + j] - expected[i, j]),
                          abs(cups[i, j] - expected[i, j])]
    for x, y, dual in zip(xs, ys, duals[count * count:]):
        hand = sum(x[2 * k] * y[2 * k + 1] - x[2 * k + 1] * y[2 * k]
                   for k in range(genus))
        residuals.append(abs(dual - hand))
    return count * count + 20, _worst(residuals), 1e-12


def check_symplectic_basis(run: SuiteRun, rng) -> Measurement:
    basis = run.basis
    sb = symplectic_basis(gram(basis.h1_complement))
    return ((2 * sb.pair_count) ** 2, sb.normal_form_residual,
            run.config.tolerance("verification"))


def check_unitary_locus(run: SuiteRun, rng) -> Measurement:
    _, h1_real = run.real_locus
    report = unitary_restriction_check(h1_real)
    residual = report.max_imaginary if report.passed else 1.0
    return len(h1_real) ** 2, residual, tolerances.UNITARY_IMAGINARY


# ------------------------------------------------------------ chart geometry

def _unit_direction(run: SuiteRun, rng) -> Cocycle:
    chi = random_cocycle(run.basis, rng, space="h1")
    return chi * (1.0 / chi.norm())


def _order_result(steps, values, window=0.3, floors=None) -> Measurement:
    """Fitted log-log slope against order two.  A flat ladder passes with
    zero residual: the bound holds with constant zero (the abelian
    rank-one case).  A ladder with no slope fails with a NaN residual."""
    order = convergence_order(steps, values, floors)
    residual = 0.0 if order is FLAT else np.nan if order is None else abs(order - 2.0)
    return len(steps), residual, window


def check_deformation_correction_order(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    chi = _unit_direction(run, rng)
    steps = [1e-2, 1e-3, 1e-4]
    chart = Chart(center=rep, frame=(chi,))
    chart.points([(t,) for t in steps])
    corrections = [deformation_correction(chart, (t,)) for t in steps]
    return _order_result(steps, corrections)


def check_coboundary_deformation(run: SuiteRun, rng) -> Measurement:
    """Deforming along a coboundary is conjugation to first order."""
    rep = run.rep
    n = rep.rank
    v = complex_gaussian(rng, (n, n))
    if rep.flavor == UNITARY:
        v = (v - v.conj().T) / 2
    v = v / max(1.0, coboundary(v, rep).norm())
    delta = coboundary(v, rep)
    steps = [1e-2, 1e-3]
    distances = []
    for t, moved in zip(steps, Chart(rep, (delta,)).points([(t,) for t in steps])):
        conj = expm(-t * v)
        conj_inv = expm(t * v)
        distances.append(tuple_distance(moved.images, conj @ rep.images @ conj_inv))
    return _order_result(steps, distances)


def _curve_points(chart: Chart, steps):
    """(h, point at +h, point at -h) for each step of a one-axis chart,
    every point retracted by one Chart.points call."""
    ladder = chart.points([(s,) for h in steps for s in (h, -h)])
    return list(zip(steps, ladder[0::2], ladder[1::2]))


def check_rh_round_trip(run: SuiteRun, rng) -> Measurement:
    rep, basis = run.rep, run.basis
    chi = _unit_direction(run, rng)
    chart = Chart(center=rep, frame=(chi,))
    target = basis.h1_coordinates(chi)
    steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    errors = [float(np.linalg.norm(basis.h1_coordinates(rh_differential(
        rep, plus, minus, h)) - target)) for h, plus, minus in _curve_points(chart, steps)]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    return len(steps), _worst(abs(r - 4.0) for r in ratios), 0.5


def check_rh_conjugation_curve(run: SuiteRun, rng) -> Measurement:
    """A pure conjugation curve has vanishing class."""
    rep, basis = run.rep, run.basis
    n = rep.rank
    v = complex_gaussian(rng, (n, n))
    v = v / np.linalg.norm(v)

    def conjugated(t):
        c = expm(t * v)
        c_inv = expm(-t * v)
        return Representation(rep.presentation, n, c @ rep.images @ c_inv,
                              GENERAL_LINEAR, seed=rep.seed)

    recovered = rh_differential(rep, conjugated(1e-4), conjugated(-1e-4), 1e-4)
    residual = float(np.linalg.norm(basis.h1_coordinates(recovered)))
    constant = rh_differential(rep, rep, rep, 1e-4)
    return 2, _worst([residual, constant.norm()]), 1e-6


def check_rh_cocycle_law_order(run: SuiteRun, rng) -> Measurement:
    """Word-level difference quotients obey the twisted additivity law to
    second order; extended generator values satisfy it identically, so the
    test works on whole-word quotients."""
    rep = run.rep
    chi = _unit_direction(run, run.rng("rh-cocycle-law-order-direction"))
    chart = Chart(center=rep, frame=(chi,))
    u, v = _random_pairs(rep.presentation, rng, 50)
    s_u = evaluate_words(rep, u)
    law_words = join_batches([u * v, u, v])
    residuals = []
    for h, plus, minus in _curve_points(chart, (2e-3, 1e-3)):
        values = rh_word_value(rep, plus, minus, law_words, h)
        laws = values[:50] - values[50:100] - s_u @ values[100:] @ np.linalg.inv(s_u)
        residuals.append(_worst(frobs(laws)))
    factor = residuals[0] / residuals[1]
    return 2 * len(u), abs(factor - 4.0), 0.8


def check_commuting_flows(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    chi1 = _unit_direction(run, run.rng("commuting-flows-1"))
    chi2 = _unit_direction(run, run.rng("commuting-flows-2"))

    steps = [2e-3, 1e-3]
    # the first-stage points (t, 0) and (0, t) are one stacked solve, each
    # deform(rep, chi1, t) or deform(rep, chi2, t) bit for bit: 0 chi2 is +-0
    firsts = Chart(rep, (chi1, chi2)).points(
        [coords for t in steps for coords in ((t, 0.0), (0.0, t))])
    distances = []
    for t, via1, via2 in zip(steps, firsts[0::2], firsts[1::2]):
        # zeroth-order transport: the same generator values over the new base
        first = deform(via1, Cocycle(via1, chi2.values), t)
        second = deform(via2, Cocycle(via2, chi1.values), t)
        distances.append(tuple_distance(first.images, second.images))
    return _order_result(steps, distances, window=0.4)


def check_closedness(run: SuiteRun, rng) -> Measurement:
    chart = Chart(center=run.rep, frame=run.basis.h1_complement)
    steps = [8e-3, 4e-3, 2e-3, 1e-3]
    residuals = closedness_residuals(chart, (0, 1, 2), steps)
    measured = _order_result(steps, residuals,
                             floors=closedness_floors(chart, (0, 1, 2), steps))
    degenerate = closedness_check(chart, (0, 0, 1), 1e-3)
    if residuals[-1] >= tolerances.FINITE_DIFFERENCE or degenerate != 0.0:
        return len(steps), 1.0, 0.3
    return measured


def check_closedness_abelian(run: SuiteRun, rng) -> Measurement:
    rep = _trivial_rank_one(2)
    chart = Chart(center=rep, frame=cocycle_basis(rep).h1_complement)
    return 3, _worst(closedness_residuals(chart, (0, 1, 2), (1e-2, 1e-3, 1e-4))), 1e-10


def check_chart_irreducibility(run: SuiteRun, rng) -> Measurement:
    chart = Chart(center=run.rep, frame=run.basis.h1_complement)
    ladder = []
    for axis in range(min(3, chart.dimension)):
        for sign in (1.0, -1.0):
            coords = np.zeros(chart.dimension)
            coords[axis] = sign * 5e-3
            ladder.append(coords)
    failures = sum(commutant_dimension(point) != 1 for point in chart.points(ladder))
    return len(ladder), failures, 0.0


# -------------------------------------------------------------------- cli-io

def check_file_round_trip(run: SuiteRun, rng) -> Measurement:
    rep = run.rep
    n = rep.rank
    # the schema is exact for any values, so no cocycle basis is needed
    chi = Cocycle(rep, complex_gaussians(rng, rep.presentation.generator_count, ((n, n),))[0])
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fileio.write_representation(tmp / "rep.txt", rep)
        again = fileio.read_representation(tmp / "rep.txt")
        if not np.array_equal(rep.images, again.images):
            failures += 1
        fileio.write_representation(tmp / "rep2.txt", again)
        if (tmp / "rep.txt").read_bytes() != (tmp / "rep2.txt").read_bytes():
            failures += 1

        fileio.write_cocycle(tmp / "coc.txt", chi)
        chi_again = fileio.read_cocycle(tmp / "coc.txt", rep)
        if not np.array_equal(chi.values, chi_again.values):
            failures += 1
        fileio.write_cocycle(tmp / "coc2.txt", chi_again)
        if (tmp / "coc.txt").read_bytes() != (tmp / "coc2.txt").read_bytes():
            failures += 1

        matrix = complex_gaussian(rng, (3, 5))
        fileio.write_matrix(tmp / "m.txt", matrix)
        if not np.array_equal(fileio.read_matrix(tmp / "m.txt"), matrix):
            failures += 1
    return 5, failures, 0.0


@dataclass(frozen=True)
class Check:
    name: str
    fn: object
    needs_cohomology: bool = False
    needs_unitary: bool = False


ALL_CHECKS = (
    Check("word-reduction-confluence", check_word_reduction_confluence),
    Check("fox-product-rule", check_fox_product_rule),
    Check("fox-closed-form", check_fox_closed_form),
    Check("dual-generator-identities", check_dual_generator_identities),
    Check("anti-involution", check_anti_involution),
    Check("two-cycle-shape", check_two_cycle_shape),
    Check("evaluate-multiplicative", check_evaluate_multiplicative),
    Check("partial-relator-determinants", check_partial_relator_determinants),
    Check("commutator-factor", check_commutator_factor),
    Check("representation-reproducibility", check_representation_reproducibility),
    Check("construction-quality", check_construction_quality),
    Check("newton-projection", check_newton_projection, needs_cohomology=True),
    Check("cocycle-law-on-basis", check_cocycle_law_on_basis, needs_cohomology=True),
    Check("dimension-formula", check_dimension_formula),
    Check("coboundary-containment", check_coboundary_containment, needs_cohomology=True),
    Check("star-involution", check_star_involution, needs_cohomology=True,
          needs_unitary=True),
    Check("real-locus-dimensions", check_real_locus_dimensions,
          needs_cohomology=True, needs_unitary=True),
    Check("cup-dual-agreement", check_cup_dual_agreement, needs_cohomology=True),
    Check("class-invariance", check_class_invariance, needs_cohomology=True),
    Check("antisymmetry", check_antisymmetry, needs_cohomology=True),
    Check("bilinearity", check_bilinearity, needs_cohomology=True),
    Check("conjugation-equivariance", check_conjugation_equivariance,
          needs_cohomology=True),
    Check("gram-structure", check_gram_structure, needs_cohomology=True),
    Check("intersection-form", check_intersection_form),
    Check("symplectic-basis", check_symplectic_basis, needs_cohomology=True),
    Check("unitary-locus", check_unitary_locus, needs_cohomology=True,
          needs_unitary=True),
    Check("deformation-correction-order", check_deformation_correction_order,
          needs_cohomology=True),
    Check("coboundary-deformation", check_coboundary_deformation,
          needs_cohomology=True),
    Check("rh-round-trip", check_rh_round_trip, needs_cohomology=True),
    Check("rh-conjugation-curve", check_rh_conjugation_curve, needs_cohomology=True),
    Check("rh-cocycle-law-order", check_rh_cocycle_law_order, needs_cohomology=True),
    Check("commuting-flows", check_commuting_flows, needs_cohomology=True),
    Check("closedness-order", check_closedness, needs_cohomology=True),
    Check("closedness-abelian", check_closedness_abelian),
    Check("chart-irreducibility", check_chart_irreducibility, needs_cohomology=True),
    Check("file-round-trip", check_file_round_trip),
)


def applicable_checks(config: RunConfig):
    for check in ALL_CHECKS:
        if check.needs_cohomology and config.genus < 2:
            continue
        if check.needs_unitary and config.flavor != UNITARY:
            continue
        yield check


def run_check(run: SuiteRun, check: Check) -> CheckResult:
    """Measure one check on its own stream, run.rng(check.name), and judge
    it under its table name."""
    samples, residual, threshold = check.fn(run, run.rng(check.name))
    residual = float(residual)
    return CheckResult(check.name, samples, residual, threshold,
                       passed=residual <= threshold)


def run_suite(config: RunConfig):
    """Run every applicable check on one shared run; returns the list of
    CheckResult."""
    run = SuiteRun(config)
    return [run_check(run, check) for check in applicable_checks(config)]


def render_report(config: RunConfig, results) -> str:
    lines = [f"config: {config.describe()}",
             f"trivialization: {TRIVIALIZATION}"]
    failed = 0
    for result in results:
        lines.append(result.line())
        if not result.passed:
            failed += 1
    lines.append(f"summary: checks={len(results)} failed={failed}")
    return "\n".join(lines) + "\n"
