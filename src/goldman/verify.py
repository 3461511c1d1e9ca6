"""The bundled property suite: every standing invariant, one line each.

Each check is a function of one run (SuiteRun) built from the
configuration, which shares its seeded objects among the checks and
gives each check its own deterministic random stream.  A check reports
(name, samples, max residual, threshold, verdict).  Checks never abort
the suite; the caller turns any failure into a nonzero exit status.

Mutation mode (config.mutate = "dual-sign") deliberately flips a sign in
the dual-generator pairing (the b_k column blocks of the pairing matrix
W) so the cup/dual cross-check must fail; it exists to demonstrate that
the suite catches exactly that class of error.
"""

from __future__ import annotations

import tempfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import fileio, tolerances
from .charts import (Chart, DeformationCurve, closedness_check, deform,
                     deformation_correction, rh_differential)
from .cocycles import (Cocycle, CocycleBasis, anti_hermitian_part, coboundary,
                       cocycle_basis, cocycle_law_residual, random_cocycle,
                       real_locus_bases, relator_residual, star_involution)
from .config import RunConfig
from .errors import ConvergenceError
from .linalg import frob, haar_unitary
from .pairing import (gram, pairing_cup, pairing_dual, symplectic_basis,
                      unitary_restriction_check)
from .reps import (GENERAL_LINEAR, UNITARY, Representation,
                   commutant_dimension, commutator_factor, conjugate_representation,
                   evaluate, newton_project, random_representation, relator_defect)
from .words import (GroupRingElement, GroupWord, Presentation,
                    anti_involution, commutator, fox_derivative)

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


def _result(name, samples, residual, threshold) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, samples, residual, threshold,
                       passed=residual <= threshold)


def _random_word(pres: Presentation, rng, max_len: int = 8) -> GroupWord:
    length = int(rng.integers(0, max_len + 1))
    raw = [(int(rng.integers(0, 2 * pres.genus)), int(rng.choice([-1, 1])))
           for _ in range(length)]
    return pres.word(raw)


def _random_ring_element(pres: Presentation, rng) -> GroupRingElement:
    out = GroupRingElement.zero(pres.genus)
    for _ in range(int(rng.integers(1, 4))):
        coeff = int(rng.integers(-3, 4)) or 1
        out = out + GroupRingElement.from_word(_random_word(pres, rng), coeff)
    return out


def _trivial_rank_one(genus: int) -> Representation:
    """Rank-one identity images: the trivial action at the given genus."""
    return Representation(Presentation(genus), 1,
                          tuple(np.eye(1, dtype=complex) for _ in range(2 * genus)),
                          UNITARY)


@dataclass(frozen=True, eq=False)
class SuiteRun:
    """One verify run: the seeded base point, its cocycle basis, its
    real-locus bases and the size grid, each built on first use and kept,
    so skipped checks build nothing and a construction error surfaces in
    the first check that needs the object."""

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

    def rng(self, name: str) -> np.random.Generator:
        """The deterministic random stream of one check."""
        return np.random.default_rng([self.config.seed & 0xFFFFFFFF,
                                      zlib.crc32(name.encode())])


# ----------------------------------------------------------------- word core

def check_word_reduction_confluence(run: SuiteRun) -> CheckResult:
    """Random-order cancellation agrees with the eager reducer."""
    rng = run.rng("word-reduction-confluence")
    pres = Presentation(run.config.genus)
    failures = 0
    samples = 100
    for _ in range(samples):
        letters = [(int(rng.integers(0, 2 * pres.genus)), int(rng.choice([-1, 1])))
                   for _ in range(int(rng.integers(0, 14)))]
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
    return _result("word-reduction-confluence", samples, failures, 0.0)


def check_fox_product_rule(run: SuiteRun) -> CheckResult:
    rng = run.rng("fox-product-rule")
    pres = Presentation(run.config.genus)
    failures = 0
    samples = 0
    for index in range(2 * pres.genus):
        for _ in range(100):
            u = _random_word(pres, rng)
            v = _random_word(pres, rng)
            lhs = fox_derivative(u * v, index)
            rhs = fox_derivative(u, index) + u * fox_derivative(v, index)
            samples += 1
            if lhs != rhs:
                failures += 1
    return _result("fox-product-rule", samples, failures, 0.0)


def check_fox_closed_form(run: SuiteRun) -> CheckResult:
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
    return _result("fox-closed-form", samples, failures, 0.0)


def check_dual_generator_identities(run: SuiteRun) -> CheckResult:
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
    return _result("dual-generator-identities", samples, failures, 0.0)


def check_anti_involution(run: SuiteRun) -> CheckResult:
    rng = run.rng("anti-involution")
    pres = Presentation(run.config.genus)
    failures = 0
    samples = 50
    for _ in range(samples):
        e = _random_ring_element(pres, rng)
        f = _random_ring_element(pres, rng)
        if anti_involution(anti_involution(e)) != e:
            failures += 1
        if anti_involution(e * f) != anti_involution(f) * anti_involution(e):
            failures += 1
        if anti_involution(e + f) != anti_involution(e) + anti_involution(f):
            failures += 1
    return _result("anti-involution", samples, failures, 0.0)


def check_two_cycle_shape(run: SuiteRun) -> CheckResult:
    failures = 0
    for genus in (1, 2, 3):
        pres = Presentation(genus)
        cycle = pres.fundamental_two_cycle()
        if len(cycle) != 2 * genus:
            failures += 1
        for coefficient, generator in cycle.pairs:
            if len(generator) != 1:
                failures += 1
    return _result("two-cycle-shape", 3, failures, 0.0)


# ------------------------------------------------------------------ rep core

def check_evaluate_multiplicative(run: SuiteRun) -> CheckResult:
    rng = run.rng("evaluate-multiplicative")
    rep = run.rep
    pres = rep.presentation
    worst = 0.0
    samples = 100
    for _ in range(samples):
        u = _random_word(pres, rng)
        v = _random_word(pres, rng)
        lhs = evaluate(rep, u * v)
        rhs = evaluate(rep, u) @ evaluate(rep, v)
        worst = max(worst, frob(lhs - rhs) / max(1.0, frob(rhs)))
    return _result("evaluate-multiplicative", samples, worst, 1e-12)


def check_partial_relator_determinants(run: SuiteRun) -> CheckResult:
    rep = run.rep
    worst = 0.0
    for k in range(rep.genus + 1):
        det = np.linalg.det(evaluate(rep, rep.presentation.relator(k)))
        worst = max(worst, abs(det - 1.0))
    return _result("partial-relator-determinants", rep.genus + 1, worst,
                   tolerances.CONSTRUCTION)


def check_commutator_factor(run: SuiteRun) -> CheckResult:
    rng = run.rng("commutator-factor")
    worst = 0.0
    samples = 0
    for n in (2, 3, 4):
        for _ in range(17):
            u = haar_unitary(rng, n)
            u = u * np.linalg.det(u) ** (-1.0 / n)
            a, b = commutator_factor(u, unitary=True)
            worst = max(worst, frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u))
            samples += 1
            m = haar_unitary(rng, n) + 0.3 * (rng.standard_normal((n, n))
                                              + 1j * rng.standard_normal((n, n)))
            m = m * np.linalg.det(m) ** (-1.0 / n)
            a, b = commutator_factor(m, unitary=False)
            worst = max(worst, frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - m))
            samples += 1
    return _result("commutator-factor", samples, worst, tolerances.CONSTRUCTION)


def check_representation_reproducibility(run: SuiteRun) -> CheckResult:
    one = run.rep
    two = run.config.representation()  # an independent fresh build
    identical = all(np.array_equal(a, b) for a, b in zip(one.images, two.images))
    identical = identical and one.fingerprint == two.fingerprint
    return _result("representation-reproducibility", 2, 0.0 if identical else 1.0, 0.0)


def check_construction_quality(run: SuiteRun) -> CheckResult:
    """Relator defect and irreducibility over the seeded size grid."""
    worst = 0.0
    failures = 0
    samples = 0
    for rep in run.grid:
        worst = max(worst, relator_defect(rep))
        if commutant_dimension(rep) != 1:
            failures += 1
        samples += 1
    if failures:
        return _result("construction-quality", samples, 1.0, 0.0)
    return _result("construction-quality", samples, worst, 1e-12)


def check_newton_projection(run: SuiteRun) -> CheckResult:
    rng = run.rng("newton-projection")
    rep = run.rep
    n = rep.rank
    failures = 0

    projected = newton_project(rep.presentation, rep.images, rep.flavor)
    if not all(np.array_equal(a, b) for a, b in zip(projected.images, rep.images)):
        failures += 1

    noisy = []
    for m in rep.images:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if rep.flavor == UNITARY:
            z = (z - z.conj().T) / 2
        noisy.append((np.eye(n) + 1e-3 * z) @ m)
    repaired = newton_project(rep.presentation, noisy, rep.flavor)
    if relator_defect(repaired) > tolerances.CONSTRUCTION:
        failures += 1

    samples = 2
    if n > 1:  # rank one is abelian: every image tuple satisfies the relator
        samples = 3
        far = [haar_unitary(rng, n) for _ in rep.images]
        try:
            newton_project(rep.presentation, far, UNITARY)
        except ConvergenceError:
            pass
        else:
            failures += 1
    return _result("newton-projection", samples, failures, 0.0)


# -------------------------------------------------------------- cocycle core

def check_cocycle_law_on_basis(run: SuiteRun) -> CheckResult:
    rng = run.rng("cocycle-law-on-basis")
    basis = run.basis
    pres = basis.base.presentation
    worst = 0.0
    samples = 0
    for chi in basis.basis:
        for _ in range(100):
            u = _random_word(pres, rng)
            v = _random_word(pres, rng)
            worst = max(worst, cocycle_law_residual(chi, u, v))
            samples += 1
    return _result("cocycle-law-on-basis", samples, worst,
                   run.config.tolerance("verification"))


def check_dimension_formula(run: SuiteRun) -> CheckResult:
    failures = 0
    for (g, n), rep in zip(GRID, run.grid):
        dims = cocycle_basis(rep).dims
        if dims[2] != (2 * g - 2) * n * n + 2 or dims[0] - dims[1] != dims[2]:
            failures += 1
    return _result("dimension-formula", len(GRID), failures, 0.0)


def check_coboundary_containment(run: SuiteRun) -> CheckResult:
    rng = run.rng("coboundary-containment")
    rep, basis = run.rep, run.basis
    n = rep.rank
    frame = np.column_stack([c.flat for c in basis.basis]) if basis.basis else None
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        delta = coboundary(v, rep)
        worst = max(worst, relator_residual(delta))
        if frame is not None:
            flat = delta.flat
            residual = flat - frame @ (frame.conj().T @ flat)
            worst = max(worst, float(np.linalg.norm(residual)))
    return _result("coboundary-containment", 20, worst, 1e-10)


def check_star_involution(run: SuiteRun) -> CheckResult:
    rng = run.rng("star-involution")
    rep, basis = run.rep, run.basis
    n = rep.rank
    worst = 0.0
    for _ in range(20):
        chi = random_cocycle(basis, rng)
        again = star_involution(star_involution(chi))
        worst = max(worst, max(frob(a - b) for a, b in zip(again.values, chi.values)))
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = star_involution(coboundary(v, rep))
        rhs = coboundary(v.conj().T, rep)
        worst = max(worst, max(frob(a - b) for a, b in zip(lhs.values, rhs.values)))
        anti = anti_hermitian_part(chi)
        flipped = star_involution(anti)
        worst = max(worst, max(frob(a + b) for a, b in zip(flipped.values, anti.values)))
    return _result("star-involution", 20, worst, 1e-12)


def check_real_locus_dimensions(run: SuiteRun) -> CheckResult:
    basis = run.basis
    z1_real, h1_real = run.real_locus
    ok = len(z1_real) == basis.dims[0] and len(h1_real) == basis.dims[2]
    return _result("real-locus-dimensions", 2, 0.0 if ok else 1.0, 0.0)


# -------------------------------------------------------------- goldman core

def _mutated_dual(rep: Representation):
    """Deliberately wrong pairing: the handle-b terms enter with a flipped
    sign, i.e. the b_k column blocks of W are negated."""
    w = np.array(rep.dual_form)
    n2 = rep.rank ** 2
    for k in range(rep.genus):
        w[:, (2 * k + 1) * n2:(2 * k + 2) * n2] *= -1
    return lambda chi1, chi2: complex(chi1.flat @ w @ chi2.flat)


def check_cup_dual_agreement(run: SuiteRun) -> CheckResult:
    rng = run.rng("cup-dual-agreement")
    basis = run.basis
    dual = _mutated_dual(run.rep) if run.config.mutate == "dual-sign" else pairing_dual
    worst = 0.0
    samples = 100
    for _ in range(samples):
        chi1 = random_cocycle(basis, rng)
        chi2 = random_cocycle(basis, rng)
        worst = max(worst, abs(dual(chi1, chi2) - pairing_cup(chi1, chi2)))
    return _result("cup-dual-agreement", samples, worst, 1e-10)


def check_class_invariance(run: SuiteRun) -> CheckResult:
    rng = run.rng("class-invariance")
    rep, basis = run.rep, run.basis
    n = rep.rank
    worst = 0.0
    samples = 100
    for _ in range(samples):
        chi1 = random_cocycle(basis, rng)
        chi2 = random_cocycle(basis, rng)
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        base_value = pairing_dual(chi1, chi2)
        worst = max(worst, abs(pairing_dual(chi1 + coboundary(v, rep), chi2) - base_value))
        worst = max(worst, abs(pairing_dual(chi1, chi2 + coboundary(v, rep)) - base_value))
    return _result("class-invariance", samples, worst, 1e-9)


def check_antisymmetry(run: SuiteRun) -> CheckResult:
    rng = run.rng("antisymmetry")
    basis = run.basis
    worst = 0.0
    samples = 100
    for _ in range(samples):
        chi1 = random_cocycle(basis, rng)
        chi2 = random_cocycle(basis, rng)
        worst = max(worst, abs(pairing_dual(chi1, chi2) + pairing_dual(chi2, chi1)))
    return _result("antisymmetry", samples, worst, 1e-9)


def check_bilinearity(run: SuiteRun) -> CheckResult:
    rng = run.rng("bilinearity")
    basis = run.basis
    worst = 0.0
    samples = 25
    for _ in range(samples):
        chi1 = random_cocycle(basis, rng)
        chi2 = random_cocycle(basis, rng)
        chi3 = random_cocycle(basis, rng)
        s = complex(rng.standard_normal(), rng.standard_normal())
        lhs = pairing_dual(chi1 * s + chi3, chi2)
        rhs = s * pairing_dual(chi1, chi2) + pairing_dual(chi3, chi2)
        worst = max(worst, abs(lhs - rhs))
        lhs = pairing_dual(chi1, chi2 * s + chi3)
        rhs = s * pairing_dual(chi1, chi2) + pairing_dual(chi1, chi3)
        worst = max(worst, abs(lhs - rhs))
    return _result("bilinearity", samples, worst, 1e-9)


def check_conjugation_equivariance(run: SuiteRun) -> CheckResult:
    rng = run.rng("conjugation-equivariance")
    rep, basis = run.rep, run.basis
    n = rep.rank
    c = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    c_inv = np.linalg.inv(c)
    moved = conjugate_representation(rep, c)
    worst = 0.0
    samples = 25
    for _ in range(samples):
        chi1 = random_cocycle(basis, rng)
        chi2 = random_cocycle(basis, rng)
        moved1 = Cocycle(moved, tuple(c @ m @ c_inv for m in chi1.values))
        moved2 = Cocycle(moved, tuple(c @ m @ c_inv for m in chi2.values))
        worst = max(worst, abs(pairing_dual(moved1, moved2) - pairing_dual(chi1, chi2)))
    return _result("conjugation-equivariance", samples, worst, 1e-9)


def check_gram_structure(run: SuiteRun) -> CheckResult:
    basis = run.basis
    g_complement = gram(basis, "h1-complement")
    rank, margin = g_complement.rank()
    ok = (g_complement.skewness_residual <= run.config.tolerance("verification")
          and rank == basis.dims[2] and margin >= 1e3)
    g_full = gram(basis, "z1")
    rank_full, _ = g_full.rank()
    ok = ok and rank_full == basis.dims[2]
    residual = g_complement.skewness_residual if ok else 1.0
    return _result("gram-structure", 2, residual,
                   run.config.tolerance("verification"))


def check_intersection_form(run: SuiteRun) -> CheckResult:
    """Trivial rank-one action: the Gram of indicator cocycles is the
    standard intersection form, and matches the hand closed form."""
    genus = max(run.config.genus, 2)
    rep = _trivial_rank_one(genus)
    count = 2 * genus
    indicators = []
    for i in range(count):
        values = [np.zeros((1, 1), dtype=complex) for _ in range(count)]
        values[i] = np.eye(1, dtype=complex)
        indicators.append(Cocycle(rep, tuple(values)))
    expected = np.zeros((count, count))
    for k in range(genus):
        expected[2 * k, 2 * k + 1] = 1.0
        expected[2 * k + 1, 2 * k] = -1.0
    worst = 0.0
    for i in range(count):
        for j in range(count):
            worst = max(worst, abs(pairing_dual(indicators[i], indicators[j])
                                   - expected[i, j]))
            worst = max(worst, abs(pairing_cup(indicators[i], indicators[j])
                                   - expected[i, j]))

    rng = run.rng("intersection-form")
    for _ in range(20):
        x = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        y = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        chi1 = Cocycle(rep, tuple(np.array([[z]]) for z in x))
        chi2 = Cocycle(rep, tuple(np.array([[z]]) for z in y))
        hand = sum(x[2 * k] * y[2 * k + 1] - x[2 * k + 1] * y[2 * k]
                   for k in range(genus))
        worst = max(worst, abs(pairing_dual(chi1, chi2) - hand))
    return _result("intersection-form", count * count + 20, worst, 1e-12)


def check_symplectic_basis(run: SuiteRun) -> CheckResult:
    basis = run.basis
    sb = symplectic_basis(gram(basis, "h1-complement"))
    return _result("symplectic-basis", (2 * sb.pair_count) ** 2,
                   sb.normal_form_residual,
                   run.config.tolerance("verification"))


def check_unitary_locus(run: SuiteRun) -> CheckResult:
    _, h1_real = run.real_locus
    report = unitary_restriction_check(h1_real)
    residual = report.max_imaginary if report.passed else 1.0
    return _result("unitary-locus", len(h1_real) ** 2, residual,
                   tolerances.UNITARY_IMAGINARY)


# ------------------------------------------------------------ chart geometry

def _unit_direction(run: SuiteRun, salt: str) -> Cocycle:
    chi = random_cocycle(run.basis, run.rng(salt), space="h1")
    return chi * (1.0 / chi.norm())


FLAT_FLOOR = 1e-12  # below this the measured quantity is exactly flat


def _fitted_order(steps, residuals) -> float:
    return float(np.polyfit(np.log(steps), np.log(residuals), 1)[0])


def _order_result(name, steps, values, window=0.3, target=2.0) -> CheckResult:
    """Fitted log-log slope against a target order.

    Quantities at roundoff level have no measurable order: the bound
    holds with constant zero (the abelian rank-one case), so the check
    passes with zero residual.
    """
    if max(values) < FLAT_FLOOR:
        return _result(name, len(steps), 0.0, window)
    return _result(name, len(steps), abs(_fitted_order(steps, values) - target),
                   window)


def check_deformation_correction_order(run: SuiteRun) -> CheckResult:
    rep = run.rep
    chi = _unit_direction(run, "deformation-correction-order")
    steps = [1e-2, 1e-3, 1e-4]
    corrections = [deformation_correction(rep, chi, t) for t in steps]
    return _order_result("deformation-correction-order", steps, corrections)


def check_coboundary_deformation(run: SuiteRun) -> CheckResult:
    """Deforming along a coboundary is conjugation to first order."""
    import scipy.linalg

    rng = run.rng("coboundary-deformation")
    rep = run.rep
    n = rep.rank
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if rep.flavor == UNITARY:
        v = (v - v.conj().T) / 2
    v = v / max(1.0, coboundary(v, rep).norm())
    delta = coboundary(v, rep)
    steps = [1e-2, 1e-3]
    distances = []
    for t in steps:
        moved = deform(rep, delta, t)
        conj = scipy.linalg.expm(-t * v)
        conj_inv = scipy.linalg.expm(t * v)
        distances.append(np.sqrt(sum(
            frob(m - conj @ x @ conj_inv) ** 2
            for m, x in zip(moved.images, rep.images))))
    return _order_result("coboundary-deformation", steps, distances)


def check_rh_round_trip(run: SuiteRun) -> CheckResult:
    rep, basis = run.rep, run.basis
    chi = _unit_direction(run, "rh-round-trip")
    curve = DeformationCurve(center=rep, direction=chi)
    target = basis.h1_coordinates(chi)
    steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    errors = [float(np.linalg.norm(basis.h1_coordinates(rh_differential(curve, h))
                                   - target)) for h in steps]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    worst = max(abs(r - 4.0) for r in ratios)
    return _result("rh-round-trip", len(steps), worst, 0.5)


def check_rh_conjugation_curve(run: SuiteRun) -> CheckResult:
    """A pure conjugation curve has vanishing class."""
    import scipy.linalg

    rng = run.rng("rh-conjugation-curve")
    rep, basis = run.rep, run.basis
    n = rep.rank
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = v / np.linalg.norm(v)

    def evaluator(t):
        c = scipy.linalg.expm(t * v)
        c_inv = scipy.linalg.expm(-t * v)
        return Representation(rep.presentation, n,
                              tuple(c @ m @ c_inv for m in rep.images),
                              GENERAL_LINEAR, seed=rep.seed)

    curve = DeformationCurve(center=rep, evaluator=evaluator)
    recovered = rh_differential(curve, 1e-4)
    residual = float(np.linalg.norm(basis.h1_coordinates(recovered)))
    constant = rh_differential(DeformationCurve(center=rep,
                                                evaluator=lambda t: rep), 1e-4)
    residual = max(residual, constant.norm())
    return _result("rh-conjugation-curve", 2, residual, 1e-6)


def check_rh_cocycle_law_order(run: SuiteRun) -> CheckResult:
    """Word-level difference quotients obey the twisted additivity law to
    second order; extended generator values satisfy it identically, so the
    test works on whole-word quotients."""
    from .charts import rh_word_value

    rng = run.rng("rh-cocycle-law-order")
    rep = run.rep
    chi = _unit_direction(run, "rh-cocycle-law-order")
    curve = DeformationCurve(center=rep, direction=chi)
    pres = rep.presentation
    words = [(_random_word(pres, rng), _random_word(pres, rng)) for _ in range(50)]
    residuals = []
    for h in (2e-3, 1e-3):
        worst = 0.0
        for u, v in words:
            s_u = evaluate(rep, u)
            law = (rh_word_value(curve, u * v, h) - rh_word_value(curve, u, h)
                   - s_u @ rh_word_value(curve, v, h) @ np.linalg.inv(s_u))
            worst = max(worst, frob(law))
        residuals.append(worst)
    factor = residuals[0] / residuals[1]
    return _result("rh-cocycle-law-order", 2 * len(words), abs(factor - 4.0), 0.8)


def check_commuting_flows(run: SuiteRun) -> CheckResult:
    from .charts import transport_values

    rep = run.rep
    chi1 = _unit_direction(run, "commuting-flows-1")
    chi2 = _unit_direction(run, "commuting-flows-2")

    def both_orders(t):
        via1 = deform(rep, chi1, t)
        via2 = deform(rep, chi2, t)
        first = deform(via1, transport_values(chi2, via1), t)
        second = deform(via2, transport_values(chi1, via2), t)
        return np.sqrt(sum(frob(a - b) ** 2
                           for a, b in zip(first.images, second.images)))

    steps = [2e-3, 1e-3]
    distances = [both_orders(t) for t in steps]
    return _order_result("commuting-flows", steps, distances, window=0.4)


def check_closedness(run: SuiteRun) -> CheckResult:
    chart = Chart(center=run.rep, frame=run.basis.h1_complement)
    steps = [8e-3, 4e-3, 2e-3, 1e-3]
    residuals = [closedness_check(chart, (0, 1, 2), h) for h in steps]
    result = _order_result("closedness-order", steps, residuals)
    degenerate = closedness_check(chart, (0, 0, 1), 1e-3)
    if residuals[-1] >= tolerances.FINITE_DIFFERENCE or degenerate != 0.0:
        return _result("closedness-order", len(steps), 1.0, 0.3)
    return result


def check_closedness_abelian(run: SuiteRun) -> CheckResult:
    rep = _trivial_rank_one(2)
    chart = Chart(center=rep, frame=cocycle_basis(rep).h1_complement)
    worst = max(closedness_check(chart, (0, 1, 2), h) for h in (1e-2, 1e-3, 1e-4))
    return _result("closedness-abelian", 3, worst, 1e-10)


def check_chart_irreducibility(run: SuiteRun) -> CheckResult:
    chart = Chart(center=run.rep, frame=run.basis.h1_complement)
    failures = 0
    samples = 0
    for axis in range(min(3, chart.dimension)):
        for sign in (1.0, -1.0):
            coords = np.zeros(chart.dimension)
            coords[axis] = sign * 5e-3
            if commutant_dimension(chart.point(coords)) != 1:
                failures += 1
            samples += 1
    return _result("chart-irreducibility", samples, failures, 0.0)


# -------------------------------------------------------------------- cli-io

def check_file_round_trip(run: SuiteRun) -> CheckResult:
    rng = run.rng("file-round-trip")
    rep = run.rep
    n = rep.rank
    # the schema is exact for any values, so no cocycle basis is needed
    chi = Cocycle(rep, tuple(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)) for _ in rep.images))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fileio.write_representation(tmp / "rep.txt", rep)
        again = fileio.read_representation(tmp / "rep.txt")
        if not all(np.array_equal(a, b) for a, b in zip(rep.images, again.images)):
            failures += 1
        fileio.write_representation(tmp / "rep2.txt", again)
        if (tmp / "rep.txt").read_bytes() != (tmp / "rep2.txt").read_bytes():
            failures += 1

        fileio.write_cocycle(tmp / "coc.txt", chi)
        chi_again = fileio.read_cocycle(tmp / "coc.txt", rep)
        if not all(np.array_equal(a, b) for a, b in zip(chi.values, chi_again.values)):
            failures += 1
        fileio.write_cocycle(tmp / "coc2.txt", chi_again)
        if (tmp / "coc.txt").read_bytes() != (tmp / "coc2.txt").read_bytes():
            failures += 1

        matrix = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        fileio.write_matrix(tmp / "m.txt", matrix)
        if not np.array_equal(fileio.read_matrix(tmp / "m.txt"), matrix):
            failures += 1
    return _result("file-round-trip", 5, failures, 0.0)


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


def run_suite(config: RunConfig):
    """Run every applicable check on one shared run; returns the list of
    CheckResult."""
    run = SuiteRun(config)
    return [check.fn(run) for check in applicable_checks(config)]


def render_report(config: RunConfig, results) -> str:
    lines = [f"config: {config.describe()}",
             f"trivialization: right"]
    failed = 0
    for result in results:
        lines.append(result.line())
        if not result.passed:
            failed += 1
    lines.append(f"summary: checks={len(results)} failed={failed}")
    return "\n".join(lines) + "\n"
