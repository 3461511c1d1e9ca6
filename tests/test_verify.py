import sys

import numpy as np
import pytest

import goldman.cocycles
import goldman.fileio
import goldman.linalg
import goldman.pairing
import goldman.reps
import goldman.verify
from goldman import (Cocycle, ConditioningError, Presentation, Representation,
                     cocycle_law_residuals, commutant_dimension, conjugate_representation,
                     random_cocycle)
from goldman.config import RunConfig
from goldman.pairing import dual_form_matrix
from goldman.verify import ALL_CHECKS, SuiteRun, applicable_checks, run_check, run_suite

CHECKS = {check.name: check for check in ALL_CHECKS}


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every alias a goldman module holds."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, holder in list(sys.modules.items()):
        if key == "goldman" or key.startswith("goldman."):
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls


def _refuse(name):
    def refuse(self):
        raise AssertionError(f"SuiteRun.{name} was built")
    return property(refuse)


class TestSuiteRun:
    def test_seeded_objects_are_built_once(self, monkeypatch, tmp_path):
        reps = _count_calls(monkeypatch, goldman.reps, "random_representation")
        bases = _count_calls(monkeypatch, goldman.cocycles, "cocycle_basis")
        real = _count_calls(monkeypatch, goldman.cocycles, "real_locus_bases")
        results = run_suite(RunConfig(genus=2, rank=2, seed=0, out=tmp_path))
        assert all(r.passed for r in results)
        # the base point, one independent rebuild, and the six grid points
        assert len(reps) <= 8
        # the base basis, the six grid bases and the trivial rank-one basis
        assert len(bases) == 8
        assert len(real) == 1

    def test_shared_objects_are_cached(self, tmp_path):
        run = SuiteRun(RunConfig(out=tmp_path))
        assert run.rep is run.rep
        assert run.basis is run.basis
        assert run.basis.base is run.rep
        assert run.real_locus is run.real_locus
        assert len(run.grid) == 6

    @pytest.mark.parametrize("rank", [1, 2])
    def test_genus_one_builds_no_cohomology(self, monkeypatch, tmp_path, rank):
        monkeypatch.setattr(SuiteRun, "basis", _refuse("basis"))
        monkeypatch.setattr(SuiteRun, "real_locus", _refuse("real_locus"))
        results = run_suite(RunConfig(genus=1, rank=rank, out=tmp_path))
        assert results and all(r.passed for r in results)

    def test_general_linear_builds_no_real_locus(self, monkeypatch, tmp_path):
        monkeypatch.setattr(SuiteRun, "real_locus", _refuse("real_locus"))
        config = RunConfig(flavor="general-linear", out=tmp_path)
        assert all(r.passed for r in run_suite(config))

    def test_one_rank_decision_per_grid_point(self, monkeypatch, tmp_path):
        run = SuiteRun(RunConfig(out=tmp_path))
        for rep, basis in zip(run.grid, run.grid_bases):
            assert commutant_dimension(rep) == rep.rank ** 2 - basis.dims[1]
        run = SuiteRun(RunConfig(out=tmp_path))
        decisions = _count_calls(monkeypatch, goldman.reps, "coboundary_matrix")
        assert run_check(run, CHECKS["construction-quality"]).passed
        assert run_check(run, CHECKS["dimension-formula"]).passed
        assert len(decisions) == len(run.grid) == 6

    def test_basis_error_comes_from_the_first_check_that_needs_it(
            self, monkeypatch, tmp_path):
        def fail(rep):
            raise ConditioningError("rank decision is ambiguous")

        monkeypatch.setattr(goldman.verify, "cocycle_basis", fail)
        run = SuiteRun(RunConfig(out=tmp_path))
        assert run_check(run, CHECKS["newton-projection"]).passed
        with pytest.raises(ConditioningError):
            run_check(run, CHECKS["cocycle-law-on-basis"])
        with pytest.raises(ConditioningError):
            run_suite(RunConfig(out=tmp_path))


class TestClosednessOrder:
    @pytest.mark.parametrize("seed", [941414098, 1034])
    def test_rank_one_roundoff_is_flat(self, tmp_path, seed):
        # these seeds put a roundoff residual above the absolute FLAT_FLOOR
        results = run_suite(RunConfig(genus=2, rank=1, seed=seed, out=tmp_path))
        assert [r.name for r in results if not r.passed] == []
        closedness = next(r for r in results if r.name == "closedness-order")
        assert closedness.max_residual == 0.0

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_rank_two_ladder_is_fitted(self, tmp_path, flavor):
        result = run_check(SuiteRun(RunConfig(genus=2, rank=2, flavor=flavor,
                                              seed=0, out=tmp_path)),
                           CHECKS["closedness-order"])
        assert result.passed
        assert result.max_residual > 0.0


class _Recording:
    """A generator that records the result of every integers call."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.draws.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _reference_words(pres, rng, count):
    """The batched word stream: every length, then every letter's generator,
    then every letter's sign (1 for x_i, 0 for x_i^-1)."""
    lengths = rng.integers(0, 8 + 1, size=count)
    generators = rng.integers(0, 2 * pres.genus, size=lengths.sum())
    signs = rng.integers(0, 2, size=lengths.sum())
    words, start = [], 0
    for length in lengths:
        letters = zip(generators[start:start + length], signs[start:start + length])
        words.append(pres.word([(int(gen), 1 if sign else -1) for gen, sign in letters]))
        start += length
    return words


class TestRandomWords:
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_batch_reads_lengths_then_generators_then_signs(self, genus):
        pres = Presentation(genus)
        for seed in range(20):
            batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for count in (0, 1, 7, 200):
                assert (goldman.verify._random_words(pres, batched, count)
                        == _reference_words(pres, reference, count))
            assert batched.integers(0, 2 ** 40) == reference.integers(0, 2 ** 40)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_lengths_generators_and_signs_are_uniform(self, genus):
        rng = _Recording(np.random.default_rng(100 + genus))
        goldman.verify._random_words(Presentation(genus), rng, 20000)
        lengths, generators, signs = rng.draws
        for draws, values in ((lengths, 9), (generators, 2 * genus), (signs, 2)):
            frequencies = np.bincount(draws, minlength=values) / len(draws)
            assert len(frequencies) == values
            assert np.all(np.abs(frequencies * values - 1) < 0.1)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_each_word_is_the_reduction_of_its_drawn_letters(self, genus):
        pres = Presentation(genus)
        for seed in range(10):
            rng = _Recording(np.random.default_rng(seed))
            words = goldman.verify._random_words(pres, rng, 300)
            lengths, generators, signs = rng.draws  # one call each per batch
            assert len(lengths) == len(words) == 300
            ends = np.cumsum(lengths)
            for word, end, length in zip(words, ends, lengths):
                letters = [(int(gen), 1 if sign else -1) for gen, sign
                           in zip(generators[end - length:end], signs[end - length:end])]
                assert word == pres.word(letters)

    def test_the_suite_draws_integers_in_batches(self, monkeypatch, tmp_path):
        # 142 calls at (2,2) seed 1, most of them word-reduction-confluence's
        # cancellation sites; one call per word or letter was 9609
        streams = []
        seeded = SuiteRun.rng

        def counted(run, name):
            streams.append(_Recording(seeded(run, name)))
            return streams[-1]

        monkeypatch.setattr(SuiteRun, "rng", counted)
        results = run_suite(RunConfig(genus=2, rank=2, seed=1, out=tmp_path))
        assert all(r.passed for r in results)
        assert sum(len(stream.draws) for stream in streams) <= 300


@pytest.mark.parametrize("genus", [31, 32])
def test_random_words_hold_the_pad_at_large_genus(genus):
    # at genus 32 the pad 2c = 128 no longer fits int8
    pres = Presentation(genus)
    batched, reference = np.random.default_rng(genus), np.random.default_rng(genus)
    assert goldman.verify._random_words(pres, batched, 50) == _reference_words(pres, reference, 50)


class TestCocycleLawBatch:
    @pytest.mark.parametrize("genus, rank, flavor", [(2, 2, "unitary"), (2, 2, "general-linear"),
                                                     (3, 2, "unitary"), (2, 4, "unitary")])
    def test_residuals_are_the_pairwise_loop_bit_for_bit(self, tmp_path, genus, rank, flavor):
        # the oracle: one cocycle_law_residuals call per basis cocycle, on its
        # own draw of 100 pairs of GroupWords
        run = SuiteRun(RunConfig(genus=genus, rank=rank, flavor=flavor, seed=7, out=tmp_path))
        name = "cocycle-law-on-basis"
        batched = goldman.verify._cocycle_law_residuals(run, run.rng(name))
        rng, expected = run.rng(name), []
        for chi in run.basis.basis:
            words = _reference_words(chi.base.presentation, rng, 200)
            expected.extend(cocycle_law_residuals(chi, list(zip(words[0::2], words[1::2]))))
        assert len(batched) == 100 * len(run.basis.basis)
        assert batched == expected


class TestConjugator:
    def test_condition_number_is_bounded(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            for n in (1, 2, 3):
                c = goldman.verify._conjugator(rng, n)
                assert np.linalg.cond(c) <= np.exp(0.8) * (1 + 1e-12)
                if n > 1:
                    assert np.abs(c.conj().T @ c - np.eye(n)).max() > 1e-3

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_seed_twelve_passes(self, tmp_path, flavor):
        # the verify-suite benchmark seed whose Gaussian conjugator had
        # cond(c) = 112 and failed at the 1e-9 threshold
        run = SuiteRun(RunConfig(flavor=flavor, seed=3731056256, out=tmp_path))
        result = run_check(run, CHECKS["conjugation-equivariance"])
        assert result.passed
        assert result.max_residual < 1e-12

    def test_wrong_transport_is_caught(self, tmp_path):
        """Transporting by c chi c instead of c chi c^-1 misses the
        threshold of conjugation-equivariance by orders of magnitude."""
        run = SuiteRun(RunConfig(out=tmp_path))
        rng = np.random.default_rng(5)
        c = goldman.verify._conjugator(rng, run.rep.rank)
        moved = conjugate_representation(run.rep, c)
        chi1, chi2 = (random_cocycle(run.basis, rng) for _ in range(2))
        expected = chi1.flat @ run.rep.dual_form @ chi2.flat

        def residual(right):
            x, y = (Cocycle(moved, c @ chi.values @ right) for chi in (chi1, chi2))
            return abs(x.flat @ moved.dual_form @ y.flat - expected)

        assert residual(np.linalg.inv(c)) < 1e-12
        assert residual(c) > 1e-3


class TestRunConfig:
    def test_repeated_tolerance_keeps_the_last_value(self):
        config = RunConfig(tolerance_overrides=(("verification", 1e-30),
                                                ("verification", 1.0)))
        assert config.tolerance("verification") == 1.0
        assert config.tolerance_overrides == (("verification", 1.0),)
        assert config.describe().endswith(" tol.verification=1")


FIXED_BASE_CHECKS = ("cup-dual-agreement", "class-invariance", "antisymmetry",
                     "bilinearity", "conjugation-equivariance")


def _negated_b_blocks(rep):
    """W with its b_k column blocks negated: the dual-sign error."""
    w = np.array(dual_form_matrix(rep))
    n2 = rep.rank ** 2
    for k in range(rep.genus):
        w[:, (2 * k + 1) * n2:(2 * k + 2) * n2] *= -1
    return w


class TestPairingPaths:
    """The five checks that pair many cocycles over one base evaluate the
    cached matrix W; intersection-form pairs all its pairs in one stacked
    pairing_duals call.  No check calls the letterwise pairing_dual."""

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_fixed_base_checks_read_w(self, monkeypatch, tmp_path, flavor):
        run = SuiteRun(RunConfig(flavor=flavor, out=tmp_path))
        letterwise = _count_calls(monkeypatch, goldman.pairing, "pairing_dual")
        stacked = _count_calls(monkeypatch, goldman.pairing, "pairing_duals")
        assert run_check(run, CHECKS["intersection-form"]).passed
        # the 16 indicator pairs and the 20 random pairs of genus 2
        assert [len(pairs) for (pairs,) in stacked] == [16 + 20]
        for name in FIXED_BASE_CHECKS:
            assert run_check(run, CHECKS[name]).passed, name
        assert len(stacked) == 1
        assert letterwise == []

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_intersection_form_pairs_every_indicator_pair_in_one_cup_call(
            self, monkeypatch, tmp_path, genus):
        run = SuiteRun(RunConfig(genus=genus, rank=1, out=tmp_path))
        cups = _count_calls(monkeypatch, goldman.pairing, "pairing_cup")
        result = run_check(run, CHECKS["intersection-form"])
        count = 2 * max(genus, 2)
        assert result.passed and result.samples == count * count + 20
        assert len(cups) == 1
        assert [len(stack) for stack in cups[0]] == [count * count] * 2

    def test_a_sign_error_in_w_fails_three_checks(self, monkeypatch, tmp_path):
        """A W whose b_k blocks are negated disagrees with the cup product,
        is not skew and does not vanish on coboundaries.

        bilinearity and conjugation-equivariance cannot see it: x.flat @ W
        @ y.flat is bilinear for any matrix W, and each a_k and b_k block of
        W is conjugation-equivariant on its own, so a block with a flipped
        sign still is.
        """
        monkeypatch.setattr(Representation, "dual_form", property(_negated_b_blocks))
        run = SuiteRun(RunConfig(out=tmp_path))
        results = {name: run_check(run, CHECKS[name]) for name in FIXED_BASE_CHECKS}
        for name in ("cup-dual-agreement", "class-invariance", "antisymmetry"):
            assert not results[name].passed
            assert results[name].max_residual > 1.0
        assert results["bilinearity"].passed
        assert results["conjugation-equivariance"].passed
        assert run_check(run, CHECKS["intersection-form"]).passed

    def test_a_nan_w_fails_every_fixed_base_check(self, monkeypatch, tmp_path):
        # a NaN residual is the worst one: a running max() would drop it
        monkeypatch.setattr(Representation, "dual_form", property(
            lambda rep: np.full_like(dual_form_matrix(rep), np.nan)))
        run = SuiteRun(RunConfig(genus=2, rank=2, seed=0, out=tmp_path))
        for name in FIXED_BASE_CHECKS:
            result = run_check(run, CHECKS[name])
            assert np.isnan(result.max_residual) and not result.passed, name
            assert " max-residual=nan " in result.line()
            assert result.line().endswith(" verdict=FAIL")


class TestWorst:
    @pytest.mark.parametrize("residuals", [
        [np.nan], [np.nan, 1.0], [1.0, np.nan], [0.0, 2.0, np.nan, 3.0],
        [np.float64(np.nan)], [1.0, np.float64(np.nan), 2.0], [np.inf, np.nan],
        [np.nan, np.float64(np.inf)]])
    def test_any_nan_is_the_worst(self, residuals):
        assert np.isnan(goldman.verify._worst(residuals))
        assert np.isnan(goldman.verify._worst(iter(residuals)))
        assert np.isnan(goldman.verify._worst(r for r in residuals))

    def test_largest_or_zero(self):
        assert goldman.verify._worst([]) == 0.0
        assert goldman.verify._worst(r for r in ()) == 0.0
        assert goldman.verify._worst([3.0, 1.0, 4.0, 1.0]) == 4.0
        assert goldman.verify._worst(x for x in (2.5, np.inf)) == np.inf
        assert goldman.verify._worst([np.float64(np.inf), 1.0]) == np.inf
        assert goldman.verify._worst([np.float64(0.5), 0.25]) == 0.5


# (name, samples, threshold) of every report line at (2,2) seed 0, in report
# order; every verdict is PASS.  Only max-residual is left free, so no
# speed-up can change a sample count or a gate unseen.
CHECK_TABLE = (
    ("word-reduction-confluence", 100, 0.0),
    ("fox-product-rule", 400, 0.0),
    ("fox-closed-form", 12, 0.0),
    ("dual-generator-identities", 24, 0.0),
    ("anti-involution", 50, 0.0),
    ("two-cycle-shape", 3, 0.0),
    ("evaluate-multiplicative", 100, 1e-12),
    ("partial-relator-determinants", 3, 1e-10),
    ("commutator-factor", 102, 1e-10),
    ("representation-reproducibility", 2, 0.0),
    ("construction-quality", 6, 1e-12),
    ("newton-projection", 3, 0.0),
    ("cocycle-law-on-basis", 1300, 1e-8),
    ("dimension-formula", 6, 0.0),
    ("coboundary-containment", 20, 1e-10),
    ("star-involution", 20, 1e-12),
    ("real-locus-dimensions", 2, 0.0),
    ("cup-dual-agreement", 100, 1e-10),
    ("class-invariance", 100, 1e-9),
    ("antisymmetry", 100, 1e-9),
    ("bilinearity", 25, 1e-9),
    ("conjugation-equivariance", 25, 1e-9),
    ("gram-structure", 2, 1e-8),
    ("intersection-form", 36, 1e-12),
    ("symplectic-basis", 100, 1e-8),
    ("unitary-locus", 100, 1e-10),
    ("deformation-correction-order", 3, 0.3),
    ("coboundary-deformation", 2, 0.3),
    ("rh-round-trip", 4, 0.5),
    ("rh-conjugation-curve", 2, 1e-6),
    ("rh-cocycle-law-order", 100, 0.8),
    ("commuting-flows", 2, 0.4),
    ("closedness-order", 4, 0.3),
    ("closedness-abelian", 3, 1e-10),
    ("chart-irreducibility", 6, 0.0),
    ("file-round-trip", 5, 0.0),
)
UNITARY_ONLY = {"star-involution", "real-locus-dimensions", "unitary-locus"}


class TestCheckTable:
    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_samples_thresholds_and_verdicts_are_pinned(self, tmp_path, flavor):
        results = run_suite(RunConfig(genus=2, rank=2, flavor=flavor, seed=0,
                                      out=tmp_path))
        expected = [(name, samples, threshold, True)
                    for name, samples, threshold in CHECK_TABLE
                    if flavor == "unitary" or name not in UNITARY_ONLY]
        assert [(r.name, r.samples, r.threshold, r.passed) for r in results] == expected

    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (2, 2, "general-linear"), (1, 1, "unitary")])
    def test_reported_names_are_the_table_names(self, tmp_path, genus, rank, flavor):
        # the runner reports each check under its Check.name, the name by
        # which the benchmark's tracer times verify.<name>.s
        config = RunConfig(genus=genus, rank=rank, flavor=flavor, out=tmp_path)
        assert ([r.name for r in run_suite(config)]
                == [check.name for check in applicable_checks(config)])


# ---------------------------------------------------------------- per-sample oracles
# Each oracle is the per-sample loop a stacked check replaced: one Cocycle,
# one pairing and one factorization at a time, every number drawn as the
# sample reads it.

def per_sample_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def per_sample_haar(rng, n):
    q, r = np.linalg.qr(per_sample_gaussian(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def per_sample_cocycle(basis, rng):
    pool = basis.basis
    return goldman.cocycles.linear_combination(basis.base,
                                               per_sample_gaussian(rng, len(pool)), pool)


def per_pair_dual(rep, flip_b=False):
    w = _negated_b_blocks(rep) if flip_b else rep.dual_form
    return lambda chi1, chi2: complex(chi1.flat @ w @ chi2.flat)


def per_sample_coboundary(v, rep):
    return Cocycle(rep, rep.images @ v @ rep.inverse_images - v)


def oracle_cup_dual_agreement(run, rng):
    basis = run.basis
    dual = per_pair_dual(run.rep, flip_b=run.config.mutate == "dual-sign")
    pairs = [(per_sample_cocycle(basis, rng), per_sample_cocycle(basis, rng))
             for _ in range(100)]
    worst = max(0.0, *(abs(dual(chi1, chi2) - goldman.pairing.pairing_cup(chi1, chi2))
                       for chi1, chi2 in pairs))
    return 100, worst, 1e-10


def oracle_class_invariance(run, rng):
    rep, basis = run.rep, run.basis
    dual = per_pair_dual(rep)
    worst = 0.0
    for _ in range(100):
        chi1 = per_sample_cocycle(basis, rng)
        chi2 = per_sample_cocycle(basis, rng)
        delta = per_sample_coboundary(per_sample_gaussian(rng, (rep.rank, rep.rank)), rep)
        base_value = dual(chi1, chi2)
        worst = max(worst, abs(dual(chi1 + delta, chi2) - base_value))
        worst = max(worst, abs(dual(chi1, chi2 + delta) - base_value))
    return 100, worst, 1e-9


def oracle_antisymmetry(run, rng):
    dual = per_pair_dual(run.rep)
    worst = 0.0
    for _ in range(100):
        chi1 = per_sample_cocycle(run.basis, rng)
        chi2 = per_sample_cocycle(run.basis, rng)
        worst = max(worst, abs(dual(chi1, chi2) + dual(chi2, chi1)))
    return 100, worst, 1e-9


def oracle_bilinearity(run, rng):
    dual = per_pair_dual(run.rep)
    worst = 0.0
    for _ in range(25):
        chi1, chi2, chi3 = (per_sample_cocycle(run.basis, rng) for _ in range(3))
        s = complex(per_sample_gaussian(rng, ()))
        worst = max(worst, abs(dual(chi1 * s + chi3, chi2)
                               - (s * dual(chi1, chi2) + dual(chi3, chi2))))
        worst = max(worst, abs(dual(chi1, chi2 * s + chi3)
                               - (s * dual(chi1, chi2) + dual(chi1, chi3))))
    return 25, worst, 1e-9


def oracle_conjugation_equivariance(run, rng):
    rep, basis = run.rep, run.basis
    c = goldman.verify._conjugator(rng, rep.rank)
    c_inv = np.linalg.inv(c)
    moved = conjugate_representation(rep, c)
    dual, dual_moved = per_pair_dual(rep), per_pair_dual(moved)
    worst = 0.0
    for _ in range(25):
        chi1 = per_sample_cocycle(basis, rng)
        chi2 = per_sample_cocycle(basis, rng)
        moved1 = Cocycle(moved, c @ chi1.values @ c_inv)
        moved2 = Cocycle(moved, c @ chi2.values @ c_inv)
        worst = max(worst, abs(dual_moved(moved1, moved2) - dual(chi1, chi2)))
    return 25, worst, 1e-9


def oracle_commutator_factor(run, rng):
    worst = 0.0
    samples = 0
    for n in (2, 3, 4):
        for _ in range(17):
            u = per_sample_haar(rng, n)
            m = per_sample_haar(rng, n) + 0.3 * per_sample_gaussian(rng, (n, n))
            for x, unitary in ((u, True), (m, False)):
                x = x * np.linalg.det(x) ** (-1.0 / n)
                a, b = goldman.reps.commutator_factor(x, unitary=unitary)
                worst = max(worst, goldman.linalg.frob(
                    a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - x))
                samples += 1
    return samples, worst, 1e-10


def oracle_coboundary_containment(run, rng):
    rep, basis = run.rep, run.basis
    frame = basis.z1_frame
    worst = 0.0
    for _ in range(20):
        delta = per_sample_coboundary(per_sample_gaussian(rng, (rep.rank, rep.rank)), rep)
        residual = delta.flat - frame @ (frame.conj().T @ delta.flat)
        relator = goldman.linalg.frob(goldman.cocycles.extend(
            delta, rep.presentation.relator()))
        worst = max(worst, relator, float(np.linalg.norm(residual)))
    return 20, worst, 1e-10


def oracle_star_involution(run, rng):
    rep, basis = run.rep, run.basis
    frob = goldman.linalg.frob
    star = goldman.cocycles.star_involution
    worst = 0.0
    for _ in range(20):
        chi = per_sample_cocycle(basis, rng)
        again = star(star(chi))
        v = per_sample_gaussian(rng, (rep.rank, rep.rank))
        lhs = star(goldman.cocycles.coboundary(v, rep))
        rhs = goldman.cocycles.coboundary(v.conj().T, rep)
        anti = goldman.cocycles.anti_hermitian_part(chi)
        flipped = star(anti)
        worst = max(worst, *(frob(a - b) for a, b in zip(again.values, chi.values)),
                    *(frob(a - b) for a, b in zip(lhs.values, rhs.values)),
                    *(frob(a + b) for a, b in zip(flipped.values, anti.values)))
    return 20, worst, 1e-12


def oracle_intersection_form(run, rng):
    genus = max(run.config.genus, 2)
    rep = goldman.verify._trivial_rank_one(genus)
    count = 2 * genus
    indicators = [Cocycle(rep, row.reshape(count, 1, 1)) for row in np.eye(count)]
    worst = 0.0
    for i in range(count):
        for j in range(count):
            expected = (i // 2 == j // 2) * (1.0 if i < j else -1.0 if i > j else 0.0)
            worst = max(worst, abs(goldman.pairing.pairing_dual(indicators[i], indicators[j])
                                   - expected),
                        abs(goldman.pairing.pairing_cup(indicators[i], indicators[j])
                            - expected))
    for _ in range(20):
        x = per_sample_gaussian(rng, count)
        y = per_sample_gaussian(rng, count)
        hand = sum(x[2 * k] * y[2 * k + 1] - x[2 * k + 1] * y[2 * k] for k in range(genus))
        worst = max(worst, abs(goldman.pairing.pairing_dual(
            Cocycle(rep, x.reshape(count, 1, 1)), Cocycle(rep, y.reshape(count, 1, 1))) - hand))
    return count * count + 20, worst, 1e-12


ORACLES = {
    "cup-dual-agreement": oracle_cup_dual_agreement,
    "class-invariance": oracle_class_invariance,
    "antisymmetry": oracle_antisymmetry,
    "bilinearity": oracle_bilinearity,
    "conjugation-equivariance": oracle_conjugation_equivariance,
    "commutator-factor": oracle_commutator_factor,
    "coboundary-containment": oracle_coboundary_containment,
    "star-involution": oracle_star_involution,
    "intersection-form": oracle_intersection_form,
}


class TestStackedChecks:
    """The checks that stack their samples measure exactly what their
    per-sample loops measured: the same samples, residual and threshold."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (2, 3, "general-linear"), (3, 2, "unitary"), (2, 1, "unitary")])
    def test_each_check_equals_its_per_sample_oracle(self, tmp_path, genus, rank, flavor,
                                                     seed):
        run = SuiteRun(RunConfig(genus=genus, rank=rank, flavor=flavor, seed=seed,
                                 out=tmp_path))
        for name, oracle in ORACLES.items():
            if CHECKS[name].needs_unitary and flavor != "unitary":
                continue
            measured = CHECKS[name].fn(run, run.rng(name))
            assert measured == oracle(run, run.rng(name)), name

    @pytest.mark.parametrize("seed", [0, 7])
    def test_mutated_cup_dual_agreement_equals_its_oracle(self, tmp_path, seed):
        run = SuiteRun(RunConfig(seed=seed, mutate="dual-sign", out=tmp_path))
        name = "cup-dual-agreement"
        measured = CHECKS[name].fn(run, run.rng(name))
        assert measured == oracle_cup_dual_agreement(run, run.rng(name))
        assert measured[1] > 1.0

    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (3, 3, "general-linear"), (2, 1, "unitary")])
    def test_image_tuple_draws_are_the_per_image_draws(self, monkeypatch, tmp_path, genus,
                                                       rank, flavor):
        # newton-projection's noisy and far tuples and file-round-trip's
        # cocycle values are one draw per tuple: the per-image stream, bit
        # for bit, up to the draw that follows them
        run = SuiteRun(RunConfig(genus=genus, rank=rank, flavor=flavor, out=tmp_path))
        rep, n = run.rep, rank
        tuples, written = [], []
        project = goldman.verify.newton_project
        monkeypatch.setattr(goldman.verify, "newton_project", lambda pres, images, *rest: (
            tuples.append(np.array(images)), project(pres, images, *rest))[1])
        for name in ("write_cocycle", "write_matrix"):
            write = getattr(goldman.fileio, name)
            monkeypatch.setattr(goldman.fileio, name, lambda path, value, *rest, write=write: (
                written.append(value), write(path, value, *rest))[1])

        CHECKS["newton-projection"].fn(run, run.rng("newton-projection"))
        rng = run.rng("newton-projection")
        noisy = []
        for m in rep.images:
            z = per_sample_gaussian(rng, (n, n))
            if flavor == "unitary":
                z = (z - z.conj().T) / 2
            noisy.append((np.eye(n) + 1e-3 * z) @ m)
        expected = [rep.images[None], np.array([noisy])]
        if n > 1:
            expected.append(np.array([[per_sample_haar(rng, n) for _ in rep.images]]))
        assert len(tuples) == len(expected)
        for drawn, tuple_ in zip(tuples, expected):
            assert np.array_equal(drawn, tuple_)

        CHECKS["file-round-trip"].fn(run, run.rng("file-round-trip"))
        rng = run.rng("file-round-trip")
        values = [per_sample_gaussian(rng, (n, n)) for _ in rep.images]
        cocycles = [chi for chi in written if isinstance(chi, Cocycle)]
        assert len(cocycles) == 2
        assert all(np.array_equal(chi.values, values) for chi in cocycles)
        assert np.array_equal(written[-1], per_sample_gaussian(rng, (3, 5)))

    def test_relator_prefixes_are_one_stacked_product(self, monkeypatch, tmp_path):
        # W and partial-relator-determinants read R_0 ... R_g (and their
        # inverses) from one evaluate_words call, never word by word
        run = SuiteRun(RunConfig(genus=3, rank=2, seed=5, out=tmp_path))
        rep = run.rep
        alone = _count_calls(monkeypatch, goldman.reps, "evaluate")
        stacked = _count_calls(monkeypatch, goldman.reps, "evaluate_words")
        dual_form_matrix(rep)
        name = "partial-relator-determinants"
        samples, worst, _ = CHECKS[name].fn(run, run.rng(name))
        assert alone == [] and len(stacked) == 2
        assert samples == 4 and worst < 1e-12

    def test_a_verify_run_builds_few_cocycles(self, monkeypatch, tmp_path):
        # 178 at (2,2) seed 1 with the bases, chart frames and real-locus
        # bases held as CocycleStacks; 263 when each was built one Cocycle
        # per column, and 1775 when each sample of the six stacked checks
        # was its own Cocycle
        built = []
        checked = Cocycle.__post_init__

        def counted(chi):
            built.append(chi)
            checked(chi)

        monkeypatch.setattr(Cocycle, "__post_init__", counted)
        results = run_suite(RunConfig(genus=2, rank=2, seed=1, out=tmp_path))
        assert all(r.passed for r in results)
        assert len(built) <= 180

    def test_a_verify_run_takes_stacked_norms_and_pairings(self, monkeypatch, tmp_path):
        # 108 frob calls at (2,2) seed 1 with one frobs per stack, most of
        # them relator defects of new points; 2426 when every residual of a
        # stack was its own frob call.  No check pairs letterwise.
        norms = _count_calls(monkeypatch, goldman.linalg, "frob")
        letterwise = _count_calls(monkeypatch, goldman.pairing, "pairing_dual")
        results = run_suite(RunConfig(genus=2, rank=2, seed=1, out=tmp_path))
        assert all(r.passed for r in results)
        assert len(norms) < 200
        assert letterwise == []
