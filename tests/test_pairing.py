import sys

import numpy as np
import pytest

import goldman.charts
import goldman.pairing
from goldman import (Cocycle, CocycleStack, DegenerateFormError, InputError,
                     Representation, coboundary, cocycle_basis,
                     dual_form_matrix, gram, pairing_cup, word_jacobian,
                     pairing_dual, pairing_duals, random_cocycle, random_representation,
                     real_locus_bases, standard_block_j, symplectic_basis,
                     unitary_restriction_check)
from goldman.cli import _file_gram, main
from goldman.cocycles import linear_combination, stack_cocycles
from goldman.linalg import ad_matrix
from goldman.reps import evaluate
from goldman.config import RunConfig
from goldman.pairing import GoldmanGram
from goldman.verify import ALL_CHECKS, SuiteRun, run_check
from goldman.words import anti_involution
from letterwise import letterwise_extend, letterwise_pairing_dual

GRID = [(g, n) for g in (2, 3) for n in (1, 2, 3)]


def scalar_cocycle(rep, coefficients):
    return Cocycle(rep, tuple(np.array([[z]], dtype=complex) for z in coefficients))


def indicator(rep, index):
    n = rep.rank
    values = [np.zeros((n, n), dtype=complex)
              for _ in range(rep.presentation.generator_count)]
    values[index] = np.eye(n, dtype=complex)
    return Cocycle(rep, tuple(values))


class TestPairingValues:
    def test_zero_argument(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        zero = Cocycle(basis_g2n2.base, tuple(np.zeros((2, 2)) for _ in range(4)))
        assert pairing_dual(chi, zero) == 0.0
        assert pairing_cup(chi, zero) == 0.0

    def test_trivial_action_indicators(self, trivial_scalar_rep):
        chi_a = indicator(trivial_scalar_rep, 0)
        chi_b = indicator(trivial_scalar_rep, 1)
        assert abs(pairing_dual(chi_a, chi_b) - 1.0) < 1e-15
        assert abs(pairing_cup(chi_a, chi_b) - 1.0) < 1e-15

    def test_equal_arguments_vanish(self, basis_g2n2):
        rng = np.random.default_rng(40)
        for _ in range(10):
            chi = random_cocycle(basis_g2n2, rng)
            assert abs(pairing_dual(chi, chi)) < 1e-10

    def test_hand_closed_form_rank_one(self, trivial_scalar_rep):
        rng = np.random.default_rng(41)
        for _ in range(25):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            chi1 = scalar_cocycle(trivial_scalar_rep, x)
            chi2 = scalar_cocycle(trivial_scalar_rep, y)
            hand = (x[0] * y[1] - x[1] * y[0]) + (x[2] * y[3] - x[3] * y[2])
            assert abs(pairing_dual(chi1, chi2) - hand) < 1e-12
            assert abs(pairing_cup(chi1, chi2) - hand) < 1e-12


def letterwise_cup(chi1, chi2):
    """The cup oracle term by term: coeff * chi1(word), folded letter by
    letter (letterwise_extend), over the
    anti-involuted coefficient of each two-cycle pair, added to zero, then
    minus the trace against chi2 on the pair's generator."""
    rep = chi1.base
    total = 0.0 + 0.0j
    for coefficient, generator in rep.presentation.fundamental_two_cycle().pairs:
        ring = np.zeros((rep.rank, rep.rank), dtype=complex)
        for word, coeff in anti_involution(coefficient).terms():
            ring += coeff * letterwise_extend(chi1, word)
        total -= np.trace(ring @ chi2.values[generator.codes[0]])
    return complex(total)


def stacked_cup(pairs):
    """pairing_cup of a list of pairs in one stacked call."""
    chi1s, chi2s = zip(*pairs)
    return pairing_cup(stack_cocycles(chi1s), stack_cocycles(chi2s))


def random_values(rep, rng):
    n = rep.rank
    shape = (rep.presentation.generator_count, n, n)
    return Cocycle(rep, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestStackedCup:
    """pairing_cup folds every word of the anti-involuted two-cycle for a
    whole stack of pairs at once, bit for bit the letterwise oracle."""

    @pytest.mark.parametrize("genus,rank,flavor", [
        (2, 2, "unitary"), (3, 3, "general-linear"), (2, 4, "unitary"),
        (2, 1, "unitary"), (4, 2, "unitary")])
    def test_stack_is_letterwise_bit_for_bit(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=genus + rank)
        rng = np.random.default_rng(70)
        pairs = [(random_values(rep, rng), random_values(rep, rng)) for _ in range(12)]
        reference = [letterwise_cup(chi1, chi2) for chi1, chi2 in pairs]
        stacked = stacked_cup(pairs)
        assert stacked.shape == (12,)
        assert stacked.tolist() == reference
        assert [pairing_cup(chi1, chi2) for chi1, chi2 in pairs] == reference

    def test_basis_pairs_are_letterwise_bit_for_bit(self, seeded_bases):
        rng = np.random.default_rng(71)
        for basis in seeded_bases.values():
            pairs = [(random_cocycle(basis, rng), random_cocycle(basis, rng))
                     for _ in range(5)]
            stacked = stacked_cup(pairs)
            assert stacked.tolist() == [letterwise_cup(*pair) for pair in pairs]

    def test_one_row_stack_is_one_pair(self, basis_g2n2):
        chi, psi = basis_g2n2.h1_complement[:2]
        one = pairing_cup(stack_cocycles([chi]), stack_cocycles([psi]))
        assert isinstance(pairing_cup(chi, psi), complex)
        assert one.tolist() == [pairing_cup(chi, psi)]

    def test_malformed_stacks_rejected(self, basis_g2n2):
        chi, psi = basis_g2n2.h1_complement[:2]
        other = random_cocycle(cocycle_basis(random_representation(2, 2, seed=3)),
                               np.random.default_rng(72))
        with pytest.raises(InputError, match="cannot pair 2 cocycles with 1"):
            pairing_cup(stack_cocycles([chi, psi]), stack_cocycles([psi]))
        with pytest.raises(InputError, match="two cocycle stacks"):
            pairing_cup(chi, stack_cocycles([psi]))
        with pytest.raises(InputError, match="different base"):
            pairing_cup(stack_cocycles([chi]), stack_cocycles([other]))
        with pytest.raises(InputError, match="different base"):
            stack_cocycles([chi, other])
        with pytest.raises(InputError, match="at least one"):
            stack_cocycles([])


class TestStackedDual:
    """pairing_duals pairs many cocycle pairs, each over its own base, in
    one stacked fold of the dual words, and pairing_dual one pair, each
    bit for bit the letterwise closed form (letterwise_pairing_dual)."""

    @pytest.mark.parametrize("genus,rank,flavor", [
        (2, 2, "unitary"), (3, 2, "unitary"), (2, 3, "general-linear"),
        (2, 1, "unitary")])
    def test_pairs_over_many_bases_are_letterwise_bit_for_bit(self, genus, rank, flavor):
        bases = [random_representation(genus, rank, flavor, seed=seed) for seed in (80, 81, 82)]
        rng = np.random.default_rng(80)
        # the bases interleave, and one base recurs, as chart points do
        pairs = [(random_values(rep, rng), random_values(rep, rng))
                 for _ in range(3) for rep in (*bases, bases[0])]
        reference = [letterwise_pairing_dual(chi1, chi2) for chi1, chi2 in pairs]
        stacked = pairing_duals(pairs)
        assert stacked.shape == (len(pairs),) and stacked.dtype == complex
        assert stacked.tolist() == reference
        assert [pairing_dual(chi1, chi2) for chi1, chi2 in pairs] == reference

    def test_basis_pairs_are_letterwise_bit_for_bit(self, seeded_bases):
        rng = np.random.default_rng(81)
        for basis in seeded_bases.values():
            pairs = [(random_cocycle(basis, rng), random_cocycle(basis, rng))
                     for _ in range(4)]
            reference = [letterwise_pairing_dual(*pair) for pair in pairs]
            assert pairing_duals(pairs).tolist() == reference
            assert [pairing_dual(*pair) for pair in pairs] == reference

    def test_one_pair_is_pairing_dual(self, basis_g2n2):
        chi, psi = basis_g2n2.h1_complement[:2]
        assert pairing_duals([(chi, psi)]).tolist() == [pairing_dual(chi, psi)]

    def test_malformed_pairs_rejected(self, rep_g2n2):
        rng = np.random.default_rng(82)
        chi, psi = random_values(rep_g2n2, rng), random_values(rep_g2n2, rng)
        other = random_values(random_representation(2, 2, seed=83), rng)
        genus3 = random_values(random_representation(3, 2, seed=83), rng)
        rank3 = random_values(random_representation(2, 3, seed=83), rng)
        with pytest.raises(InputError, match="non-empty sequence"):
            pairing_duals([])
        with pytest.raises(InputError, match="non-empty sequence"):
            pairing_duals(iter([(chi, psi)]))
        with pytest.raises(InputError, match="different base"):
            pairing_duals([(chi, psi), (chi, other)])
        with pytest.raises(InputError, match="mix genus or rank"):
            pairing_duals([(chi, psi), (genus3, genus3)])
        with pytest.raises(InputError, match="mix genus or rank"):
            pairing_duals([(rank3, rank3), (chi, psi)])
        for pair in ((chi,), (chi, psi, chi), (chi, 3), chi,
                     (stack_cocycles([chi]), stack_cocycles([psi]))):
            with pytest.raises(InputError, match=r"\(cocycle, cocycle\) pairs"):
                pairing_duals([pair])


class TestCupPath:
    def test_coboundary_on_cycle_vanishes(self, basis_g2n2):
        rng = np.random.default_rng(42)
        rep = basis_g2n2.base
        for _ in range(20):
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            chi = random_cocycle(basis_g2n2, rng)
            assert abs(pairing_cup(coboundary(v, rep), chi)) < 1e-10
            assert abs(pairing_cup(chi, coboundary(v, rep))) < 1e-10

    def test_agreement_with_dual(self, seeded_bases):
        for basis in seeded_bases.values():
            rng = np.random.default_rng(43)
            for _ in range(10):
                chi1 = random_cocycle(basis, rng)
                chi2 = random_cocycle(basis, rng)
                assert abs(pairing_dual(chi1, chi2) - pairing_cup(chi1, chi2)) < 1e-10


class TestInvarianceProperties:
    def test_coboundary_shift(self, basis_g2n2):
        rng = np.random.default_rng(44)
        rep = basis_g2n2.base
        for _ in range(25):
            chi1 = random_cocycle(basis_g2n2, rng)
            chi2 = random_cocycle(basis_g2n2, rng)
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            base = pairing_dual(chi1, chi2)
            assert abs(pairing_dual(chi1 + coboundary(v, rep), chi2) - base) < 1e-9
            assert abs(pairing_dual(chi1, chi2 + coboundary(v, rep)) - base) < 1e-9

    def test_antisymmetry(self, basis_g2n2):
        rng = np.random.default_rng(45)
        for _ in range(25):
            chi1 = random_cocycle(basis_g2n2, rng)
            chi2 = random_cocycle(basis_g2n2, rng)
            assert abs(pairing_dual(chi1, chi2) + pairing_dual(chi2, chi1)) < 1e-9

    def test_bilinearity(self, basis_g2n2):
        rng = np.random.default_rng(46)
        chi1 = random_cocycle(basis_g2n2, rng)
        chi2 = random_cocycle(basis_g2n2, rng)
        chi3 = random_cocycle(basis_g2n2, rng)
        s = 1.7 - 0.3j
        lhs = pairing_dual(s * chi1 + chi3, chi2)
        rhs = s * pairing_dual(chi1, chi2) + pairing_dual(chi3, chi2)
        assert abs(lhs - rhs) < 1e-10

    def test_conjugation_equivariance(self, basis_g2n2):
        rng = np.random.default_rng(47)
        rep = basis_g2n2.base
        c = np.eye(2) + 0.4 * (rng.standard_normal((2, 2))
                               + 1j * rng.standard_normal((2, 2)))
        c_inv = np.linalg.inv(c)
        moved = Representation(rep.presentation, 2,
                               tuple(c @ m @ c_inv for m in rep.images),
                               "general-linear")
        for _ in range(10):
            chi1 = random_cocycle(basis_g2n2, rng)
            chi2 = random_cocycle(basis_g2n2, rng)
            moved1 = Cocycle(moved, tuple(c @ m @ c_inv for m in chi1.values))
            moved2 = Cocycle(moved, tuple(c @ m @ c_inv for m in chi2.values))
            assert abs(pairing_dual(moved1, moved2) - pairing_dual(chi1, chi2)) < 1e-9

    def test_base_mismatch_rejected(self, rep_g2n2):
        other = random_representation(2, 2, "unitary", seed=77)
        with pytest.raises(InputError):
            pairing_dual(indicator(rep_g2n2, 0), indicator(other, 0))


class TestGram:
    def test_trivial_action_intersection_form(self, trivial_scalar_rep):
        indicators = [indicator(trivial_scalar_rep, i) for i in range(4)]
        matrix = np.array([[pairing_dual(u, v) for v in indicators]
                           for u in indicators])
        expected = np.zeros((4, 4))
        expected[0, 1], expected[1, 0] = 1.0, -1.0
        expected[2, 3], expected[3, 2] = 1.0, -1.0
        assert np.abs(matrix - expected).max() < 1e-12

    def test_complement_rank_and_skewness(self, basis_g2n2):
        g = gram(basis_g2n2.h1_complement)
        assert g.skewness_residual < 1e-8
        rank, margin = g.rank()
        assert rank == basis_g2n2.dims[2]
        assert margin >= 1e3

    def test_z1_rank_is_h1_dimension(self, basis_g2n2):
        g = gram(basis_g2n2.basis)
        rank, _ = g.rank()
        assert rank == basis_g2n2.dims[2]

    def test_matrix_matches_entrywise_dual(self, seeded_bases):
        for basis in seeded_bases.values():
            vectors = basis.h1_complement[:10]
            entrywise = np.array([[pairing_dual(u, v) for v in vectors]
                                  for u in vectors])
            assert np.abs(gram(vectors).matrix - entrywise).max() < 1e-12

    def test_matrix_is_read_only(self, basis_g2n2):
        assert not gram(basis_g2n2.basis).matrix.flags.writeable

    def test_mixed_bases_rejected(self, basis_g2n2):
        other = cocycle_basis(random_representation(2, 2, "unitary", seed=77))
        with pytest.raises(InputError):
            gram([basis_g2n2.basis[0], other.basis[0]])

    @pytest.mark.parametrize("genus,rank", [(4, 4), (6, 3)])
    def test_large_sizes_match_cup_with_margin(self, genus, rank):
        basis = cocycle_basis(random_representation(genus, rank, "unitary", seed=0))
        g = gram(basis.h1_complement)
        vectors = basis.h1_complement
        rng = np.random.default_rng(genus)
        for i, j in rng.integers(0, len(vectors), size=(8, 2)):
            assert abs(g.matrix[i, j] - pairing_cup(vectors[i], vectors[j])) < 1e-10
        rank_found, margin = g.rank()
        assert rank_found == basis.dims[2] == len(vectors)
        assert margin >= 1e3

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            gram(())

    def test_empty_list_names_the_rule(self):
        with pytest.raises(InputError, match="need at least one cocycle"):
            gram([])

    def test_stack_is_the_tuple_bit_for_bit(self, seeded_bases):
        for basis in seeded_bases.values():
            stacked = gram(basis.h1_complement)
            assert stacked.vectors is basis.h1_complement
            assert np.array_equal(stacked.matrix, gram(tuple(basis.h1_complement)).matrix)
        assert stack_cocycles(basis.h1_complement) is basis.h1_complement

    def test_lone_cocycle_rejected(self, basis_g2n2):
        with pytest.raises(InputError, match="sequence of cocycles, got Cocycle") as error:
            gram(basis_g2n2.basis[0])
        assert error.value.exit_code == 2

    def test_file_command_matrix_is_read_only(self, tmp_path):
        out = str(tmp_path)
        assert main(["--seed", "13", "--out", out, "random-rep"]) == 0
        assert main(["--seed", "13", "--out", out, "cocycle-basis"]) == 0
        files = sorted(tmp_path.glob("cocycle-*.txt"))
        g = _file_gram(tmp_path / "representation.txt", files)
        assert len(g.vectors) == len(files)
        assert not g.matrix.flags.writeable


class TestDualForm:
    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_agrees_with_dual_and_cup(self, flavor):
        rng = np.random.default_rng(50)
        for genus, rank in GRID:
            rep = random_representation(genus, rank, flavor, seed=3)
            basis = cocycle_basis(rep)
            for _ in range(4):
                chi1 = random_cocycle(basis, rng)
                chi2 = random_cocycle(basis, rng)
                value = chi1.flat @ rep.dual_form @ chi2.flat
                assert abs(value - pairing_dual(chi1, chi2)) < 1e-10
                assert abs(value - pairing_cup(chi1, chi2)) < 1e-10

    @pytest.mark.parametrize("genus,rank,flavor", [
        (2, 2, "unitary"), (3, 3, "general-linear"), (4, 3, "unitary"), (1, 2, "unitary")])
    def test_blocks_are_letterwise_bit_for_bit(self, genus, rank, flavor):
        # T Ad(sigma(R_k)) from letterwise images of R_k and R_k^-1, block by block
        rep = random_representation(genus, rank, flavor, seed=genus + rank)
        pres = rep.presentation
        duals = pres.dual_generators()
        n = rank
        transpose = np.arange(n * n).reshape((n, n), order="F").T.ravel(order="F")

        def trace_ad(word):
            return ad_matrix(evaluate(rep, word), evaluate(rep, word.inverse()))[transpose]

        blocks = []
        for k in range(1, genus + 1):
            blocks.append(word_jacobian(rep, duals[2 * k - 2]).T @ trace_ad(pres.relator(k - 1)))
            blocks.append(-word_jacobian(rep, duals[2 * k - 1]).T @ trace_ad(pres.relator(k)))
        assert np.array_equal(dual_form_matrix(rep), np.hstack(blocks))

    def test_trivial_action_is_intersection_form(self, trivial_scalar_rep):
        expected = np.zeros((4, 4))
        expected[0, 1], expected[1, 0] = 1.0, -1.0
        expected[2, 3], expected[3, 2] = 1.0, -1.0
        assert np.array_equal(dual_form_matrix(trivial_scalar_rep), expected)

    def test_cached_per_representation(self, monkeypatch):
        builds = []

        def counting(rep):
            builds.append(rep)
            return dual_form_matrix(rep)

        monkeypatch.setattr(goldman.pairing, "dual_form_matrix", counting)
        rep = random_representation(2, 2, "unitary", seed=11)
        basis = cocycle_basis(rep)
        gram(basis.basis)
        gram(basis.h1_complement)
        assert rep.dual_form is rep.dual_form
        assert builds == [rep]
        assert not rep.dual_form.flags.writeable
        other = random_representation(2, 2, "unitary", seed=12)
        assert other.dual_form is not rep.dual_form
        assert len(builds) == 2

    def test_gram_assembly_never_pairs_entrywise(self, monkeypatch, tmp_path):
        def refuse(chi1, chi2):
            raise AssertionError("Gram assembly called pairing_dual")

        # every module that holds pairing_dual (verify pairs without it)
        for module in (goldman.pairing, goldman.charts):
            monkeypatch.setattr(module, "pairing_dual", refuse)
        rep = random_representation(2, 2, "unitary", seed=13)
        basis = cocycle_basis(rep)
        gram(basis.h1_complement)
        unitary_restriction_check(real_locus_bases(basis)[1])
        run = SuiteRun(RunConfig(seed=13))
        checks = {check.name: check for check in ALL_CHECKS}
        for name in ("gram-structure", "symplectic-basis", "unitary-locus"):
            assert run_check(run, checks[name]).passed

        out = str(tmp_path)
        assert main(["--seed", "13", "--out", out, "random-rep"]) == 0
        assert main(["--seed", "13", "--out", out, "cocycle-basis"]) == 0
        files = sorted(str(p) for p in tmp_path.glob("cocycle-*.txt"))
        rep_file = str(tmp_path / "representation.txt")
        assert main(["--out", out, "gram", "--rep", rep_file] + files) == 0
        assert main(["--out", out, "symplectic-basis", "--rep", rep_file] + files) == 0


class TestSymplecticBasis:
    def test_standard_input_identity_transform(self, basis_g2n2):
        g = GoldmanGram(vectors=stack_cocycles(basis_g2n2.h1_complement[:4]),
                        matrix=standard_block_j(2).astype(complex))
        sb = symplectic_basis(g)
        assert np.allclose(sb.transform, np.eye(4))

    def test_cocycles_are_stacked_once(self, basis_g2n2, monkeypatch):
        calls = []

        def counting(cocycles):
            calls.append(cocycles)
            return stack_cocycles(cocycles)

        for key, module in list(sys.modules.items()):
            if (key == "goldman" or key.startswith("goldman.")) and hasattr(
                    module, "stack_cocycles"):
                monkeypatch.setattr(module, "stack_cocycles", counting)
        g = gram(basis_g2n2.h1_complement)
        assert len(calls) == 1
        sb = symplectic_basis(g)
        assert len(calls) == 1
        assert isinstance(g.vectors, CocycleStack)
        assert all(chi.base is g.vectors.base for chi in sb.e + sb.f)

    def test_outputs_are_one_row_combinations_bit_for_bit(self, seeded_bases):
        # one matrix linear_combination gives each output as its column's row
        for basis in seeded_bases.values():
            g = gram(basis.h1_complement)
            sb = symplectic_basis(g)
            for chi, column in zip(sb.e + sb.f, sb.transform.T):
                one = linear_combination(g.vectors.base, column, g.vectors)
                assert np.array_equal(chi.values, one.values)

    def test_trivial_action_two_pairs(self, trivial_scalar_rep):
        basis = cocycle_basis(trivial_scalar_rep)
        sb = symplectic_basis(gram(basis.h1_complement))
        assert sb.pair_count == 2

    def test_irreducible_five_pairs(self, basis_g2n2):
        sb = symplectic_basis(gram(basis_g2n2.h1_complement))
        assert sb.pair_count == 5
        vectors = list(sb.e) + list(sb.f)
        expected = standard_block_j(5)
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                assert abs(pairing_dual(u, v) - expected[i, j]) < 1e-8

    def test_degenerate_input_raises(self, basis_g2n2):
        rng = np.random.default_rng(48)
        rep = basis_g2n2.base
        vectors = (basis_g2n2.basis[0],
                   coboundary(rng.standard_normal((2, 2)), rep))
        matrix = np.array([[pairing_dual(u, v) for v in vectors] for u in vectors])
        g = GoldmanGram(vectors=stack_cocycles(vectors), matrix=matrix)
        with pytest.raises(DegenerateFormError) as excinfo:
            symplectic_basis(g)
        assert excinfo.value.null_vector is not None

    def test_odd_dimension_rejected(self, basis_g2n2):
        g = GoldmanGram(vectors=stack_cocycles(basis_g2n2.h1_complement[:3]),
                        matrix=np.zeros((3, 3), dtype=complex))
        with pytest.raises(DegenerateFormError):
            symplectic_basis(g)


class TestUnitaryLocus:
    def test_rank_one_character(self):
        rep = random_representation(2, 1, "unitary", seed=5)
        basis = cocycle_basis(rep)
        _, h1_real = real_locus_bases(basis)
        report = unitary_restriction_check(h1_real)
        assert report.passed
        assert report.max_imaginary < 1e-10
        assert report.real_rank == report.expected_rank == 4

    def test_g2n2(self, basis_g2n2):
        _, h1_real = real_locus_bases(basis_g2n2)
        report = unitary_restriction_check(h1_real)
        assert report.passed
        assert report.max_imaginary < 1e-10
        assert report.real_rank == basis_g2n2.dims[2]

    def test_zero_cocycle_pairs_to_zero(self, rep_g2n2):
        zero = Cocycle(rep_g2n2, tuple(np.zeros((2, 2)) for _ in range(4)))
        _, h1_real = real_locus_bases(cocycle_basis(rep_g2n2))
        assert pairing_dual(zero, h1_real[0]) == 0.0

    def test_rejects_non_anti_hermitian(self, basis_g2n2):
        rng = np.random.default_rng(49)
        chi = random_cocycle(basis_g2n2, rng)
        with pytest.raises(InputError):
            unitary_restriction_check([chi])

    def test_rejects_general_linear_base(self):
        rep = random_representation(2, 2, "general-linear", seed=8)
        basis = cocycle_basis(rep)
        zero = Cocycle(rep, tuple(np.zeros((2, 2)) for _ in range(4)))
        with pytest.raises(InputError):
            unitary_restriction_check([zero])
