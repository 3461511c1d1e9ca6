import numpy as np
import pytest

import goldman.pairing
from goldman import (Cocycle, DegenerateFormError, InputError,
                     Representation, coboundary, cocycle_basis,
                     dual_form_matrix, gram, gram_matrix, pairing_cup,
                     pairing_dual, random_cocycle, random_representation,
                     real_locus_bases, standard_block_j, symplectic_basis,
                     unitary_restriction_check)
from goldman.config import RunConfig
from goldman.pairing import GoldmanGram
from goldman.verify import (SuiteRun, check_gram_structure, check_symplectic_basis,
                            check_unitary_locus)

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
        g = gram(basis_g2n2, "h1-complement")
        assert g.skewness_residual < 1e-8
        rank, margin = g.rank()
        assert rank == basis_g2n2.dims[2]
        assert margin >= 1e3

    def test_z1_rank_is_h1_dimension(self, basis_g2n2):
        g = gram(basis_g2n2, "z1")
        rank, _ = g.rank()
        assert rank == basis_g2n2.dims[2]

    def test_matrix_matches_entrywise_dual(self, seeded_bases):
        for basis in seeded_bases.values():
            vectors = basis.h1_complement[:10]
            entrywise = np.array([[pairing_dual(u, v) for v in vectors]
                                  for u in vectors])
            assert np.abs(gram_matrix(vectors) - entrywise).max() < 1e-12

    def test_matrix_is_read_only(self, basis_g2n2):
        assert not gram(basis_g2n2, "z1").matrix.flags.writeable

    def test_mixed_bases_rejected(self, basis_g2n2):
        other = cocycle_basis(random_representation(2, 2, "unitary", seed=77))
        with pytest.raises(InputError):
            gram_matrix([basis_g2n2.basis[0], other.basis[0]])

    @pytest.mark.parametrize("genus,rank", [(4, 4), (6, 3)])
    def test_large_sizes_match_cup_with_margin(self, genus, rank):
        basis = cocycle_basis(random_representation(genus, rank, "unitary", seed=0))
        g = gram(basis, "h1-complement")
        vectors = basis.h1_complement
        rng = np.random.default_rng(genus)
        for i, j in rng.integers(0, len(vectors), size=(8, 2)):
            assert abs(g.matrix[i, j] - pairing_cup(vectors[i], vectors[j])) < 1e-10
        rank_found, margin = g.rank()
        assert rank_found == basis.dims[2] == len(vectors)
        assert margin >= 1e3

    def test_unknown_space(self, basis_g2n2):
        with pytest.raises(InputError):
            gram(basis_g2n2, "b1")


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
        gram(basis, "z1")
        gram(basis, "h1-complement")
        assert rep.dual_form is rep.dual_form
        assert builds == [rep]
        assert not rep.dual_form.flags.writeable
        other = random_representation(2, 2, "unitary", seed=12)
        assert other.dual_form is not rep.dual_form
        assert len(builds) == 2

    def test_gram_assembly_never_pairs_entrywise(self, monkeypatch, tmp_path):
        def refuse(chi1, chi2):
            raise AssertionError("Gram assembly called pairing_dual")

        for module in (goldman.pairing, goldman.verify):
            monkeypatch.setattr(module, "pairing_dual", refuse)
        rep = random_representation(2, 2, "unitary", seed=13)
        basis = cocycle_basis(rep)
        gram(basis, "h1-complement")
        unitary_restriction_check(real_locus_bases(basis)[1])
        run = SuiteRun(RunConfig(seed=13))
        for check in (check_gram_structure, check_symplectic_basis,
                      check_unitary_locus):
            assert check(run).passed

        from goldman.cli import main

        out = str(tmp_path)
        assert main(["--seed", "13", "--out", out, "random-rep"]) == 0
        assert main(["--seed", "13", "--out", out, "cocycle-basis"]) == 0
        files = sorted(str(p) for p in tmp_path.glob("cocycle-*.txt"))
        rep_file = str(tmp_path / "representation.txt")
        assert main(["--out", out, "gram", "--rep", rep_file] + files) == 0
        assert main(["--out", out, "symplectic-basis", "--rep", rep_file] + files) == 0


class TestSymplecticBasis:
    def test_standard_input_identity_transform(self, basis_g2n2):
        g = GoldmanGram(base=basis_g2n2.base,
                        vectors=tuple(basis_g2n2.h1_complement[:4]),
                        matrix=standard_block_j(2).astype(complex))
        sb = symplectic_basis(g)
        assert np.allclose(sb.transform, np.eye(4))

    def test_trivial_action_two_pairs(self, trivial_scalar_rep):
        basis = cocycle_basis(trivial_scalar_rep)
        sb = symplectic_basis(gram(basis, "h1-complement"))
        assert sb.pair_count == 2

    def test_irreducible_five_pairs(self, basis_g2n2):
        sb = symplectic_basis(gram(basis_g2n2, "h1-complement"))
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
        g = GoldmanGram(base=rep, vectors=vectors, matrix=matrix)
        with pytest.raises(DegenerateFormError) as excinfo:
            symplectic_basis(g)
        assert excinfo.value.null_vector is not None

    def test_odd_dimension_rejected(self, basis_g2n2):
        g = GoldmanGram(base=basis_g2n2.base,
                        vectors=tuple(basis_g2n2.h1_complement[:3]),
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
