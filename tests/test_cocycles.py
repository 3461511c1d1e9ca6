from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldman.cocycles
import goldman.linalg
import goldman.reps
import goldman.tolerances
from goldman import (Cocycle, ConditioningError, GroupWord, InputError, Presentation,
                     Representation, anti_hermitian_part, coboundary, cocycle_basis,
                     cocycle_law_residuals, evaluate, evaluate_words, extend,
                     extend_ring, extend_words, random_cocycle,
                     random_representation, real_locus_bases, relator_residual,
                     star_involution, word_jacobian)
from goldman.cli import main
from goldman.config import RunConfig
from goldman.cocycles import (CocycleBasis, CocycleStack, cocycle_dimensions,
                              expected_h1_dimension, from_flat, linear_combination,
                              ring_values, sine_bound, stack_cocycles)
from goldman.linalg import (ad_matrix, canonical_frame, column_space, complement_within,
                            decided_rank, frob, nullspace, split_singular_values,
                            triangular_values, vec)
from goldman.reps import commutant_dimension, relator_tangent_matrix
from goldman.words import GroupRingElement, letter_codes, ring_codes
from letterwise import letterwise_extend


def indicator(rep, index):
    n = rep.rank
    values = [np.zeros((n, n), dtype=complex)
              for _ in range(rep.presentation.generator_count)]
    values[index] = np.eye(n, dtype=complex)
    return Cocycle(rep, tuple(values))


class TestExtend:
    def test_empty_word(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        value = extend(chi, chi.base.presentation.identity())
        assert frob(value) == 0.0

    def test_trivial_action_is_additive(self, trivial_scalar_rep):
        chi = indicator(trivial_scalar_rep, 0)
        pres = trivial_scalar_rep.presentation
        w = pres.a(1) * pres.b(1)
        assert np.allclose(extend(chi, w),
                           chi.values[0] + chi.values[1])

    def test_word_times_inverse_vanishes(self, basis_g2n2):
        rng = np.random.default_rng(20)
        chi = basis_g2n2.basis[3]
        pres = chi.base.presentation
        for _ in range(20):
            raw = [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                   for _ in range(int(rng.integers(0, 8)))]
            w = pres.word(raw)
            assert frob(extend(chi, w * w.inverse())) < 1e-12

    def test_law_on_random_words(self, basis_g2n2):
        rng = np.random.default_rng(21)
        pres = basis_g2n2.base.presentation
        raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(int(rng.integers(0, 8)))]
        for chi in basis_g2n2.basis:
            pairs = [(pres.word(raw()), pres.word(raw())) for _ in range(100)]
            assert max(cocycle_law_residuals(chi, pairs)) < 1e-8

    def test_relator_constraint_on_basis(self, seeded_bases):
        for basis in seeded_bases.values():
            for chi in basis.basis:
                assert relator_residual(chi) < 1e-10


def word_batch(pres, words):
    """The WordBatch of a non-empty list of words, through reduce_batch."""
    width = max(map(len, words))
    return pres.reduce_batch([list(w.codes) + [0] * (width - len(w)) for w in words],
                             [len(w) for w in words])


def stacked_test_words(pres, rng, count=300, longest=8):
    """count words over pres: the empty word, w w^-1 products that cancel
    to it, products u v that cancel part way, and free random words, each
    factor of up to longest letters."""
    def raw():
        return [(int(rng.integers(0, 2 * pres.genus)), int(rng.choice([-1, 1])))
                for _ in range(int(rng.integers(0, longest + 1)))]

    words = [pres.identity()]
    while len(words) < count:
        u, v = pres.word(raw()), pres.word(raw())
        kind = len(words) % 3
        if kind == 0:
            words.append(u * u.inverse())
        elif kind == 1:
            tail = pres.reduce(u.codes[len(u) // 2:])
            words.append(u * (tail.inverse() * v))
        else:
            words.append(u)
    return words


def random_values_cocycle(rep, rng):
    """A cocycle container with random values: a fold does not need the
    relator constraint."""
    n = rep.rank
    return Cocycle(rep, tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                              for _ in range(rep.presentation.generator_count)))


class TestStackedWords:
    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_fold_and_product_equal_letterwise_bit_for_bit(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=genus + 7 * rank)
        rng = np.random.default_rng(100 * genus + rank)
        chi = random_values_cocycle(rep, rng)
        words = stacked_test_words(rep.presentation, rng)
        assert any(w.is_identity for w in words[1:])
        folded = extend_words(chi, words)
        images = evaluate_words(rep, words)
        assert folded.shape == images.shape == (len(words), rank, rank)
        for w, value, image in zip(words, folded, images):
            reference = letterwise_extend(chi, w)
            assert np.array_equal(value, reference)
            assert np.array_equal(extend(chi, w), reference)
            assert np.array_equal(image, evaluate(rep, w))

    @pytest.mark.parametrize("genus,rank,flavor", [
        (4, 4, "general-linear"), (1, 4, "unitary"), (4, 1, "general-linear"),
        (3, 2, "unitary")])
    def test_long_words_equal_letterwise_bit_for_bit(self, genus, rank, flavor):
        # reduced words of 0 to 40 letters: extend is the one-row extend_words
        rep = random_representation(genus, rank, flavor, seed=genus * rank)
        rng = np.random.default_rng(genus + 10 * rank)
        chi = random_values_cocycle(rep, rng)
        count = rep.presentation.generator_count
        words = []
        for length in [40, *rng.integers(0, 41, size=40)]:
            codes = []
            while len(codes) < length:
                code = int(rng.integers(0, 2 * count))
                if not (codes and abs(codes[-1] - code) == count):
                    codes.append(code)
            words.append(GroupWord(genus, codes))
        for w, value in zip(words, extend_words(chi, words)):
            reference = letterwise_extend(chi, w)
            assert np.array_equal(value, reference)
            assert np.array_equal(extend(chi, w), reference)

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_law_residuals_equal_pairwise_reference(self, flavor):
        rep = random_representation(2, 2, flavor, seed=3)
        rng = np.random.default_rng(31)
        chi = random_cocycle(cocycle_basis(rep), rng)
        words = stacked_test_words(rep.presentation, rng, count=200)
        pairs = list(zip(words[0::2], words[1::2]))
        expected = []
        for u, v in pairs:
            sigma_u = evaluate(rep, u)
            rhs = (letterwise_extend(chi, u)
                   + sigma_u @ letterwise_extend(chi, v) @ np.linalg.inv(sigma_u))
            expected.append(frob(letterwise_extend(chi, u * v) - rhs))
        assert cocycle_law_residuals(chi, pairs) == expected
        u, v = word_batch(rep.presentation, words[0::2]), word_batch(rep.presentation, words[1::2])
        assert cocycle_law_residuals(chi, (u, v)) == expected
        # general-linear images grow along words of up to 16 letters
        assert max(expected) < 1e-6

    def test_interleaved_lengths_keep_word_order(self, basis_g2n2):
        # rows are folded longest first; empty and equal-length words sit
        # between longer ones, so a wrong restore or an unstable sort shows
        chi = basis_g2n2.basis[0]
        pres = chi.base.presentation
        parse = [(), ((0, 1), (1, -1), (2, 1)), (), ((3, 1),), ((1, 1), (0, 1), (2, -1)),
                 ((2, -1),), (), ((0, -1), (1, -1), (2, 1), (3, 1), (0, 1))]
        words = [pres.word(raw) for raw in parse]
        codes, reach, restore = letter_codes(pres, words)
        lengths = [len(w) for w in words]
        assert [lengths[r] for r in np.argsort(restore)] == sorted(lengths, reverse=True)
        assert reach == [sum(n > p for n in lengths) for p in range(max(lengths))]
        folded = extend_words(chi, words)
        images = evaluate_words(chi.base, words)
        for w, value, image in zip(words, folded, images):
            assert np.array_equal(value, letterwise_extend(chi, w))
            assert np.array_equal(image, evaluate(chi.base, w))

    def test_empty_input(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        assert extend_words(chi, []).shape == (0, 2, 2)
        assert evaluate_words(chi.base, []).shape == (0, 2, 2)
        assert cocycle_law_residuals(chi, []) == []

    def test_genus_mismatch(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        other = Presentation(3).generator(5)
        with pytest.raises(InputError):
            extend_words(chi, [chi.base.presentation.generator(0), other])
        with pytest.raises(InputError):
            evaluate_words(chi.base, [other])


class TestWordJacobian:
    def test_matches_letterwise_extension(self, seeded_bases):
        rng = np.random.default_rng(60)
        # a general-linear base, where x^-1 is not x^H
        bases = list(seeded_bases.values())
        bases.append(cocycle_basis(random_representation(3, 3, "general-linear", seed=6)))
        for basis in bases:
            pres = basis.base.presentation
            chi = random_cocycle(basis, rng)
            for _ in range(10):
                raw = [(int(rng.integers(0, pres.generator_count)),
                        int(rng.choice([-1, 1]))) for _ in range(int(rng.integers(0, 12)))]
                word = pres.word(raw)
                lhs = word_jacobian(basis.base, word) @ chi.flat
                assert np.abs(lhs - vec(extend(chi, word))).max() < 1e-12

    def test_relator_is_fox_tangent_matrix(self, seeded_reps):
        reps = list(seeded_reps.values())
        reps.append(random_representation(3, 2, "general-linear", seed=6))
        for rep in reps:
            jac = word_jacobian(rep, rep.presentation.relator())
            fox = relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images)
            assert np.abs(jac - fox).max() < 1e-12

    def test_empty_word_is_zero(self, rep_g2n2):
        jac = word_jacobian(rep_g2n2, rep_g2n2.presentation.identity())
        assert jac.shape == (4, 16)
        assert not jac.any()

    def test_genus_mismatch(self, rep_g2n2):
        from goldman import Presentation

        with pytest.raises(InputError):
            word_jacobian(rep_g2n2, Presentation(3).a(1))


class TestExtendRing:
    def test_scaled_identity_word(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        pres = chi.base.presentation
        e = GroupRingElement.from_word(pres.identity(), 2)
        assert frob(extend_ring(chi, e)) == 0.0

    def test_linearity(self, basis_g2n2):
        chi = basis_g2n2.basis[1]
        pres = chi.base.presentation
        e = GroupRingElement.from_word(pres.a(1)) + GroupRingElement.from_word(pres.a(1))
        assert np.allclose(extend_ring(chi, e), 2 * extend(chi, pres.a(1)))

    def test_fox_derivative_on_indicator_trivial_action(self, trivial_scalar_rep):
        # brute expansion of dR/da1 = 1 - a1 b1 a1^-1 under the trivial action:
        # chi(1) = 0 and chi(a1 b1 a1^-1) = chi(a1) + chi(b1) - chi(a1) = 0
        pres = trivial_scalar_rep.presentation
        chi = indicator(trivial_scalar_rep, 0)
        value = extend_ring(chi, pres.relator_derivative(0))
        assert frob(value) < 1e-15

    def test_agrees_with_extend_on_single_word(self, basis_g2n2):
        chi = basis_g2n2.basis[2]
        pres = chi.base.presentation
        w = pres.a(2) * pres.b(1).inverse()
        assert np.allclose(extend_ring(chi, GroupRingElement.from_word(w)),
                           extend(chi, w))


    def test_is_the_term_by_term_sum_bit_for_bit(self, seeded_reps):
        # the letterwise reference: coeff * chi(word), each word folded
        # letter by letter, added to zero term by term in terms() order
        rng = np.random.default_rng(67)
        for rep in seeded_reps.values():
            pres = rep.presentation
            chis = [random_values_cocycle(rep, rng) for _ in range(3)]
            words = stacked_test_words(pres, rng, count=24)
            elements = [GroupRingElement.zero(pres.genus)]
            for start in range(0, 24, 4):  # one to four terms, some coefficients negative
                terms = {w: int(rng.integers(-3, 4)) or 1
                         for w in words[start:start + 1 + start // 4 % 4]}
                elements.append(GroupRingElement(pres.genus, terms))
            elements += list(pres.relator_derivatives)
            stacked = ring_values(rep, stack_cocycles(chis).values, ring_codes(pres, elements))
            assert stacked.shape == (3, len(elements), rep.rank, rep.rank)
            for chi, row in zip(chis, stacked):
                for element, value in zip(elements, row):
                    reference = np.zeros((rep.rank, rep.rank), dtype=complex)
                    for word, coeff in element.terms():
                        reference += coeff * letterwise_extend(chi, word)
                    assert np.array_equal(extend_ring(chi, element), reference)
                    assert np.array_equal(value, reference)

    def test_genus_mismatch(self, basis_g2n2):
        chi = basis_g2n2.basis[0]
        with pytest.raises(InputError, match="different genus"):
            extend_ring(chi, GroupRingElement.zero(3))


def assert_same_bits(a, b):
    """Equal values with equal signs of zero: the same bits, for finite
    complex arrays."""
    a, b = np.asarray(a), np.asarray(b)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def python_sum(coeffs, cocycles):
    """linear_combination's letterwise reference, the ordered Python sum."""
    return sum(c * chi.values for c, chi in zip(coeffs, cocycles))


class TestLinearCombination:
    def test_complex_and_real_coefficients(self, seeded_bases):
        rng = np.random.default_rng(68)
        for basis in seeded_bases.values():
            pool = basis.basis
            for coeffs in (rng.standard_normal(len(pool)) + 1j * rng.standard_normal(len(pool)),
                           rng.standard_normal(len(pool)),
                           rng.standard_normal(len(pool)).tolist(),
                           rng.integers(-3, 4, len(pool)).tolist()):
                assert_same_bits(linear_combination(basis.base, coeffs, pool).values,
                                 python_sum(coeffs, pool))

    def test_many_terms_keep_their_order(self, trivial_scalar_rep):
        # 40 terms of 4 entries each: a pairwise or blocked sum would move bits
        rng = np.random.default_rng(69)
        chis = [random_values_cocycle(trivial_scalar_rep, rng) for _ in range(40)]
        coeffs = rng.standard_normal(40) * 10.0 ** rng.integers(-8, 8, 40)
        assert_same_bits(linear_combination(trivial_scalar_rep, coeffs,
                                            stack_cocycles(chis)).values,
                         python_sum(coeffs, chis))

    def test_signed_zeros(self, rep_g2n2):
        values = np.full((4, 2, 2), complex(-0.0, -0.0))
        values[1, 0, 1] = complex(-0.0, 2.5)
        values[2, 1, 0] = complex(-3.0, -0.0)
        negative_zero = Cocycle(rep_g2n2, values)
        other = Cocycle(rep_g2n2, -values)
        for coeffs in ([-0.0], [1.0], [-1.0], [0.0, -0.0], [-1.0, 1.0], [-0.0, -0.0],
                       [complex(-0.0, -0.0), complex(0.0, -1.0)]):
            chis = [negative_zero, other][:len(coeffs)]
            assert_same_bits(linear_combination(rep_g2n2, coeffs, stack_cocycles(chis)).values,
                             python_sum(coeffs, chis))

    def test_stack_gives_the_tuple_bits(self, seeded_bases):
        # a basis stack combines as the Python sum over the tuple of its rows
        rng = np.random.default_rng(70)
        for basis in seeded_bases.values():
            for stack in (basis.basis, basis.h1_complement):
                pool = tuple(stack)
                for coeffs in (rng.standard_normal(len(pool))
                               + 1j * rng.standard_normal(len(pool)),
                               rng.integers(-3, 4, len(pool)).tolist()):
                    combined = linear_combination(basis.base, coeffs, stack)
                    assert_same_bits(combined.values, python_sum(coeffs, pool))

    def test_coefficient_matrix_is_row_by_row(self, seeded_bases):
        # one (s, k) matrix gives the stack of its s one-row combinations, bit for bit
        rng = np.random.default_rng(73)
        for basis in seeded_bases.values():
            stack = basis.basis
            k = len(stack)
            for coeffs in (rng.standard_normal((7, k)) + 1j * rng.standard_normal((7, k)),
                           rng.standard_normal((1, k)),
                           rng.integers(-3, 4, (5, k)).tolist()):
                combined = linear_combination(basis.base, coeffs, stack)
                assert isinstance(combined, CocycleStack)
                assert combined.base is basis.base and len(combined) == len(coeffs)
                for row, values in zip(coeffs, combined.values):
                    one = linear_combination(basis.base, row, stack)
                    assert isinstance(one, Cocycle)
                    assert_same_bits(values, one.values)
                    assert_same_bits(values, python_sum(row, basis.basis))

    def test_coefficient_matrix_keeps_signed_zeros(self, rep_g2n2):
        values = np.full((4, 2, 2), complex(-0.0, -0.0))
        values[1, 0, 1] = complex(-0.0, 2.5)
        chis = [Cocycle(rep_g2n2, values), Cocycle(rep_g2n2, -values)]
        coeffs = [[-0.0, -0.0], [0.0, -0.0], [-1.0, 1.0], [complex(-0.0, -0.0), -1j]]
        combined = linear_combination(rep_g2n2, coeffs, stack_cocycles(chis))
        for row, values in zip(coeffs, combined.values):
            assert_same_bits(values, python_sum(row, chis))

    def test_stack_flat_rows_are_cocycle_flats(self, basis_g2n2):
        stack = basis_g2n2.basis
        assert stack.flat.shape == (len(stack), 4 * 4)
        for row, chi in zip(stack.flat, basis_g2n2.basis):
            assert_same_bits(row, chi.flat)

    def test_stack_refuses_a_wrong_count_and_another_base(self, rep_g2n2, basis_g2n2):
        stack = basis_g2n2.basis
        for coeffs in (np.ones(len(stack) - 1), np.ones(len(stack) + 1), [[1.0]], 1.0):
            with pytest.raises(InputError, match="coefficients") as error:
                linear_combination(rep_g2n2, coeffs, stack)
            assert error.value.exit_code == 2
        other = random_representation(2, 2, "unitary", seed=1)
        with pytest.raises(InputError, match="different base") as error:
            linear_combination(other, np.ones(len(stack)), stack)
        assert error.value.exit_code == 2

    def test_random_cocycle_reads_the_cached_stacks(self, basis_g2n2):
        for space, name, frame in (("z1", "basis", basis_g2n2.z1_frame),
                                   ("h1", "h1_complement", basis_g2n2.h1_frame)):
            stack = getattr(basis_g2n2, name)
            assert getattr(basis_g2n2, name) is stack  # built once
            assert stack.base is basis_g2n2.base and len(stack) == frame.shape[1]
            assert_same_bits(stack.flat, frame.T)  # one cocycle per frame column
            assert not stack.values.flags.writeable
            with pytest.raises(ValueError):
                stack.values[0, 0, 0, 0] = 1.0
            # the draw is the ordered Python sum over the stack's rows
            chi = random_cocycle(basis_g2n2, np.random.default_rng(71), space)
            coeffs = goldman.linalg.complex_gaussian(np.random.default_rng(71), len(stack))
            assert_same_bits(chi.values, python_sum(coeffs, stack))


class TestCoboundary:
    def test_zero_matrix(self, rep_g2n2):
        delta = coboundary(np.zeros((2, 2)), rep_g2n2)
        assert all(frob(v) == 0.0 for v in delta.values)

    def test_identity_matrix(self, rep_g2n2):
        delta = coboundary(np.eye(2), rep_g2n2)
        assert all(frob(v) < 1e-14 for v in delta.values)

    @pytest.mark.parametrize("genus,rank,flavor", [(2, 2, "unitary"), (2, 3, "general-linear"),
                                                   (3, 2, "unitary"), (2, 1, "unitary")])
    def test_stack_is_per_matrix(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=genus * rank)
        rng = np.random.default_rng(24)
        v = rng.standard_normal((6, rank, rank)) + 1j * rng.standard_normal((6, rank, rank))
        deltas = coboundary(v, rep)
        assert isinstance(deltas, CocycleStack) and deltas.base is rep and len(deltas) == 6
        for one_v, values in zip(v, deltas.values):
            one = coboundary(one_v, rep)
            assert isinstance(one, Cocycle)
            assert_same_bits(values, one.values)

    @pytest.mark.parametrize("v", [np.zeros((3, 3, 3)), np.zeros((2, 1, 2, 2)),
                                   np.zeros((0, 2, 2)), np.zeros(2)],
                             ids=["rank", "four-axes", "empty", "vector"])
    def test_malformed_stacks_refused(self, rep_g2n2, v):
        with pytest.raises(InputError):
            coboundary(v, rep_g2n2)

    def test_trivial_action(self, trivial_scalar_rep):
        delta = coboundary(np.array([[2.5 + 1j]]), trivial_scalar_rep)
        assert all(frob(v) == 0.0 for v in delta.values)

    def test_satisfies_law_and_relator(self, rep_g2n2):
        rng = np.random.default_rng(22)
        pres = rep_g2n2.presentation
        for _ in range(10):
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            delta = coboundary(v, rep_g2n2)
            assert relator_residual(delta) < 1e-12
            raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                           for _ in range(int(rng.integers(0, 8)))]
            pairs = [(pres.word(raw()), pres.word(raw()))]
            assert cocycle_law_residuals(delta, pairs)[0] < 1e-12

    def test_linear(self, rep_g2n2):
        rng = np.random.default_rng(23)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = coboundary(v + 2j * w, rep_g2n2)
        rhs_v, rhs_w = coboundary(v, rep_g2n2), coboundary(w, rep_g2n2)
        for a, b, c in zip(lhs.values, rhs_v.values, rhs_w.values):
            assert frob(a - (b + 2j * c)) < 1e-13

    def test_image_inside_z1(self, basis_g2n2):
        rng = np.random.default_rng(24)
        frame = np.column_stack([c.flat for c in basis_g2n2.basis])
        for _ in range(20):
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            flat = coboundary(v, basis_g2n2.base).flat
            residual = flat - frame @ (frame.conj().T @ flat)
            assert np.linalg.norm(residual) < 1e-10


class TestCocycleBasis:
    def test_trivial_scalar_dimensions(self, trivial_scalar_rep):
        dims = cocycle_basis(trivial_scalar_rep).dims
        assert dims == (4, 0, 4)

    def test_irreducible_g2n2(self, basis_g2n2):
        assert basis_g2n2.dims == (13, 3, 10)

    def test_genus_three_rank_two(self, seeded_bases):
        assert seeded_bases[(3, 2)].dims[2] == 18

    def test_formula_across_grid(self, seeded_bases):
        for (g, n), basis in seeded_bases.items():
            z1, b1, h1 = basis.dims
            assert h1 == (2 * g - 2) * n * n + 2
            assert z1 - b1 == h1

    def test_expected_h1_dimension(self):
        for g in (1, 2, 3, 5):
            for n in (1, 2, 3, 8):
                assert expected_h1_dimension(g, n) == (2 * g - 2) * n * n + 2

    def test_general_linear_base(self):
        rep = random_representation(2, 2, "general-linear", seed=8)
        assert cocycle_basis(rep).dims == (13, 3, 10)

    def test_basis_orthonormal(self, basis_g2n2):
        frame = np.column_stack([c.flat for c in basis_g2n2.basis])
        assert frob(frame.conj().T @ frame - np.eye(frame.shape[1])) < 1e-12

    def test_complement_orthogonal_to_coboundaries(self, basis_g2n2):
        comp = np.column_stack([c.flat for c in basis_g2n2.h1_complement])
        cob = basis_g2n2.b1_frame
        assert np.abs(cob.conj().T @ comp).max() < 1e-12

    def test_h1_coordinates_kill_coboundaries(self, basis_g2n2):
        rng = np.random.default_rng(25)
        chi = random_cocycle(basis_g2n2, rng)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        shifted = chi + coboundary(v, basis_g2n2.base)
        delta = basis_g2n2.h1_coordinates(shifted) - basis_g2n2.h1_coordinates(chi)
        assert np.linalg.norm(delta) < 1e-12


def block_diagonal_point(genus, sizes, seed):
    """Unitary point whose images are block diagonal, block i a seeded
    random_representation of rank sizes[i] (seed + i): reducible, with
    commutant dimension len(sizes) when the blocks are irreducible and
    pairwise non-isomorphic.  All-ones sizes give a diagonal point."""
    n = sum(sizes)
    images = np.zeros((2 * genus, n, n), dtype=complex)
    start = 0
    for i, k in enumerate(sizes):
        block = random_representation(genus, k, "unitary", seed=seed + i).images
        images[:, start:start + k, start:start + k] = block
        start += k
    return Representation(Presentation(genus), n, images, "unitary")


@pytest.fixture
def no_singular_vectors(monkeypatch):
    """A context in which numpy's svd refuses to form singular vectors and
    its qr any factor but the triangle: every dimension read under it is
    decided from singular values alone."""
    svd, qr = np.linalg.svd, np.linalg.qr

    def values_only(m, *args, compute_uv=True, **kwargs):
        if compute_uv:
            raise AssertionError("singular vectors were formed")
        return svd(m, *args, compute_uv=False, **kwargs)

    def triangle_only(m, mode="reduced"):
        if mode != "r":
            raise AssertionError("an orthogonal factor was formed")
        return qr(m, mode="r")

    @contextmanager
    def refusing():
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", values_only)
            patch.setattr(np.linalg, "qr", triangle_only)
            yield

    return refusing


class TestReducibleDimensions:
    # decided from singular values alone
    @pytest.mark.parametrize("genus, sizes, dims", [
        (2, (1, 1), (14, 2, 12)),
        (2, (1, 1, 1), (30, 6, 24)),
        (2, (1, 2), (29, 7, 22)),
        (3, (1, 1, 1, 1), (84, 12, 72)),
        (3, (2, 2), (82, 14, 68)),
        (3, (1, 3), (82, 14, 68)),
    ])
    def test_pinned_dims(self, no_singular_vectors, genus, sizes, dims):
        rep = block_diagonal_point(genus, sizes, seed=3)
        with no_singular_vectors():
            assert cocycle_basis(rep).dims == dims
            assert commutant_dimension(rep) == rep.rank ** 2 - dims[1]


def complex_decisions(rep):
    """The rank decisions of rep decided on the complex matrices: dims as
    cocycle_dimensions gives them on the relator constraint C and the
    coboundary map D (or the ConditioningError message), dim B1 and the
    commutant dimension, with the singular values of C and D."""
    constraint = relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images)
    coboundary = goldman.reps.coboundary_matrix(rep)
    svals = triangular_values(coboundary)
    k = split_singular_values(svals)[0]
    try:
        dims = cocycle_dimensions(constraint, coboundary, (k, svals))
    except ConditioningError as exc:
        dims = str(exc)
    return dims, k, rep.rank ** 2 - k, triangular_values(constraint.conj().T), svals


def real_decisions(rep):
    """complex_decisions as the package decides them."""
    try:
        dims = cocycle_basis(rep).dims
    except ConditioningError as exc:
        dims = str(exc)
    constraint = relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images)
    k, svals = rep.coboundary_svd
    return (dims, k, commutant_dimension(rep),
            triangular_values(rep.decision_matrix(constraint).T), svals)


def assert_same_decisions(rep):
    *decided, c_svals, d_svals = real_decisions(rep)
    *reference, c_reference, d_reference = complex_decisions(rep)
    assert decided == reference
    for values, expected in ((c_svals, c_reference), (d_svals, d_reference)):
        assert values.dtype == float and values.shape == expected.shape
        assert np.max(np.abs(values - expected)) <= 1e-13 * max(expected[0], 1.0)


class TestUnitaryRealFormDecisions:
    """At a unitary base the rank decisions read the u(n) real forms of C
    and D; they are the decisions of the complex matrices, and the
    general-linear flavor reads the complex matrices as they are."""

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    @pytest.mark.parametrize("rank", [1, 2, 3, 5, 8])
    def test_real_forms_decide_as_the_complex_matrices(self, genus, rank):
        for seed in range(4):
            rep = random_representation(genus, rank, "unitary", seed=seed)
            assert rep.coboundary_decision.dtype == float
            assert_same_decisions(rep)

    @pytest.mark.parametrize("genus, sizes", [(2, (1, 1)), (2, (1, 1, 1)), (2, (1, 2)),
                                              (3, (1, 1, 1, 1)), (3, (2, 2)), (3, (1, 3))])
    def test_reducible_points_decide_as_the_complex_matrices(self, genus, sizes):
        assert_same_decisions(block_diagonal_point(genus, sizes, seed=3))

    @pytest.mark.parametrize("genus, rank", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_general_linear_points_read_the_complex_matrices(self, genus, rank):
        rep = random_representation(genus, rank, "general-linear", seed=7)
        constraint = relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images)
        assert rep.decision_matrix(constraint) is constraint
        assert rep.coboundary_decision is rep.coboundary_map
        k, svals = rep.coboundary_svd
        assert np.array_equal(svals, triangular_values(rep.coboundary_map))
        assert k == split_singular_values(svals)[0]

    def test_each_real_form_is_formed_once(self, monkeypatch):
        rep = random_representation(2, 3, "unitary", seed=5)
        formed = []
        real_form = goldman.reps.unitary_real_form
        monkeypatch.setattr(goldman.reps, "unitary_real_form",
                            lambda m, n: formed.append(m.shape) or real_form(m, n))
        dims = cocycle_basis(rep).dims
        assert commutant_dimension(rep) == 1 and cocycle_basis(rep).dims == dims
        # the constraint once per basis, the coboundary map once per representation
        assert formed == [(9, 36), (36, 9), (9, 36)]
        assert not rep.coboundary_decision.flags.writeable


def direct_frames(rep):
    """Z1, B1 and H1 frames built eagerly by nullspace and complement_within,
    with the B1 map formed generator by generator."""
    n = rep.rank
    z1 = nullspace(relator_tangent_matrix(rep.presentation, rep.images, rep.inverse_images))
    delta = np.vstack([ad_matrix(m, m_inv) - np.eye(n * n)
                       for m, m_inv in zip(rep.images, rep.inverse_images)])
    u, svals, _ = np.linalg.svd(delta, full_matrices=False)
    b1 = u[:, :split_singular_values(svals)[0]]
    return z1, b1, complement_within(z1, b1)


def frame_of(cocycles):
    return np.column_stack([c.flat for c in cocycles])


def same_columns(cocycles, frame):
    return (len(cocycles) == frame.shape[1]
            and all(np.array_equal(c.flat, frame[:, j]) for j, c in enumerate(cocycles)))


class TestRankFirstDimensions:
    @pytest.mark.parametrize("genus, rank", [(2, 6), (3, 3)])
    def test_dims_never_build_a_basis(self, monkeypatch, capsys, genus, rank):
        def fail(*args, **kwargs):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(goldman.cocycles, "nullspace", fail)
        monkeypatch.setattr(goldman.cocycles, "complement_within", fail)
        monkeypatch.setattr(goldman.cocycles, "canonical_frame", fail)
        monkeypatch.setattr(goldman.cocycles, "column_space", fail)
        formula = (2 * genus - 2) * rank * rank + 2
        z1, b1, h1 = cocycle_basis(random_representation(genus, rank, seed=0)).dims
        assert h1 == formula
        assert z1 - b1 == h1
        assert main(["--genus", str(genus), "--rank", str(rank), "dims"]) == 0
        assert capsys.readouterr().out.endswith(f"H1={formula} formula={formula} MATCH\n")

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    @pytest.mark.parametrize("genus, rank", [(2, 6), (3, 3)])
    def test_dims_form_no_singular_vectors(self, no_singular_vectors, monkeypatch, capsys,
                                           genus, rank, flavor):
        formula = (2 * genus - 2) * rank * rank + 2
        # the seeded point is drawn and projected first, with the factors
        # its construction needs, and the command reads that point
        rep = random_representation(genus, rank, flavor, seed=0)
        monkeypatch.setattr(RunConfig, "representation", lambda config: rep)
        args = ["--genus", str(genus), "--rank", str(rank), "--flavor", flavor, "dims"]
        with no_singular_vectors():
            assert cocycle_basis(rep).dims[2] == formula
            assert commutant_dimension(rep) == 1
            assert main(args) == 0
        assert capsys.readouterr().out.endswith(f"H1={formula} formula={formula} MATCH\n")

    @pytest.mark.parametrize("genus, rank, flavor", [
        (1, 1, "unitary"), (2, 1, "unitary"), (2, 2, "unitary"), (2, 3, "unitary"),
        (3, 2, "unitary"), (2, 2, "general-linear"), (3, 2, "general-linear")])
    def test_lazy_bases_equal_the_direct_computation(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=3)
        basis = cocycle_basis(rep)
        assert "basis" not in vars(basis)
        z1, b1, _ = direct_frames(rep)
        z1 = canonical_frame(z1)
        h1 = canonical_frame(complement_within(z1, b1))
        assert basis.dims == (z1.shape[1], b1.shape[1], h1.shape[1])
        assert np.array_equal(basis.b1_frame, b1)
        assert same_columns(basis.basis, z1)
        assert same_columns(basis.h1_complement, h1)

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_coboundary_map_is_factored_once(self, monkeypatch, flavor):
        rep = random_representation(2, 2, flavor, seed=5)
        factored = []
        matrix = goldman.reps.coboundary_matrix
        monkeypatch.setattr(goldman.reps, "coboundary_matrix",
                            lambda r: factored.append(r) or matrix(r))
        basis = cocycle_basis(rep)
        assert basis.coboundary is rep.coboundary_map
        assert not basis.coboundary.flags.writeable
        assert "b1_frame" not in vars(basis)
        assert commutant_dimension(rep) == rep.rank ** 2 - basis.dims[1] == 1
        assert rep.coboundary_svd[0] == basis.dims[1]
        assert not basis.b1_frame.flags.writeable
        assert factored == [rep]

    def test_h1_coordinates_read_the_cached_frame(self, seeded_bases):
        rng = np.random.default_rng(31)
        for basis in seeded_bases.values():
            chi = random_cocycle(basis, rng)
            expected = frame_of(basis.h1_complement).conj().T @ chi.flat
            assert np.array_equal(basis.h1_coordinates(chi), expected)
            assert basis.h1_frame is basis.h1_frame

    def test_frames_are_read_only(self, basis_g2n2):
        for frame in (basis_g2n2.z1_frame, basis_g2n2.b1_frame, basis_g2n2.h1_frame):
            with pytest.raises(ValueError):
                frame[0, 0] = 1.0

    def test_basis_disagreeing_with_dims_raises_when_read(self, rep_g2n2, basis_g2n2):
        z1, b1, h1 = basis_g2n2.dims
        for dims, attr in [((z1 + 1, b1, h1 + 1), "basis"),
                           ((z1, b1, h1 - 1), "h1_complement"),
                           ((z1, b1 - 1, h1 + 1), "b1_frame")]:
            wrong = CocycleBasis(base=rep_g2n2, dims=dims,
                                 constraint=basis_g2n2.constraint,
                                 coboundary=basis_g2n2.coboundary)
            with pytest.raises(ConditioningError, match="rank decision"):
                getattr(wrong, attr)


def synthetic_pair(rng, q, z, b, tilts):
    """A constraint with nullspace Z (dim z) and an orthonormal B (b columns).

    The last len(tilts) columns of B leave Z by the given angles in
    degrees; the others lie inside Z.
    """
    def orthonormal(rows, cols):
        g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(g)[0]

    frame = orthonormal(q, q)
    inside, outside = frame[:, :z], frame[:, z:]
    angles = np.zeros(b)
    angles[b - len(tilts):] = np.radians(tilts)
    # only the tilted columns leave Z, so B may have more columns than
    # the q - z directions outside Z
    escape = np.zeros((q - z, b), dtype=complex)
    draw = orthonormal(q - z, min(b, q - z))
    escape[:, b - len(tilts):] = draw[:, draw.shape[1] - len(tilts):]
    b_frame = (inside @ orthonormal(z, b) * np.cos(angles)
               + outside @ escape * np.sin(angles))
    return outside.conj().T, b_frame


def decided(m):
    """(rank, svals) of m, as Representation.coboundary_svd decides it."""
    svals = triangular_values(m)
    return split_singular_values(svals)[0], svals


def conditioned(rng, k):
    """A seeded k x k matrix of condition number 1e3."""
    def unitary():
        return np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]

    return unitary() @ np.diag(np.logspace(0, -3, k)) @ unitary()


def assert_count(constraint, coboundary, z, b, kept):
    """cocycle_dimensions gives the duality count (z, b, z - b) when B1
    lies in Z1, as complement_within's kept count does, and refuses a pair
    from which complement_within keeps more: B1 leaves Z1.  A tilt within
    the cut may be refused too, exactly when sine_bound exceeds it."""
    k, b_svals = decided(coboundary)
    svals = triangular_values(constraint.conj().T)
    bound = sine_bound(constraint @ coboundary, svals[:k], b_svals[:k])
    if kept != z - b or bound > goldman.tolerances.COMPLEMENT_SINE:
        with pytest.raises(ConditioningError, match="^B1 leaves Z1: sine bound"):
            cocycle_dimensions(constraint, coboundary, decided(coboundary))
    else:
        assert cocycle_dimensions(constraint, coboundary, decided(coboundary)) == (z, b, kept)


def assert_rank_refused(constraint, coboundary, r, k):
    with pytest.raises(ConditioningError,
                       match=f"^rank of the relator constraint {r} differs from dim B1 {k}$"):
        cocycle_dimensions(constraint, coboundary, decided(coboundary))


def angle_case(seed, q, z, b, tilts):
    """A synthetic_pair seeded by seed, its constraint rows and B1 columns
    each mixed by a matrix of condition 1e3, as assert_count's arguments
    (constraint, coboundary, z, b, kept): kept is the H1 count that
    complement_within gives on the unmixed pair."""
    rng = np.random.default_rng(seed)
    constraint, b_frame = synthetic_pair(rng, q, z, b, tilts)
    assert frob(b_frame.conj().T @ b_frame - np.eye(b)) < 1e-12
    kept = complement_within(nullspace(constraint), b_frame).shape[1]
    assert kept == z - b + sum(1 for t in tilts if t > 30)
    return (conditioned(rng, q - z) @ constraint, b_frame @ conditioned(rng, b),
            z, b, kept)


class TestPrincipalAngleCount:
    """cocycle_dimensions on synthetic pairs: the one rank k gives
    (q - k, k, q - 2k) when rank C is k and B1 lies in Z1, and each guard
    refuses the pairs that break its condition.  Every decision is read
    from singular values alone."""

    # 28 and 32 degrees lie on either side of the 30 degree cut.  The
    # constraint mixes its orthonormal rows, and the coboundary map the B1
    # frame's columns, each by a matrix of condition 1e3, so the guard
    # must undo the singular values of both factors.  rank C = dim B1 = 10
    @pytest.mark.parametrize("tilts", [(), (20,), (45,), (70,), (20, 45, 70), (70, 70),
                                       (28,), (32,), (28, 32)])
    def test_matches_complement_within(self, no_singular_vectors, tilts):
        case = angle_case(len(tilts) + sum(tilts), 24, 14, 10, tilts)
        with no_singular_vectors():
            assert_count(*case)

    @pytest.mark.parametrize("tilts", [(), (20,), (70,), (28, 32, 70)])
    def test_more_coboundary_columns_than_rows(self, no_singular_vectors, tilts):
        # dim B1 = 6 > rank C = 3: no B1 of a closed surface group
        constraint, coboundary, *_ = angle_case(50 + sum(tilts), 12, 9, 6, tilts)
        with no_singular_vectors():
            assert_rank_refused(constraint, coboundary, 3, 6)

    def test_empty_coboundaries_and_full_rank_constraint(self, no_singular_vectors):
        rng = np.random.default_rng(40)
        constraint, b_frame = synthetic_pair(rng, 10, 4, 3, ())
        constraint, coboundary = conditioned(rng, 6) @ constraint, b_frame @ conditioned(rng, 3)
        no_rows = np.zeros((6, 10), dtype=complex)  # rank 0: Z1 is everything
        with no_singular_vectors():
            assert_rank_refused(constraint, b_frame[:, :0], 6, 0)
            assert_rank_refused(no_rows, coboundary, 0, 3)
            assert cocycle_dimensions(no_rows, b_frame[:, :0], (0, np.zeros(0))) == (10, 0, 10)


def exact_largest_sine(constraint, coboundary):
    """The largest sine between col(coboundary) and the nullspace of
    constraint, from orthonormal frames: the largest singular value of
    R^H b for a frame R of the orthogonal complement of the nullspace and
    a frame b of col(coboundary), both from np.linalg.svd."""
    _, svals, vh = np.linalg.svd(constraint)
    outside = vh[:split_singular_values(svals)[0]].conj().T
    u, b_svals, _ = np.linalg.svd(coboundary, full_matrices=False)
    b_frame = u[:, :split_singular_values(b_svals)[0]]
    return np.linalg.svd(outside.conj().T @ b_frame, compute_uv=False)[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), wide=st.booleans(),
       tilts=st.lists(st.integers(0, 89), max_size=3))
def test_sine_bound_covers_the_largest_sine(seed, wide, tilts):
    q, z, b = (12, 9, 6) if wide else (24, 14, 5)
    constraint, coboundary, *_ = angle_case(seed, q, z, b, tilts)
    svals = triangular_values(constraint.conj().T)
    r = split_singular_values(svals)[0]
    k, b_svals = decided(coboundary)
    largest = exact_largest_sine(constraint, coboundary)
    # the bound holds exactly; the two sides differ by roundoff at most
    assert sine_bound(constraint @ coboundary, svals[:r], b_svals[:k]) >= largest * (1 - 1e-12)


class TestRowSpace:
    """triangular_values: the singular values and rank of the SVD, with
    the nullspace of the same rule as the rank's complement."""

    @staticmethod
    def cases(rng):
        def gaussian(rows, cols):
            return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

        yield gaussian(4, 16)                       # wide, full rank
        yield gaussian(16, 4)                       # tall, full rank
        yield gaussian(6, 3) @ gaussian(3, 20)      # wide, rank 3
        yield gaussian(20, 3) @ gaussian(3, 6)      # tall, rank 3
        yield rng.standard_normal((5, 9))           # real
        yield np.zeros((4, 10), dtype=complex)      # rank 0

    def test_matches_the_svd(self):
        rng = np.random.default_rng(60)
        for m in self.cases(rng):
            svals = triangular_values(m)
            expected = np.linalg.svd(m, compute_uv=False)
            assert svals.shape == expected.shape
            assert np.abs(svals - expected).max() <= 1e-12 * expected[0]
            assert split_singular_values(svals)[0] == split_singular_values(expected)[0]

    def test_complements_the_nullspace(self):
        rng = np.random.default_rng(61)
        for m in self.cases(rng):
            rank = split_singular_values(triangular_values(m))[0]
            null = nullspace(m)
            assert rank + null.shape[1] == m.shape[1]
            assert frob(null.conj().T @ null - np.eye(null.shape[1])) < 1e-12
            assert frob(m @ null) < 1e-12 * max(1.0, frob(m))

    def test_decided_rank_is_the_singular_value_rule(self):
        rng = np.random.default_rng(62)
        for m in self.cases(rng):
            svals = np.linalg.svd(m, compute_uv=False)
            assert decided_rank(m) == split_singular_values(svals)


class TestAdMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_kron_bit_for_bit(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(5):
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s_inv = np.linalg.inv(s)
            assert np.array_equal(ad_matrix(s, s_inv), np.kron(s_inv.T, s))

    @pytest.mark.parametrize("n", [1, 2, 3, 11])
    def test_stack_equals_kron_bit_for_bit(self, n):
        rng = np.random.default_rng(90 + n)
        s = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
        s_inv = np.linalg.inv(s)
        stacked = ad_matrix(s, s_inv)
        assert stacked.shape == (2, 3, n * n, n * n)
        for index in np.ndindex(2, 3):
            assert np.array_equal(stacked[index], np.kron(s_inv[index].T, s[index]))


def unitary_columns(rng, rows, cols, real=False):
    g = rng.standard_normal((rows, cols))
    if not real:
        g = g + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(g)[0]


class TestCanonicalFrame:
    @pytest.mark.parametrize("real", [False, True])
    def test_depends_on_the_subspace_alone(self, real):
        rng = np.random.default_rng(95)
        for rows, cols in [(6, 1), (12, 5), (40, 17)]:
            v = unitary_columns(rng, rows, cols, real)
            frame = canonical_frame(v)
            assert frame.dtype == v.dtype
            assert frame.flags.c_contiguous
            assert frob(frame.conj().T @ frame - np.eye(cols)) < 1e-13
            assert np.abs(frame @ frame.conj().T - v @ v.conj().T).max() < 1e-13
            turn = unitary_columns(rng, cols, cols, real)
            assert np.abs(canonical_frame(v @ turn) - frame).max() < 1e-12

    def test_empty_frame(self):
        v = np.zeros((8, 0), dtype=complex)
        assert canonical_frame(v).shape == (8, 0)

    def test_ill_conditioned_probe_raises(self, monkeypatch):
        v = unitary_columns(np.random.default_rng(96), 12, 5)
        monkeypatch.setattr(goldman.tolerances, "FRAME_PROBE_CONDITION", 1.0)
        with pytest.raises(ConditioningError, match="frame probe condition"):
            canonical_frame(v)


FRAME_GRID = [(2, 2, "unitary"), (3, 3, "general-linear"), (2, 4, "unitary"),
              (2, 8, "unitary"), (3, 2, "general-linear")]


def read_frames(basis):
    """Every frame read from a basis: Z1, H1 and B1, and on a unitary base
    the two real-locus frames."""
    frames = {"z1": basis.z1_frame, "h1": basis.h1_frame,
              "b1": canonical_frame(basis.b1_frame)}
    if basis.base.flavor == "unitary":
        z1_real, h1_real = real_locus_bases(basis)
        frames["z1 real"] = frame_of(z1_real)
        frames["h1 real"] = frame_of(h1_real)
    return frames


def nudged_basis(basis, rng):
    """The basis rebuilt from its constraint and coboundary matrix, each
    moved by 1e-15 relative, as a roundoff change of either would."""
    def nudge(m):
        noise = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        return m + 1e-15 * np.abs(m).max() * noise

    return CocycleBasis(base=basis.base, dims=basis.dims,
                        constraint=nudge(basis.constraint),
                        coboundary=nudge(basis.coboundary))


class TestFrameStability:
    @pytest.mark.parametrize("genus, rank, flavor", FRAME_GRID)
    def test_roundoff_change_moves_no_frame(self, genus, rank, flavor):
        for seed in (0, 1, 12):
            basis = cocycle_basis(random_representation(genus, rank, flavor, seed=seed))
            moved = read_frames(nudged_basis(basis, np.random.default_rng(seed)))
            for name, frame in read_frames(basis).items():
                assert np.abs(moved[name] - frame).max() <= 1e-12, (seed, name)

    @pytest.mark.parametrize("genus, rank, flavor", FRAME_GRID)
    def test_frames_span_the_svd_frames(self, genus, rank, flavor):
        basis = cocycle_basis(random_representation(genus, rank, flavor, seed=0))
        z1 = nullspace(basis.constraint)
        spans = {"z1": z1, "h1": complement_within(z1, basis.b1_frame),
                 "b1": basis.b1_frame}
        if flavor == "unitary":
            spans["z1 real"], spans["h1 real"] = real_locus_oracle(
                basis.base, z1, basis.b1_frame)
        frames = read_frames(basis)
        if flavor == "unitary":
            for name in ("z1 real", "h1 real"):
                frames[name] = re_im(frames[name])
        for name, svd_frame in spans.items():
            frame = frames[name]
            assert frame.shape == svd_frame.shape, name
            difference = frame @ frame.conj().T - svd_frame @ svd_frame.conj().T
            assert np.abs(difference).max() <= 1e-12, name


class TestRandomCocycle:
    def test_unknown_space_rejected(self, basis_g2n2):
        for space in ("b1", "h1-complement", ""):
            with pytest.raises(InputError, match="unknown cocycle space"):
                random_cocycle(basis_g2n2, np.random.default_rng(0), space=space)


class TestStarInvolution:
    def test_anti_hermitian_fixed_up_to_sign(self, rep_g2n2):
        rng = np.random.default_rng(26)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        anti = (z - z.conj().T) / 2
        chi = Cocycle(rep_g2n2, tuple(anti.copy() for _ in range(4)))
        starred = star_involution(chi)
        for a, b in zip(starred.values, chi.values):
            assert frob(a + b) < 1e-14

    def test_involution(self, basis_g2n2):
        rng = np.random.default_rng(27)
        chi = random_cocycle(basis_g2n2, rng)
        again = star_involution(star_involution(chi))
        for a, b in zip(again.values, chi.values):
            assert frob(a - b) == 0.0

    def test_star_of_coboundary(self, rep_g2n2):
        rng = np.random.default_rng(28)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = star_involution(coboundary(v, rep_g2n2))
        rhs = coboundary(v.conj().T, rep_g2n2)
        for a, b in zip(lhs.values, rhs.values):
            assert frob(a - b) < 1e-13

    def test_star_preserves_cocycle_law(self, basis_g2n2):
        rng = np.random.default_rng(29)
        pres = basis_g2n2.base.presentation
        chi = star_involution(random_cocycle(basis_g2n2, rng))
        raw = lambda: [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(int(rng.integers(0, 8)))]
        pairs = [(pres.word(raw()), pres.word(raw())) for _ in range(50)]
        assert max(cocycle_law_residuals(chi, pairs)) < 1e-10

    def test_requires_unitary_base(self):
        rep = random_representation(2, 2, "general-linear", seed=8)
        chi = random_cocycle(cocycle_basis(rep), np.random.default_rng(0))
        with pytest.raises(InputError):
            star_involution(chi)


class TestStackedCocycleMaps:
    """star_involution, anti_hermitian_part, coboundary and relator_residual
    map a CocycleStack row by row, each row bit for bit its one-cocycle
    call, and the one-cocycle relator residual is the letterwise
    frob(letterwise_extend(chi, relator)) bit for bit."""

    @staticmethod
    def stack_of(rep, rng, count=9):
        values = (rng.standard_normal((count, 2 * rep.genus, rep.rank, rep.rank))
                  + 1j * rng.standard_normal((count, 2 * rep.genus, rep.rank, rep.rank)))
        return CocycleStack(rep, values)

    @pytest.mark.parametrize("genus, rank", [(2, 2), (3, 2), (2, 3), (2, 1)])
    def test_star_and_anti_hermitian_rows(self, genus, rank):
        rep = random_representation(genus, rank, "unitary", seed=31)
        stack = self.stack_of(rep, np.random.default_rng(31))
        for stacked_map in (star_involution, anti_hermitian_part):
            mapped = stacked_map(stack)
            assert isinstance(mapped, CocycleStack) and mapped.base is rep
            for values, one in zip(mapped.values, stack.values):
                assert_same_bits(values, stacked_map(Cocycle(rep, one)).values)
        again = star_involution(star_involution(stack))
        assert_same_bits(again.values, stack.values)

    @pytest.mark.parametrize("genus, rank, flavor", [
        (2, 2, "unitary"), (3, 2, "unitary"), (2, 3, "general-linear"), (2, 1, "unitary")])
    def test_relator_residual_rows(self, genus, rank, flavor):
        rep = random_representation(genus, rank, flavor, seed=32)
        rng = np.random.default_rng(32)
        stack = self.stack_of(rep, rng)
        deltas = coboundary(rng.standard_normal((5, rank, rank)), rep)
        relator = rep.presentation.relator()
        for cocycles in (stack, deltas):
            residuals = relator_residual(cocycles)
            assert isinstance(residuals, list) and len(residuals) == len(cocycles)
            for residual, values in zip(residuals, cocycles.values):
                one = Cocycle(rep, values)
                assert relator_residual(one) == residual
                assert relator_residual(one) == frob(letterwise_extend(one, relator))

    def test_stacked_coboundaries_star(self, rep_g2n2):
        rng = np.random.default_rng(33)
        v = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        lhs = star_involution(coboundary(v, rep_g2n2))
        rhs = coboundary(np.swapaxes(v.conj(), -1, -2), rep_g2n2)
        for left, right, one_v in zip(lhs.values, rhs.values, v):
            assert_same_bits(left, star_involution(coboundary(one_v, rep_g2n2)).values)
            assert_same_bits(right, coboundary(one_v.conj().T, rep_g2n2).values)
        assert max(map(frob, (lhs.values - rhs.values).reshape(-1, 2, 2))) < 1e-13

    def test_a_stack_needs_a_unitary_base(self):
        rep = random_representation(2, 2, "general-linear", seed=8)
        stack = self.stack_of(rep, np.random.default_rng(34))
        for stacked_map in (star_involution, anti_hermitian_part):
            with pytest.raises(InputError, match="unitary base"):
                stacked_map(stack)


def re_im(z):
    """[Re; Im]: the real coordinates of a complex vector, or of each
    column of a matrix."""
    return np.concatenate([z.real, z.imag])


def explicit_real_coboundaries(rep):
    """Reference: delta over an explicit basis of u(n), in [Re; Im] coordinates."""
    n = rep.rank
    cob_vectors = []
    for p in range(n):
        for q in range(n):
            if p == q:
                v = np.zeros((n, n), dtype=complex)
                v[p, p] = 1j
                cob_vectors.append(re_im(coboundary(v, rep).flat))
            elif p < q:
                v = np.zeros((n, n), dtype=complex)
                v[p, q] = 1.0
                v[q, p] = -1.0
                cob_vectors.append(re_im(coboundary(v, rep).flat))
                v = np.zeros((n, n), dtype=complex)
                v[p, q] = 1j
                v[q, p] = 1j
                cob_vectors.append(re_im(coboundary(v, rep).flat))
    return column_space(np.column_stack(cob_vectors))


def real_projector(cocycles, rows):
    frame = np.column_stack([re_im(c.flat) for c in cocycles] or [np.zeros(rows)])
    return frame @ frame.T


def real_locus_oracle(base, z1_frame, b1_frame):
    """Reference for real_locus_bases from complex Z1 and B1 frames, in
    [Re; Im] coordinates: the real span of the anti-Hermitian parts of
    each frame cocycle and of 1j times it, one cocycle at a time, and the
    complement of B1's span in Z1's.  Returns (z1_real, h1_real) with
    real-orthonormal columns."""
    n = base.rank

    def real_span(frame):
        cocycles = [Cocycle(base, np.reshape(column, (-1, n, n)).transpose(0, 2, 1))
                    for column in frame.T]
        columns = [re_im(anti_hermitian_part(c).flat)
                   for chi in cocycles for c in (chi, 1j * chi)]
        if not columns:
            return np.zeros((2 * frame.shape[0], 0))
        return column_space(np.column_stack(columns))

    z1_real = real_span(z1_frame)
    return z1_real, complement_within(z1_real, real_span(b1_frame))


class TestRealLocus:
    @pytest.mark.parametrize("genus,rank", [(2, 1), (2, 2), (3, 2)])
    def test_stacked_frames_equal_the_per_cocycle_ones(self, seeded_bases, genus, rank):
        # the subspaces of the per-cocycle reference, which reads the
        # complex frames in [Re; Im] coordinates, and orthonormal frames
        basis = seeded_bases[(genus, rank)]
        stacks = real_locus_bases(basis)
        oracle = real_locus_oracle(basis.base, basis.z1_frame, basis.b1_frame)
        for stack, reference in zip(stacks, oracle):
            assert type(stack) is CocycleStack and stack.base is basis.base
            frame = re_im(frame_of(stack))
            assert frame.shape == reference.shape
            difference = frame @ frame.T - reference @ reference.T
            assert np.abs(difference).max() <= 1e-12

    @pytest.mark.parametrize("genus,rank", [(2, 1), (2, 2), (2, 3)])
    def test_real_coboundaries_are_delta_of_u_n(self, seeded_bases, genus, rank):
        # Z1_real is the orthogonal sum of the real coboundaries and H1_real
        basis = seeded_bases[(genus, rank)]
        z1_real, h1_real = real_locus_bases(basis)
        rows = 2 * 2 * genus * rank ** 2
        b1_real = explicit_real_coboundaries(basis.base)
        assert b1_real.shape[1] == rank ** 2 - 1
        found = real_projector(z1_real, rows) - real_projector(h1_real, rows)
        assert np.abs(found - b1_real @ b1_real.T).max() < 1e-12

    def test_dimensions(self, seeded_bases):
        for (g, n), basis in seeded_bases.items():
            z1_real, h1_real = real_locus_bases(basis)
            assert len(z1_real) == basis.dims[0]
            assert len(h1_real) == basis.dims[2]

    def test_values_anti_hermitian(self, basis_g2n2):
        z1_real, h1_real = real_locus_bases(basis_g2n2)
        for chi in (*z1_real, *h1_real):
            for m in chi.values:
                assert frob(m + m.conj().T) < 1e-12

    def test_anti_hermitian_part_is_cocycle(self, basis_g2n2):
        rng = np.random.default_rng(30)
        chi = anti_hermitian_part(random_cocycle(basis_g2n2, rng))
        assert relator_residual(chi) < 1e-10


class TestBaseMismatch:
    def test_cocycle_addition_rejects_mismatch(self, rep_g2n2):
        other = random_representation(2, 2, "unitary", seed=99)
        chi1 = indicator(rep_g2n2, 0)
        chi2 = indicator(other, 0)
        with pytest.raises(InputError):
            chi1 + chi2

    def test_linear_combination_rejects_mismatch(self, rep_g2n2):
        other = cocycle_basis(random_representation(2, 2, "unitary", seed=1))
        chi = other.h1_complement[0]
        one = stack_cocycles([chi])
        with pytest.raises(InputError, match="different base"):
            goldman.cocycles.linear_combination(rep_g2n2, [1.0], one)
        # over its own base the same call is the scaled cocycle
        same = goldman.cocycles.linear_combination(other.base, [1.0], one)
        assert np.array_equal(same.values, chi.values)
        # a count mismatch is refused, not truncated to the shorter side; a
        # (1, 1) matrix is one row of one coefficient, so its mismatch is a width
        for coeffs, stack in (([1.0, 2.0, 3.0], other.basis), ([1.0, 2.0], one),
                              ([[1.0, 2.0]], one), (1.0, one)):
            with pytest.raises(InputError, match="coefficients") as error:
                goldman.cocycles.linear_combination(other.base, coeffs, stack)
            assert error.value.exit_code == 2

    def test_value_shape_checked(self, rep_g2n2):
        with pytest.raises(InputError):
            Cocycle(rep_g2n2, tuple(np.zeros((3, 3)) for _ in range(4)))
        with pytest.raises(InputError):
            Cocycle(rep_g2n2, tuple(np.zeros((2, 2)) for _ in range(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_value_rejected(self, rep_g2n2, bad):
        values = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        values[2][1, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            Cocycle(rep_g2n2, tuple(values))

    @pytest.mark.parametrize("values", [
        [np.zeros((2, 2))] * 3 + [np.zeros((3, 3))],
        np.zeros((4, 2)),
    ], ids=["ragged", "two-axes"])
    def test_malformed_values_rejected(self, rep_g2n2, values):
        # a wrong count or size and non-finite entries have their own tests
        with pytest.raises(InputError, match="cocycle values"):
            Cocycle(rep_g2n2, values)


class TestValueStack:
    """Images, inverse images and cocycle values are read-only complex
    (2g, n, n) stacks; flat is their column-stacked concatenation."""

    def cocycles(self, basis):
        """Cocycles whose value stacks have C, Fortran and mixed layouts."""
        rng = np.random.default_rng(41)
        chi = random_cocycle(basis, rng)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return (chi, star_involution(chi), anti_hermitian_part(chi),
                coboundary(v, basis.base), chi + 2j * chi)

    def test_stacks_are_read_only(self, basis_g2n2):
        rep = basis_g2n2.base
        stacks = [rep.images, rep.inverse_images]
        stacks += [chi.values for chi in self.cocycles(basis_g2n2)]
        for stack in stacks:
            assert isinstance(stack, np.ndarray)
            assert stack.shape == (4, 2, 2) and stack.dtype == complex
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0

    def test_flat_concatenates_vec_bit_for_bit(self, basis_g2n2):
        for chi in self.cocycles(basis_g2n2):
            reference = np.concatenate([vec(m) for m in chi.values])
            assert chi.flat.tobytes() == reference.tobytes()

    def test_from_flat_round_trip_bit_for_bit(self, basis_g2n2):
        cocycles = self.cocycles(basis_g2n2)
        for stack in (basis_g2n2.basis, basis_g2n2.h1_complement, stack_cocycles(cocycles)):
            again = from_flat(stack.base, stack.flat)
            assert isinstance(again, CocycleStack) and again.base is stack.base
            assert_same_bits(again.values, stack.values)
            assert_same_bits(again.flat, stack.flat)
        for chi in cocycles:
            (again,) = from_flat(chi.base, chi.flat[None])
            assert_same_bits(again.values, chi.values)


class TestCocycleStackSequence:
    """A CocycleStack is a read-only sequence of its cocycles."""

    def test_index_gives_the_row_cocycle_bit_for_bit(self, basis_g2n2):
        stack = basis_g2n2.h1_complement
        assert isinstance(stack, Sequence)
        for index in (0, 3, len(stack) - 1, -1, -len(stack)):
            chi = stack[index]
            assert type(chi) is Cocycle and chi.base is stack.base
            assert_same_bits(chi.values, stack.values[index])
            assert_same_bits(chi.flat, stack.flat[index])
        assert len(list(stack)) == len(stack)
        for chi, values in zip(stack, stack.values):
            assert_same_bits(chi.values, values)

    def test_slice_is_a_stack(self, basis_g2n2):
        stack = basis_g2n2.basis
        for part in (slice(2, 5), slice(None, 1), slice(None, None, -2)):
            rows = stack[part]
            assert type(rows) is CocycleStack and rows.base is stack.base
            assert_same_bits(rows.values, stack.values[part])
            assert not rows.values.flags.writeable
        for index in (len(stack), -len(stack) - 1):
            with pytest.raises(IndexError):
                stack[index]
        # a stack holds at least one row: an empty slice is refused by name
        for part in (slice(len(stack), None), slice(2, 2), slice(3, 1)):
            with pytest.raises(InputError, match=r"empty slice slice\(.*k >= 1") as error:
                stack[part]
            assert error.value.exit_code == 2
