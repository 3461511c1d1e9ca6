import re

import numpy as np
import pytest
import scipy.linalg

import goldman.words
from goldman import (Cocycle, GroupRingElement, GroupWord, InputError, Presentation,
                     anti_involution, cocycle_basis, commutator, format_word,
                     fox_derivative, newton_project, pairing_cup, parse_word,
                     random_representation)
from goldman.words import join_batches, letter_codes, letter_fox_terms
from letterwise import letterwise_fox_derivative


def words_of(pres, text):
    return parse_word(pres, text)


class TestReduction:
    def test_cancelling_pair(self):
        pres = Presentation(2)
        assert pres.word([(0, 1), (0, -1)]).is_identity

    def test_inner_cancellation(self):
        pres = Presentation(2)
        w = pres.a(1) * pres.b(1) * pres.b(1).inverse() * pres.a(2)
        assert w == pres.a(1) * pres.a(2)

    def test_relator_times_b1(self):
        # hand reduction: [a1,b1] b1 = a1 b1 a1^-1
        pres = Presentation(2)
        expected = pres.a(1) * pres.b(1) * pres.a(1).inverse()
        assert pres.relator(1) * pres.b(1) == expected

    def test_idempotent(self):
        pres = Presentation(3)
        raw = [(0, 1), (1, 1), (1, -1), (4, 1), (4, -1), (0, -1), (2, 1)]
        once = pres.word(raw)
        assert pres.reduce(once.codes) == once

    def test_unknown_generator_rejected(self):
        pres = Presentation(2)
        with pytest.raises(InputError):
            pres.word([(4, 1)])
        with pytest.raises(InputError):
            pres.word([(-1, 1)])

    def test_words_are_their_codes(self):
        # a1 a1 built by hand and by reduction is one word; a1 A1 is no word
        pres = Presentation(2)
        assert GroupWord(2, (0, 0)) == pres.word([(0, 2)])
        assert hash(GroupWord(2, (0, 0))) == hash(pres.word([(0, 1), (0, 1)]))
        assert pres.word([(1, -1), (2, 1)]).codes == (5, 2)
        with pytest.raises(InputError, match="cancel"):
            GroupWord(2, (0, 4))
        for codes in ((8,), (-1,), (1.0,), (np.int64(1),)):
            with pytest.raises(InputError, match=r"is not an int in 0\.\.7"):
                GroupWord(2, codes)

    def test_a_list_of_codes_is_the_tuple_word(self):
        listed, word = GroupWord(2, [0, 1]), GroupWord(2, (0, 1))
        assert listed == word and hash(listed) == hash(word)
        assert listed.codes == (0, 1) and type(listed.codes) is tuple

    @pytest.mark.parametrize("letter, message", [
        ((0, 1.5), "exponent 1.5 of generator 0 is not an integer"),
        ((0, None), "exponent None of generator 0 is not an integer"),
        ((0.0, 1), "generator index 0.0 out of range"),
        (("0", 1), "generator index '0' out of range"),
        ((0, True), "exponent True of generator 0 is not an integer")])
    def test_non_integer_letter_rejected(self, letter, message):
        with pytest.raises(InputError, match=re.escape(message)):
            Presentation(2).word([letter])

    def test_numpy_integer_letters_accepted(self):
        pres = Presentation(2)
        word = pres.word([(np.int64(1), np.int64(-2)), (np.intp(0), np.int8(1))])
        assert word == pres.word([(1, -2), (0, 1)])
        assert all(type(code) is int for code in word.codes)
        assert str(word) == "B1 B1 a1"

    def test_cascading_cancellation(self):
        pres = Presentation(1)
        w = pres.word([(0, 1), (1, 1), (1, -1), (0, -1)])
        assert w.is_identity

    def test_confluence_random_orders(self):
        rng = np.random.default_rng(0)
        pres = Presentation(2)
        for _ in range(100):
            letters = [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
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
            assert pres.word(work) == eager

    def test_associativity_with_identity(self):
        pres = Presentation(2)
        w = pres.a(1) * pres.b(2)
        assert w * pres.identity() == w
        assert pres.identity() * w == w


def _raw_rows(rng, genus, count=60, width=10):
    """count rows of raw letter codes with their lengths: row 0 empty,
    rows 1 and 2 full length, row 3 a word followed by its inverse, which
    cancels completely, the rest random."""
    letters = 2 * genus
    codes = rng.integers(0, 2 * letters, size=(count, width))
    lengths = rng.integers(0, width + 1, size=count)
    lengths[:3] = (0, width, width)
    half = width // 2
    codes[3, half:2 * half] = ((codes[3, :half] + genus * 2) % (2 * letters))[::-1]
    lengths[3] = 2 * half
    return codes, lengths


class TestWordBatch:
    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 31, 32])
    def test_reduce_batch_is_reduce_row_by_row(self, genus):
        pres = Presentation(genus)
        for seed in range(5):
            codes, lengths = _raw_rows(np.random.default_rng(seed), genus)
            batch = pres.reduce_batch(codes, lengths)
            expected = [pres.reduce(row[:length].tolist()) for row, length in zip(codes, lengths)]
            assert batch.words() == expected
            assert batch.words()[0].is_identity and batch.words()[3].is_identity
            assert all(type(code) is int for word in batch.words() for code in word.codes)
            # unsigned input: the scan subtracts codes in reduce_batch's signed type
            assert pres.reduce_batch(codes.astype(np.uint8), lengths).words() == expected

    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 31, 32])
    def test_product_is_the_word_product_row_by_row(self, genus):
        pres = Presentation(genus)
        for seed in range(5):
            batch = pres.reduce_batch(*_raw_rows(np.random.default_rng(seed), genus))
            u, v = batch[0::2], batch[1::2]
            assert (u * v).words() == [x * y for x, y in zip(u.words(), v.words())]
            # u times u^-1: every row cancels to the identity, at full length too
            inverses = [list(x.inverse().codes) for x in u.words()]
            width = max(map(len, inverses))
            inverse = pres.reduce_batch([row + [4 * genus] * (width - len(row)) for row in inverses],
                                        [len(row) for row in inverses])
            assert all(word.is_identity for word in (u * inverse).words() + (inverse * u).words())
            assert (u * inverse).codes.shape == (len(u), 0)

    @pytest.mark.parametrize("genus, dtype", [(31, np.int8), (32, np.int16)])
    def test_codes_take_the_smallest_type_that_holds_the_pad(self, genus, dtype):
        batch = Presentation(genus).reduce_batch([[0, 1]], [1])
        assert batch.codes.dtype == dtype and batch.codes.tolist() == [[0, 4 * genus]]

    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 31, 32])
    def test_letter_codes_of_a_batch_are_those_of_its_words(self, genus):
        pres = Presentation(genus)
        batch = pres.reduce_batch(*_raw_rows(np.random.default_rng(genus), genus))
        u, v = batch[0::2], batch[1::2]
        empty = pres.reduce_batch(np.zeros((0, 8), dtype=int), np.zeros(0, dtype=int))
        for words in (batch, u * v, join_batches([u * v, u, v]), batch[[3, 0]], empty):
            codes, reach, restore = letter_codes(pres, words)
            expected_codes, expected_reach, expected_restore = letter_codes(pres, words.words())
            assert codes.dtype == expected_codes.dtype and np.array_equal(codes, expected_codes)
            assert reach == expected_reach
            assert np.array_equal(restore, expected_restore)

    def test_rows_join_and_stay_read_only(self):
        pres = Presentation(2)
        batch = pres.reduce_batch(*_raw_rows(np.random.default_rng(0), 2))
        words = batch.words()
        assert join_batches([batch[5:], batch[:5]]).words() == words[5:] + words[:5]
        assert batch[[2, 0]].words() == [words[2], words[0]]
        for rows in (batch, batch * batch, join_batches([batch]), batch[1:]):
            assert not rows.codes.flags.writeable and not rows.lengths.flags.writeable
        with pytest.raises(AttributeError):
            batch.lengths = batch.lengths[:1]


class TestRelator:
    def test_zeroth_is_identity(self):
        assert Presentation(2).relator(0).is_identity

    def test_full_relator_genus_two(self):
        pres = Presentation(2)
        expected = parse_word(pres, "a1 b1 A1 B1 a2 b2 A2 B2")
        assert pres.relator(2) == expected
        assert pres.relator() == expected

    def test_single_commutator(self):
        pres = Presentation(2)
        assert pres.relator(1) == commutator(pres.a(1), pres.b(1))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            Presentation(2).relator(3)
        with pytest.raises(InputError):
            Presentation(2).relator(-1)

    def test_relator_is_product_of_commutators(self):
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            word = pres.identity()
            for k in range(1, genus + 1):
                word = word * commutator(pres.a(k), pres.b(k))
            assert pres.relator() == word


class TestFoxDerivative:
    def test_closed_forms_genus_two(self):
        pres = Presentation(2)
        da1 = pres.relator_derivative(0)
        expected = (GroupRingElement.from_word(pres.identity())
                    - GroupRingElement.from_word(parse_word(pres, "a1 b1 A1")))
        assert da1 == expected
        db1 = pres.relator_derivative(1)
        expected = (GroupRingElement.from_word(pres.a(1))
                    - GroupRingElement.from_word(pres.relator(1)))
        assert db1 == expected

    def test_closed_forms_all_generators(self):
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            for k in range(1, genus + 1):
                r_prev, r_k = pres.relator(k - 1), pres.relator(k)
                assert pres.relator_derivative(2 * (k - 1)) == (
                    GroupRingElement.from_word(r_prev)
                    - GroupRingElement.from_word(r_k * pres.b(k)))
                assert pres.relator_derivative(2 * (k - 1) + 1) == (
                    GroupRingElement.from_word(r_prev * pres.a(k))
                    - GroupRingElement.from_word(r_k))

    def test_derivative_of_other_letter_vanishes(self):
        pres = Presentation(2)
        assert fox_derivative(pres.b(1), 0).is_zero

    def test_product_rule_spot(self):
        pres = Presentation(2)
        u, v = pres.a(1), pres.b(1)
        lhs = fox_derivative(u * v, 0)
        assert lhs == GroupRingElement.from_word(pres.identity())

    def test_product_rule_random(self):
        rng = np.random.default_rng(1)
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            for _ in range(100):
                raw = lambda: [(int(rng.integers(0, 2 * genus)),
                                int(rng.choice([-1, 1])))
                               for _ in range(int(rng.integers(0, 8)))]
                u, v = pres.word(raw()), pres.word(raw())
                for index in range(2 * genus):
                    lhs = fox_derivative(u * v, index)
                    rhs = fox_derivative(u, index) + u * fox_derivative(v, index)
                    assert lhs == rhs

    def test_matches_letterwise_reference(self):
        rng = np.random.default_rng(5)
        pres = Presentation(2)
        words = [pres.word([(0, 2), (1, -1)]), pres.word([(0, 1), (0, -1), (1, 2), (1, -1)])]
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            words.append(pres.relator())
            for _ in range(50):
                raw = [(int(rng.integers(0, 2 * genus)), (-1, 1)[int(rng.integers(0, 2))])
                       for _ in range(int(rng.integers(0, 16)))]
                words.append(pres.word(raw))
        for word in words:
            for index in range(2 * word.genus):
                assert fox_derivative(word, index) == letterwise_fox_derivative(word, index)

    def test_inverse_letter_rule(self):
        pres = Presentation(1)
        d = fox_derivative(pres.a(1).inverse(), 0)
        assert d == GroupRingElement.from_word(pres.a(1).inverse(), -1)

    def test_letter_terms_are_the_derivative_terms(self):
        rng = np.random.default_rng(7)
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            words = [pres.relator()]
            for _ in range(300):
                raw = [(int(rng.integers(0, 2 * genus)), (-1, 1)[int(rng.integers(0, 2))])
                       for _ in range(int(rng.integers(0, 16)))]
                words.append(pres.word(raw))
            for word in words:
                from_letters = {(gen, pres.reduce(word.codes[:length])): coeff
                                for gen, length, coeff in letter_fox_terms(word)}
                assert len(from_letters) == len(word)
                from_fox = {(index, term): coeff for index in range(2 * genus)
                            for term, coeff in fox_derivative(word, index).terms()}
                assert from_letters == from_fox


class TestAntiInvolution:
    def test_example(self):
        pres = Presentation(2)
        e = (GroupRingElement.from_word(pres.a(1) * pres.b(1), 2)
             - GroupRingElement.from_word(pres.b(2).inverse()))
        expected = (GroupRingElement.from_word(pres.b(1).inverse() * pres.a(1).inverse(), 2)
                    - GroupRingElement.from_word(pres.b(2)))
        assert anti_involution(e) == expected

    def test_identity_word(self):
        pres = Presentation(2)
        e = GroupRingElement.from_word(pres.identity())
        assert anti_involution(e) == e

    def test_involution_random(self):
        rng = np.random.default_rng(2)
        pres = Presentation(2)
        for _ in range(50):
            e = GroupRingElement.zero(2)
            for _ in range(3):
                raw = [(int(rng.integers(0, 4)), int(rng.choice([-1, 1])))
                       for _ in range(int(rng.integers(0, 6)))]
                e = e + GroupRingElement.from_word(pres.word(raw),
                                                   int(rng.integers(-3, 4)) or 1)
            assert anti_involution(anti_involution(e)) == e

    def test_anti_homomorphism(self):
        pres = Presentation(2)
        e = GroupRingElement.from_word(pres.a(1)) + GroupRingElement.from_word(pres.b(2), -2)
        f = GroupRingElement.from_word(pres.b(1) * pres.a(2))
        assert anti_involution(e * f) == anti_involution(f) * anti_involution(e)


class TestGroupRing:
    def test_zero_coefficients_dropped(self):
        pres = Presentation(1)
        e = GroupRingElement.from_word(pres.a(1)) - GroupRingElement.from_word(pres.a(1))
        assert e.is_zero
        assert e == GroupRingElement.zero(1)

    def test_distributivity(self):
        pres = Presentation(2)
        a = GroupRingElement.from_word(pres.a(1), 2)
        b = GroupRingElement.from_word(pres.b(1), -1)
        c = GroupRingElement.from_word(pres.a(2) * pres.b(2))
        assert a * (b + c) == a * b + a * c

    def test_word_scalar_multiplication(self):
        pres = Presentation(1)
        e = GroupRingElement.from_word(pres.a(1))
        assert e * 3 == GroupRingElement.from_word(pres.a(1), 3)
        assert (e * 0).is_zero

    def test_operator_results_pass_the_constructor(self):
        """The operators build their results unchecked: each holds nonzero
        Python int coefficients, as the checked constructor would."""
        pres = Presentation(2)
        a = (GroupRingElement.from_word(pres.a(1), 2)
             + GroupRingElement.from_word(pres.b(2).inverse(), np.int64(-3)))
        b = GroupRingElement.from_word(pres.a(1), -2) + GroupRingElement.from_word(pres.b(1))
        w = pres.a(1).inverse()
        for result in (a + b, a - b, -a, a * b, a * 3, np.int64(2) * a, w * a, a * w, a * 0):
            assert result == GroupRingElement(2, dict(result.terms()))
            assert all(type(c) is int and c != 0 for _, c in result.terms())
        held = GroupRingElement(np.int64(2), {pres.a(1): np.int64(3)})
        assert type(held.genus) is int and held == GroupRingElement.from_word(pres.a(1), 3)

    def test_word_times_element_is_the_element_product(self):
        rng = np.random.default_rng(3)
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            batch = pres.reduce_batch(*_raw_rows(rng, genus, count=200, width=6))
            words = batch.words()
            for start in range(0, 200, 4):
                w, *terms = words[start:start + 4]
                e = GroupRingElement.zero(genus)
                for term in terms:
                    e = e + GroupRingElement.from_word(term, int(rng.integers(-3, 4)) or 1)
                assert w * e == GroupRingElement.from_word(w) * e
                assert (w * e).terms() == (GroupRingElement.from_word(w) * e).terms()


class TestDualGenerators:
    def test_alpha_one_genus_two(self):
        pres = Presentation(2)
        assert pres.dual_generators()[0] == parse_word(pres, "a1 B1 A1")

    def test_commutator_identity(self):
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            duals = pres.dual_generators()
            for k in range(1, genus + 1):
                alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
                lhs = commutator(alpha, beta)
                assert lhs == pres.relator(k - 1) * pres.relator(k).inverse()

    def test_dual_relator_telescopes(self):
        # the full dual relator is the inverse relator as a free word,
        # hence the identity in the surface group
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            duals = pres.dual_generators()
            product = pres.identity()
            for k in range(1, genus + 1):
                product = product * commutator(duals[2 * (k - 1)], duals[2 * (k - 1) + 1])
                assert product == pres.relator(k).inverse()

    def test_generators_recovered(self):
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            duals = pres.dual_generators()
            script = [pres.identity()]
            for k in range(1, genus + 1):
                script.append(script[-1] * commutator(duals[2 * (k - 1)],
                                                      duals[2 * (k - 1) + 1]))
            for k in range(1, genus + 1):
                alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
                lhs = pres.a(k).inverse() * (script[k] * beta * script[k - 1].inverse()).inverse()
                assert lhs.is_identity
                lhs = pres.b(k).inverse() * (script[k - 1] * alpha * script[k].inverse()).inverse()
                assert lhs.is_identity


@pytest.fixture
def fox_calls(monkeypatch):
    """Every fox_derivative call the words module makes, as (word, index)."""
    calls = []
    derive = goldman.words.fox_derivative

    def counted(word, index):
        calls.append((word, index))
        return derive(word, index)

    monkeypatch.setattr(goldman.words, "fox_derivative", counted)
    return calls


class TestRelatorDerivativeCache:
    def test_terms_follow_the_derivatives(self):
        for genus in (1, 2, 3):
            pres = Presentation(genus)
            expected = [(index, len(word), coeff)
                        for index in range(2 * genus)
                        for word, coeff in pres.relator_derivative(index).terms()]
            assert list(pres.relator_fox_terms) == expected
            assert sorted(pres.relator_fox_terms) == sorted(letter_fox_terms(pres.relator()))

    @pytest.mark.parametrize("index", [-1, 4])
    def test_index_range_checked(self, index):
        with pytest.raises(InputError):
            Presentation(2).relator_derivative(index)

    def test_pairing_cup_reads_the_two_cycle_once(self, fox_calls):
        rep = random_representation(2, 2, seed=17)
        rng = np.random.default_rng(0)
        chi, psi = (Cocycle(rep, tuple(rng.standard_normal((2, 2)) for _ in range(4)))
                    for _ in range(2))
        pairing_cup(chi, psi)
        assert len(fox_calls) == 4
        for _ in range(10):
            pairing_cup(chi, psi)
        assert len(fox_calls) == 4

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_one_presentation_derives_each_generator_once(self, fox_calls, flavor):
        genus = 2
        rep = random_representation(genus, 2, flavor, seed=18)
        basis = cocycle_basis(rep)
        chi, psi = basis.h1_complement[:2]
        for step in np.linspace(1e-4, 1e-3, 10):
            moved = [scipy.linalg.expm(step * (m - m.conj().T) / 2) @ g
                     for m, g in zip(psi.values, rep.images)]
            newton_project(rep.presentation, [moved], flavor)
            pairing_cup(chi, psi)
        assert sorted(index for _, index in fox_calls) == list(range(2 * genus))


class TestTwoCycle:
    def test_pair_count(self):
        assert len(Presentation(2).fundamental_two_cycle()) == 4
        assert len(Presentation(3).fundamental_two_cycle()) == 6

    def test_coefficients_are_fox_derivatives(self):
        pres = Presentation(2)
        cycle = pres.fundamental_two_cycle()
        for index, (coefficient, generator) in enumerate(cycle.pairs):
            assert generator == pres.generator(index)
            assert coefficient == pres.relator_derivative(index)


class TestTextFormat:
    def test_round_trip(self):
        pres = Presentation(2)
        for text in ("a1 b1 A1 B1 a2", "1", "a2 a2 B1"):
            assert format_word(parse_word(pres, text)) == text

    def test_identity_formats_as_one(self):
        pres = Presentation(2)
        assert format_word(pres.identity()) == "1"
        assert parse_word(pres, "1").is_identity

    def test_bad_tokens(self):
        pres = Presentation(2)
        for text in ("c1", "a0", "a3", "a1b1", "a-1"):
            with pytest.raises(InputError):
                parse_word(pres, text)

    def test_indices_follow_the_integer_rule(self):
        pres = Presentation(2)
        word = pres.relator()
        for call in (lambda: pres.generator(1.0), lambda: pres.relator(1.5),
                     lambda: pres.relator_derivative(1.5), lambda: fox_derivative(word, 1.5),
                     lambda: pres.word([(4, 1)]), lambda: pres.relator(3)):
            with pytest.raises(InputError, match="out of range"):
                call()
        assert pres.generator(np.int64(3)) == pres.b(2)
        assert pres.relator(np.int64(1)) == pres.relator(1)

    def test_handle_index_follows_the_integer_rule(self):
        pres = Presentation(2)
        with pytest.raises(InputError, match=re.escape("a_k needs an integer k in 1..2, "
                                                       "got k=1.5")):
            pres.a(1.5)
        for k in (True, 0, 3, 2.0, "1"):
            with pytest.raises(InputError, match="b_k needs an integer k"):
                pres.b(k)
        assert pres.a(np.int64(2)) == pres.generator(2) and pres.b(1) == pres.generator(1)

    def test_generator_names(self):
        pres = Presentation(2)
        assert [pres.generator_name(i) for i in range(4)] == ["a1", "b1", "a2", "b2"]
        for index in (-1, 4):
            with pytest.raises(InputError):
                pres.generator_name(index)

    def test_genus_validation(self):
        with pytest.raises(InputError):
            Presentation(0)

    @pytest.mark.parametrize("genus", [1.5, "2", 2.0, None, True])
    def test_non_integer_genus_rejected(self, genus):
        with pytest.raises(InputError, match="genus must be an integer >= 1"):
            Presentation(genus)

    def test_bool_index_rejected(self):
        # Python counts a bool as an int; the integer rule does not
        with pytest.raises(InputError, match="generator index True out of range"):
            Presentation(2).generator(True)

    def test_numpy_integer_genus_accepted(self):
        # the genus is stored as an int, so every code derived from it is
        # an int; the relator cache is emptied so that no earlier int-genus
        # call can answer for the numpy one
        goldman.words._relator.cache_clear()
        pres = Presentation(np.int64(3))
        assert type(pres.genus) is int and type(GroupWord(np.int64(3), ()).genus) is int
        assert pres.a(1).inverse().codes == (6,)
        assert pres.word([(0, -1)]).codes == (6,)
        assert pres.relator() == Presentation(3).relator()
        assert all(type(code) is int for code in pres.relator().codes)
        rep = random_representation(np.int64(3), 2)
        assert np.array_equal(rep.images, random_representation(3, 2).images)
