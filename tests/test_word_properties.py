"""Property tests of the word algebra.

The identities here are the ones the verify checks word-reduction-confluence,
fox-product-rule and anti-involution sample with seeded loops: free
reduction is confluent, Fox derivatives obey the product rule, and the
group-ring anti-involution is an additive, product-reversing involution.
The word contract is checked against a naive reference on letter lists:
a GroupWord holds freely reduced letter codes only, so equal group
elements are equal words with equal hashes, however they were built.
Hypothesis runs derandomized and without an example database, so every
run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldman import (GroupRingElement, GroupWord, InputError, Presentation, anti_involution,
                     format_word, fox_derivative, parse_word)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

genera = st.integers(1, 3)


def raw_letters(genus, max_size=12):
    """Unreduced letter sequences (generator index, +1/-1)."""
    return st.lists(st.tuples(st.integers(0, 2 * genus - 1), st.sampled_from([-1, 1])),
                    max_size=max_size)


def letters(word):
    """The letters (generator index, +1/-1) of a word's codes: x_i is coded
    i and x_i^-1 is 2g + i."""
    count = 2 * word.genus
    return [(code, 1) if code < count else (code - count, -1) for code in word.codes]


def words(genus):
    return raw_letters(genus, max_size=8).map(Presentation(genus).word)


def ring_elements(genus):
    terms = st.lists(st.tuples(words(genus), st.integers(-3, 3)), max_size=4)
    return terms.map(lambda pairs: sum(
        (GroupRingElement.from_word(w, c) for w, c in pairs),
        GroupRingElement.zero(genus)))


@PROPERTY
@given(data=st.data(), genus=genera)
def test_free_reduction_is_confluent(data, genus):
    pres = Presentation(genus)
    raw = data.draw(raw_letters(genus))
    work = list(raw)
    while True:
        sites = [i for i in range(len(work) - 1)
                 if work[i][0] == work[i + 1][0] and work[i][1] == -work[i + 1][1]]
        if not sites:
            break
        i = data.draw(st.sampled_from(sites))
        del work[i:i + 2]
    reduced = pres.word(raw)
    # any cancellation order ends at the same letters as the eager reducer
    assert letters(reduced) == work
    assert pres.word(work) == reduced


@PROPERTY
@given(data=st.data(), genus=genera)
def test_fox_product_rule(data, genus):
    u = data.draw(words(genus))
    v = data.draw(words(genus))
    index = data.draw(st.integers(0, 2 * genus - 1))
    assert fox_derivative(u * v, index) == fox_derivative(u, index) + u * fox_derivative(v, index)


@PROPERTY
@given(data=st.data(), genus=genera)
def test_anti_involution(data, genus):
    e = data.draw(ring_elements(genus))
    f = data.draw(ring_elements(genus))
    assert anti_involution(anti_involution(e)) == e
    assert anti_involution(e + f) == anti_involution(e) + anti_involution(f)
    assert anti_involution(e * f) == anti_involution(f) * anti_involution(e)


def naive_reduce(letters):
    """Cancel adjacent (x, +1)(x, -1) pairs of a letter list, leftmost
    first, until none is left: the reference free reduction."""
    work = list(letters)
    i = 0
    while i < len(work) - 1:
        (gen, sign), (next_gen, next_sign) = work[i], work[i + 1]
        if gen == next_gen and sign == -next_sign:
            del work[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return work


def raw_pairs(genus, max_size=8):
    """Unreduced (generator index, exponent) sequences, exponents -3..3."""
    return st.lists(st.tuples(st.integers(0, 2 * genus - 1), st.integers(-3, 3)),
                    max_size=max_size)


def expand(raw):
    return [(gen, 1 if exp > 0 else -1) for gen, exp in raw for _ in range(abs(exp))]


@PROPERTY
@given(data=st.data(), genus=genera)
def test_word_matches_the_letter_list_reference(data, genus):
    pres = Presentation(genus)
    raw = data.draw(raw_pairs(genus))
    word = pres.word(raw)
    expected = naive_reduce(expand(raw))
    assert letters(word) == expected
    assert len(word) == len(expected) == len(word.codes)
    assert word.codes == tuple(gen if sign > 0 else 2 * genus + gen for gen, sign in expected)
    assert pres.reduce(list(word.codes)) == word


@PROPERTY
@given(data=st.data(), genus=genera)
def test_product_and_inverse_match_the_letter_list_reference(data, genus):
    pres = Presentation(genus)
    u, v = data.draw(words(genus)), data.draw(words(genus))
    u_letters, v_letters = letters(u), letters(v)
    assert letters(u * v) == naive_reduce(u_letters + v_letters)
    assert letters(u.inverse()) == [(gen, -sign) for gen, sign in reversed(u_letters)]
    assert len(u * v) == len(naive_reduce(u_letters + v_letters))
    assert (u * u.inverse()).is_identity and u.inverse().inverse() == u


@PROPERTY
@given(data=st.data(), genus=genera)
def test_constructor_refuses_unreduced_and_out_of_range_codes(data, genus):
    count = 2 * genus
    word = data.draw(words(genus))
    codes = list(word.codes)
    at = data.draw(st.integers(0, len(codes)))
    code = data.draw(st.integers(0, 2 * count - 1))
    with pytest.raises(InputError):
        GroupWord(genus, tuple(codes[:at] + [code, (code + count) % (2 * count)] + codes[at:]))
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=2 * count)))
    with pytest.raises(InputError):
        GroupWord(genus, tuple(codes[:at] + [bad] + codes[at:]))
    with pytest.raises(InputError):
        Presentation(genus).reduce(codes[:at] + [bad] + codes[at:])
    assert GroupWord(genus, word.codes) == word


@PROPERTY
@given(data=st.data(), genus=genera)
def test_equal_elements_are_equal_words(data, genus):
    pres = Presentation(genus)
    raw = data.draw(raw_pairs(genus))
    cut = data.draw(st.integers(0, len(raw)))
    built = [pres.word(raw), pres.word(raw[:cut]) * pres.word(raw[cut:]),
             parse_word(pres, format_word(pres.word(raw))),
             parse_word(pres, " ".join(format_word(pres.word([letter]))
                                       for letter in expand(raw)) or "1")]
    assert all(w == built[0] for w in built)
    assert len({hash(w) for w in built}) == 1
    assert len({w: None for w in built}) == 1


def assert_checked_twin(word):
    """A word built on the trusted path equals, and hashes like, the word
    GroupWord's checked constructor builds from the same codes."""
    twin = GroupWord(word.genus, word.codes)
    assert type(word.genus) is int and all(type(code) is int for code in word.codes)
    assert word == twin and hash(word) == hash(twin)
    assert len({word: None, twin: None}) == 1


@PROPERTY
@given(data=st.data(), genus=genera)
def test_trusted_words_equal_their_checked_twins(data, genus):
    pres = Presentation(genus)
    u, v = data.draw(words(genus)), data.draw(words(genus))
    raw = data.draw(st.lists(st.integers(0, 4 * genus - 1), max_size=12))
    built = [u * v, v * u, u.inverse(), (u * v).inverse(), pres.reduce(raw),
             pres.reduce(list(u.codes) + list(v.codes))]
    index = data.draw(st.integers(0, 2 * genus - 1))
    built += [prefix for prefix, _ in fox_derivative(u * v, index).terms()]
    for word in built:
        assert_checked_twin(word)


@PROPERTY
@given(data=st.data(), genus=genera)
def test_checked_constructor_still_refuses_bad_codes(data, genus):
    count = 2 * genus
    codes = list(data.draw(words(genus)).codes)
    at = data.draw(st.integers(0, len(codes)))
    code = data.draw(st.integers(0, 2 * count - 1))
    bad_codes = [data.draw(st.one_of(st.integers(max_value=-1),
                                     st.integers(min_value=2 * count))),
                 data.draw(st.booleans()), np.int64(code), np.intp(code)]
    for bad in bad_codes:
        with pytest.raises(InputError, match="letter code"):
            GroupWord(genus, tuple(codes[:at] + [bad] + codes[at:]))
    with pytest.raises(InputError, match="cancel"):
        GroupWord(genus, (code, (code + count) % (2 * count)))
