"""Property tests of the word algebra.

The identities here are the ones the verify checks word-reduction-confluence,
fox-product-rule and anti-involution sample with seeded loops: free
reduction is confluent, Fox derivatives obey the product rule, and the
group-ring anti-involution is an additive, product-reversing involution.
Hypothesis runs derandomized and without an example database, so every
run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from goldman import GroupRingElement, Presentation, anti_involution, fox_derivative

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

genera = st.integers(1, 3)


def raw_letters(genus, max_size=12):
    """Unreduced letter sequences (generator index, +1/-1)."""
    return st.lists(st.tuples(st.integers(0, 2 * genus - 1), st.sampled_from([-1, 1])),
                    max_size=max_size)


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
    assert list(reduced.letters()) == work
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
