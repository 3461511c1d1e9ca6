"""Letterwise references that the stacked kernels are checked against bit
for bit: the Horner fold of a cocycle over one word, one letter at a time,
and the closed-form pairing in the dual generators built on it.  The
package folds words only as stacks (cocycles.extend_words); these are
kept here, apart from it, so that a test compares the stacked fold with
an independent walk and not with itself.  The Fox derivative's reference
is the product rule, letter by letter, in group-ring arithmetic."""

import numpy as np

from goldman import GroupRingElement, Presentation
from goldman.reps import evaluate


def letterwise_fox_derivative(word, index):
    """Fox derivative by the product rule d(uv) = du + u dv, one letter at
    a time: d(x)/dx = 1 and d(x^-1)/dx = -x^-1, each prefix re-reduced
    from its letters (quadratic in the word length)."""
    pres = Presentation(word.genus)
    result = GroupRingElement.zero(word.genus)
    prefix = pres.identity()
    count = pres.generator_count
    for code in word.codes:  # x_i is coded i, x_i^-1 is count + i
        letter = pres.reduce([code])
        if code % count == index:
            if code < count:
                result = result + GroupRingElement.from_word(prefix)
            else:
                result = result - GroupRingElement.from_word(prefix * letter)
        prefix = prefix * letter
    return result


def letterwise_extend(chi, word):
    """chi(word) folded right to left, one letter at a time: with acc =
    chi(w) for the suffix w already read, chi(x w) = chi(x) + x acc x^-1
    and chi(x^-1 w) = x^-1 (acc - chi(x)) x, x standing for sigma(x)."""
    rep = chi.base
    assert word.genus == rep.genus
    count = rep.presentation.generator_count
    left, right = rep.letter_tables
    acc = np.zeros((rep.rank, rep.rank), dtype=complex)
    for code in reversed(word.codes):
        if code < count:
            acc = chi.values[code] + left[code] @ acc @ right[code]
        else:
            acc = left[code] @ (acc - chi.values[code - count]) @ right[code]
    return acc


def letterwise_pairing_dual(chi1, chi2):
    """The closed form sum_k tr(chi1(alpha_k) Ad(sigma(R_{k-1})) chi2(a_k))
    - tr(chi1(beta_k) Ad(sigma(R_k)) chi2(b_k)), term by term in k, from
    letterwise_extend and the letterwise evaluate."""
    rep = chi1.base
    pres = rep.presentation
    duals = pres.dual_generators()
    total = 0.0 + 0.0j
    for k in range(1, pres.genus + 1):
        alpha, beta = duals[2 * (k - 1)], duals[2 * (k - 1) + 1]
        s_prev = evaluate(rep, pres.relator(k - 1))
        s_k = evaluate(rep, pres.relator(k))
        av = chi2.values[2 * (k - 1)]
        bv = chi2.values[2 * (k - 1) + 1]
        total += np.trace(letterwise_extend(chi1, alpha) @ (s_prev @ av @ np.linalg.inv(s_prev)))
        total -= np.trace(letterwise_extend(chi1, beta) @ (s_k @ bv @ np.linalg.inv(s_k)))
    return complex(total)
