"""Exact algebra of the genus-g surface group presentation.

The group is generated by a_1, b_1, ..., a_g, b_g subject to the single
relation R_g = [a_1,b_1]...[a_g,b_g] = 1.  Everything here is exact
integer/word arithmetic: freely reduced words, the integral group ring,
Fox derivatives, the dual generators alpha_k, beta_k, and the two-cycle
that realizes the fundamental class of the surface in group homology.

Generator indexing is interleaved: a_k has index 2(k-1), b_k has index
2(k-1)+1, so the generator list reads [a1, b1, a2, b2, ...].

A word is its letter codes: with c = 2g generators, x_i is coded i and
x_i^-1 is c + i, its index in a table [images, inverses].  The codes are
freely reduced, so equal group elements are equal words, each prefix is a
slice of the codes, and every walker takes one step per code.  A word
argument that is not a GroupWord is an InputError (errors.require_type).

Words as arrays: a WordBatch holds many reduced words as one code matrix
padded with 2c, past the end of the tables, and a length vector.  It is
reduced by one stacked push-or-cancel scan (Presentation.reduce_batch),
multiplied row by row at one cut, and read by letter_codes as it stands,
so the checks that draw words by the hundred never build them one by one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InputError, require_type

def is_integer(value) -> bool:
    """The one integer rule of every input check: a Python or numpy
    integer, and not a bool, which Python counts as an int."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_index(what: str, index, stop: int) -> None:
    """An index is an integer in 0..stop-1, from the CLI and the API alike."""
    if not (is_integer(index) and 0 <= index < stop):
        raise InputError(f"{what} {index!r} out of range 0..{stop - 1}")


def check_size(**sizes) -> None:
    """Sizes such as genus and rank are integers >= 1, from the CLI and the API alike."""
    for name, value in sizes.items():
        if not is_integer(value) or value < 1:
            raise InputError(f"{name} must be an integer >= 1, got {value!r}")


def _check_codes(codes: Sequence, count: int, reduced: bool = True) -> None:
    """Refuse a letter code that is not a Python int in 0..2c-1, c = count (codes
    hash and index tables as they are), and in a reduced word one next to its inverse."""
    previous = None
    for code in codes:
        if type(code) is not int or not 0 <= code < 2 * count:
            raise InputError(f"letter code {code!r} is not an int in 0..{2 * count - 1}")
        if reduced and previous is not None and abs(previous - code) == count:
            raise InputError(f"letter codes {previous}, {code} cancel in a reduced word")
        previous = code


@lru_cache(maxsize=None)
def _letter_names(genus: int) -> tuple[str, ...]:
    """The token of each letter code: a1 b1 a2 b2 ..., then A1 B1 A2 B2 ..."""
    names = [f"{family}{k}" for k in range(1, genus + 1) for family in "ab"]
    return tuple(names + [name.upper() for name in names])


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word as its letter codes: with c = 2g generators,
    x_i is coded i and x_i^-1 is c + i.  Construction refuses a genus
    that is not an integer >= 1 (check_size), a code out of range and a
    code next to its own inverse, and codes that are not a tuple or a list;
    a list of codes is held as a tuple."""

    genus: int
    codes: tuple[int, ...]

    def __post_init__(self):
        check_size(genus=self.genus)
        if not isinstance(self.codes, (tuple, list)):
            raise InputError(f"word codes must be a tuple or a list, "
                             f"got {type(self.codes).__name__}")
        # a numpy genus would make numpy codes, and a list of codes would not hash
        object.__setattr__(self, "genus", int(self.genus))
        object.__setattr__(self, "codes", tuple(self.codes))
        _check_codes(self.codes, 2 * self.genus)

    @property
    def is_identity(self) -> bool:
        return not self.codes

    def __len__(self) -> int:
        return len(self.codes)

    def __mul__(self, other):
        """The reduced product: cancellation happens only where the two
        reduced words meet."""
        if not isinstance(other, GroupWord):
            return NotImplemented
        if self.genus != other.genus:
            raise InputError("cannot multiply words over different presentations")
        count = 2 * self.genus
        left, right = self.codes, other.codes
        cut = 0
        while cut < min(len(left), len(right)) and abs(left[-1 - cut] - right[cut]) == count:
            cut += 1
        return _trusted(self.genus, left[:len(left) - cut] + right[cut:])

    def inverse(self) -> "GroupWord":
        count = 2 * self.genus
        return _trusted(self.genus, tuple([code + count if code < count else code - count
                                           for code in reversed(self.codes)]))

    def __str__(self) -> str:
        return format_word(self)


def _trusted(genus: int, codes: tuple[int, ...]) -> GroupWord:
    """The GroupWord of codes that this module has just made freely reduced
    and in range, over an int genus, without GroupWord's checks: a product,
    an inverse, a reduction and a Fox prefix are reduced by construction."""
    word = object.__new__(GroupWord)
    object.__setattr__(word, "genus", genus)
    object.__setattr__(word, "codes", codes)
    return word


class WordBatch:
    """Freely reduced words as arrays: row i of the read-only (k, width)
    integer matrix codes holds word i's letter codes in its first lengths[i]
    entries and the pad 2c after them, c = 2g, as letter_codes pads.
    Batches are built from outside arrays only by Presentation.reduce_batch,
    which checks them; the module makes the rest by products, joins and row
    selections.
    batch[rows] is the batch of the rows a slice or an index array selects,
    and words() the rows as GroupWords, where exact ring algebra needs them."""

    __slots__ = ("genus", "codes", "lengths")

    def __setattr__(self, name, value):
        raise AttributeError("a WordBatch is read-only")

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows) -> "WordBatch":
        codes = self.codes[rows]
        if codes.ndim != 2:
            raise InputError(f"a batch selects rows by a slice or an index array, got {rows!r}")
        return _trusted_batch(self.genus, codes, self.lengths[rows])

    def __mul__(self, other):
        """The reduced products row by row, each cut as GroupWord.__mul__
        cuts: at the first position where other's prefix stops inverting
        self's suffix."""
        if not isinstance(other, WordBatch):
            return NotImplemented
        if self.genus != other.genus or len(self) != len(other):
            raise InputError("cannot multiply batches of different presentations or sizes")
        count = 2 * self.genus
        left, right, lu, lv = self.codes, other.codes, self.lengths, other.lengths
        rows = np.arange(len(self))[:, None]
        depth = np.arange(min(left.shape[1], right.shape[1]))
        # left's suffix, read backwards, against right's prefix: the cut is
        # the leading run of inverse pairs
        meets = ((depth < np.minimum(lu, lv)[:, None])
                 & (np.abs(left[rows, lu[:, None] - 1 - depth] - right[:, depth]) == count))
        cut = np.logical_and.accumulate(meets, axis=1).sum(axis=1, dtype=np.intp)
        keep, lengths = lu - cut, lu + lv - 2 * cut
        # left's kept prefix, then right past the cut, gathered from both side by side
        joined = np.concatenate([left, right], axis=1)
        column = np.arange(lengths.max(initial=0))
        at = np.where(column < keep[:, None], column,
                      left.shape[1] + cut[:, None] + column - keep[:, None])
        codes = joined[rows, np.minimum(at, joined.shape[1] - 1)]
        codes[column >= lengths[:, None]] = 2 * count
        return _trusted_batch(self.genus, codes, lengths)

    def words(self) -> list[GroupWord]:
        return [_trusted(self.genus, tuple(row[:length]))
                for row, length in zip(self.codes.tolist(), self.lengths.tolist())]


def join_batches(batches) -> WordBatch:
    """The rows of a non-empty sequence of WordBatches of one genus, batch
    after batch, as one batch padded to the widest."""
    batches = list(require_type(batches, Iterable, "the batches"))
    for batch in batches:
        require_type(batch, WordBatch, "each batch")
    if not batches or len({batch.genus for batch in batches}) != 1:
        raise InputError("joining needs at least one batch, all of one genus")
    genus = batches[0].genus
    codes = np.full((sum(map(len, batches)), max(batch.codes.shape[1] for batch in batches)),
                    4 * genus, dtype=batches[0].codes.dtype)
    start = 0
    for batch in batches:
        codes[start:start + len(batch), :batch.codes.shape[1]] = batch.codes
        start += len(batch)
    return _trusted_batch(genus, codes, np.concatenate([batch.lengths for batch in batches]))


def _trusted_batch(genus: int, codes: np.ndarray, lengths: np.ndarray) -> WordBatch:
    """The WordBatch of arrays that this module has just made freely
    reduced, in range and padded, codes of reduce_batch's type and intp
    lengths over an int genus, without reduce_batch's checks."""
    codes.setflags(write=False)
    lengths.setflags(write=False)
    batch = object.__new__(WordBatch)
    for name, value in zip(WordBatch.__slots__, (genus, codes, lengths)):
        object.__setattr__(batch, name, value)
    return batch


def _word_rows(genus: int, words) -> tuple[np.ndarray, np.ndarray]:
    """The code matrix, padded with 2c, and the lengths of an iterable of
    GroupWords of the genus, as a WordBatch holds them."""
    words = list(require_type(words, Iterable, "the words"))
    for word in words:
        if require_type(word, GroupWord, "each word").genus != genus:
            raise InputError("word and representation have different genus")
    rows = [w.codes for w in words]
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    longest = int(lengths.max(initial=0))
    pad = (4 * genus,)
    codes = np.array([row + pad * (longest - len(row)) for row in rows],
                     dtype=np.intp).reshape(len(rows), longest)
    return codes, lengths


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    """The reduced word u v u^-1 v^-1."""
    require_type(u, GroupWord, "each word of a commutator")
    require_type(v, GroupWord, "each word of a commutator")
    return u * v * u.inverse() * v.inverse()


@dataclass(frozen=True)
class Presentation:
    """The standard one-relator presentation of a genus-g surface group.

    genus >= 1; the relator is the product of the g handle commutators.
    """

    genus: int

    def __post_init__(self):
        check_size(genus=self.genus)
        object.__setattr__(self, "genus", int(self.genus))

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    def identity(self) -> GroupWord:
        return GroupWord(self.genus, ())

    def generator(self, index: int) -> GroupWord:
        check_index("generator index", index, 2 * self.genus)
        return GroupWord(self.genus, (int(index),))

    def a(self, k: int) -> GroupWord:
        """The handle generator a_k, 1-based."""
        return self._handle_generator("a", k)

    def b(self, k: int) -> GroupWord:
        """The handle generator b_k, 1-based."""
        return self._handle_generator("b", k)

    def _handle_generator(self, family: str, k) -> GroupWord:
        """a_k or b_k for an integer k in 1..genus (is_integer: not a bool)."""
        if not (is_integer(k) and 1 <= k <= self.genus):
            raise InputError(f"{family}_k needs an integer k in 1..{self.genus}, got k={k!r}")
        return self.generator(2 * (int(k) - 1) + "ab".index(family))

    def generator_name(self, index: int) -> str:
        check_index("generator index", index, 2 * self.genus)
        return _letter_names(self.genus)[index]

    def word(self, raw: Sequence[tuple[int, int]]) -> GroupWord:
        """Freely reduce a raw sequence of (generator index, exponent) pairs:
        their letter codes, each checked once here, freely reduced as in
        reduce."""
        count = 2 * self.genus
        codes: list[int] = []
        for gen, exp in require_type(raw, Iterable, "the raw word"):
            check_index("generator index", gen, count)
            if not is_integer(exp):
                raise InputError(f"exponent {exp!r} of generator {gen} is not an integer")
            codes += [int(gen) if exp > 0 else count + int(gen)] * abs(exp)
        return self._reduced(codes)

    def reduce(self, codes: Iterable[int]) -> GroupWord:
        """The freely reduced word of a sequence of letter codes, each
        checked first (_check_codes)."""
        codes = list(require_type(codes, Iterable, "the letter codes"))
        _check_codes(codes, 2 * self.genus, reduced=False)  # before any code can cancel
        return self._reduced(codes)

    def _reduced(self, codes: list[int]) -> GroupWord:
        """The freely reduced word of checked letter codes, through one
        push-or-cancel stack: a code cancels the top of the stack when the
        two differ by the generator count, x_i against x_i^-1."""
        count = 2 * self.genus
        stack: list[int] = []
        for code in codes:
            if stack and abs(stack[-1] - code) == count:
                stack.pop()
            else:
                stack.append(code)
        return _trusted(self.genus, tuple(stack))

    def reduce_batch(self, codes, lengths) -> "WordBatch":
        """reduce of every row of a (k, width) integer code matrix, row i
        read up to lengths[i], as one WordBatch: the push-or-cancel stack of
        every row at once, one column per step."""
        count = 2 * self.genus
        codes, lengths = np.asarray(codes), np.asarray(lengths)
        if not (codes.ndim == 2 and codes.dtype.kind in "iu" and lengths.dtype.kind in "iu"
                and lengths.shape == codes.shape[:1]
                and np.all((lengths >= 0) & (lengths <= codes.shape[1]))):
            raise InputError(f"a word batch is a (k, width) integer code matrix and k integer "
                             f"lengths in 0..width, got {codes.dtype} {codes.shape} and "
                             f"{lengths.dtype} {lengths.shape}")
        inside = np.arange(codes.shape[1]) < lengths[:, None]
        if np.any(inside & ((codes < 0) | (codes >= 2 * count))):
            raise InputError(f"letter codes must be integers in 0..{2 * count - 1}")
        # the smallest signed type of -2c - 1 holds the codes, the pad 2c and
        # every difference of two of them: int8 up to genus 31
        codes = codes.astype(np.min_scalar_type(-2 * count - 1))
        rows = np.arange(len(codes))
        stack = np.full(codes.shape, 2 * count, dtype=codes.dtype)
        top = np.zeros(len(codes), dtype=np.intp)
        for column, live in zip(codes.T, inside.T):
            cancel = live & (top > 0) & (np.abs(stack[rows, top - 1] - column) == count)
            stack[rows, top] = column  # lands above the new top unless pushed
            top += live
            top -= 2 * cancel
        stack[np.arange(codes.shape[1]) >= top[:, None]] = 2 * count
        return _trusted_batch(self.genus, stack, top)

    def relator(self, k: int | None = None) -> GroupWord:
        """R_k = [a_1,b_1]...[a_k,b_k]; R_0 is the identity, default k = genus."""
        k = self.genus if k is None else k
        check_index("relator index", k, self.genus + 1)
        return _relator(self.genus, int(k))

    @cached_property
    def relator_derivatives(self) -> tuple["GroupRingElement", ...]:
        """Fox derivatives of the full relator, one per generator, derived
        once per presentation."""
        relator = self.relator()
        return tuple(fox_derivative(relator, index) for index in range(2 * self.genus))

    def relator_derivative(self, index: int) -> "GroupRingElement":
        """Fox derivative of the full relator with respect to one generator."""
        check_index("generator index", index, 2 * self.genus)
        return self.relator_derivatives[index]

    @cached_property
    def relator_fox_terms(self) -> tuple[tuple[int, int, int], ...]:
        """(generator, prefix length, coefficient) of every term of every
        relator derivative, by generator, each derivative in its terms()
        order: the relator is freely reduced, so each term's word is the
        relator's prefix of that length."""
        return tuple((index, len(word), coeff)
                     for index, deriv in enumerate(self.relator_derivatives)
                     for word, coeff in deriv.terms())

    def dual_generators(self) -> tuple[GroupWord, ...]:
        """alpha_k = R_{k-1} b_k^-1 R_k^-1 and beta_k = R_k a_k^-1 R_{k-1}^-1,
        interleaved [alpha_1, beta_1, alpha_2, beta_2, ...]."""
        return _dual_generators(self.genus)

    def fundamental_two_cycle(self) -> "TwoCycle":
        """The group-homology 2-chain, built from Fox derivatives of the
        relator, that represents the fundamental class of the surface."""
        return TwoCycle(tuple((deriv, self.generator(index))
                              for index, deriv in enumerate(self.relator_derivatives)))

    @cached_property
    def two_cycle_codes(self):
        """The anti-involuted coefficients of the fundamental two-cycle,
        coded once per presentation for pairing_cup's stacked fold
        (ring_codes); element i pairs with generator i."""
        return ring_codes(self, [anti_involution(coefficient)
                                 for coefficient, _ in self.fundamental_two_cycle().pairs])

    @cached_property
    def dual_codes(self):
        """The letter_codes of the dual generators, coded once per
        presentation for pairing_duals' stacked fold."""
        return letter_codes(self, self.dual_generators())


@lru_cache(maxsize=None)
def _relator(genus: int, k: int) -> GroupWord:
    pres = Presentation(genus)
    word = pres.identity()
    for i in range(1, k + 1):
        word = word * commutator(pres.a(i), pres.b(i))
    return word


@lru_cache(maxsize=None)
def _dual_generators(genus: int) -> tuple[GroupWord, ...]:
    pres = Presentation(genus)
    out = []
    for k in range(1, genus + 1):
        r_prev, r_k = pres.relator(k - 1), pres.relator(k)
        out += [r_prev * pres.b(k).inverse() * r_k.inverse(),  # alpha_k
                r_k * pres.a(k).inverse() * r_prev.inverse()]  # beta_k
    return tuple(out)


class GroupRingElement:
    """Finite integer combination of reduced words (the integral group ring).
    terms, when given, is a dict from word to coefficient.  A genus that
    fails check_size, a key not a GroupWord of that genus, a coefficient
    that fails is_integer and a foreign operand are InputErrors."""

    __slots__ = ("genus", "_terms")

    def __init__(self, genus: int, terms: dict[GroupWord, int] | None = None):
        check_size(genus=genus)
        terms = {} if terms is None else require_type(terms, dict, "the terms")
        for w, c in terms.items():
            if require_type(w, GroupWord, "a term's word").genus != genus or not is_integer(c):
                raise InputError(f"term {c!r} * {w} is not an integer times a word of "
                                 f"genus {genus}")
        self.genus = int(genus)
        self._terms = {w: int(c) for w, c in terms.items() if c != 0}

    @classmethod
    def from_word(cls, word: GroupWord, coefficient: int = 1) -> "GroupRingElement":
        return cls(require_type(word, GroupWord, "the word").genus, {word: coefficient})

    @classmethod
    def zero(cls, genus: int) -> "GroupRingElement":
        return cls(genus, {})

    def terms(self) -> list[tuple[GroupWord, int]]:
        """Terms in a deterministic order (by word length, then codes)."""
        return sorted(self._terms.items(), key=lambda item: (len(item[0]), item[0].codes))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _check_genus(self, other: "GroupRingElement"):
        if self.genus != other.genus:
            raise InputError("group ring elements over different presentations")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_genus(require_type(other, GroupRingElement, "the ring element added"))
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, 0) + c
        return _trusted_ring(self.genus, {w: c for w, c in terms.items() if c})

    def __neg__(self) -> "GroupRingElement":
        return _trusted_ring(self.genus, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-require_type(other, GroupRingElement, "the ring element subtracted"))

    def __mul__(self, other) -> "GroupRingElement":
        if is_integer(other):
            return _trusted_ring(self.genus, {w: c * int(other)
                                              for w, c in self._terms.items() if other})
        if isinstance(other, GroupWord):
            other = GroupRingElement.from_word(other)
        if not isinstance(other, GroupRingElement):
            raise InputError(f"a ring element multiplies by a ring element, a word or an "
                             f"integer, not a {type(other).__name__}")
        self._check_genus(other)
        terms: dict[GroupWord, int] = {}
        for u, cu in self._terms.items():
            for v, cv in other._terms.items():
                w = u * v
                terms[w] = terms.get(w, 0) + cu * cv
        return _trusted_ring(self.genus, {w: c for w, c in terms.items() if c})

    def __rmul__(self, other) -> "GroupRingElement":
        """w * e for a word w maps each term by left multiplication, a
        bijection of words: no two terms merge; any other factor is e * other."""
        if not isinstance(other, GroupWord):
            return self * other
        self._check_genus(other)
        return _trusted_ring(self.genus, {other * w: c for w, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.genus == other.genus
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.genus, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for w, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(f"{sign} {mag}{format_word(w)}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def _trusted_ring(genus: int, terms: dict) -> GroupRingElement:
    """The element of terms that this module has just made distinct,
    nonzero and integral, without GroupRingElement's checks."""
    element = object.__new__(GroupRingElement)
    element.genus, element._terms = genus, terms
    return element


def anti_involution(element: GroupRingElement) -> GroupRingElement:
    """Map each word to its inverse, keeping coefficients.

    An anti-homomorphism of the group ring, and an involution.
    """
    require_type(element, GroupRingElement, "the ring element")
    return _trusted_ring(element.genus, {w.inverse(): c for w, c in element._terms.items()})


def fox_derivative(word: GroupWord, index: int) -> GroupRingElement:
    """Fox free derivative of a word with respect to generator `index`.

    Defined on letters by d(x)/dx = 1 and d(x^-1)/dx = -x^-1, extended by
    the product rule d(uv)/dx = du/dx + u dv/dx: the terms of the word's
    letters in x_i (letter_fox_terms).  On a freely reduced word their
    prefixes are distinct and their coefficients +-1, so no two terms merge.
    """
    genus = require_type(word, GroupWord, "the word").genus
    check_index("generator index", index, 2 * genus)
    return _trusted_ring(genus, {_trusted(genus, word.codes[:length]): coeff
                                 for generator, length, coeff in letter_fox_terms(word)
                                 if generator == index})


def letter_fox_terms(word: GroupWord) -> list[tuple[int, int, int]]:
    """(generator, prefix length, coefficient) of each letter's Fox term:
    x_i at position p gives (i, p, +1), x_i^-1 gives (i, p + 1, -1).  On a
    freely reduced word the prefixes are reduced and their lengths differ,
    so these are the terms of fox_derivative."""
    count = 2 * require_type(word, GroupWord, "the word").genus
    return [(code, position, 1) if code < count else (code - count, position + 1, -1)
            for position, code in enumerate(word.codes)]


def letter_codes(presentation: Presentation, words):
    """Letter codes of words over the presentation, longest word first,
    for tables indexed like [images, inverses]: an iterable of GroupWords,
    or a WordBatch, read as it stands.

    Returns (codes, reach, restore).  The rows of the integer array
    codes, of shape (len(words), longest), are the words' codes stably
    sorted by decreasing length, and indexing a stack of per-row results
    by restore puts it back in word order.  With c generators, shorter
    words are padded on the right with 2c, past the end of the tables.
    reach[p] counts the words with a letter at position p, which are the
    first reach[p] rows: a fold reads those alone, so it never meets the
    padding.
    """
    genus = require_type(presentation, Presentation, "the presentation").genus
    if not isinstance(words, WordBatch):
        codes, lengths = _word_rows(genus, words)
    elif words.genus == genus:
        codes, lengths = words.codes, words.lengths
    else:
        raise InputError("word and representation have different genus")
    order = np.argsort(-lengths, kind="stable")
    longest = int(lengths.max(initial=0))
    reach = (lengths[:, None] > np.arange(longest)).sum(axis=0).tolist()
    return codes[order, :longest].astype(np.intp, copy=False), reach, np.argsort(order)


@dataclass(frozen=True, eq=False)
class RingCodes:
    """Group-ring elements coded for a stacked fold of their terms.

    letters is letter_codes of every term's word, element by element and
    each element's terms in terms() order.  Slot j of slots holds the j-th
    term of every element that has one, as three arrays: the elements,
    the terms' rows among letters' words, and their integer coefficients.
    Adding slot after slot sums each element's terms in terms() order.
    """

    count: int
    letters: tuple
    slots: tuple


def ring_codes(presentation: Presentation, elements) -> RingCodes:
    """The RingCodes of a sequence of group-ring elements."""
    terms = [require_type(element, GroupRingElement, "each ring element").terms()
             for element in elements]
    starts = np.cumsum([0] + [len(t) for t in terms], dtype=np.intp)
    slots = []
    for j in range(max(map(len, terms), default=0)):
        owners = [e for e, t in enumerate(terms) if len(t) > j]
        slots.append((np.array(owners, dtype=np.intp), starts[owners] + j,
                      np.array([terms[e][j][1] for e in owners], dtype=np.int64)))
    letters = letter_codes(presentation, [word for t in terms for word, _ in t])
    return RingCodes(len(terms), letters, tuple(slots))


@dataclass(frozen=True)
class TwoCycle:
    """Formal chain of (group-ring coefficient, generator) pairs of length 2g."""

    pairs: tuple[tuple[GroupRingElement, GroupWord], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def parse_word(presentation: Presentation, text: str) -> GroupWord:
    """Parse the whitespace-separated word syntax `a1 b1 A1 B1`.

    Capital letters denote inverses; the bare token `1` is the identity.
    """
    require_type(presentation, Presentation, "the presentation")
    tokens = require_type(text, str, "the word text").split()
    if tokens == ["1"]:
        return presentation.identity()
    codes = {name: code for code, name in enumerate(_letter_names(presentation.genus))}
    for token in tokens:
        if token not in codes:
            raise InputError(f"cannot parse word token {token!r} at genus {presentation.genus}")
    return presentation.reduce([codes[token] for token in tokens])


def format_word(word: GroupWord) -> str:
    """Inverse of parse_word: one token per letter, `1` for the identity."""
    names = _letter_names(require_type(word, GroupWord, "the word").genus)
    return " ".join(names[code] for code in word.codes) or "1"
