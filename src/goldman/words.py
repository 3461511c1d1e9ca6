"""Exact algebra of the genus-g surface group presentation.

The group is generated by a_1, b_1, ..., a_g, b_g subject to the single
relation R_g = [a_1,b_1]...[a_g,b_g] = 1.  Everything here is exact
integer/word arithmetic: freely reduced words, the integral group ring,
Fox derivatives, the dual generators alpha_k, beta_k, and the two-cycle
that realizes the fundamental class of the surface in group homology.

Generator indexing is interleaved: a_k has index 2(k-1), b_k has index
2(k-1)+1, so the generator list reads [a1, b1, a2, b2, ...].
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import InputError

_TOKEN_RE = re.compile(r"^([abAB])([1-9][0-9]*)$")


def _push_run(stack: list[tuple[int, int]], gen: int, exp: int) -> None:
    """Append a nonzero run to a freely reduced stack of runs.

    Only the top can merge with it; a merge that cancels pops the top.
    """
    if stack and stack[-1][0] == gen:
        merged = stack.pop()[1] + exp
        if merged != 0:
            stack.append((gen, merged))
    else:
        stack.append((gen, exp))


def _reduce_runs(runs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Stack-merge adjacent runs of the same generator; drop empty runs.

    Cancellation cascades: when a merge annihilates a run, the newly
    exposed run may merge with the next one, which the stack handles.
    """
    out: list[tuple[int, int]] = []
    for gen, exp in runs:
        if exp != 0:
            _push_run(out, gen, exp)
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word, stored as run-length (generator, exponent) pairs."""

    genus: int
    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for gen, exp in self.runs:
            if not 0 <= gen < 2 * self.genus:
                raise InputError(f"generator index {gen} out of range for genus {self.genus}")
            if exp == 0:
                raise InputError("zero-exponent run in a reduced word")

    @property
    def is_identity(self) -> bool:
        return not self.runs

    def letters(self) -> Iterator[tuple[int, int]]:
        """Yield single letters (generator, +1/-1) left to right."""
        for gen, exp in self.runs:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield gen, sign

    def __len__(self) -> int:
        return sum(abs(exp) for _, exp in self.runs)

    def __mul__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        if self.genus != other.genus:
            raise InputError("cannot multiply words over different presentations")
        return GroupWord(self.genus, _reduce_runs(itertools.chain(self.runs, other.runs)))

    def inverse(self) -> "GroupWord":
        return GroupWord(self.genus, tuple((gen, -exp) for gen, exp in reversed(self.runs)))

    def __str__(self) -> str:
        return format_word(self)

    def sort_key(self):
        return (len(self), self.runs)


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    return u * v * u.inverse() * v.inverse()


@dataclass(frozen=True)
class Presentation:
    """The standard one-relator presentation of a genus-g surface group.

    genus >= 1; the relator is the product of the g handle commutators.
    """

    genus: int

    def __post_init__(self):
        if self.genus < 1:
            raise InputError(f"genus must be >= 1, got {self.genus}")

    @property
    def generator_count(self) -> int:
        return 2 * self.genus

    def identity(self) -> GroupWord:
        return GroupWord(self.genus, ())

    def generator(self, index: int) -> GroupWord:
        if not 0 <= index < 2 * self.genus:
            raise InputError(f"generator index {index} out of range for genus {self.genus}")
        return GroupWord(self.genus, ((index, 1),))

    def a(self, k: int) -> GroupWord:
        """The handle generator a_k, 1-based."""
        if not 1 <= k <= self.genus:
            raise InputError(f"a_{k} does not exist at genus {self.genus}")
        return self.generator(2 * (k - 1))

    def b(self, k: int) -> GroupWord:
        """The handle generator b_k, 1-based."""
        if not 1 <= k <= self.genus:
            raise InputError(f"b_{k} does not exist at genus {self.genus}")
        return self.generator(2 * (k - 1) + 1)

    def generator_name(self, index: int) -> str:
        k, parity = divmod(index, 2)
        return f"{'ab'[parity]}{k + 1}"

    def word(self, raw: Sequence[tuple[int, int]]) -> GroupWord:
        """Freely reduce a raw sequence of (generator index, exponent) pairs."""
        for gen, _ in raw:
            if not 0 <= gen < 2 * self.genus:
                raise InputError(f"generator index {gen} out of range for genus {self.genus}")
        return GroupWord(self.genus, _reduce_runs(raw))

    def relator(self, k: int | None = None) -> GroupWord:
        """R_k = [a_1,b_1]...[a_k,b_k]; R_0 is the identity, default k = genus."""
        if k is None:
            k = self.genus
        if not 0 <= k <= self.genus:
            raise InputError(f"relator index {k} out of range 0..{self.genus}")
        return _relator(self.genus, k)

    @cached_property
    def relator_derivatives(self) -> tuple["GroupRingElement", ...]:
        """Fox derivatives of the full relator, one per generator, derived
        once per presentation."""
        relator = self.relator()
        return tuple(fox_derivative(relator, index) for index in range(2 * self.genus))

    def relator_derivative(self, index: int) -> "GroupRingElement":
        """Fox derivative of the full relator with respect to one generator."""
        if not 0 <= index < 2 * self.genus:
            raise InputError(f"generator index {index} out of range for genus {self.genus}")
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
        (reps.ring_codes); element i pairs with generator i."""
        from .reps import ring_codes  # reps imports this module

        return ring_codes(self, [anti_involution(coefficient)
                                 for coefficient, _ in self.fundamental_two_cycle().pairs])


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
        r_prev = pres.relator(k - 1)
        r_k = pres.relator(k)
        alpha = r_prev * pres.b(k).inverse() * r_k.inverse()
        beta = r_k * pres.a(k).inverse() * r_prev.inverse()
        out.extend([alpha, beta])
    return tuple(out)


class GroupRingElement:
    """Finite integer combination of reduced words (the integral group ring)."""

    __slots__ = ("genus", "_terms")

    def __init__(self, genus: int, terms: dict[GroupWord, int] | None = None):
        self.genus = genus
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def from_word(cls, word: GroupWord, coefficient: int = 1) -> "GroupRingElement":
        return cls(word.genus, {word: coefficient})

    @classmethod
    def zero(cls, genus: int) -> "GroupRingElement":
        return cls(genus, {})

    def terms(self) -> list[tuple[GroupWord, int]]:
        """Terms in a deterministic order (by word length, then runs)."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _check_genus(self, other: "GroupRingElement"):
        if self.genus != other.genus:
            raise InputError("group ring elements over different presentations")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_genus(other)
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, 0) + c
        return GroupRingElement(self.genus, terms)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.genus, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement(self.genus, {w: c * other for w, c in self._terms.items()})
        if isinstance(other, GroupWord):
            other = GroupRingElement.from_word(other)
        self._check_genus(other)
        terms: dict[GroupWord, int] = {}
        for u, cu in self.terms():
            for v, cv in other.terms():
                w = u * v
                terms[w] = terms.get(w, 0) + cu * cv
        return GroupRingElement(self.genus, terms)

    def __rmul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return self * other
        if isinstance(other, GroupWord):
            return GroupRingElement.from_word(other) * self
        return NotImplemented

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


def anti_involution(element: GroupRingElement) -> GroupRingElement:
    """Map each word to its inverse, keeping coefficients.

    An anti-homomorphism of the group ring, and an involution.
    """
    return GroupRingElement(
        element.genus, {w.inverse(): c for w, c in element._terms.items()}
    )


def fox_derivative(word: GroupWord, index: int) -> GroupRingElement:
    """Fox free derivative of a word with respect to generator `index`.

    Defined on letters by d(x)/dx = 1 and d(x^-1)/dx = -x^-1, extended by
    the product rule d(uv)/dx = du/dx + u dv/dx.  One pass over the
    letters keeps the freely reduced prefix as a stack of runs, so each
    letter costs O(1) and each term one copy of the prefix.
    """
    genus = word.genus
    if not 0 <= index < 2 * genus:
        raise InputError(f"generator index {index} out of range for genus {genus}")
    terms: dict[GroupWord, int] = {}
    prefix: list[tuple[int, int]] = []
    for gen, sign in word.letters():
        if gen == index and sign == 1:
            term = GroupWord(genus, tuple(prefix))
            terms[term] = terms.get(term, 0) + 1
        _push_run(prefix, gen, sign)
        if gen == index and sign == -1:
            term = GroupWord(genus, tuple(prefix))
            terms[term] = terms.get(term, 0) - 1
    return GroupRingElement(genus, terms)


def letter_fox_terms(word: GroupWord) -> list[tuple[int, int, int]]:
    """(generator, prefix length, coefficient) of each letter's Fox term:
    x_i at position p gives (i, p, +1), x_i^-1 gives (i, p + 1, -1).  On a
    freely reduced word these are the terms of fox_derivative."""
    return [(gen, position + (sign < 0), sign)
            for position, (gen, sign) in enumerate(word.letters())]


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
    tokens = text.split()
    if tokens == ["1"]:
        return presentation.identity()
    raw = []
    for token in tokens:
        m = _TOKEN_RE.match(token)
        if m is None:
            raise InputError(f"cannot parse word token {token!r}")
        family, k = m.group(1), int(m.group(2))
        if k > presentation.genus:
            raise InputError(f"token {token!r} exceeds genus {presentation.genus}")
        index = 2 * (k - 1) + (0 if family in "aA" else 1)
        raw.append((index, 1 if family.islower() else -1))
    return presentation.word(raw)


def format_word(word: GroupWord) -> str:
    """Inverse of parse_word: one token per letter, `1` for the identity."""
    if word.is_identity:
        return "1"
    k_of = lambda gen: gen // 2 + 1
    tokens = []
    for gen, sign in word.letters():
        family = "ab"[gen % 2]
        tokens.append(f"{family if sign > 0 else family.upper()}{k_of(gen)}")
    return " ".join(tokens)
