"""Admissible symbol sequences, the step rule and the child rule of the
interval construction.

A finite word (k1, ..., kn) of non-negative integers codes one fundamental
interval of the nested construction.  ``step_arrays`` states the step rule
once: the child of a parent with last symbol k at index l has length
q*|parent|/d(k, l)^2, and d(0, 0) = 0 marks the one illegal step.  So a
word is admissible when every symbol is non-negative and every step from
the virtual state k0 = 0 has d > 0: the first symbol is positive and 0 is
always followed by a nonzero symbol.

The empty word codes the root interval [0, 1) and behaves exactly like the
virtual state 0.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence


def step_arrays(prev, nxt):
    """The step rule from symbol ``prev`` to symbol ``nxt``, as (d, s).

    ``d`` is the length denominator, child length = q*|parent|/d^2: |nxt -
    prev| on an ordinary step, 2*prev on a repetition and prev on a renewal
    (nxt = 0); d = 0 marks the illegal step 0 -> 0.  ``s`` is prev + nxt on
    an ordinary step and 0 otherwise, so the kernel numerator is
    d^-beta + s^-beta with the s term only where s > 0.

    Branch-free, so the same code is exact on Python ints (any size) and
    runs elementwise on int64 and float64 arrays.
    """
    d = abs(nxt - prev) + 2 * prev * (nxt == prev)
    s = (nxt + prev) * (nxt != prev) * (nxt != 0)
    return d, s


def _legal_step(prev: int, k) -> bool:
    """True iff ``k`` is a symbol, a non-negative value of an integer type
    (``int``, numpy integers), and the step prev -> k has d > 0.  A float
    such as 2.5 or 2.0 is not a symbol."""
    try:
        k = operator.index(k)
    except TypeError:
        return False
    return k >= 0 and step_arrays(prev, k)[0] > 0


def is_admissible(symbols: Sequence[int]) -> bool:
    """True iff ``symbols`` codes a fundamental interval: every symbol is a
    non-negative integer and every step from the virtual state 0 has d > 0.

    Total function: any sequence is accepted as input, and a negative or
    non-integer entry simply yields False.
    """
    prev = 0  # virtual state before the first symbol
    for k in symbols:
        if not _legal_step(prev, k):
            return False
        prev = operator.index(k)
    return True


@dataclass(frozen=True)
class AdmissibleWord:
    """Immutable admissible word; the empty word is the root interval."""

    symbols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        syms = tuple(self.symbols)
        if not is_admissible(syms):
            raise ValueError(f"inadmissible word: {syms}")
        object.__setattr__(self, "symbols", tuple(map(operator.index, syms)))

    @classmethod
    def parse(cls, text: str) -> "AdmissibleWord":
        """Parse comma-separated text such as ``"1,0,2"``; "" is the root."""
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(t) for t in text.split(",")))

    @property
    def depth(self) -> int:
        return len(self.symbols)

    @property
    def last(self) -> int:
        """Last symbol, with the root behaving like state 0."""
        return self.symbols[-1] if self.symbols else 0

    def extend(self, k: int) -> "AdmissibleWord":
        """This word followed by symbol k; only the new step is checked."""
        if not _legal_step(self.last, k):
            raise ValueError(f"inadmissible word: {self.symbols + (k,)}")
        word = object.__new__(AdmissibleWord)  # skips the whole-word check
        object.__setattr__(word, "symbols",
                           self.symbols + (operator.index(k),))
        return word

    def transitions(self) -> list[tuple[int, int]]:
        """The (prev, next) pairs from the virtual state k0 == 0."""
        out = []
        prev = 0
        for k in self.symbols:
            out.append((prev, k))
            prev = k
        return out

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.symbols)


def children(word: AdmissibleWord, max_index: int) -> list[AdmissibleWord]:
    """All admissible one-symbol extensions with new symbol <= max_index.

    Returned in spatial left-to-right order: for last symbol k >= 1 the left
    block k+1, k+2, ... fills the left half of the parent and the right block
    0, 1, ..., k sits against the right endpoint; for last symbol 0 (or the
    root) only the left block 1, 2, ... exists, since d(0, 0) = 0.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    k = word.last
    order = [*range(k + 1, max_index + 1), *range(min(k, max_index) + 1)]
    return [word.extend(c) for c in order if step_arrays(k, c)[0]]


def random_word(rng, depth: int, max_jump: int = 10) -> AdmissibleWord:
    """Random admissible word for tests and spot checks.

    ``rng`` is a numpy Generator.  Each step picks uniformly among the
    children whose symbol lies within ``max_jump`` of the current one.
    """
    symbols: list[int] = []
    prev = 0
    for _ in range(depth):
        lo = max(0, prev - max_jump)
        if not step_arrays(prev, lo)[0]:
            lo += 1
        k = int(rng.integers(lo, prev + max_jump + 1))
        symbols.append(k)
        prev = k
    return AdmissibleWord(tuple(symbols))
