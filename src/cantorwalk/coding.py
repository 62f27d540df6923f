"""Admissible symbol sequences and the child rule of the interval construction.

A finite word (k1, ..., kn) of non-negative integers codes one fundamental
interval of the nested construction.  The rules are:

* the first symbol is positive,
* the symbol 0 is always followed by a nonzero symbol (state 0 renews),
* a symbol may repeat only when it is nonzero.

The empty word codes the root interval [0, 1) and behaves exactly like the
virtual state 0 (the construction uses the convention k0 == 0).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def is_admissible(symbols: Sequence[int]) -> bool:
    """True iff ``symbols`` codes a fundamental interval.

    Total function: any sequence of integers is accepted as input, and
    negative entries simply yield False.
    """
    prev = 0  # virtual state before the first symbol
    for k in symbols:
        k = int(k)
        if k < 0:
            return False
        if prev == 0 and k == 0:
            return False
        prev = k
    return True


@dataclass(frozen=True)
class AdmissibleWord:
    """Immutable admissible word; the empty word is the root interval."""

    symbols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        syms = tuple(int(k) for k in self.symbols)
        object.__setattr__(self, "symbols", syms)
        if not is_admissible(syms):
            raise ValueError(f"inadmissible word: {syms}")

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
        return AdmissibleWord(self.symbols + (int(k),))

    def parent(self) -> "AdmissibleWord":
        if not self.symbols:
            raise ValueError("root word has no parent")
        return AdmissibleWord(self.symbols[:-1])

    def transitions(self) -> list[tuple[int, int]]:
        """The (prev, next) pairs from the virtual state k0 == 0."""
        out = []
        prev = 0
        for k in self.symbols:
            out.append((prev, k))
            prev = k
        return out

    def __iter__(self):
        return iter(self.symbols)

    def __str__(self) -> str:
        return ",".join(str(k) for k in self.symbols)


def children(word: AdmissibleWord, max_index: int) -> list[AdmissibleWord]:
    """All admissible one-symbol extensions with new symbol <= max_index.

    Returned in spatial left-to-right order: for last symbol k >= 1 the left
    block k+1, k+2, ... fills the left half of the parent and the right block
    0, 1, ..., k sits against the right endpoint; for last symbol 0 (or the
    root) only the left block 1, 2, ... exists.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    k = word.last
    if k == 0:
        return [word.extend(c) for c in range(1, max_index + 1)]
    left = [word.extend(c) for c in range(k + 1, max_index + 1)]
    right = [word.extend(c) for c in range(0, min(k, max_index) + 1)]
    return left + right


def random_word(rng, depth: int, max_jump: int = 10) -> AdmissibleWord:
    """Random admissible word for tests and spot checks.

    ``rng`` is a numpy Generator.  Each step picks uniformly among the
    children whose symbol lies within ``max_jump`` of the current one.
    """
    symbols: list[int] = []
    prev = 0
    for _ in range(depth):
        if prev == 0:
            k = int(rng.integers(1, max_jump + 1))
        else:
            lo = max(0, prev - max_jump)
            k = int(rng.integers(lo, prev + max_jump + 1))
        symbols.append(k)
        prev = k
    return AdmissibleWord(tuple(symbols))
