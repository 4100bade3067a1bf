"""Exact LIS and LDS oracles plus monotone-subsequence witness search.

Three independent oracles compute the same quantity three ways: patience
piles in O(n log n), quadratic dynamic programming, and bit-mask
enumeration capped at MAX_EXHAUSTIVE_LENGTH symbols. The rest of the
package treats their agreement as ground truth, so none of them shares
scaffolding with the others.

"Increasing" always means strictly increasing. Every index that crosses a
public API boundary is 1-based.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "MAX_EXHAUSTIVE_LENGTH",
    "SequenceError",
    "Sequence",
    "IndexSet",
    "MonotoneWitness",
    "INC",
    "DEC",
    "lis_patience",
    "lis_dp",
    "lis_exhaustive",
    "lds",
    "lis_restricted",
    "distance_to_monotonicity",
    "es_witness",
    "parse_sequence",
    "format_sequence",
    "read_sequence_file",
    "write_sequence_file",
]

MAX_EXHAUSTIVE_LENGTH = 20

INC = "inc"
DEC = "dec"


class SequenceError(ValueError):
    """Malformed sequence, index set, or violated oracle precondition."""


@dataclass(frozen=True)
class Sequence:
    """Immutable symbol sequence over the integer alphabet [0, alphabet_bound]."""

    symbols: tuple[int, ...]
    alphabet_bound: int

    def __post_init__(self) -> None:
        if self.alphabet_bound < 1:
            raise SequenceError(
                f"alphabet bound must be a positive integer, got {self.alphabet_bound}"
            )
        for s in self.symbols:
            if not 0 <= s <= self.alphabet_bound:
                raise SequenceError(
                    f"symbol {s} outside [0, {self.alphabet_bound}]"
                )

    @classmethod
    def of(cls, values: Iterable[int], alphabet_bound: int | None = None) -> "Sequence":
        """Build a sequence, inferring the alphabet bound when not given."""
        symbols = tuple(int(v) for v in values)
        if alphabet_bound is None:
            alphabet_bound = max(max(symbols, default=1), 1)
        return cls(symbols, alphabet_bound)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def at(self, index: int) -> int:
        """Symbol at 1-based position `index`."""
        if not 1 <= index <= len(self.symbols):
            raise SequenceError(
                f"index {index} outside [1, {len(self.symbols)}]"
            )
        return self.symbols[index - 1]

    def restrict(self, indices: "IndexSet") -> "Sequence":
        """Subsequence at the given 1-based positions, in position order."""
        return Sequence(
            tuple(self.at(i) for i in indices), self.alphabet_bound
        )


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing tuple of 1-based positions."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 0
        for i in self.indices:
            if i <= prev:
                raise SequenceError(
                    f"index set must be strictly increasing and positive, got {self.indices}"
                )
            prev = i

    @classmethod
    def of(cls, values: Iterable[int]) -> "IndexSet":
        return cls(tuple(sorted(set(int(v) for v in values))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, index: object) -> bool:
        return index in self.indices


@dataclass(frozen=True)
class MonotoneWitness:
    """Witness from es_witness: direction is INC or DEC."""

    direction: str
    indices: IndexSet


def _chain_starts(values: tuple[int, ...]) -> list[int]:
    # chain_starts[i] = length of the longest strictly increasing subsequence
    # beginning at position i. Computed by running patience piles over the
    # reversed, negated sequence; bisect_left on pile tops enforces strictness.
    out = [0] * len(values)
    tops: list[int] = []
    for i in range(len(values) - 1, -1, -1):
        w = -values[i]
        pos = bisect.bisect_left(tops, w)
        out[i] = pos + 1
        if pos == len(tops):
            tops.append(w)
        else:
            tops[pos] = w
    return out


def _lex_smallest_chain(
    values: tuple[int, ...], chain_starts: list[int], target: int
) -> list[int]:
    # Greedy: always take the smallest next position that can still finish a
    # chain of the required remaining length. Yields the lexicographically
    # smallest index set among all witnesses of the target length.
    picked: list[int] = []
    last: int | None = None
    need = target
    start = 0
    while need > 0:
        for i in range(start, len(values)):
            if (last is None or values[i] > last) and chain_starts[i] >= need:
                picked.append(i + 1)
                last = values[i]
                start = i + 1
                need -= 1
                break
        else:  # pragma: no cover - unreachable when target is feasible
            raise AssertionError("witness extraction ran out of positions")
    return picked


def lis_patience(x: Sequence) -> tuple[int, IndexSet]:
    """LIS length and witness via patience piles, O(n log n).

    The witness is the lexicographically smallest index set among all
    maximum-length strictly increasing subsequences.
    """
    values = x.symbols
    if not values:
        return 0, IndexSet(())
    starts = _chain_starts(values)
    length = max(starts)
    return length, IndexSet(tuple(_lex_smallest_chain(values, starts, length)))


def lis_dp(x: Sequence) -> int:
    """LIS length via the textbook quadratic recurrence."""
    values = x.symbols
    best = [0] * len(values)
    for i, v in enumerate(values):
        longest = 0
        for j in range(i):
            if values[j] < v and best[j] > longest:
                longest = best[j]
        best[i] = longest + 1
    return max(best, default=0)


_POPCOUNT_CACHE: dict[int, np.ndarray] = {}


def _popcounts(n: int) -> np.ndarray:
    cached = _POPCOUNT_CACHE.get(n)
    if cached is not None:
        return cached
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n):
        lo = 1 << j
        sizes[lo : 2 * lo] = sizes[:lo] + 1
    _POPCOUNT_CACHE[n] = sizes
    return sizes


def lis_exhaustive(x: Sequence) -> int:
    """LIS length by examining every one of the 2^n subsequence bit masks.

    Bit j of a mask selects position j+1. A mask is valid iff its selected
    symbols are strictly increasing in position order, which is decided for
    every mask by peeling its highest bit: the rest must be valid and the
    newly selected symbol must exceed the maximum selected before it. The
    answer is the largest popcount over valid masks. Refuses sequences
    longer than MAX_EXHAUSTIVE_LENGTH.
    """
    n = len(x.symbols)
    if n > MAX_EXHAUSTIVE_LENGTH:
        raise SequenceError(
            f"exhaustive oracle capped at {MAX_EXHAUSTIVE_LENGTH} symbols, got {n}"
        )
    if n == 0:
        return 0
    vals = x.symbols
    valid = np.empty(1 << n, dtype=bool)
    highest = np.empty(1 << n, dtype=np.int64)
    valid[0] = True
    highest[0] = -1
    for j in range(n):
        lo = 1 << j
        valid[lo : 2 * lo] = valid[:lo] & (highest[:lo] < vals[j])
        np.maximum(highest[:lo], vals[j], out=highest[lo : 2 * lo])
    return int(_popcounts(n)[valid].max())


def lds(x: Sequence) -> int:
    """Longest strictly decreasing subsequence length.

    Equals the LIS of the value-negated sequence; computed that way.
    """
    values = x.symbols
    if not values:
        return 0
    return max(_chain_starts(tuple(-v for v in values)))


def lis_restricted(x: Sequence, indices: IndexSet) -> int:
    """LIS of x restricted to the given positions (in position order)."""
    return max(_chain_starts(x.restrict(indices).symbols), default=0)


def distance_to_monotonicity(x: Sequence) -> int:
    """Minimum number of deletions leaving an increasing sequence: n - lis."""
    if not x.symbols:
        return 0
    return len(x.symbols) - max(_chain_starts(x.symbols))


def es_witness(x: Sequence, r: int, s: int) -> MonotoneWitness:
    """Increasing witness of length r or decreasing witness of length s.

    Requires pairwise distinct values and length >= (r-1)(s-1)+1, which
    guarantees one of the two witnesses exists. Prefers the increasing
    witness when both exist; each witness is the lexicographically smallest
    index set of its target length.
    """
    values = x.symbols
    n = len(values)
    if r < 1 or s < 1:
        raise SequenceError(f"witness targets must be positive, got r={r}, s={s}")
    if len(set(values)) != n:
        raise SequenceError("es_witness requires pairwise distinct values")
    if n < (r - 1) * (s - 1) + 1:
        raise SequenceError(
            f"need length >= (r-1)(s-1)+1 = {(r - 1) * (s - 1) + 1}, got {n}"
        )
    inc_starts = _chain_starts(values)
    if max(inc_starts, default=0) >= r:
        return MonotoneWitness(
            INC, IndexSet(tuple(_lex_smallest_chain(values, inc_starts, r)))
        )
    negated = tuple(-v for v in values)
    dec_starts = _chain_starts(negated)
    if max(dec_starts, default=0) >= s:
        return MonotoneWitness(
            DEC, IndexSet(tuple(_lex_smallest_chain(negated, dec_starts, s)))
        )
    raise AssertionError(  # pragma: no cover - excluded by the pigeonhole bound
        "no monotone witness found despite the length precondition"
    )


def parse_sequence(text: str) -> Sequence:
    """Parse whitespace-separated decimal symbols; '#' starts a comment."""
    values: list[int] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        for token in body.split():
            try:
                values.append(int(token))
            except ValueError as exc:
                raise SequenceError(f"bad symbol token {token!r}") from exc
    return Sequence.of(values)


def format_sequence(x: Sequence) -> str:
    return " ".join(str(s) for s in x.symbols) + "\n"


def read_sequence_file(path: str) -> Sequence:
    with open(path, "r", encoding="ascii") as handle:
        return parse_sequence(handle.read())


def write_sequence_file(path: str, x: Sequence) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_sequence(x))
