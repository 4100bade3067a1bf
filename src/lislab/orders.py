"""Streaming orders, interleaving witnesses, and a multi-pass harness.

A stream order is a permutation pi with pi[i] naming the original position
revealed at stream time i. Two witness shapes describe the interleavings the
gadget constructions need: an (early, late) pair of stream-index sets whose
original positions perfectly alternate, and a chain of equal-size blocks
whose original positions rise from block to block while the odd-numbered
blocks stream before the even-numbered ones.

The witness search follows the interval-decomposition recipe: split the set
of originals revealed in the first half of the stream into maximal runs and
read the witness off the run boundaries. It is sound but incomplete; a
value-subset sweep provides the complete search at small n.

The harness feeds (original position, symbol) pairs to an algorithm for a
fixed number of passes and meters the peak serialized-state size between
items. Algorithms observe pairs online and are not told the order up front;
that is the weaker of the two modelling choices and keeps every space
measurement honest for algorithms that could not have pre-planned around pi.
"""

from __future__ import annotations

import bisect
import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from .core import IndexSet, Sequence, lis_patience

__all__ = [
    "OrderError",
    "StreamError",
    "StreamOrder",
    "Type1Witness",
    "Type2Witness",
    "StreamRun",
    "identity_order",
    "oddeven_order",
    "banded_order",
    "random_order",
    "early_originals",
    "intervals_of",
    "interval_count",
    "verify_type1",
    "type1_witness",
    "verify_type2",
    "type1_to_type2",
    "StreamingAlgorithm",
    "StoreAll",
    "NaturalOrderPatience",
    "run_stream",
    "parse_order",
    "format_order",
    "read_order_file",
    "write_order_file",
]

EXHAUSTIVE_ORDER_LIMIT = 12


class OrderError(ValueError):
    """Bad permutation data or witness-search parameters."""


class StreamError(RuntimeError):
    """Harness failure, including state-serialization errors."""


@dataclass(frozen=True)
class StreamOrder:
    """Arrival order: pi[i] is the original position streamed at time i."""

    n: int
    pi: tuple[int, ...]
    _time: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise OrderError(f"order length must be >= 1, got {self.n}")
        if sorted(self.pi) != list(range(1, self.n + 1)):
            raise OrderError(f"pi must be a permutation of 1..{self.n}")
        object.__setattr__(self, "_time", {original: t for t, original in enumerate(self.pi, 1)})

    def at(self, i: int) -> int:
        """Original position revealed at stream time i (1-based)."""
        if not 1 <= i <= self.n:
            raise OrderError(f"stream time {i} outside 1..{self.n}")
        return self.pi[i - 1]

    def time_of(self, original: int) -> int:
        """Stream time at which the given original position is revealed."""
        if not 1 <= original <= self.n:
            raise OrderError(f"original position {original} outside 1..{self.n}")
        return self._time[original]


def identity_order(n: int) -> StreamOrder:
    return StreamOrder(n, tuple(range(1, n + 1)))


def oddeven_order(n: int) -> StreamOrder:
    """Reveal the odd original positions first, then the even ones."""
    return StreamOrder(n, tuple(range(1, n + 1, 2)) + tuple(range(2, n + 1, 2)))


def banded_order(r: int, s: int) -> tuple[StreamOrder, Type2Witness]:
    """Order streaming the odd bands of an r x s banding before the even bands.

    Original positions are cut into r consecutive bands of size s; the order
    reveals bands 1, 3, 5, ... then bands 2, 4, ... (each band in ascending
    order). Returns the order together with the block witness that numbers
    blocks by band, which satisfies both block-witness conditions.
    """
    if r < 1 or s < 1:
        raise OrderError(f"need r >= 1 and s >= 1, got r={r}, s={s}")
    n = r * s

    def band(l: int) -> range:
        return range((l - 1) * s + 1, l * s + 1)

    pi: list[int] = []
    for l in range(1, r + 1, 2):
        pi.extend(band(l))
    for l in range(2, r + 1, 2):
        pi.extend(band(l))
    order = StreamOrder(n, tuple(pi))
    blocks = tuple(
        IndexSet.of([order.time_of(p) for p in band(l)]) for l in range(1, r + 1)
    )
    return order, Type2Witness(blocks)


def random_order(n: int, seed: int = 0) -> StreamOrder:
    """Uniform permutation from a seeded shuffle."""
    values = list(range(1, n + 1))
    random.Random(seed).shuffle(values)
    return StreamOrder(n, tuple(values))


@dataclass(frozen=True)
class Type1Witness:
    """Stream-index sets with early fully revealed before late and the sorted
    original positions of the two sets perfectly alternating, early first."""

    early: IndexSet
    late: IndexSet
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise OrderError(f"witness parameter must be >= 1, got {self.m}")
        if len(self.early.indices) != self.m or len(self.late.indices) != self.m:
            raise OrderError(
                f"witness sets must both have size {self.m}, got "
                f"{len(self.early.indices)} and {len(self.late.indices)}"
            )


@dataclass(frozen=True)
class Type2Witness:
    """Disjoint equal-size blocks of stream indices, numbered by the band of
    original positions they carry."""

    blocks: tuple[IndexSet, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise OrderError("block witness needs at least one block")
        sizes = {len(b.indices) for b in self.blocks}
        if len(sizes) != 1:
            raise OrderError(f"blocks must share one size, got sizes {sorted(sizes)}")
        total = sum(len(b.indices) for b in self.blocks)
        if len({i for b in self.blocks for i in b.indices}) != total:
            raise OrderError("blocks must be disjoint")

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def s(self) -> int:
        return len(self.blocks[0].indices)


def early_originals(order: StreamOrder) -> IndexSet:
    """Original positions revealed in the first half of the stream."""
    return IndexSet.of(order.pi[: order.n // 2])


def intervals_of(a: IndexSet) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive integers in a, as closed (start, end)."""
    runs: list[tuple[int, int]] = []
    for v in a.indices:
        if runs and v == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return tuple(runs)


def interval_count(a: IndexSet, n: int) -> int:
    """Minimal number of consecutive-integer runs whose union is a."""
    if a.indices and (a.indices[0] < 1 or a.indices[-1] > n):
        raise OrderError(f"index set not contained in 1..{n}")
    return len(intervals_of(a))


def verify_type1(order: StreamOrder, witness: Type1Witness) -> bool:
    """Literal definition check, independent of any search strategy."""
    idx = witness.early.indices + witness.late.indices
    if any(not 1 <= i <= order.n for i in idx):
        return False
    if len(set(idx)) != 2 * witness.m:
        return False
    if max(witness.early.indices) >= min(witness.late.indices):
        return False
    early_vals = sorted(order.at(i) for i in witness.early.indices)
    late_vals = sorted(order.at(j) for j in witness.late.indices)
    merged = [v for pair in zip(early_vals, late_vals) for v in pair]
    return all(x < y for x, y in zip(merged, merged[1:]))


def _interval_witness(order: StreamOrder, m: int) -> Type1Witness | None:
    a = early_originals(order)
    runs = intervals_of(a)
    g = len(runs)
    if m > g or (m == g and runs[-1][1] >= order.n):
        return None
    # left endpoints are revealed early; each run's successor is not
    early_vals = [runs[k][0] for k in range(m)]
    late_vals = [runs[k][1] + 1 for k in range(m)]
    return Type1Witness(
        early=IndexSet.of(order.time_of(v) for v in early_vals),
        late=IndexSet.of(order.time_of(v) for v in late_vals),
        m=m,
    )


def _exhaustive_witness(order: StreamOrder, m: int) -> Type1Witness | None:
    # a witness is determined by its 2m original positions: rank parity fixes
    # which set owns each value, the permutation fixes the stream times
    for values in itertools.combinations(range(1, order.n + 1), 2 * m):
        early = [order.time_of(v) for v in values[0::2]]
        late = [order.time_of(v) for v in values[1::2]]
        if max(early) < min(late):
            return Type1Witness(IndexSet.of(early), IndexSet.of(late), m)
    return None


def type1_witness(
    order: StreamOrder, m: int, exhaustive: bool = False
) -> Type1Witness | None:
    """Search for an (early, late) witness with parameter m.

    The default strategy decomposes the first-half originals into maximal
    runs and uses run starts against run successors; it is sound (every hit
    is re-verified against the definition) but may miss witnesses other
    index choices would exhibit. The exhaustive mode is complete and capped
    at n <= 12.
    """
    if not 1 <= m <= order.n // 2:
        raise OrderError(f"need 1 <= m <= n/2, got m={m} at n={order.n}")
    if exhaustive and order.n > EXHAUSTIVE_ORDER_LIMIT:
        raise OrderError(
            f"exhaustive witness search is capped at n <= {EXHAUSTIVE_ORDER_LIMIT}"
        )
    found = (_exhaustive_witness if exhaustive else _interval_witness)(order, m)
    if found is not None and not verify_type1(order, found):
        raise OrderError(
            f"witness search produced an invalid witness {found} for {order}"
        )  # pragma: no cover - guards the construction
    return found


def verify_type2(
    order: StreamOrder, blocks: Type2Witness | tuple[IndexSet, ...] | list[IndexSet]
) -> bool:
    """Literal definition check for a block witness.

    Accepts raw block sequences so that structurally broken candidates
    (unequal sizes, overlaps, out-of-range indices) report False instead of
    failing to construct.
    """
    seq = blocks.blocks if isinstance(blocks, Type2Witness) else tuple(blocks)
    if not seq:
        return False
    if len({len(b.indices) for b in seq}) != 1:
        return False
    if len({i for b in seq for i in b.indices}) != sum(len(b.indices) for b in seq):
        return False
    for block in seq:
        if any(not 1 <= i <= order.n for i in block.indices):
            return False
    odd = [i for l in range(0, len(seq), 2) for i in seq[l].indices]
    even = [i for l in range(1, len(seq), 2) for i in seq[l].indices]
    if odd and even and max(odd) >= min(even):
        return False
    for prev, nxt in zip(seq, seq[1:]):
        if max(order.at(i) for i in prev.indices) >= min(
            order.at(i) for i in nxt.indices
        ):
            return False
    return True


def type1_to_type2(order: StreamOrder, witness: Type1Witness) -> Type2Witness:
    """Singleton-block view of an (early, late) witness: 2m blocks of size 1."""
    early_sorted = sorted(witness.early.indices, key=order.at)
    late_sorted = sorted(witness.late.indices, key=order.at)
    blocks: list[IndexSet] = []
    for e, l in zip(early_sorted, late_sorted):
        blocks.append(IndexSet.of([e]))
        blocks.append(IndexSet.of([l]))
    return Type2Witness(tuple(blocks))


@dataclass(frozen=True)
class StreamRun:
    """Outcome of one metered run: the algorithm's answer, the pass count,
    and the peak serialized-state size in bits observed between items."""

    output: int
    passes_used: int
    max_state_bits: int

    def __post_init__(self) -> None:
        if self.passes_used < 1 or self.max_state_bits < 0:
            raise StreamError("malformed run record")


class StreamingAlgorithm(ABC):
    """Online algorithm fed (original position, symbol) pairs in stream order.

    The harness calls init once, then for each pass: process for every item
    followed by end_pass, then finish once. state_bytes must serialize the
    full working state; its length is what the space meter charges. The
    harness calls it after init, every item and every end_pass, so it should
    not cost O(n) Python steps per call.
    """

    def init(self, n: int, alphabet_bound: int, passes: int) -> None:
        pass

    @abstractmethod
    def process(self, original_index: int, symbol: int) -> None: ...

    def end_pass(self) -> None:
        pass

    @abstractmethod
    def finish(self) -> int: ...

    @abstractmethod
    def state_bytes(self) -> bytes: ...


def _symbol_bits(alphabet_bound: int) -> int:
    return max(1, alphabet_bound.bit_length())


class StoreAll(StreamingAlgorithm):
    """Baseline that stores the whole input, answering with the patience oracle.

    Serialized layout: an n-bit seen bitmap with position 1 as the MSB, then
    one width-bit symbol per seen position in position order (width = bit
    length of the alphabet bound, at least 1), big-endian, padded on the left
    to whole bytes. Both parts are kept as integers updated per item.
    """

    def init(self, n: int, alphabet_bound: int, passes: int) -> None:
        self.n = n
        self.bound = alphabet_bound
        self.width = _symbol_bits(alphabet_bound)
        self.positions: list[int] = []  # seen positions, ascending
        self.symbols: list[int] = []  # their symbols, in the same order
        self.bitmap = self.packed = 0

    def process(self, original_index: int, symbol: int) -> None:
        rank = bisect.bisect_left(self.positions, original_index)
        after = self.width * (len(self.positions) - rank)  # bits of the later symbols
        if rank < len(self.positions) and self.positions[rank] == original_index:
            self.packed ^= (self.symbols[rank] ^ symbol) << (after - self.width)
            self.symbols[rank] = symbol
            return
        self.positions.insert(rank, original_index)
        self.symbols.insert(rank, symbol)
        self.bitmap |= 1 << (self.n - original_index)
        low = self.packed & ((1 << after) - 1)
        self.packed = ((self.packed >> after << self.width | symbol) << after) | low

    def finish(self) -> int:
        return lis_patience(Sequence(tuple(self.symbols), max(1, self.bound)))[0]

    def state_bytes(self) -> bytes:
        bits = self.width * len(self.symbols)
        return ((self.bitmap << bits) | self.packed).to_bytes((self.n + bits + 7) // 8 or 1, "big")


class NaturalOrderPatience(StreamingAlgorithm):
    """Pile-tops baseline; exact only when arrival order is the natural one."""

    def init(self, n: int, alphabet_bound: int, passes: int) -> None:
        self.width = _symbol_bits(alphabet_bound)
        self.piles: list[int] = []
        self.packed = self.result = 0

    def process(self, original_index: int, symbol: int) -> None:
        spot = bisect.bisect_left(self.piles, symbol)
        if spot == len(self.piles):
            self.piles.append(symbol)
            self.packed = self.packed << self.width | symbol
        else:
            self.packed ^= (self.piles[spot] ^ symbol) << self.width * (len(self.piles) - 1 - spot)
            self.piles[spot] = symbol

    def end_pass(self) -> None:
        self.result = len(self.piles)
        self.piles, self.packed = [], 0

    def finish(self) -> int:
        return self.result

    def state_bytes(self) -> bytes:
        return self.packed.to_bytes((self.width * len(self.piles) + 7) // 8 or 1, "big")


def _meter(alg: StreamingAlgorithm) -> int:
    try:
        blob = alg.state_bytes()
    except Exception as exc:
        raise StreamError(f"state serialization failed: {exc}") from exc
    return len(blob) * 8


def run_stream(
    alg: StreamingAlgorithm, x: Sequence, order: StreamOrder, passes: int = 1
) -> StreamRun:
    """Feed x to alg in the given order for the given number of passes."""
    if order.n != len(x.symbols):
        raise StreamError(
            f"order length {order.n} does not match input length {len(x.symbols)}"
        )
    if passes < 1:
        raise StreamError(f"need passes >= 1, got {passes}")
    alg.init(order.n, x.alphabet_bound, passes)
    peak = _meter(alg)
    for _ in range(passes):
        for original in order.pi:
            alg.process(original, x.symbols[original - 1])
            peak = max(peak, _meter(alg))
        alg.end_pass()
        peak = max(peak, _meter(alg))
    return StreamRun(output=alg.finish(), passes_used=passes, max_state_bits=peak)


def format_order(order: StreamOrder) -> str:
    return f"{order.n}\n" + " ".join(str(p) for p in order.pi) + "\n"


def parse_order(text: str) -> StreamOrder:
    tokens: list[str] = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if not tokens:
        raise OrderError("empty permutation file")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise OrderError(f"bad permutation token in {tokens!r}") from exc
    n = values[0]
    if len(values) != n + 1:
        raise OrderError(f"expected {n} entries after the length, got {len(values) - 1}")
    return StreamOrder(n, tuple(values[1:]))


def read_order_file(path: str) -> StreamOrder:
    with open(path, "r", encoding="ascii") as handle:
        return parse_order(handle.read())


def write_order_file(path: str, order: StreamOrder) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_order(order))
