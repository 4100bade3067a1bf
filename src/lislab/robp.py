"""Levelled R-way read-once branching programs and restriction gadgets.

A program is a rooted levelled DAG: each internal node queries one input
position and holds a full fan of R out-edges into the next level; sinks
carry integer outputs. Size is the node count, and the log of the size is
the space of the corresponding one-shot query algorithm.

Two constructions feed the lower-bound experiments. build_distinguisher
takes increasing sequences x, y that disagree on a fixed index set S and
fills the free positions with a shared padding (zeros, a sorted run of the
fixed symbols, and a ceiling symbol) so that the two padded sequences have
LIS lengths differing by exactly one; any program that merges the states of
x and y after reading S must then answer one of them wrong.
search_separated_family hunts for a set of increasing sequences no two of
which agree on any k positions, so all of them need distinct states.

The padded construction is transcribed from a proof sketch whose second
case does not separate as written; this implementation orients that case
around the last disagreement and checks the LIS difference of every output
pair, failing loudly instead of returning a non-distinguishing pair.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from dataclasses import dataclass

from .core import IndexSet, Sequence, lis_dp

__all__ = [
    "ProgramError",
    "BudgetError",
    "DistinguisherError",
    "FamilySearchError",
    "BPNode",
    "BranchingProgram",
    "SeparatedFamily",
    "evaluate",
    "check_read_once",
    "check_computes_lis",
    "merge_f_S",
    "build_distinguisher",
    "search_separated_family",
    "verify_separated_family",
    "doubled_family",
    "streaming_lis_program",
    "table_program",
    "format_program",
    "parse_program",
    "read_program_file",
    "write_program_file",
]

EXHAUSTIVE_INPUT_BUDGET = 10**6
SCALE_MARGIN = 100
VERIFY_PAIR_BUDGET = 5_000_000
TABLE_LEAF_BUDGET = 100_000


class ProgramError(ValueError):
    """Malformed program, bad input, or violated precondition."""


class BudgetError(ProgramError):
    """An exhaustive check was refused because it would be too large."""


class DistinguisherError(ProgramError):
    """Padded pair failed its LIS post-check; both sequences attached."""

    def __init__(self, message: str, x_tilde: Sequence, y_tilde: Sequence):
        super().__init__(message)
        self.x_tilde = x_tilde
        self.y_tilde = y_tilde


class FamilySearchError(RuntimeError):
    """Sampling budget ran out; the largest family found is attached."""

    def __init__(self, message: str, family: "SeparatedFamily"):
        super().__init__(message)
        self.family = family


@dataclass(frozen=True)
class BPNode:
    """Internal node (query + full edge fan) or sink (output)."""

    query: int | None
    edges: tuple[tuple[int, int], ...] | None
    output: int | None

    def __post_init__(self) -> None:
        internal = self.output is None
        if internal and (self.query is None or self.edges is None):
            raise ProgramError("internal node needs a query and an edge fan")
        if not internal and (self.query is not None or self.edges is not None):
            raise ProgramError("sink node must carry only an output")


@dataclass(frozen=True)
class BranchingProgram:
    """Levelled R-way program; edges at level l point into level l+1."""

    r_way: int
    n_inputs: int
    levels: tuple[tuple[BPNode, ...], ...]

    def __post_init__(self) -> None:
        if self.r_way < 1:
            raise ProgramError(f"alphabet size must be >= 1, got {self.r_way}")
        if self.n_inputs < 0:
            raise ProgramError(f"input length must be >= 0, got {self.n_inputs}")
        if not self.levels or len(self.levels[0]) != 1:
            raise ProgramError("need a single root node at level 0")
        full_fan = tuple(range(1, self.r_way + 1))
        for l, level in enumerate(self.levels):
            if not level:
                raise ProgramError(f"level {l} is empty")
            last = l == len(self.levels) - 1
            width_next = 0 if last else len(self.levels[l + 1])
            for node in level:
                if node.output is not None:
                    continue
                if last:
                    raise ProgramError(f"internal node at final level {l}")
                if not 1 <= node.query <= self.n_inputs:
                    raise ProgramError(
                        f"query index {node.query} outside [1, {self.n_inputs}]"
                    )
                if tuple(s for s, _ in node.edges) != full_fan:
                    raise ProgramError(
                        f"level-{l} node must fan out on symbols 1..{self.r_way}"
                    )
                if any(not 0 <= t < width_next for _, t in node.edges):
                    raise ProgramError(f"edge target outside level {l + 1}")

    @property
    def size(self) -> int:
        return sum(len(level) for level in self.levels)


def evaluate(bp: BranchingProgram, x: Sequence) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Run the program on x; returns (output, visited (level, node) pairs)."""
    if len(x) != bp.n_inputs:
        raise ProgramError(f"input length {len(x)} != {bp.n_inputs}")
    if any(not 1 <= s <= bp.r_way for s in x):
        raise ProgramError(f"input symbols must lie in [1, {bp.r_way}]")
    level = index = 0
    path = [(0, 0)]
    while True:
        node = bp.levels[level][index]
        if node.output is not None:
            return node.output, tuple(path)
        symbol = x.at(node.query)
        index = node.edges[symbol - 1][1]
        level += 1
        path.append((level, index))


def check_read_once(bp: BranchingProgram) -> bool:
    """True iff no root-to-sink path queries the same position twice.

    Plain DFS carrying the queried-index set; successor states that differ
    only in the arriving symbol are explored once.
    """

    def walk(level: int, index: int, used: frozenset[int]) -> bool:
        node = bp.levels[level][index]
        if node.output is not None:
            return True
        if node.query in used:
            return False
        used = used | {node.query}
        targets = {t for _, t in node.edges}
        return all(walk(level + 1, t, used) for t in sorted(targets))

    return walk(0, 0, frozenset())


def check_computes_lis(bp: BranchingProgram, n: int, m: int) -> bool:
    """Exhaustive comparison with the quadratic oracle over all of [m]^n."""
    if m**n > EXHAUSTIVE_INPUT_BUDGET:
        raise BudgetError(
            f"{m}^{n} inputs exceed the exhaustive budget {EXHAUSTIVE_INPUT_BUDGET}"
        )
    if n != bp.n_inputs or m > bp.r_way:
        raise ProgramError(
            f"program reads {bp.n_inputs} symbols {bp.r_way}-ways, asked for n={n} m={m}"
        )
    for symbols in itertools.product(range(1, m + 1), repeat=n):
        x = Sequence(symbols, m)
        if evaluate(bp, x)[0] != lis_dp(x):
            return False
    return True


def merge_f_S(x: Sequence, z: Sequence, s: IndexSet) -> Sequence:
    """Sequence equal to x on s and to z off s."""
    if len(x) != len(z):
        raise ProgramError(f"length mismatch: {len(x)} vs {len(z)}")
    n = len(x)
    if any(not 1 <= i <= n for i in s):
        raise ProgramError(f"index set {s.indices} outside [1, {n}]")
    inside = set(s.indices)
    bound = max(x.alphabet_bound, z.alphabet_bound)
    return Sequence(
        tuple(x.at(i) if i in inside else z.at(i) for i in range(1, n + 1)), bound
    )


def _require_increasing(seq: Sequence, label: str) -> None:
    if any(a >= b for a, b in zip(seq.symbols, seq.symbols[1:])):
        raise ProgramError(f"{label} must be strictly increasing: {seq.symbols}")


def build_distinguisher(x: Sequence, y: Sequence, s: IndexSet) -> tuple[Sequence, Sequence]:
    """Pad x and y outside s with a common filling so their LIS differ by 1.

    Preconditions: x, y strictly increasing over the same alphabet [m] with
    m >= SCALE_MARGIN * n, |s| = n/5, and x, y disagreeing somewhere on s.
    The outputs agree with x resp. y on s, agree with each other off s, use
    symbols in [0, m+1], and are re-checked with the quadratic oracle; a
    failed check raises with both sequences attached.

    Let l and r be the first and last disagreeing positions of s. With at
    least 2n/5 free positions after l: zeros before l, then the fixed
    symbols above min(x_l, y_l) in increasing order, then m+1 ceilings.
    Otherwise the mirrored filling around r, keyed by max(x_r, y_r); the
    source sketch orients this case by l and does not separate that way.
    """
    n = len(x)
    if len(y) != n:
        raise ProgramError(f"length mismatch: {n} vs {len(y)}")
    if x.alphabet_bound != y.alphabet_bound:
        raise ProgramError("the two sequences must share one alphabet")
    m = x.alphabet_bound
    if m < SCALE_MARGIN * n:
        raise ProgramError(
            f"alphabet {m} too small: need at least {SCALE_MARGIN} * n = {SCALE_MARGIN * n}"
        )
    if 5 * len(s) != n:
        raise ProgramError(f"restriction size {len(s)} must be n/5 = {n}/5")
    if any(not 1 <= i <= n for i in s):
        raise ProgramError(f"index set {s.indices} outside [1, {n}]")
    _require_increasing(x, "x")
    _require_increasing(y, "y")
    disagreements = [i for i in s if x.at(i) != y.at(i)]
    if not disagreements:
        raise ProgramError("x and y agree on the whole restriction")

    inside = set(s.indices)
    free = [i for i in range(1, n + 1) if i not in inside]
    first, last = disagreements[0], disagreements[-1]
    fixed_symbols = {x.at(i) for i in s} | {y.at(i) for i in s}
    filling: dict[int, int] = {}
    if sum(1 for i in free if i > first) >= 2 * n // 5:
        pivot = min(x.at(first), y.at(first))
        run = sorted(a for a in fixed_symbols if a > pivot)
        for i in (i for i in free if i < first):
            filling[i] = 0
        tail = [i for i in free if i > first]
        for i, a in zip(tail, run):
            filling[i] = a
        for i in tail[len(run):]:
            filling[i] = m + 1
    else:
        pivot = max(x.at(last), y.at(last))
        run = sorted(a for a in fixed_symbols if a < pivot)
        for i in (i for i in free if i > last):
            filling[i] = m + 1
        head = [i for i in free if i < last]
        for i, a in zip(head[1:], run):
            filling[i] = a
        for i in itertools.chain(head[:1], head[1 + len(run):]):
            filling[i] = 0

    def padded(source: Sequence) -> Sequence:
        return Sequence(
            tuple(
                source.at(i) if i in inside else filling[i]
                for i in range(1, n + 1)
            ),
            m + 1,
        )

    x_tilde, y_tilde = padded(x), padded(y)
    if abs(lis_dp(x_tilde) - lis_dp(y_tilde)) != 1:
        raise DistinguisherError(
            f"padding failed to separate: lis {lis_dp(x_tilde)} vs {lis_dp(y_tilde)}",
            x_tilde,
            y_tilde,
        )
    return x_tilde, y_tilde


@dataclass(frozen=True)
class SeparatedFamily:
    """Increasing sequences, no two agreeing on k or more positions.

    Agreeing on every k-subset being impossible is equivalent to each pair
    agreeing on at most k-1 coordinates; construction enforces the pairwise
    form, verify_separated_family re-checks the subset form literally.
    """

    sequences: tuple[Sequence, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ProgramError(f"restriction size must be >= 1, got {self.k}")
        if not self.sequences:
            raise ProgramError("family must hold at least one sequence")
        n = len(self.sequences[0])
        for seq in self.sequences:
            if len(seq) != n:
                raise ProgramError("family sequences must share one length")
            _require_increasing(seq, "family member")
        for a, b in itertools.combinations(self.sequences, 2):
            overlap = sum(1 for p, q in zip(a.symbols, b.symbols) if p == q)
            if overlap >= self.k:
                raise ProgramError(
                    f"members {a.symbols} and {b.symbols} agree on {overlap} "
                    f"positions, allowed at most {self.k - 1}"
                )

    @property
    def n(self) -> int:
        return len(self.sequences[0])

    def __len__(self) -> int:
        return len(self.sequences)


def search_separated_family(
    n: int,
    m: int,
    k: int | None = None,
    target_size: int = 8,
    seed: int = 0,
    budget: int = 100_000,
) -> SeparatedFamily:
    """Greedy randomized hunt for a separated family of target_size.

    Draws value sets of size n uniformly from [m] and keeps a draw when it
    agrees with every kept sequence on fewer than k positions. Exhausting
    the budget first raises, with the largest family found attached.
    """
    if k is None:
        k = n // 5
    if k < 1 or n < 1:
        raise ProgramError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if m < n:
        raise ProgramError(f"no increasing sequence of length {n} fits in [{m}]")
    if target_size < 1:
        raise ProgramError(f"target size must be >= 1, got {target_size}")
    if budget < 1:
        raise ProgramError(f"budget must be >= 1, got {budget}")
    rng = random.Random(seed)
    kept: list[Sequence] = []
    for _ in range(budget):
        draw = tuple(sorted(rng.sample(range(1, m + 1), n)))
        ok = all(
            sum(1 for p, q in zip(draw, other.symbols) if p == q) < k
            for other in kept
        )
        if ok:
            kept.append(Sequence(draw, m))
            if len(kept) >= target_size:
                return SeparatedFamily(tuple(kept), k)
    raise FamilySearchError(
        f"budget {budget} exhausted at size {len(kept)} < {target_size}",
        SeparatedFamily(tuple(kept), k),
    )


def verify_separated_family(sequences, k: int) -> bool:
    """Literal check: every k-subset of positions tells every pair apart."""
    seqs = tuple(
        s if isinstance(s, Sequence) else Sequence.of(s) for s in sequences
    )
    if not seqs:
        raise ProgramError("nothing to verify")
    n = len(seqs[0])
    if any(len(s) != n for s in seqs):
        raise ProgramError("sequences must share one length")
    if k < 1 or k > n:
        raise ProgramError(f"restriction size {k} outside [1, {n}]")
    pairs = len(seqs) * (len(seqs) - 1) // 2
    cost = math.comb(n, k) * pairs
    if cost > VERIFY_PAIR_BUDGET:
        raise BudgetError(f"{cost} subset-pair checks exceed the budget {VERIFY_PAIR_BUDGET}")
    for subset in itertools.combinations(range(n), k):
        for a, b in itertools.combinations(seqs, 2):
            if all(a.symbols[i] == b.symbols[i] for i in subset):
                return False
    return True


def doubled_family(family: SeparatedFamily) -> SeparatedFamily:
    """Same family with every symbol doubled; separation carries over and
    all members become even sequences."""
    return SeparatedFamily(
        tuple(
            Sequence(tuple(2 * s for s in seq.symbols), 2 * seq.alphabet_bound)
            for seq in family.sequences
        ),
        family.k,
    )


def _patience_step(tops: tuple[int, ...], symbol: int) -> tuple[int, ...]:
    j = bisect.bisect_left(tops, symbol)
    if j == len(tops):
        return tops + (symbol,)
    return tops[:j] + (symbol,) + tops[j + 1 :]


def streaming_lis_program(n: int, m: int) -> BranchingProgram:
    """Left-to-right program whose level-l nodes are the reachable patience
    pile-top states; sinks output the pile count."""
    if n < 1 or m < 1:
        raise ProgramError(f"need n, m >= 1, got n={n}, m={m}")
    levels: list[tuple[BPNode, ...]] = []
    states: list[tuple[int, ...]] = [()]
    for l in range(n):
        index_of: dict[tuple[int, ...], int] = {}
        nxt: list[tuple[int, ...]] = []
        nodes = []
        for tops in states:
            edges = []
            for symbol in range(1, m + 1):
                new = _patience_step(tops, symbol)
                if new not in index_of:
                    index_of[new] = len(nxt)
                    nxt.append(new)
                edges.append((symbol, index_of[new]))
            nodes.append(BPNode(query=l + 1, edges=tuple(edges), output=None))
        levels.append(tuple(nodes))
        states = nxt
    levels.append(tuple(BPNode(None, None, len(tops)) for tops in states))
    return BranchingProgram(m, n, tuple(levels))


def table_program(n: int, m: int) -> BranchingProgram:
    """Complete m-ary query tree on positions 1..n memorizing lis per leaf."""
    if n < 1 or m < 1:
        raise ProgramError(f"need n, m >= 1, got n={n}, m={m}")
    if m**n > TABLE_LEAF_BUDGET:
        raise BudgetError(f"{m}^{n} leaves exceed the budget {TABLE_LEAF_BUDGET}")
    levels: list[tuple[BPNode, ...]] = []
    for l in range(n):
        width = m**l
        nodes = []
        for i in range(width):
            edges = tuple((s, i * m + s - 1) for s in range(1, m + 1))
            nodes.append(BPNode(query=l + 1, edges=edges, output=None))
        levels.append(tuple(nodes))
    sinks = []
    for symbols in itertools.product(range(1, m + 1), repeat=n):
        sinks.append(BPNode(None, None, lis_dp(Sequence(symbols, m))))
    levels.append(tuple(sinks))
    return BranchingProgram(m, n, tuple(levels))


def format_program(bp: BranchingProgram) -> str:
    levels = []
    for level in bp.levels:
        out = []
        for node in level:
            if node.output is not None:
                out.append({"output": node.output})
            else:
                out.append(
                    {
                        "query": node.query,
                        "edges": {str(s): t for s, t in node.edges},
                    }
                )
        levels.append(out)
    doc = {"r_way": bp.r_way, "n_inputs": bp.n_inputs, "levels": levels}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _json_int(value) -> int:
    # bool is an int subclass, and a float or a digit string is not an integer
    if type(value) is not int:
        raise ProgramError(f"expected a JSON integer, got {value!r}")
    return value


def _edge_symbol(key: str) -> int:
    if not (key.isascii() and key.isdigit()):
        raise ProgramError(f"edge key {key!r} is not a decimal symbol")
    return int(key)


def parse_program(text: str) -> BranchingProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProgramError(f"program file is not valid JSON: {exc}") from exc
    try:
        levels = []
        for level in doc["levels"]:
            nodes = []
            for raw in level:
                if "output" in raw:
                    nodes.append(BPNode(None, None, _json_int(raw["output"])))
                else:
                    edges = tuple(
                        sorted((_edge_symbol(s), _json_int(t)) for s, t in raw["edges"].items())
                    )
                    nodes.append(BPNode(_json_int(raw["query"]), edges, None))
            levels.append(tuple(nodes))
        r_way, n_inputs = _json_int(doc["r_way"]), _json_int(doc["n_inputs"])
        return BranchingProgram(r_way, n_inputs, tuple(levels))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ProgramError(f"program document is malformed: {exc}") from exc


def read_program_file(path: str) -> BranchingProgram:
    with open(path, "r", encoding="ascii") as handle:
        return parse_program(handle.read())


def write_program_file(path: str, bp: BranchingProgram) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_program(bp))
