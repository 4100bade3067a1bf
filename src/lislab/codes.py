"""Block codes with brute-force-verified minimum distance.

Two generators cover the gadget recipes: random linear binary codes for the
inner layer and Reed-Solomon over a prime field for the outer layer, whose
symbols are embedded injectively into the inner code. Distance claims are
verified by the pairwise brute-force oracle (blocked one-hot matrix
products), exhaustively where the code is small and by seeded pair sampling
where it is not; the mode used is recorded in the code's metadata.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CodeError",
    "BlockCode",
    "hamming",
    "min_distance",
    "sampled_distance_floor",
    "gen_inner_binary",
    "gen_outer",
    "rs_sample_codewords",
    "sample_codeword",
    "sample_distinct_pair",
    "distinct_pair_indices",
    "smallest_prime_at_least",
    "format_code",
    "parse_code",
    "read_code_file",
    "write_code_file",
]

EXHAUSTIVE_OUTER_LIMIT = 6
SAMPLED_PAIRS = 1000
_CHUNK = 256  # rows per array pass: min_distance blocks, Horner and tuple chunks


class CodeError(ValueError):
    """Bad code parameters, infeasible generation, or malformed code data."""


@dataclass(frozen=True)
class BlockCode:
    """A set of equal-length codewords over the alphabet [0, alphabet_size).

    verified_distance is a distance the generator actually checked, with the
    checking mode recorded under meta["distance_check"].
    """

    alphabet_size: int
    length: int
    codewords: tuple[tuple[int, ...], ...]
    verified_distance: int
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise CodeError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        if self.length < 1:
            raise CodeError(f"codeword length must be >= 1, got {self.length}")
        if not 1 <= self.verified_distance <= self.length:
            raise CodeError(
                f"verified distance {self.verified_distance} outside [1, {self.length}]"
            )
        # lengths first, so that min() and max() never see an empty word
        for word in self.codewords:
            if len(word) != self.length:
                raise CodeError(f"codeword {word} is not length {self.length}")
        if any(not 0 <= s < self.alphabet_size for s in set().union(*self.codewords)):
            word = next(w for w in self.codewords if min(w) < 0 or max(w) >= self.alphabet_size)
            raise CodeError(f"codeword {word} has symbols outside the alphabet")
        # equal words sit side by side once sorted; timsort is linear on sorted input
        for a, b in itertools.pairwise(sorted(self.codewords)):
            if a == b:
                raise CodeError(f"duplicate codeword {a}")

    @property
    def size(self) -> int:
        return len(self.codewords)


def hamming(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of positions where a and b differ."""
    if len(a) != len(b):
        raise CodeError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def min_distance(code: BlockCode) -> int:
    """Exact minimum pairwise Hamming distance, exhaustive over all pairs and
    blind to linearity. Agreements are dot products of float32 one-hot rows
    over (position, symbol), exact for length < 2**24, in blocks of rows."""
    if code.size < 2:
        raise CodeError("minimum distance needs at least two codewords")
    words = np.asarray(code.codewords, dtype=np.intp)
    symbols = int(words.max()) + 1  # one-hot columns: position * symbols + symbol
    onehot = np.zeros((code.size, code.length * symbols), dtype=np.float32)
    np.put_along_axis(onehot, words + np.arange(code.length) * symbols, 1, axis=1)
    most = 0
    for s in range(0, code.size - 1, _CHUNK):
        # entry (r, c) pairs words s + r and s + 1 + c; c < r was seen before
        agree = onehot[s : s + _CHUNK] @ onehot[s + 1 :].T
        agree[np.tril_indices(len(agree), -1, agree.shape[1])] = 0
        most = max(most, int(agree.max()))
    return code.length - most


def distinct_pair_indices(rng: random.Random, size: int) -> tuple[int, int]:
    """Uniform ordered pair of distinct indices in [0, size), drawn from rng."""
    i = rng.randrange(size)
    j = rng.randrange(size - 1)
    return i, j + 1 if j >= i else j


def sampled_distance_floor(code: BlockCode, pairs: int = SAMPLED_PAIRS, seed: int = 0) -> int:
    """Minimum distance over `pairs` seeded random distinct codeword pairs."""
    if code.size < 2:
        raise CodeError("distance sampling needs at least two codewords")
    rng = random.Random(seed)
    best = code.length
    for _ in range(pairs):
        i, j = distinct_pair_indices(rng, code.size)
        best = min(best, hamming(code.codewords[i], code.codewords[j]))
    return best


def _gilbert_varshamov_feasible(length: int, log_size: int, distance: int) -> bool:
    # A binary linear [length, log_size, distance] code exists whenever the
    # Hamming ball volume stays under 2^(length - log_size).
    ball = sum(math.comb(length - 1, i) for i in range(distance - 1))
    return ball < 2 ** (length - log_size)


def gen_inner_binary(
    length: int,
    distance: int,
    min_log_size: int | None = None,
    seed: int = 0,
    budget: int = 500,
) -> BlockCode:
    """Random linear binary code of the given length and minimum distance.

    Draws random generator matrices until all 2^min_log_size codewords are
    distinct with pairwise distance >= `distance`, then re-verifies with
    min_distance, exhaustive over all pairs by blocked one-hot matrix
    products and blind to linearity. min_log_size defaults to ceil(length/8),
    a rate that keeps the desk-scale recipes inside the Gilbert-Varshamov
    region. Identical parameters and seed reproduce the identical code.
    """
    if min_log_size is None:
        min_log_size = max(1, math.ceil(length / 8))
    if distance > length:
        raise CodeError(f"distance {distance} exceeds codeword length {length}")
    if distance < 1:
        raise CodeError(f"distance must be >= 1, got {distance}")
    if not 1 <= min_log_size <= length:
        raise CodeError(
            f"log size {min_log_size} outside [1, {length}] for a binary length-{length} code"
        )
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        rows = [rng.getrandbits(length) for _ in range(min_log_size)]
        words = [0]
        for row in rows:
            words += [w ^ row for w in words]
        # linear code: minimum distance equals minimum nonzero weight
        if any(w.bit_count() < distance for w in words[1:]):
            continue
        # sorted ints are sorted MSB-first bit tuples; unpack, drop the pad bits
        width = (length + 7) // 8
        packed = b"".join(w.to_bytes(width, "big") for w in sorted(words))
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8)).reshape(len(words), -1)
        codewords = _as_tuples(bits[:, -length:])
        code = BlockCode(
            alphabet_size=2,
            length=length,
            codewords=codewords,
            verified_distance=distance,
            meta={
                "construction": "random-linear",
                "seed": seed,
                "attempts": attempt,
                "distance_check": "exhaustive",
            },
        )
        exact = min_distance(code) if code.size >= 2 else length
        if exact < distance:  # pragma: no cover - weight check already rules this out
            continue
        code.meta["exact_distance"] = exact
        return code
    region = "within" if _gilbert_varshamov_feasible(length, min_log_size, distance) else "beyond"
    raise CodeError(
        f"no [{length}, {min_log_size}] binary code of distance {distance} found "
        f"in {budget} attempts; parameters are {region} the Gilbert-Varshamov-feasible region"
    )


def smallest_prime_at_least(n: int) -> int:
    candidate = max(2, n)
    while True:
        if all(candidate % d for d in range(2, int(math.isqrt(candidate)) + 1)):
            return candidate
        candidate += 1


def _as_tuples(words: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Rows as tuples of ints, chunk by chunk: no full-size list of lists."""
    rows = (map(tuple, words[s : s + _CHUNK].tolist()) for s in range(0, len(words), _CHUNK))
    return tuple(itertools.chain.from_iterable(rows))


def _rs_codewords(messages: np.ndarray, q: int, prime: int) -> tuple[tuple[int, ...], ...]:
    """Sorted Reed-Solomon codewords: message rows (coefficients of degree 0 up)
    at points 0..q-1 by chunked Horner; lexsort on reversed columns = tuple order."""
    points = np.arange(q, dtype=np.int64)
    words = np.empty((len(messages), q), dtype=np.min_scalar_type(prime - 1))
    for s in range(0, len(messages), _CHUNK):
        chunk = messages[s : s + _CHUNK]
        acc = np.zeros((len(chunk), q), dtype=np.int64)
        for coeff in chunk.T[::-1]:
            acc *= points
            acc += coeff[:, None]
            acc %= prime
        words[s : s + _CHUNK] = acc
    return _as_tuples(words[np.lexsort(words.T[::-1])])


def gen_outer(q: int, inner: BlockCode, seed: int = 0, max_size: int = 200_000) -> BlockCode:
    """Length-q code over inner-codeword indices with distance >= ceil(q/2).

    Strategy: Reed-Solomon of dimension floor(q/2) over the smallest prime
    field with at least q elements, field symbols mapped injectively onto
    inner-codeword indices (which requires the field to fit inside the inner
    code). All prime^dim messages go through an array Horner rule, in
    chunks. When no usable prime fits, a greedy lexicographic search covers
    q <= 6. Distance is verified exhaustively over all pairs (min_distance)
    for q <= 6 and by seeded pair sampling above that.
    """
    if q < 1:
        raise CodeError(f"outer length must be >= 1, got {q}")
    distance_target = math.ceil(q / 2)
    if inner.size < q:
        raise CodeError(
            f"inner code has {inner.size} codewords but q={q} field symbols "
            "must embed injectively into it"
        )
    prime = smallest_prime_at_least(q)
    if prime <= inner.size:
        dim = max(1, q // 2)
        size = prime**dim
        if size > max_size:
            raise CodeError(
                f"enumerating {prime}^{dim} = {size} codewords exceeds max_size="
                f"{max_size}; use rs_sample_codewords for this scale"
            )
        codewords = _rs_codewords(np.indices((prime,) * dim).reshape(dim, -1).T, q, prime)
        meta = {
            "construction": "reed-solomon",
            "field": prime,
            "dimension": dim,
            "theoretical_distance": q - dim + 1,
            "seed": seed,
        }
        code = BlockCode(inner.size, q, codewords, distance_target, meta=meta)
        if q <= EXHAUSTIVE_OUTER_LIMIT and code.size >= 2:
            exact = min_distance(code)
            meta["distance_check"] = "exhaustive"
            meta["exact_distance"] = exact
            if exact < distance_target:  # pragma: no cover - contradicts RS theory
                raise CodeError(
                    f"Reed-Solomon code failed its distance target: {exact} < {distance_target}"
                )
        elif code.size >= 2:
            floor = sampled_distance_floor(code, SAMPLED_PAIRS, seed)
            meta["distance_check"] = f"sampled:{SAMPLED_PAIRS}"
            meta["sampled_floor"] = floor
            if floor < distance_target:  # pragma: no cover - contradicts RS theory
                raise CodeError(
                    f"sampled distance {floor} below target {distance_target}"
                )
        return code
    if q <= EXHAUSTIVE_OUTER_LIMIT:
        kept: list[tuple[int, ...]] = []
        for word in itertools.product(range(inner.size), repeat=q):
            if all(hamming(word, w) >= distance_target for w in kept):
                kept.append(word)
        code = BlockCode(
            inner.size,
            q,
            tuple(kept),
            distance_target,
            meta={
                "construction": "greedy",
                "distance_check": "exhaustive",
                "seed": seed,
            },
        )
        if code.size >= 2:
            code.meta["exact_distance"] = min_distance(code)
        return code
    raise CodeError(
        f"no prime in [{q}, {inner.size}] for a Reed-Solomon outer code and "
        f"q={q} is beyond the greedy fallback limit {EXHAUSTIVE_OUTER_LIMIT}"
    )


def rs_sample_codewords(
    q: int, inner: BlockCode, count: int, seed: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Seeded sample of distinct Reed-Solomon outer codewords.

    For scales where the full code cannot be materialized. Same field and
    dimension choices as gen_outer; distinct messages give codewords at
    pairwise distance >= q - floor(q/2) + 1 by construction.
    """
    if q < 1:
        raise CodeError(f"outer length must be >= 1, got {q}")
    prime = smallest_prime_at_least(q)
    if inner.size < prime:
        raise CodeError(
            f"inner code has {inner.size} codewords; need >= {prime} to embed GF({prime})"
        )
    dim = max(1, q // 2)
    if count > prime**dim:
        raise CodeError(f"cannot sample {count} distinct messages from {prime}^{dim}")
    rng = random.Random(seed)
    messages: set[tuple[int, ...]] = set()
    while len(messages) < count:
        messages.add(tuple(rng.randrange(prime) for _ in range(dim)))
    return _rs_codewords(np.array(list(messages), dtype=np.int64), q, prime)


def sample_codeword(code: BlockCode, seed: int = 0) -> tuple[int, ...]:
    """Seeded uniform draw of one codeword."""
    rng = random.Random(seed)
    return code.codewords[rng.randrange(code.size)]


def sample_distinct_pair(
    code: BlockCode, seed: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeded uniform draw of an ordered pair of distinct codewords."""
    if code.size < 2:
        raise CodeError("need at least two codewords to sample a distinct pair")
    i, j = distinct_pair_indices(random.Random(seed), code.size)
    return code.codewords[i], code.codewords[j]


def format_code(code: BlockCode) -> str:
    lines = [f"{code.alphabet_size} {code.length} {code.size} {code.verified_distance}"]
    for word in code.codewords:
        lines.append(" ".join(str(s) for s in word))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> BlockCode:
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise CodeError("empty code file")
    try:
        alphabet, length, size, distance = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise CodeError(f"bad code header {lines[0]!r}") from exc
    try:
        words = tuple(tuple(int(t) for t in ln.split()) for ln in lines[1:])
    except ValueError as exc:
        raise CodeError(f"bad codeword token: {exc}") from exc
    if len(words) != size:
        raise CodeError(f"header promises {size} codewords, found {len(words)}")
    return BlockCode(alphabet, length, words, distance, meta={"distance_check": "declared"})


def read_code_file(path: str) -> BlockCode:
    with open(path, "r", encoding="ascii") as handle:
        return parse_code(handle.read())


def write_code_file(path: str, code: BlockCode) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_code(code))
