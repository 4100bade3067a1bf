"""Grid-matrix gadget for block-interleaved streaming orders.

A pair of outer codewords (length q over an inner binary code of length p)
becomes a 0/1 matrix of 9p rows and 8q columns: per outer symbol, a block of
four Alice columns (three fillers, then the bit-expanded inner codeword)
followed by four Bob columns (the expansion first). Valuating cell (i,j) to
cols*(i-1)+j and reading the matrix column by column yields a sequence whose
longest increasing subsequence over nonzeros equals the maximum weight of a
monotone lattice path, so LIS questions reduce to a path dynamic program.

Each (row-band, block) pair owns an 8x2 key sub-matrix whose best internal
path weighs exactly 5 when the two bits agree and 6 when they differ; a
positive fraction of disagreeing key sub-matrices on a common monotone chain
separates the equal-pair weight ceiling from the distinct-pair floor.

The chain extractor turns any 0/1 matrix with ones-dense columns into a
strictly monotone chain of 1-cells by valuating with f(i,j) = cols*i - j + 1,
listing each column in decreasing order, and taking one patience pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import BlockCode, gen_inner_binary, gen_outer, smallest_prime_at_least
from .core import Sequence, lis_patience

__all__ = [
    "GridError",
    "GridInstance",
    "GridPath",
    "GridLisReport",
    "KeyCase",
    "expand_bit_9",
    "build_matrix",
    "matrix_array",
    "valuate",
    "serialize",
    "grid_max_weight",
    "pair_weight",
    "lis_equals_max_path_check",
    "key_case",
    "matrix_chain",
    "chain_length_bound",
    "type2_bounds",
    "grid_inner_code",
    "grid_codes",
    "format_matrix",
    "parse_matrix",
    "read_matrix_file",
    "write_matrix_file",
]

BIT_ONE_COLUMN = (1, 1, 0, 0, 0, 0, 1, 1, 0)
BIT_ZERO_COLUMN = (0, 0, 1, 1, 1, 1, 0, 0, 0)

_BIT_COLUMNS = np.array((BIT_ZERO_COLUMN, BIT_ONE_COLUMN), dtype=np.int8)

_NEG = np.int64(-(1 << 40))


class GridError(ValueError):
    """Dimension mismatch, bad matrix data, or a violated precondition."""


def expand_bit_9(b: int) -> tuple[int, ...]:
    """Nine-row column segment encoding one inner-codeword bit."""
    if b not in (0, 1):
        raise GridError(f"bit expected, got {b}")
    return BIT_ONE_COLUMN if b else BIT_ZERO_COLUMN


def matrix_array(
    u: tuple[int, ...], v: tuple[int, ...], inner: BlockCode
) -> np.ndarray:
    """The 9p x 8q matrix for an outer-index pair, as an int8 array."""
    if len(u) != len(v):
        raise GridError(f"outer words differ in length: {len(u)} vs {len(v)}")
    if not u:
        raise GridError("outer words must be nonempty")
    for word in (u, v):
        if any(not 0 <= s < inner.size for s in word):
            raise GridError(f"outer symbol outside the inner code: {word}")
    p, q = inner.length, len(u)
    bits = np.array([inner.codewords[s] for s in (*u, *v)], dtype=np.intp)
    expanded = _BIT_COLUMNS[bits].reshape(2, q, 9 * p)
    m = np.zeros((9 * p, 8 * q), dtype=np.int8)
    m[8::9] = 1  # filler rows 9, 18, ... carry the inter-block hops
    m[:, 3::8] = expanded[0].T  # Alice: three fillers, then u's expansion
    m[:, 4::8] = expanded[1].T  # Bob: v's expansion, then three fillers
    return m


def _grid_array(matrix) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.size == 0:
        raise GridError("matrix must be two-dimensional and nonempty")
    return m


def _binary_grid(matrix) -> np.ndarray:
    """A nonempty 2-D 0/1 matrix as int64; checked before the cast, so 0.5 fails."""
    m = _grid_array(matrix)
    if not np.isin(m, (0, 1)).all():
        raise GridError("matrix entries must be 0 or 1")
    return m.astype(np.int64)


def _valuation(rows: int, cols: int) -> np.ndarray:
    """cols*(i-1)+j at every 1-based cell (i, j)."""
    return np.arange(1, rows * cols + 1, dtype=np.int64).reshape(rows, cols)


@dataclass(frozen=True)
class GridInstance:
    """One constructed matrix with its valuation and serialized sequence."""

    p: int
    q: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]
    m_prime: tuple[tuple[int, ...], ...]
    sigma: Sequence

    def __post_init__(self) -> None:
        rows, cols = 9 * self.p, 8 * self.q
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            raise GridError(f"matrix is not {rows} x {cols}")
        m_prime = np.asarray(self.m_prime)
        if m_prime.shape != (rows, cols):
            raise GridError(f"m_prime is not {rows} x {cols}")
        want = _valuation(rows, cols) * (np.asarray(self.matrix) != 0)
        broken = np.argwhere(m_prime != want)
        if broken.size:
            i, j = broken[0] + 1
            raise GridError(f"valuation broken at ({i}, {j})")
        if self.sigma.symbols != tuple(m_prime.T.reshape(-1).tolist()):
            raise GridError("sigma is not the column-major readout")

    def key_submatrix(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """8x2 sub-matrix governed by bit i of block j (both 1-based)."""
        if not 1 <= i <= self.p or not 1 <= j <= self.q:
            raise GridError(f"key index ({i}, {j}) outside [{self.p}] x [{self.q}]")
        top = 9 * (i - 1)
        left = 8 * j - 5
        return tuple(row[left : left + 2] for row in self.matrix[top : top + 8])


def valuate(matrix) -> tuple[tuple[int, ...], ...]:
    """Replace each 1 at (i,j) by cols*(i-1)+j, keep zeros."""
    m = _binary_grid(matrix)
    return tuple(map(tuple, (_valuation(*m.shape) * m).tolist()))


def serialize(m_prime) -> Sequence:
    """Column-major readout of a valuated matrix."""
    arr = _grid_array(m_prime).astype(np.int64)
    flat = tuple(arr.T.reshape(-1).tolist())
    return Sequence(flat, alphabet_bound=max(1, int(arr.max())))


def build_matrix(
    u: tuple[int, ...], v: tuple[int, ...], inner: BlockCode
) -> GridInstance:
    m = matrix_array(tuple(u), tuple(v), inner)
    m_prime = valuate(m)
    return GridInstance(
        p=inner.length,
        q=len(u),
        u=tuple(u),
        v=tuple(v),
        matrix=tuple(map(tuple, m.tolist())),
        m_prime=m_prime,
        sigma=serialize(m_prime),
    )


@dataclass(frozen=True)
class GridPath:
    """Monotone lattice path, 1-based positions, with its 1-cell count."""

    positions: tuple[tuple[int, int], ...]
    weight: int

    def __post_init__(self) -> None:
        if not self.positions or self.positions[0] != (1, 1):
            raise GridError("path must start at (1, 1)")
        for (i1, j1), (i2, j2) in zip(self.positions, self.positions[1:]):
            if (i2 - i1, j2 - j1) not in ((0, 1), (1, 0)):
                raise GridError(f"non-monotone step ({i1},{j1}) -> ({i2},{j2})")
        if self.weight < 0:
            raise GridError("negative path weight")


def _weight_table(m: np.ndarray) -> np.ndarray:
    """Best monotone-path weight from (1, 1) into every cell of a 0/1 matrix."""
    prefix = np.cumsum(m, axis=1, dtype=np.int64)
    gain = m - prefix
    table = np.empty_like(prefix)
    prev = np.full(m.shape[1], _NEG, dtype=np.int64)
    prev[0] = 0  # virtual cell above the start
    for i in range(m.shape[0]):
        # best entry point k <= j: prev[k] + (ones on row i from k to j)
        prev = table[i] = prefix[i] + np.maximum.accumulate(prev + gain[i])
    return table


def grid_max_weight(matrix) -> tuple[int, GridPath]:
    """Maximum 1-count over monotone (1,1) -> (rows, cols) paths, plus one
    witness path (ties broken toward the upper route)."""
    m = _binary_grid(matrix)
    table = _weight_table(m)
    rows, cols = m.shape
    i, j = rows - 1, cols - 1
    trail = [(i + 1, j + 1)]
    while (i, j) != (0, 0):
        if i > 0 and (j == 0 or table[i - 1][j] >= table[i][j - 1]):
            i -= 1
        else:
            j -= 1
        trail.append((i + 1, j + 1))
    trail.reverse()
    weight = int(table[rows - 1][cols - 1])
    path = GridPath(tuple(trail), weight)
    covered = sum(int(m[i - 1][j - 1]) for i, j in path.positions)
    if covered != weight:  # pragma: no cover - guards the backtrack
        raise GridError(f"witness path covers {covered} ones, table says {weight}")
    return weight, path


def pair_weight(u: tuple[int, ...], v: tuple[int, ...], inner: BlockCode) -> int:
    """Maximum path weight of the pair's matrix, skipping instance and
    witness construction; the sweep workhorse."""
    return int(_weight_table(matrix_array(u, v, inner))[-1, -1])


@dataclass(frozen=True)
class GridLisReport:
    """Consistency record: path weight vs the two LIS readings of sigma."""

    weight: int
    lis_nonzero: int
    lis_full: int

    @property
    def nonzero_matches(self) -> bool:
        return self.lis_nonzero == self.weight

    @property
    def full_within_one(self) -> bool:
        return self.lis_full in (self.weight, self.weight + 1)

    @property
    def passed(self) -> bool:
        return self.nonzero_matches and self.full_within_one


def lis_equals_max_path_check(matrix) -> GridLisReport:
    """Compare grid_max_weight with lis over sigma, zeros deleted and kept.

    Disagreements are reported in the record rather than raised; sweeps
    collect them.
    """
    weight, _ = grid_max_weight(matrix)
    sigma = serialize(valuate(matrix))
    nonzeros = [s for s in sigma.symbols if s]
    lis_nonzero = (
        lis_patience(Sequence(tuple(nonzeros), sigma.alphabet_bound))[0]
        if nonzeros
        else 0
    )
    lis_full = lis_patience(sigma)[0]
    return GridLisReport(weight=weight, lis_nonzero=lis_nonzero, lis_full=lis_full)


@dataclass(frozen=True)
class KeyCase:
    """One 8x2 key sub-matrix with its exact best internal path weight."""

    u_bit: int
    v_bit: int
    matrix: tuple[tuple[int, int], ...]
    max_weight: int


def key_case(u_bit: int, v_bit: int) -> KeyCase:
    """The key sub-matrix for a bit pair: weight 5 on agreement, 6 otherwise."""
    left = expand_bit_9(u_bit)[:8]
    right = expand_bit_9(v_bit)[:8]
    block = tuple((left[i], right[i]) for i in range(8))
    weight, _ = grid_max_weight(block)
    return KeyCase(u_bit=u_bit, v_bit=v_bit, matrix=block, max_weight=weight)


def chain_length_bound(rows: int, cols: int) -> int:
    """Guaranteed monotone-chain length in a ones-dense rows x cols matrix."""
    return (rows * cols) // (8 * (rows + cols))


def matrix_chain(matrix) -> tuple[tuple[int, int], ...]:
    """Strictly increasing (row and column) chain of 1-cells.

    Requires every column to hold at least ceil(rows/4) ones. Valuates cell
    (i,j) as cols*i - j + 1, lists each column's values in decreasing order,
    concatenates columns left to right, and takes the patience LIS; the
    valuation makes any increasing subsequence strictly monotone in both
    coordinates. Output length is at least chain_length_bound(rows, cols).
    """
    m = _binary_grid(matrix)
    rows, cols = m.shape
    need = math.ceil(rows / 4)
    ones_per_column = m.sum(axis=0)
    if (short := int(ones_per_column.min())) < need:
        lacking = int(np.argmin(ones_per_column)) + 1
        raise GridError(
            f"column {lacking} has {short} ones, chain extraction needs >= {need}"
        )
    values: list[int] = []
    for j in range(1, cols + 1):
        rows_with_one = np.flatnonzero(m[:, j - 1]) + 1
        values.extend(cols * int(i) - j + 1 for i in rows_with_one[::-1])
    _, witness = lis_patience(Sequence.of(values))
    chain: list[tuple[int, int]] = []
    for t in witness.indices:
        val = values[t - 1]
        i = -(-val // cols)  # ceil
        j = cols * i - val + 1
        chain.append((i, j))
    for (i1, j1), (i2, j2) in zip(chain, chain[1:]):  # pragma: no cover - guard
        if i2 <= i1 or j2 <= j1:
            raise GridError("chain lost monotonicity")
    if len(chain) < chain_length_bound(rows, cols):  # pragma: no cover - guard
        raise GridError(
            f"chain of {len(chain)} below the guaranteed "
            f"{chain_length_bound(rows, cols)}"
        )
    return tuple(chain)


def type2_bounds(p: int, q: int) -> tuple[int, int]:
    """(equal-pair weight ceiling, distinct-pair weight floor).

    ceiling = 4p + 6q + min(p,q); floor = ceiling - 3 + floor(pq / (16(p+q))).
    The floor term uses the weaker of the two stated chain constants.
    """
    if p < 1 or q < 1:
        raise GridError(f"need p, q >= 1, got p={p}, q={q}")
    equal_ub = 4 * p + 6 * q + min(p, q)
    unequal_lb = 4 * p + 6 * q - 3 + min(p, q) + (p * q) // (16 * (p + q))
    return equal_ub, unequal_lb


def grid_inner_code(p: int, q: int, seed: int = 0) -> BlockCode:
    """Binary code of length p and distance ceil(p/4) with enough codewords
    to host a q-ary outer alphabet (the smallest prime at least q)."""
    if p < 1 or q < 1:
        raise GridError(f"need p, q >= 1, got p={p}, q={q}")
    distance = math.ceil(p / 4)
    prime = smallest_prime_at_least(q)
    hosted_bits = max(1, (prime - 1).bit_length())
    log_size = max(math.ceil(p / 8), min(hosted_bits, p))
    return gen_inner_binary(p, distance, min_log_size=log_size, seed=seed)


def grid_codes(p: int, q: int, seed: int = 0) -> tuple[BlockCode, BlockCode]:
    """Inner/outer code pair sized for a (p, q) grid; the outer code is
    fully materialized, so this works only at scales gen_outer can hold."""
    inner = grid_inner_code(p, q, seed)
    outer = gen_outer(q, inner, seed=seed)
    return inner, outer


def format_matrix(matrix) -> str:
    m = np.asarray(matrix, dtype=np.int64)
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    lines.extend("".join(str(int(x)) for x in row) for row in m)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> tuple[tuple[int, ...], ...]:
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GridError("empty matrix file")
    try:
        rows, cols = (int(t) for t in lines[0].split())
    except ValueError as exc:
        raise GridError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != rows + 1:
        raise GridError(f"header promises {rows} rows, found {len(lines) - 1}")
    out: list[tuple[int, ...]] = []
    for ln in lines[1:]:
        if len(ln) != cols or any(ch not in "01" for ch in ln):
            raise GridError(f"bad matrix row {ln!r}")
        out.append(tuple(int(ch) for ch in ln))
    return tuple(out)


def read_matrix_file(path: str) -> tuple[tuple[int, ...], ...]:
    with open(path, "r", encoding="ascii") as handle:
        return parse_matrix(handle.read())


def write_matrix_file(path: str, matrix) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_matrix(matrix))
