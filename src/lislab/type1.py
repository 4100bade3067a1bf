"""Codeword-interleaving gadget for two-set streaming orders.

Two binary words of length n/4 expand into a sequence of length n whose odd
positions depend only on the first word and even positions only on the
second. Each input bit pair owns a block of four symbols drawn from
{0, 2i-1, 2i}; blocks are value-disjoint and increasing, so the longest
increasing subsequence of the whole sequence decomposes blockwise. Equal
words keep every block worth two nonzero steps; a (0,1) disagreement drops
its block to one. Feeding codeword pairs from a distance-n/16 code therefore
separates lis >= n/2 (equal) from min over the two orientations
<= 15n/32 + 1 (distinct).

A second, smaller gadget rewrites a set-disjointness instance as a sequence
whose lis hits 2k+1 exactly when the sets are disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import BlockCode, gen_inner_binary
from .core import Sequence, lis_dp, lis_patience
from .orders import StreamOrder, Type1Witness, verify_type1

__all__ = [
    "GadgetError",
    "Type1Instance",
    "expand_alice",
    "expand_bob",
    "block_case",
    "build_z",
    "embed_in_order",
    "disj_gadget",
    "type1_gap",
    "gap_code",
    "instance_sidecar",
]


class GadgetError(ValueError):
    """Mismatched gadget inputs or a failed construction self-check."""


def _require_binary(word: tuple[int, ...], name: str) -> None:
    if any(b not in (0, 1) for b in word):
        raise GadgetError(f"{name} must be binary, got {word}")


def expand_alice(u: tuple[int, ...]) -> tuple[int, ...]:
    """Per-bit expansion for the first-revealed word: bit i becomes
    (0, 2i-1) when 0 and (2i-1, 0) when 1."""
    _require_binary(u, "u")
    out: list[int] = []
    for i, bit in enumerate(u, start=1):
        out.extend((2 * i - 1, 0) if bit else (0, 2 * i - 1))
    return tuple(out)


def expand_bob(v: tuple[int, ...]) -> tuple[int, ...]:
    """Per-bit expansion for the second word: (0, 2i) when 0, (2i, 0) when 1."""
    _require_binary(v, "v")
    out: list[int] = []
    for i, bit in enumerate(v, start=1):
        out.extend((2 * i, 0) if bit else (0, 2 * i))
    return tuple(out)


def block_case(u_bit: int, v_bit: int) -> int:
    """Case number of a block: 1 for (0,0), 2 for (1,0), 3 for (0,1), 4 for (1,1)."""
    return {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4}[(u_bit, v_bit)]


@dataclass(frozen=True)
class Type1Instance:
    """Both orientations of the interleaving gadget for one word pair.

    cases lists the block case of z_uv per input bit; the swapped orientation
    exchanges cases 2 and 3.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]
    z_uv: Sequence
    z_vu: Sequence
    cases: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.z_uv.symbols)

    def block(self, i: int) -> tuple[int, ...]:
        """Symbols of z_uv owned by input bit i (1-based), a window of 4."""
        if not 1 <= i <= len(self.u):
            raise GadgetError(f"block index {i} outside 1..{len(self.u)}")
        return self.z_uv.symbols[4 * (i - 1) : 4 * i]


def _interleave(u: tuple[int, ...], v: tuple[int, ...]) -> Sequence:
    a = expand_alice(u)
    b = expand_bob(v)
    z = [s for pair in zip(a, b) for s in pair]
    return Sequence(tuple(z), alphabet_bound=2 * len(u))


def build_z(u: tuple[int, ...], v: tuple[int, ...]) -> Type1Instance:
    """Interleave the expansions of u and v (and of v and u)."""
    u = tuple(u)
    v = tuple(v)
    if len(u) != len(v):
        raise GadgetError(f"word lengths differ: {len(u)} vs {len(v)}")
    if not u:
        raise GadgetError("words must be nonempty")
    _require_binary(u, "u")
    _require_binary(v, "v")
    return Type1Instance(
        u=u,
        v=v,
        z_uv=_interleave(u, v),
        z_vu=_interleave(v, u),
        cases=tuple(block_case(a, b) for a, b in zip(u, v)),
    )


def embed_in_order(
    inst: Type1Instance,
    order: StreamOrder,
    witness: Type1Witness,
    swap: bool = False,
) -> Sequence:
    """Spread the gadget over a full stream, zero everywhere else.

    The witness's early originals receive the odd gadget symbols and the late
    originals the even ones, both in value order, so the restriction of the
    output to the witness positions reads back as z. The zeros can raise lis
    by at most one; the construction self-checks that window, with lis_dp on
    z and the lis_patience length on the full stream.
    """
    z = inst.z_vu if swap else inst.z_uv
    if 2 * witness.m != len(z.symbols):
        raise GadgetError(
            f"witness parameter {witness.m} does not fit a gadget of length "
            f"{len(z.symbols)} (need m = length/2)"
        )
    if not verify_type1(order, witness):
        raise GadgetError("witness does not certify the order")
    early_vals = sorted(order.at(i) for i in witness.early.indices)
    late_vals = sorted(order.at(j) for j in witness.late.indices)
    out = [0] * order.n
    for t, (a, b) in enumerate(zip(early_vals, late_vals), start=1):
        out[a - 1] = z.at(2 * t - 1)
        out[b - 1] = z.at(2 * t)
    result = Sequence(tuple(out), z.alphabet_bound)
    base = lis_dp(z)
    spread = lis_patience(result)[0]
    if spread not in (base, base + 1):  # pragma: no cover - guards the construction
        raise GadgetError(
            f"embedding changed lis from {base} to {spread}; the zero filler "
            "should add at most one"
        )
    return result


def disj_gadget(a: tuple[int, ...], b: tuple[int, ...]) -> Sequence:
    """Set-disjointness as a sequence: a dummy zero, then per element i the
    pair (a_i * 2i, b_i * (2i-1)). lis reaches 2k+1 exactly on disjoint
    equal-size-k supports."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise GadgetError(f"characteristic vectors differ in length: {len(a)} vs {len(b)}")
    _require_binary(a, "a")
    _require_binary(b, "b")
    out = [0]
    for i, (ai, bi) in enumerate(zip(a, b), start=1):
        out.append(ai * 2 * i)
        out.append(bi * (2 * i - 1))
    return Sequence(tuple(out), alphabet_bound=max(1, 2 * len(a)))


def type1_gap(n: int) -> tuple[int, int]:
    """(equal lower bound, distinct upper bound) = (n/2, 15n/32 + 1)."""
    if n % 32 != 0 or n <= 0:
        raise GadgetError(f"gap bounds need n divisible by 32, got {n}")
    return n // 2, 15 * n // 32 + 1


def gap_code(n: int, seed: int = 0) -> BlockCode:
    """Binary code matched to a length-n gadget: words of length n/4 at
    distance >= n/16, with at least 16 codewords for pair sweeps."""
    if n % 32 != 0 or n <= 0:
        raise GadgetError(f"gadget code needs n divisible by 32, got {n}")
    length = n // 4
    distance = math.ceil(n / 16)
    log_size = max(4, math.ceil(length / 8))
    return gen_inner_binary(length, distance, min_log_size=log_size, seed=seed)


def instance_sidecar(inst: Type1Instance, witness: Type1Witness | None = None) -> dict:
    """JSON-ready record of what a serialized gadget sequence was built from."""
    record: dict = {
        "u": list(inst.u),
        "v": list(inst.v),
        "cases": list(inst.cases),
        "witness": None,
    }
    if witness is not None:
        record["witness"] = {
            "early": list(witness.early.indices),
            "late": list(witness.late.indices),
            "m": witness.m,
        }
    return record
