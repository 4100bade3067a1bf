"""Two-party game framing for the gadget constructions.

A game function maps ordered pairs from two finite domains to 0, 1, or the
sentinel INVALID. A fooling set for value z is a set of input pairs that
all evaluate to z while every two of them disagree on at least one of the
two crossed pairs; its existence forces any deterministic protocol to use
at least log2 of the set size bits, and an R-pass streaming algorithm to
keep a proportional share of that as state.

The two concrete games wrap the gadget pipelines: the interleaving game
thresholds the LIS of the woven sequence at the construction's gap, and the
grid game thresholds the lattice-path weight of the codeword matrix at the
equal-pair ceiling versus the distinct-pair floor. Outcomes strictly
between the thresholds surface as INVALID data rather than exceptions, so
a failed gap claim shows up in sweep counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .codes import BlockCode, distinct_pair_indices, rs_sample_codewords
from .core import lis_patience
from .type1 import build_z, gap_code, type1_gap
from .type2 import grid_inner_code, pair_weight, type2_bounds

__all__ = [
    "INVALID",
    "FoolingError",
    "GameFunction",
    "FoolingCertificate",
    "check_fooling_set",
    "type1_game",
    "type2_game",
    "certificate_json",
    "certificate_report",
]

INVALID = "invalid"

CROSS_BUDGET = 250_000
SAMPLE_PAIRS = 1000


class FoolingError(ValueError):
    """Bad domain element, non-separating scale, or malformed set."""


@dataclass(frozen=True)
class GameFunction:
    """Pure evaluator over the product of two finite domains."""

    name: str
    xs: tuple
    ys: tuple
    params: dict = field(compare=False)
    evaluate: Callable = field(compare=False)

    def __post_init__(self) -> None:
        if not self.xs or not self.ys:
            raise FoolingError("game domains must be nonempty")

    def __call__(self, x, y):
        return self.evaluate(x, y)


@dataclass(frozen=True)
class FoolingCertificate:
    """Outcome of a fooling-set check; valid iff no violations recorded."""

    game: str
    params: dict
    set_size: int
    bound_bits: int
    mode: str
    seed: int
    violations: tuple

    @property
    def valid(self) -> bool:
        return not self.violations


def check_fooling_set(
    f: GameFunction,
    members,
    z,
    budget: int = CROSS_BUDGET,
    sample_pairs: int = SAMPLE_PAIRS,
    seed: int = 0,
) -> FoolingCertificate:
    """Check that members form a fooling set for value z under f.

    Every member pair must evaluate to z, and for each two members at least
    one of the two crossed evaluations must differ from z. All crossed
    pairs are tried when their count fits the budget; otherwise a seeded
    sample of sample_pairs crossings is tried and the mode records it.
    Violations are returned in the certificate, never raised.
    """
    members = tuple((x, y) for x, y in members)
    if not members:
        raise FoolingError("a fooling set needs at least one pair")
    if len(set(members)) != len(members):
        raise FoolingError("fooling-set members must be distinct")
    xs, ys = set(f.xs), set(f.ys)
    for x, y in members:
        if x not in xs or y not in ys:
            raise FoolingError(f"pair ({x!r}, {y!r}) is outside the game domain")

    violations: list[dict] = []
    for idx, (x, y) in enumerate(members):
        value = f(x, y)
        if value != z:
            violations.append({"kind": "member", "index": idx, "value": value})

    t = len(members)
    if t * (t - 1) <= budget:
        mode = "exhaustive"
        crossings = ((i, j) for i in range(t) for j in range(i + 1, t))
    else:
        mode = f"sampled:{sample_pairs}"
        rng = random.Random(seed)
        crossings = (distinct_pair_indices(rng, t) for _ in range(sample_pairs))
    for i, j in crossings:
        one = f(members[i][0], members[j][1])
        two = f(members[j][0], members[i][1])
        if one == z and two == z:
            violations.append({"kind": "cross", "pair": [i, j]})

    return FoolingCertificate(
        game=f.name,
        params=dict(f.params),
        set_size=t,
        bound_bits=max(0, (t - 1).bit_length()),
        mode=mode,
        seed=seed,
        violations=tuple(violations),
    )


def type1_game(n: int, code: BlockCode | None = None, seed: int = 0) -> GameFunction:
    """Game over codeword pairs: weave the pair and threshold its LIS.

    1 at or above n/2, 0 at or below 15n/32 + 1, INVALID strictly between.
    The code must have length n/4 and verified distance at least n/16, the
    margin the gap argument consumes.
    """
    hi, lo = type1_gap(n)
    if code is None:
        code = gap_code(n, seed)
    if 4 * code.length != n:
        raise FoolingError(f"code length {code.length} does not weave to n={n}")
    if 16 * code.verified_distance < n:
        raise FoolingError(
            f"verified distance {code.verified_distance} below the required {n // 16}"
        )

    def evaluate(u, v):
        length = lis_patience(build_z(u, v).z_uv)[0]
        if length >= hi:
            return 1
        if length <= lo:
            return 0
        return INVALID

    return GameFunction(
        name="type1",
        xs=code.codewords,
        ys=code.codewords,
        params={"n": n, "code_size": code.size, "distance": code.verified_distance},
        evaluate=evaluate,
    )


def type2_game(
    p: int, q: int, domain_size: int = 16, seed: int = 0
) -> GameFunction:
    """Game over sampled outer codewords: threshold the grid-path weight.

    1 at or below the equal-pair ceiling, 0 at or above the distinct-pair
    floor, INVALID strictly between. Scales whose bounds do not separate
    are rejected up front.
    """
    equal_ub, unequal_lb = type2_bounds(p, q)
    if unequal_lb <= equal_ub:
        raise FoolingError(
            f"type2_bounds({p}, {q}) = ({equal_ub}, {unequal_lb}) do not separate; "
            "the floor must exceed the ceiling"
        )
    inner = grid_inner_code(p, q, seed)
    domain = rs_sample_codewords(q, inner, domain_size, seed)

    def evaluate(u, v):
        weight = pair_weight(u, v, inner)
        if weight <= equal_ub:
            return 1
        if weight >= unequal_lb:
            return 0
        return INVALID  # pragma: no cover - needs a gap wider than one

    return GameFunction(
        name="type2",
        xs=domain,
        ys=domain,
        params={"p": p, "q": q, "domain_size": domain_size, "seed": seed},
        evaluate=evaluate,
    )


def certificate_json(cert: FoolingCertificate) -> dict:
    """Serializable summary with a fixed key set."""
    return {
        "game": cert.game,
        "params": cert.params,
        "set_size": cert.set_size,
        "bound_bits": cert.bound_bits,
        "mode": cert.mode,
        "seed": cert.seed,
        "violations": list(cert.violations),
    }


def certificate_report(cert: FoolingCertificate) -> str:
    lines = [
        f"game {cert.game} {cert.params}",
        f"fooling set of {cert.set_size} pairs",
        f"communication lower bound: >= {cert.bound_bits} bits",
        f"an R-pass streaming run must hold >= {cert.bound_bits}/R bits of state",
    ]
    if cert.mode == "exhaustive":
        lines.append("cross condition verified exhaustively")
    else:
        lines.append(
            f"cross condition sampled ({cert.mode.split(':')[1]} pairs, "
            f"seed {cert.seed}) - non-exhaustive"
        )
    if cert.violations:
        lines.append(f"VIOLATIONS: {len(cert.violations)}")
        lines.extend(f"  {v}" for v in cert.violations[:5])
    else:
        lines.append("no violations")
    return "\n".join(lines) + "\n"
