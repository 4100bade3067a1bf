"""Order recognizers, block witnesses, and the metered streaming harness."""

from __future__ import annotations

import itertools
import random

import pytest

from lislab.core import IndexSet, Sequence, lis_dp
from lislab.orders import (
    NaturalOrderPatience,
    OrderError,
    StoreAll,
    StreamError,
    StreamOrder,
    StreamingAlgorithm,
    Type1Witness,
    Type2Witness,
    banded_order,
    early_originals,
    format_order,
    identity_order,
    interval_count,
    intervals_of,
    oddeven_order,
    parse_order,
    random_order,
    read_order_file,
    run_stream,
    type1_to_type2,
    type1_witness,
    verify_type1,
    verify_type2,
    write_order_file,
)


def test_stream_order_validation():
    with pytest.raises(OrderError):
        StreamOrder(3, (1, 2))
    with pytest.raises(OrderError):
        StreamOrder(3, (1, 2, 2))
    with pytest.raises(OrderError):
        StreamOrder(3, (0, 1, 2))
    order = StreamOrder(3, (2, 3, 1))
    assert order.at(1) == 2
    assert order.time_of(1) == 3
    with pytest.raises(OrderError):
        order.at(4)
    with pytest.raises(OrderError):
        order.time_of(0)


def test_time_of_inverts_at_on_random_orders():
    for n, seed in ((1, 0), (2, 1), (17, 2), (300, 3)):
        order = random_order(n, seed)
        assert [order.time_of(order.at(i)) for i in range(1, n + 1)] == list(range(1, n + 1))
        with pytest.raises(OrderError):
            order.time_of(n + 1)


def test_interval_count_examples():
    n = 8
    assert interval_count(IndexSet.of(range(1, n // 2 + 1)), n) == 1
    assert interval_count(IndexSet.of(range(2, n + 1, 2)), n) == n // 2
    assert interval_count(IndexSet.of([]), n) == 0
    assert intervals_of(IndexSet.of([1, 2, 5, 6, 7, 9])) == ((1, 2), (5, 7), (9, 9))
    with pytest.raises(OrderError):
        interval_count(IndexSet.of([9]), 8)


def test_oddeven_witness_matches_halves():
    order = oddeven_order(8)
    w = type1_witness(order, 4)
    assert w is not None
    assert w.early.indices == (1, 2, 3, 4)
    assert w.late.indices == (5, 6, 7, 8)
    assert verify_type1(order, w)


def test_identity_witness_small_parameter_only():
    assert type1_witness(identity_order(2), 1) == Type1Witness(
        IndexSet.of([1]), IndexSet.of([2]), 1
    )
    for n in (4, 6, 8):
        order = identity_order(n)
        w = type1_witness(order, 1)
        assert w is not None and verify_type1(order, w)
        assert type1_witness(order, 2) is None
        assert type1_witness(order, 2, exhaustive=True) is None


def test_witness_parameter_bounds():
    order = identity_order(6)
    with pytest.raises(OrderError):
        type1_witness(order, 0)
    with pytest.raises(OrderError):
        type1_witness(order, 4)
    with pytest.raises(OrderError):
        type1_witness(random_order(13, 0), 2, exhaustive=True)


def test_verify_type1_rejects_bad_witnesses():
    order = oddeven_order(8)
    # early must finish streaming before late starts
    assert not verify_type1(order, Type1Witness(IndexSet.of([6]), IndexSet.of([5]), 1))
    # alternation of original positions must start with early
    assert not verify_type1(
        order, Type1Witness(IndexSet.of([1, 2]), IndexSet.of([3, 4]), 2)
    )
    # out-of-range stream time
    assert not verify_type1(order, Type1Witness(IndexSet.of([1]), IndexSet.of([9]), 1))


def test_construction_hits_are_found_by_exhaustive_search():
    rng = random.Random(404)
    for _ in range(120):
        n = rng.randrange(2, 11)
        order = random_order(n, rng.randrange(1 << 30))
        for m in range(1, n // 2 + 1):
            fast = type1_witness(order, m)
            full = type1_witness(order, m, exhaustive=True)
            if fast is not None:
                assert full is not None
            if full is None:
                assert fast is None


def test_interval_statistic_bounds_witness_range():
    # every size-n/2 first-half set with g runs yields witnesses for at
    # least g - 1 parameter values under the run-boundary construction
    for n in (2, 4, 6, 8, 10, 12):
        for half in itertools.combinations(range(1, n + 1), n // 2):
            rest = [v for v in range(1, n + 1) if v not in half]
            order = StreamOrder(n, tuple(half) + tuple(rest))
            g = interval_count(early_originals(order), n)
            hits = sum(
                1
                for m in range(1, n // 2 + 1)
                if type1_witness(order, m) is not None
            )
            assert hits >= g - 1


def test_random_orders_usually_admit_witnesses():
    # desk-scale version of the high-probability claim checked in acceptance
    hits = 0
    for seed in range(100):
        order = random_order(64, seed)
        if type1_witness(order, 2) is not None:
            hits += 1
    assert hits >= 99


def test_random_order_is_seeded():
    assert random_order(30, 7) == random_order(30, 7)
    assert random_order(30, 7) != random_order(30, 8)
    assert random_order(1, 0).pi == (1,)


def test_banded_order_blocks_verify():
    order, witness = banded_order(4, 4)
    assert order.n == 16
    assert witness.r == 4 and witness.s == 4
    assert verify_type2(order, witness)
    # odd bands stream first: originals 1..4 and 9..12 occupy times 1..8
    assert sorted(order.pi[:8]) == [1, 2, 3, 4, 9, 10, 11, 12]


def test_type1_witness_as_singleton_blocks():
    order = oddeven_order(8)
    w = type1_witness(order, 4)
    blocks = type1_to_type2(order, w)
    assert blocks.r == 8 and blocks.s == 1
    assert verify_type2(order, blocks)


def test_verify_type2_rejects_structural_breaks():
    order, witness = banded_order(2, 2)
    overlapping = [IndexSet.of([1, 2]), IndexSet.of([2, 3])]
    assert not verify_type2(order, overlapping)
    unequal = [IndexSet.of([1]), IndexSet.of([3, 4])]
    assert not verify_type2(order, unequal)
    out_of_range = [IndexSet.of([1]), IndexSet.of([9])]
    assert not verify_type2(order, out_of_range)
    # swapped numbering breaks the rising-band condition
    swapped = [witness.blocks[1], witness.blocks[0]]
    assert not verify_type2(order, swapped)
    with pytest.raises(OrderError):
        Type2Witness((IndexSet.of([1, 2]), IndexSet.of([2, 3])))


def test_store_all_baseline_space_floor():
    x = Sequence.of([3, 1, 4, 1, 5, 9, 2, 6], alphabet_bound=16)
    run = run_stream(StoreAll(), x, random_order(8, 3))
    assert run.output == lis_dp(x)
    assert run.max_state_bits >= 40  # 8 symbols at 5 bits each once stored
    assert run.passes_used == 1


def test_store_all_matches_dp_on_any_order():
    rng = random.Random(92)
    for _ in range(200):
        n = rng.randrange(1, 11)
        x = Sequence.of([rng.randrange(9) for _ in range(n)], alphabet_bound=8)
        order = random_order(n, rng.randrange(1 << 30))
        assert run_stream(StoreAll(), x, order).output == lis_dp(x)


def test_patience_baseline_exact_in_natural_order():
    rng = random.Random(515)
    for _ in range(1000):
        n = rng.randrange(1, 31)
        x = Sequence.of([rng.randrange(12) for _ in range(n)], alphabet_bound=12)
        run = run_stream(NaturalOrderPatience(), x, identity_order(n))
        assert run.output == lis_dp(x)


def test_multi_pass_accounting():
    x = Sequence.of([2, 0, 1, 3])
    run = run_stream(NaturalOrderPatience(), x, identity_order(4), passes=2)
    assert run.passes_used == 2
    assert run.output == lis_dp(x)
    run = run_stream(StoreAll(), x, oddeven_order(4), passes=3)
    assert run.passes_used == 3
    assert run.output == lis_dp(x)


def test_run_stream_validates_inputs():
    x = Sequence.of([1, 2, 3])
    with pytest.raises(StreamError):
        run_stream(StoreAll(), x, identity_order(4))
    with pytest.raises(StreamError):
        run_stream(StoreAll(), x, identity_order(3), passes=0)


def test_serialization_failure_is_reported():
    class Broken(StreamingAlgorithm):
        def process(self, original_index, symbol):
            pass

        def finish(self):
            return 0

        def state_bytes(self):
            raise ValueError("no state for you")

    with pytest.raises(StreamError, match="serialization"):
        run_stream(Broken(), Sequence.of([1, 2]), identity_order(2))


def _bitwise_pack(fields: list[tuple[int, int]]) -> bytes:
    # reference packer: emit each (value, width) field one bit at a time, MSB first
    bits = [(value >> (width - 1 - t)) & 1 for value, width in fields for t in range(width)]
    acc = 0
    for bit in bits:
        acc = 2 * acc + bit
    return acc.to_bytes((len(bits) + 7) // 8 or 1, "big")


def test_state_bytes_match_a_bitwise_reference():
    # checked after init, every item and every end_pass over two passes; the
    # second pass re-streams every position, changing about half the symbols
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(1, 40)
        bound = rng.choice((1, 2, 3, 7, 8, 255, 1000))
        width = max(1, bound.bit_length())
        store, piles = StoreAll(), NaturalOrderPatience()
        store.init(n, bound, 2)
        piles.init(n, bound, 2)
        seen = {}

        def agree():
            bitmap = [(1 if i in seen else 0, 1) for i in range(1, n + 1)]
            symbols = [(seen[i], width) for i in sorted(seen)]
            assert store.state_bytes() == _bitwise_pack(bitmap + symbols)
            assert piles.state_bytes() == _bitwise_pack([(t, width) for t in piles.piles])

        agree()
        for count in (rng.randrange(n + 1), n):
            for i in rng.sample(range(1, n + 1), count):
                if i not in seen or rng.random() < 0.5:
                    seen[i] = rng.randint(0, bound)
                store.process(i, seen[i])
                piles.process(i, seen[i])
                agree()
            store.end_pass()
            piles.end_pass()
            agree()


def test_meter_reads_the_state_after_every_item_and_pass():
    class Counting(StreamingAlgorithm):
        """Holds odd-position symbols, dropping one per even position; each
        end_pass adds n + 1 bytes that the next item clears again."""

        def init(self, n, alphabet_bound, passes):
            self.n, self.held, self.spike = n, [], 0
            self.calls = self.longest = 0

        def process(self, original_index, symbol):
            self.spike = 0
            if original_index % 2:
                self.held.append(symbol)
            elif self.held:
                self.held.pop()

        def end_pass(self):
            self.spike = self.n + 1

        def finish(self):
            return len(self.held)

        def state_bytes(self):
            blob = bytes(self.held) + bytes(self.spike)
            self.calls += 1
            self.longest = max(self.longest, len(blob))
            return blob

    rng = random.Random(17)
    for n, passes in ((1, 1), (2, 3), (9, 2), (40, 3)):
        x = Sequence.of([rng.randrange(256) for _ in range(n)], alphabet_bound=255)
        alg = Counting()
        run = run_stream(alg, x, random_order(n, n), passes)
        assert alg.calls == passes * (n + 1) + 1
        assert run.max_state_bits == 8 * alg.longest


def test_order_file_round_trip(tmp_path):
    order = random_order(9, 21)
    path = tmp_path / "stream.perm"
    write_order_file(str(path), order)
    assert read_order_file(str(path)) == order
    assert parse_order(format_order(order)) == order


def test_parse_order_rejects_bad_input():
    with pytest.raises(OrderError):
        parse_order("")
    with pytest.raises(OrderError):
        parse_order("3\n1 2\n")
    with pytest.raises(OrderError):
        parse_order("2\n1 x\n")
    with pytest.raises(OrderError):
        parse_order("2\n1 1\n")
