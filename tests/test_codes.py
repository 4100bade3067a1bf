"""Block code generators against brute-force distance checks."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from lislab.codes import (
    BlockCode,
    CodeError,
    distinct_pair_indices,
    gen_inner_binary,
    gen_outer,
    hamming,
    min_distance,
    parse_code,
    read_code_file,
    rs_sample_codewords,
    sample_codeword,
    sample_distinct_pair,
    sampled_distance_floor,
    smallest_prime_at_least,
    write_code_file,
)


def test_hamming_basics():
    assert hamming((0, 0, 0), (1, 1, 1)) == 3
    assert hamming((1, 0, 1), (1, 0, 1)) == 0
    assert hamming((2, 3), (3, 2)) == 2
    with pytest.raises(CodeError):
        hamming((0,), (0, 0))


def test_min_distance_hand_checked():
    # repetition code: the two words differ everywhere
    rep = BlockCode(2, 3, ((0, 0, 0), (1, 1, 1)), 3)
    assert min_distance(rep) == 3
    # the full binary square has neighbouring words at distance 1
    full = BlockCode(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)), 1)
    assert min_distance(full) == 1
    # even-weight words of length 3: every pair differs in exactly 2 spots
    even = BlockCode(2, 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)), 2)
    assert min_distance(even) == 2


def _pairwise_min(words):
    return min(hamming(a, b) for a, b in itertools.combinations(words, 2))


def test_min_distance_matches_pairwise_hamming():
    rng = random.Random(4)
    for _ in range(300):
        alphabet, length = rng.randint(2, 7), rng.randint(1, 20)
        size = min(rng.randint(2, 60), alphabet**length)
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randrange(alphabet) for _ in range(length)))
        code = BlockCode(alphabet, length, tuple(sorted(words)), 1)
        assert min_distance(code) == _pairwise_min(code.codewords)
    for alphabet, length in ((2, 1), (3, 4), (7, 20)):
        # distance 1: the full space holds words that differ in one place
        full = itertools.islice(itertools.product(range(alphabet), repeat=length), 60)
        code = BlockCode(alphabet, length, tuple(full), 1)
        assert min_distance(code) == _pairwise_min(code.codewords) == 1
        # distance = length: constant words differ everywhere
        rep = tuple((s,) * length for s in range(alphabet))
        assert min_distance(BlockCode(alphabet, length, rep, length)) == length


def test_min_distance_finds_a_planted_pair_in_any_block():
    # 530 words span three row blocks; plant a distance-1 pair inside a
    # block, across a block boundary and between distant blocks
    rng = random.Random(5)
    words = [tuple(rng.randrange(7) for _ in range(20)) for _ in range(530)]
    assert min_distance(BlockCode(7, 20, tuple(words), 1)) == _pairwise_min(words)
    for i, j in ((0, 1), (255, 256), (256, 255), (10, 400), (300, 529), (529, 528)):
        planted = list(words)
        planted[j] = words[i][:-1] + ((words[i][-1] + 1) % 7,)
        assert min_distance(BlockCode(7, 20, tuple(planted), 1)) == 1


def test_min_distance_needs_two_words():
    lone = BlockCode(2, 2, ((0, 1),), 1)
    with pytest.raises(CodeError):
        min_distance(lone)


def test_block_code_validation():
    with pytest.raises(CodeError, match="alphabet size"):
        BlockCode(1, 3, (), 1)
    with pytest.raises(CodeError, match=r"codeword \(0, 0\) is not length 3"):
        BlockCode(2, 3, ((0, 0, 1), (0, 0)), 1)
    # an empty word is a length error, never a ValueError from min()
    with pytest.raises(CodeError, match=r"codeword \(\) is not length 2"):
        BlockCode(2, 2, ((0, 1), ()), 1)
    with pytest.raises(CodeError, match=r"codeword \(0, 2\) has symbols outside"):
        BlockCode(2, 2, ((1, 1), (0, 2)), 1)
    with pytest.raises(CodeError, match=r"codeword \(-1, 0\) has symbols outside"):
        BlockCode(2, 2, ((1, 1), (-1, 0)), 1)
    with pytest.raises(CodeError, match=r"duplicate codeword \(0, 1\)"):
        BlockCode(2, 2, ((0, 1), (1, 1), (0, 1)), 1)
    with pytest.raises(CodeError, match="verified distance 3"):
        BlockCode(2, 2, ((0, 1),), 3)


def test_inner_length3_distance3_is_repetition():
    # only one nonzero word of length 3 has weight >= 3, so the code is forced
    code = gen_inner_binary(3, 3, min_log_size=1, seed=5)
    assert code.codewords == ((0, 0, 0), (1, 1, 1))
    assert code.verified_distance == 3
    assert min_distance(code) == 3


def test_inner_rejects_impossible_distance():
    with pytest.raises(CodeError):
        gen_inner_binary(4, 5)
    with pytest.raises(CodeError):
        gen_inner_binary(4, 0)
    with pytest.raises(CodeError):
        gen_inner_binary(4, 2, min_log_size=5)


def test_inner_exhausts_budget_with_feasibility_note():
    # [4, 3, 3] binary violates Singleton (k + d <= n + 1 fails: 3 + 3 > 5)
    with pytest.raises(CodeError) as err:
        gen_inner_binary(4, 3, min_log_size=3, seed=0, budget=50)
    assert "Gilbert-Varshamov" in str(err.value)


def test_inner_acceptance_scale_parameters():
    # the pair-sweep recipe at n = 64 wants 16 words of length 16, distance 4
    code = gen_inner_binary(16, 4, min_log_size=4, seed=0)
    assert code.size == 16
    assert code.length == 16
    assert min_distance(code) >= 4
    assert code.meta["distance_check"] == "exhaustive"


def test_inner_deterministic_per_seed():
    a = gen_inner_binary(12, 3, seed=9)
    b = gen_inner_binary(12, 3, seed=9)
    c = gen_inner_binary(12, 3, seed=10)
    assert a == b
    assert a.meta["attempts"] == b.meta["attempts"]
    # different seed may coincide in principle; the draw makes that unlikely
    assert a != c or a.meta["attempts"] != c.meta["attempts"]


def test_inner_codewords_form_linear_space():
    code = gen_inner_binary(10, 3, min_log_size=3, seed=2)
    words = {w for w in code.codewords}
    assert (0,) * 10 in words
    for a in code.codewords:
        for b in code.codewords:
            assert tuple(x ^ y for x, y in zip(a, b)) in words


def test_inner_codewords_are_the_sorted_bit_expansion():
    # replay the generator's draws and expand its span with bit shifts
    for length, distance, log_size in ((5, 2, 2), (8, 3, 3), (9, 3, 3), (16, 4, 4), (21, 5, 5)):
        code = gen_inner_binary(length, distance, min_log_size=log_size, seed=length)
        rng = random.Random(length)
        for _ in range(code.meta["attempts"]):
            rows = [rng.getrandbits(length) for _ in range(log_size)]
        span = [0]
        for row in rows:
            span += [w ^ row for w in span]
        expanded = sorted(tuple((w >> (length - 1 - j)) & 1 for j in range(length)) for w in span)
        assert list(code.codewords) == expanded


def test_outer_reed_solomon_q4():
    # GF(5) fits 4 evaluation points; dimension 2 gives 25 words at distance 3
    inner = gen_inner_binary(4, 1, min_log_size=3, seed=1)
    assert inner.size == 8
    code = gen_outer(4, inner)
    assert code.size == 25
    assert code.length == 4
    assert code.alphabet_size == inner.size
    assert code.meta["field"] == 5
    assert code.meta["dimension"] == 2
    assert code.meta["theoretical_distance"] == 3
    assert code.meta["exact_distance"] == 3
    assert min_distance(code) == 3
    assert code.verified_distance == math.ceil(4 / 2)


def test_outer_needs_room_for_field():
    inner = BlockCode(2, 2, ((0, 0), (0, 1), (1, 0)), 1)
    with pytest.raises(CodeError) as err:
        gen_outer(4, inner)  # 3 inner words cannot host 4 symbols
    assert "inject" in str(err.value)


def test_outer_q2_pair_differs_everywhere():
    inner = BlockCode(2, 3, ((0, 0, 0), (1, 1, 1)), 3)
    code = gen_outer(2, inner)
    assert code.codewords == ((0, 0), (1, 1))
    assert min_distance(code) == 2


def test_outer_greedy_fallback():
    # prime 5 exceeds the 4-word inner code while q = 4 still fits, so the
    # Reed-Solomon route is closed and the greedy search takes over
    inner = BlockCode(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)), 1)
    code = gen_outer(4, inner)
    assert code.meta["construction"] == "greedy"
    assert code.alphabet_size == 4
    assert min_distance(code) >= 2
    # lex-first words pin the greedy order
    assert code.codewords[:4] == ((0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 2, 2), (0, 0, 3, 3))
    assert code == gen_outer(4, inner)


def test_outer_sampled_check_beyond_exhaustive_limit():
    inner = gen_inner_binary(8, 2, min_log_size=4, seed=3)
    code = gen_outer(8, inner)
    assert code.meta["field"] == 11
    assert code.size == 11**4
    assert code.meta["distance_check"].startswith("sampled")
    assert code.meta["sampled_floor"] >= 4
    # spot-check the theory on a few pairs beyond the generator's own sample
    rng = random.Random(17)
    for _ in range(200):
        a, b = sample_distinct_pair(code, seed=rng.randrange(1 << 30))
        assert hamming(a, b) >= 5  # q - dim + 1 = 8 - 4 + 1


def test_outer_size_cap():
    inner = gen_inner_binary(8, 2, min_log_size=4, seed=3)
    with pytest.raises(CodeError):
        gen_outer(8, inner, max_size=100)


def test_rs_sample_codewords_distinct_and_spread():
    inner = gen_inner_binary(16, 4, min_log_size=4, seed=0)
    words = rs_sample_codewords(13, inner, count=40, seed=8)
    assert len(words) == 40
    assert len(set(words)) == 40
    dim = 13 // 2
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            assert hamming(words[i], words[j]) >= 13 - dim + 1
    assert words == rs_sample_codewords(13, inner, count=40, seed=8)


def _poly_eval(coeffs, point, prime):
    # scalar Horner rule, the reference for the array encoder
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * point + c) % prime
    return acc


def test_rs_sample_words_are_poly_eval_of_the_seeded_messages():
    inner = BlockCode(2, 8, tuple(itertools.product((0, 1), repeat=8)), 1)
    q, count, seed = 128, 300, 21
    prime, dim = smallest_prime_at_least(q), q // 2
    rng = random.Random(seed)
    messages = set()
    while len(messages) < count:
        messages.add(tuple(rng.randrange(prime) for _ in range(dim)))
    want = sorted(tuple(_poly_eval(m, x, prime) for x in range(q)) for m in messages)
    assert list(rs_sample_codewords(q, inner, count, seed)) == want


def test_rs_sample_rejects_oversized_request():
    inner = gen_inner_binary(4, 1, min_log_size=3, seed=1)
    with pytest.raises(CodeError):
        rs_sample_codewords(2, inner, count=10)  # GF(2), dim 1: only 2 words
    for q in (0, -1):
        with pytest.raises(CodeError, match="outer length must be >= 1"):
            rs_sample_codewords(q, inner, count=1)


def test_sampling_helpers_are_seeded():
    inner = gen_inner_binary(8, 2, min_log_size=3, seed=4)
    assert sample_codeword(inner, seed=6) == sample_codeword(inner, seed=6)
    a1, b1 = sample_distinct_pair(inner, seed=6)
    a2, b2 = sample_distinct_pair(inner, seed=6)
    assert (a1, b1) == (a2, b2)
    assert a1 != b1
    floor = sampled_distance_floor(inner, pairs=300, seed=1)
    assert floor >= min_distance(inner)


def test_distinct_pair_indices_frozen_and_never_equal():
    rng = random.Random(2023)
    assert [distinct_pair_indices(rng, 7) for _ in range(10)] == [
        (3, 6), (3, 4), (2, 5), (4, 2), (5, 0), (6, 0), (5, 2), (6, 5), (4, 6), (4, 2),
    ]
    for size in (2, 3, 10):
        rng = random.Random(size)
        draws = [distinct_pair_indices(rng, size) for _ in range(2000)]
        assert all(i != j and 0 <= i < size and 0 <= j < size for i, j in draws)
        assert len(set(draws)) == size * (size - 1)  # every ordered pair occurs


def test_reed_solomon_words_are_polynomial_evaluations():
    inner = gen_inner_binary(8, 2, min_log_size=4, seed=3)
    for q in (2, 3, 4, 5, 7):
        prime, dim = smallest_prime_at_least(q), max(1, q // 2)
        direct = sorted(
            tuple(sum(c * x**e for e, c in enumerate(msg)) % prime for x in range(q))
            for msg in itertools.product(range(prime), repeat=dim)
        )
        assert list(gen_outer(q, inner).codewords) == direct
        sample = rs_sample_codewords(q, inner, count=min(6, len(direct)), seed=q)
        assert list(sample) == sorted(set(sample))
        assert set(sample) <= set(direct)


def test_code_file_round_trip(tmp_path):
    code = gen_inner_binary(6, 2, min_log_size=2, seed=11)
    path = tmp_path / "inner.code"
    write_code_file(str(path), code)
    back = read_code_file(str(path))
    assert back.codewords == code.codewords
    assert back.alphabet_size == code.alphabet_size
    assert back.verified_distance == code.verified_distance
    assert back.meta["distance_check"] == "declared"


def test_parse_code_rejects_bad_input():
    with pytest.raises(CodeError):
        parse_code("")
    with pytest.raises(CodeError):
        parse_code("2 2 2 1\n0 0\n")  # promises two words, carries one
    with pytest.raises(CodeError):
        parse_code("x y z w\n")
    for token in ("x", "1.0", "0x1"):
        with pytest.raises(CodeError, match="codeword token"):
            parse_code(f"2 2 1 1\n0 {token}\n")


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(2) == 2
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(8) == 11
    assert smallest_prime_at_least(128) == 131
