"""Grid gadget: frozen reference matrix, path DP, key cases, chain, bounds."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from lislab.codes import gen_inner_binary
from lislab.core import Sequence, lis_patience
from lislab.type2 import (
    GridError,
    GridPath,
    build_matrix,
    chain_length_bound,
    expand_bit_9,
    format_matrix,
    grid_codes,
    grid_max_weight,
    key_case,
    lis_equals_max_path_check,
    matrix_array,
    matrix_chain,
    pair_weight,
    parse_matrix,
    read_matrix_file,
    serialize,
    type2_bounds,
    valuate,
    write_matrix_file,
)

# 18 x 16 reference instance: inner code = all 2-bit words, u = ((0,1),(1,1)),
# v = ((0,0),(1,0)); expanded columns sit at 4, 5, 12, 13 and every filler
# column is 0 except on rows 9 and 18.
REFERENCE_ROWS = (
    "0000000000011000",
    "0000000000011000",
    "0001100000000000",
    "0001100000000000",
    "0001100000000000",
    "0001100000000000",
    "0000000000011000",
    "0000000000011000",
    "1110011111100111",
    "0001000000010000",
    "0001000000010000",
    "0000100000001000",
    "0000100000001000",
    "0000100000001000",
    "0000100000001000",
    "0001000000010000",
    "0001000000010000",
    "1110011111100111",
)
REFERENCE_MATRIX = tuple(tuple(int(c) for c in row) for row in REFERENCE_ROWS)


def full_cube_2() -> "BlockCode":
    # length 2, distance 1, 4 codewords: the whole space in sorted order
    code = gen_inner_binary(2, 1, min_log_size=2)
    assert code.codewords == ((0, 0), (0, 1), (1, 0), (1, 1))
    return code


def exhaustive_max_path(matrix) -> int:
    # brute force over all monotone corner-to-corner paths
    rows, cols = len(matrix), len(matrix[0])
    best = -1
    for combo in itertools.combinations(range(rows + cols - 2), rows - 1):
        downs = set(combo)
        i = j = 0
        w = matrix[0][0]
        for step in range(rows + cols - 2):
            if step in downs:
                i += 1
            else:
                j += 1
            w += matrix[i][j]
        best = max(best, w)
    return best


def test_expand_bit_9():
    assert expand_bit_9(1) == (1, 1, 0, 0, 0, 0, 1, 1, 0)
    assert expand_bit_9(0) == (0, 0, 1, 1, 1, 1, 0, 0, 0)
    with pytest.raises(GridError):
        expand_bit_9(2)


def test_reference_matrix_reproduced():
    inner = full_cube_2()
    inst = build_matrix((1, 3), (0, 2), inner)
    assert inst.p == 2 and inst.q == 2
    assert inst.matrix == REFERENCE_MATRIX


def test_reference_key_submatrices():
    inner = full_cube_2()
    inst = build_matrix((1, 3), (0, 2), inner)
    # bit pairs per (band, block): (0,0), (1,0), (1,1), (1,0)
    for i, j, u_bit, v_bit in ((1, 1, 0, 0), (2, 1, 1, 0), (1, 2, 1, 1), (2, 2, 1, 0)):
        left = expand_bit_9(u_bit)[:8]
        right = expand_bit_9(v_bit)[:8]
        assert inst.key_submatrix(i, j) == tuple(
            (left[k], right[k]) for k in range(8)
        )
    with pytest.raises(GridError):
        inst.key_submatrix(0, 1)
    with pytest.raises(GridError):
        inst.key_submatrix(1, 3)


def test_equal_pair_key_columns_match():
    inner = full_cube_2()
    inst = build_matrix((2, 1), (2, 1), inner)
    for i in (1, 2):
        for j in (1, 2):
            block = inst.key_submatrix(i, j)
            assert all(a == b for a, b in block)


def test_alice_columns_ignore_second_word():
    inner = full_cube_2()
    m1 = matrix_array((1, 3), (0, 2), inner)
    m2 = matrix_array((1, 3), (3, 1), inner)
    for j in (1, 2):
        lo = 8 * (j - 1)
        assert (m1[:, lo : lo + 4] == m2[:, lo : lo + 4]).all()
        assert (m1[:, lo + 4 : lo + 8] != m2[:, lo + 4 : lo + 8]).any()


def test_build_matrix_validation():
    inner = full_cube_2()
    with pytest.raises(GridError):
        build_matrix((0, 1), (0,), inner)
    with pytest.raises(GridError):
        build_matrix((), (), inner)
    with pytest.raises(GridError):
        build_matrix((0, 4), (0, 1), inner)


def test_valuate_and_serialize_small():
    m = ((0, 1, 0), (1, 0, 1))
    valued = valuate(m)
    assert valued == ((0, 2, 0), (4, 0, 6))
    assert serialize(valued).symbols == (0, 4, 2, 0, 0, 6)
    wide = valuate([[0] * 8, [0, 0, 1, 0, 0, 0, 0, 0]])
    assert wide[1][2] == 11
    with pytest.raises(GridError):
        valuate(((0, 2),))


def test_reference_sigma_readout():
    inner = full_cube_2()
    inst = build_matrix((1, 3), (0, 2), inner)
    assert len(inst.sigma) == 18 * 16
    # first column holds only the two filler-row hops
    assert inst.sigma.symbols[:18] == (0,) * 8 + (129,) + (0,) * 8 + (273,)
    assert max(inst.sigma.symbols) == 16 * 17 + 16


def test_grid_max_weight_degenerate():
    w, path = grid_max_weight([[0] * 4] * 3)
    assert w == 0
    assert len(path.positions) == 6
    assert path.positions[0] == (1, 1) and path.positions[-1] == (3, 4)
    w, path = grid_max_weight([[1] * 4] * 3)
    assert w == 6
    w, _ = grid_max_weight([[1]])
    assert w == 1


def test_grid_max_weight_matches_exhaustive():
    rng = random.Random(20817)
    shapes = [(1, 1), (1, 6), (6, 1), (3, 4), (5, 5), (8, 12)]
    for trial in range(36):
        rows, cols = shapes[trial % len(shapes)]
        density = rng.choice((0.15, 0.4, 0.75))
        m = [
            [1 if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        w, path = grid_max_weight(m)
        assert w == exhaustive_max_path(m)
        assert sum(m[i - 1][j - 1] for i, j in path.positions) == w


def test_grid_path_validation():
    with pytest.raises(GridError):
        GridPath(((1, 2), (1, 3)), 0)
    with pytest.raises(GridError):
        GridPath(((1, 1), (2, 2)), 1)
    with pytest.raises(GridError):
        GridPath(((1, 1),), -1)


def test_lis_check_on_reference():
    report = lis_equals_max_path_check(REFERENCE_MATRIX)
    lo, hi = type2_bounds(2, 2)[1], type2_bounds(2, 2)[0]
    assert lo <= report.weight <= hi
    assert report.nonzero_matches and report.full_within_one
    assert report.passed


def test_lis_check_random_sweep():
    rng = random.Random(4407)
    slack = 0
    for _ in range(60):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 16)
        density = rng.choice((0.0, 0.2, 0.5, 0.9))
        m = [
            [1 if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        report = lis_equals_max_path_check(m)
        assert report.nonzero_matches
        assert report.full_within_one
        slack += report.lis_full - report.weight
    assert slack > 0  # the +1 reading does occur, zeros supply a free head


def test_key_case_weights():
    # agreement costs a unit: 5/5 vs 6/6
    assert key_case(0, 0).max_weight == 5
    assert key_case(1, 1).max_weight == 5
    assert key_case(1, 0).max_weight == 6
    assert key_case(0, 1).max_weight == 6
    for u_bit, v_bit in ((0, 0), (0, 1), (1, 0), (1, 1)):
        case = key_case(u_bit, v_bit)
        assert exhaustive_max_path(case.matrix) == case.max_weight
        assert len(case.matrix) == 8 and all(len(r) == 2 for r in case.matrix)


def test_pair_weight_fast_path_agrees():
    inner = full_cube_2()
    rng = random.Random(77)
    for _ in range(12):
        u = tuple(rng.randrange(4) for _ in range(3))
        v = tuple(rng.randrange(4) for _ in range(3))
        w, _ = grid_max_weight(matrix_array(u, v, inner))
        assert pair_weight(u, v, inner) == w
    # independent oracle: the LIS of the serialized grid with zeros deleted
    words = list(itertools.product(range(4), repeat=2))
    for u in words:
        for v in words:
            sigma = build_matrix(u, v, inner).sigma
            nonzero = tuple(s for s in sigma.symbols if s)
            want = lis_patience(Sequence(nonzero, sigma.alphabet_bound))[0]
            assert pair_weight(u, v, inner) == want


def test_grid_instance_rejects_tampering():
    inst = build_matrix((1, 3), (0, 2), full_cube_2())
    m_prime = [list(row) for row in inst.m_prime]
    m_prime[8][0] += 1  # a 1-cell of the first filler row
    m_prime[17][15] = 0  # a later broken cell; the first one is named
    with pytest.raises(GridError, match=r"valuation broken at \(9, 1\)"):
        dataclasses.replace(inst, m_prime=tuple(map(tuple, m_prime)))
    m_prime = [list(row) for row in inst.m_prime]
    m_prime[0][0] = 1  # a 0-cell given a value
    with pytest.raises(GridError, match=r"valuation broken at \(1, 1\)"):
        dataclasses.replace(inst, m_prime=tuple(map(tuple, m_prime)))
    swapped = list(inst.sigma.symbols)
    swapped[8], swapped[9] = swapped[9], swapped[8]
    with pytest.raises(GridError, match="column-major readout"):
        dataclasses.replace(
            inst, sigma=Sequence(tuple(swapped), inst.sigma.alphabet_bound)
        )


def test_matrix_chain_diagonal():
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert matrix_chain(eye) == ((1, 1), (2, 2), (3, 3), (4, 4))
    full = [[1] * 4 for _ in range(4)]
    chain = matrix_chain(full)
    assert len(chain) == 4


def test_matrix_chain_random_dense_columns():
    rng = random.Random(5150)
    for rows, cols in ((8, 8), (8, 12), (16, 5)):
        need = -(-rows // 4)
        m = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            for i in rng.sample(range(rows), rng.randint(need, rows)):
                m[i][j] = 1
        chain = matrix_chain(m)
        assert len(chain) >= chain_length_bound(rows, cols)
        for (i1, j1), (i2, j2) in zip(chain, chain[1:]):
            assert i2 > i1 and j2 > j1
        assert all(m[i - 1][j - 1] == 1 for i, j in chain)


def test_matrix_chain_at_guarantee_scale():
    rng = random.Random(321)
    rows = cols = 32
    m = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for i in rng.sample(range(rows), 8):
            m[i][j] = 1
    chain = matrix_chain(m)
    assert chain_length_bound(32, 32) == 2
    assert len(chain) >= 2


def test_matrix_chain_precondition():
    m = [[1, 0], [1, 0], [1, 0], [1, 0]]
    with pytest.raises(GridError, match="chain extraction"):
        matrix_chain(m)
    assert chain_length_bound(8, 8) == 0
    assert chain_length_bound(64, 64) == 4


def test_type2_bounds_frozen():
    assert type2_bounds(2, 2) == (22, 19)
    assert type2_bounds(64, 64) == (704, 703)
    assert type2_bounds(400, 400) == (4400, 4409)
    with pytest.raises(GridError):
        type2_bounds(0, 4)


def test_grid_codes_scales():
    inner2, outer2 = grid_codes(2, 2)
    assert (inner2.length, inner2.size) == (2, 2)
    assert (outer2.length, outer2.size) == (2, 2)
    inner4, outer4 = grid_codes(4, 4)
    assert inner4.length == 4 and inner4.size == 8
    assert outer4.size == 25 and outer4.meta["field"] == 5
    assert outer4.verified_distance == 2 and outer4.meta["exact_distance"] == 3
    inner8, outer8 = grid_codes(8, 8)
    assert inner8.length == 8 and inner8.size == 16
    assert inner8.verified_distance >= 2
    assert outer8.size == 11**4 and outer8.verified_distance == 4
    assert outer8.meta["theoretical_distance"] == 5
    again, _ = grid_codes(8, 8)
    assert again.codewords == inner8.codewords


def test_matrix_file_round_trip(tmp_path):
    text = format_matrix(REFERENCE_MATRIX)
    assert text.splitlines()[0] == "18 16"
    assert parse_matrix(text) == REFERENCE_MATRIX
    target = tmp_path / "grid.txt"
    write_matrix_file(str(target), REFERENCE_MATRIX)
    assert read_matrix_file(str(target)) == REFERENCE_MATRIX
    commented = "# reference\n2 2\n01\n10\n"
    assert parse_matrix(commented) == ((0, 1), (1, 0))
    for bad in ("", "2\n01\n10\n", "2 2\n01\n", "2 2\n01\n1x\n", "2 2\n011\n100\n", "0 5\n"):
        with pytest.raises(GridError):
            parse_matrix(bad)


def test_pair_weight_bounds_exhausted_small():
    # every ordered pair over the full 2-bit cube, q = 2: equal pairs all
    # land on one value, distinct pairs stay inside the stated bracket
    inner = full_cube_2()
    equal_ub, unequal_lb = type2_bounds(2, 2)
    words = list(itertools.product(range(4), repeat=2))
    equal_weights = {pair_weight(u, u, inner) for u in words}
    assert equal_weights == {19}
    distinct = [
        pair_weight(u, v, inner) for u in words for v in words if u != v
    ]
    assert min(distinct) == 19 >= unequal_lb
    assert max(distinct) == 21 <= equal_ub
    seq = build_matrix((1, 1), (0, 1), inner).sigma
    w = pair_weight((1, 1), (0, 1), inner)
    assert lis_patience(seq)[0] in (w, w + 1)
