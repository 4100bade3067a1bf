"""Property tests: oracle agreement, file-format round trips, grid LIS."""

from __future__ import annotations

import json

from hypothesis import example, given
from hypothesis import strategies as st

from lislab.codes import BlockCode, CodeError, format_code, parse_code
from lislab.core import (
    Sequence,
    SequenceError,
    format_sequence,
    lis_dp,
    lis_exhaustive,
    lis_patience,
    parse_sequence,
)
from lislab.orders import (
    OrderError,
    StreamOrder,
    format_order,
    parse_order,
    type1_witness,
    verify_type1,
)
from lislab.robp import (
    BPNode,
    BranchingProgram,
    ProgramError,
    format_program,
    parse_program,
)
from lislab.type2 import GridError, format_matrix, lis_equals_max_path_check, parse_matrix

# text that is mostly numbers, with the separators and junk the parsers meet
junk_text = st.text(alphabet="0123456789 \n#-x.", max_size=40)


def binary_matrices(max_rows: int, max_cols: int):
    return st.integers(1, max_rows).flatmap(
        lambda rows: st.integers(1, max_cols).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )


@given(st.lists(st.integers(0, 12), max_size=14))
def test_three_oracles_agree(values):
    x = Sequence.of(values)
    length, witness = lis_patience(x)
    assert length == lis_dp(x) == lis_exhaustive(x)
    picked = [x.at(i) for i in witness]
    assert len(picked) == length
    assert all(a < b for a, b in zip(picked, picked[1:]))


@given(binary_matrices(8, 12))
def test_grid_lis_equals_path_weight(matrix):
    assert lis_equals_max_path_check(matrix).passed


@given(st.lists(st.integers(0, 10**6), max_size=30))
def test_sequence_round_trip(values):
    x = Sequence.of(values)
    assert parse_sequence(format_sequence(x)) == x


@st.composite
def codes(draw):
    alphabet = draw(st.integers(2, 5))
    length = draw(st.integers(1, 4))
    words = draw(st.sets(st.tuples(*[st.integers(0, alphabet - 1)] * length), max_size=12))
    return BlockCode(alphabet, length, tuple(sorted(words)), draw(st.integers(1, length)))


@given(codes())
def test_code_round_trip(code):
    assert parse_code(format_code(code)) == code


@given(st.integers(1, 20).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_order_round_trip(pi):
    order = StreamOrder(len(pi), tuple(pi))
    assert parse_order(format_order(order)) == order


@given(binary_matrices(6, 10))
def test_matrix_round_trip(matrix):
    assert parse_matrix(format_matrix(matrix)) == tuple(map(tuple, matrix))


@st.composite
def programs(draw):
    r_way = draw(st.integers(1, 3))
    n_inputs = draw(st.integers(1, 4))
    widths = [1] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    levels = []
    for l, width in enumerate(widths):
        nodes = []
        for _ in range(width):
            if l == len(widths) - 1 or (l > 0 and draw(st.booleans())):
                nodes.append(BPNode(None, None, draw(st.integers(-3, 9))))
                continue
            targets = st.integers(0, widths[l + 1] - 1)
            edges = tuple((s, draw(targets)) for s in range(1, r_way + 1))
            nodes.append(BPNode(draw(st.integers(1, n_inputs)), edges, None))
        levels.append(tuple(nodes))
    return BranchingProgram(r_way, n_inputs, tuple(levels))


@given(programs())
def test_program_round_trip(bp):
    assert parse_program(format_program(bp)) == bp


def _integer_slots(doc, path=()):
    # every place in a program document that holds a JSON integer
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, int):
                yield path + (key,)
            else:
                yield from _integer_slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _integer_slots(value, path + (i,))


@given(programs(), st.data())
def test_program_rejects_non_integer_numbers(bp, data):
    doc = json.loads(format_program(bp))
    *parents, last = data.draw(st.sampled_from(sorted(_integer_slots(doc), key=repr)))
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[last] = data.draw(st.sampled_from((True, float(holder[last]), str(holder[last]))))
    try:
        parse_program(json.dumps(doc))
    except ProgramError as exc:
        assert "JSON integer" in str(exc)
    else:
        raise AssertionError(f"parsed {holder[last]!r} at {parents + [last]}")


@given(junk_text)
@example("0 5\n")  # a matrix header with no rows
@example("2 2 1 1\n0 x\n")  # a code file with a non-integer symbol
def test_malformed_text_fails_with_the_format_error(text):
    # each parser either accepts the text and round-trips it, or raises its
    # own error type; nothing else escapes
    cases = (
        (parse_sequence, format_sequence, SequenceError),
        (parse_code, format_code, CodeError),
        (parse_order, format_order, OrderError),
        (parse_matrix, format_matrix, GridError),
        (parse_program, format_program, ProgramError),
    )
    for parse, render, error in cases:
        try:
            value = parse(text)
        except error:
            continue
        assert parse(render(value)) == value


@given(st.integers(2, 12).flatmap(lambda n: st.permutations(range(1, n + 1))), st.data())
def test_every_type1_witness_verifies(pi, data):
    order = StreamOrder(len(pi), tuple(pi))
    m = data.draw(st.integers(1, order.n // 2))
    for exhaustive in (False, True):
        witness = type1_witness(order, m, exhaustive=exhaustive)
        assert witness is None or verify_type1(order, witness)
