"""Branching programs: eval, read-once, merges, distinguishers, families."""

from __future__ import annotations

import json
import random

import pytest

from lislab.core import IndexSet, Sequence, lis_dp
from lislab.robp import (
    BPNode,
    BranchingProgram,
    BudgetError,
    DistinguisherError,
    FamilySearchError,
    ProgramError,
    SeparatedFamily,
    build_distinguisher,
    check_computes_lis,
    check_read_once,
    doubled_family,
    evaluate,
    format_program,
    merge_f_S,
    parse_program,
    read_program_file,
    search_separated_family,
    streaming_lis_program,
    table_program,
    verify_separated_family,
    write_program_file,
)


def sink(value: int) -> BPNode:
    return BPNode(None, None, value)


def constant_program(value: int = 7, r_way: int = 3, n_inputs: int = 2) -> BranchingProgram:
    return BranchingProgram(r_way, n_inputs, ((sink(value),),))


def repeat_query_program() -> BranchingProgram:
    # both levels query position 1; structurally fine, not read-once
    lvl0 = (BPNode(1, ((1, 0), (2, 1)), None),)
    lvl1 = (BPNode(1, ((1, 0), (2, 1)), None), BPNode(1, ((1, 0), (2, 1)), None))
    lvl2 = (sink(1), sink(2))
    return BranchingProgram(2, 3, (lvl0, lvl1, lvl2))


def adaptive_disjoint_program() -> BranchingProgram:
    # branch on position 1, then query position 2 or 3 depending on it
    lvl0 = (BPNode(1, ((1, 0), (2, 1)), None),)
    lvl1 = (BPNode(2, ((1, 0), (2, 1)), None), BPNode(3, ((1, 1), (2, 0)), None))
    lvl2 = (sink(1), sink(2))
    return BranchingProgram(2, 3, (lvl0, lvl1, lvl2))


def test_constant_program_eval():
    bp = constant_program()
    out, path = evaluate(bp, Sequence.of((2, 3)))
    assert out == 7
    assert path == ((0, 0),)
    assert bp.size == 1


def test_node_and_program_validation():
    with pytest.raises(ProgramError):
        BPNode(1, None, None)
    with pytest.raises(ProgramError):
        BPNode(1, ((1, 0),), 5)
    with pytest.raises(ProgramError):
        BranchingProgram(2, 2, ())
    with pytest.raises(ProgramError):
        BranchingProgram(2, 2, ((sink(1), sink(2)),))  # two roots
    with pytest.raises(ProgramError):
        BranchingProgram(2, 2, ((BPNode(1, ((1, 0), (2, 0)), None),),))
    with pytest.raises(ProgramError):
        BranchingProgram(2, 2, ((BPNode(3, ((1, 0), (2, 0)), None),), (sink(1),)))
    with pytest.raises(ProgramError, match="fan"):
        BranchingProgram(2, 2, ((BPNode(1, ((1, 0),), None),), (sink(1),)))
    with pytest.raises(ProgramError):
        BranchingProgram(2, 2, ((BPNode(1, ((1, 0), (2, 5)), None),), (sink(1),)))


def test_evaluate_rejects_bad_inputs():
    bp = streaming_lis_program(3, 3)
    with pytest.raises(ProgramError):
        evaluate(bp, Sequence.of((1, 2)))
    with pytest.raises(ProgramError):
        evaluate(bp, Sequence((0, 1, 2), 3))
    with pytest.raises(ProgramError):
        evaluate(bp, Sequence.of((1, 2, 4)))


def test_streaming_program_matches_oracle_everywhere():
    bp = streaming_lis_program(3, 3)
    assert check_read_once(bp)
    assert check_computes_lis(bp, 3, 3)
    out, path = evaluate(bp, Sequence.of((2, 1, 3)))
    assert out == 2
    assert len(path) == 4
    # level widths follow the reachable pile-top states: 1, 3, 6, 7
    assert tuple(len(level) for level in bp.levels) == (1, 3, 6, 7)
    assert bp.size == 17


def test_read_once_checks():
    assert check_read_once(adaptive_disjoint_program())
    bad = repeat_query_program()
    assert not check_read_once(bad)
    # separation of concerns: eval still runs on a non-read-once program
    assert evaluate(bad, Sequence.of((2, 1, 1)))[0] == 2
    # repeat on one branch only
    lvl0 = (BPNode(1, ((1, 0), (2, 1)), None),)
    lvl1 = (BPNode(2, ((1, 0), (2, 0)), None), BPNode(1, ((1, 0), (2, 0)), None))
    one_bad = BranchingProgram(2, 2, (lvl0, lvl1, (sink(1),)))
    assert not check_read_once(one_bad)


def test_check_computes_lis_verdicts():
    assert not check_computes_lis(constant_program(1, 2, 2), 2, 2)
    assert check_computes_lis(table_program(2, 2), 2, 2)
    with pytest.raises(BudgetError):
        check_computes_lis(streaming_lis_program(7, 10), 7, 10)
    with pytest.raises(ProgramError):
        check_computes_lis(streaming_lis_program(3, 3), 3, 4)


def test_table_program_budget():
    with pytest.raises(BudgetError):
        table_program(10, 10)


def test_merge_examples():
    x = Sequence.of((1, 2, 3))
    z = Sequence.of((9, 8, 7))
    assert merge_f_S(x, z, IndexSet.of((1, 2, 3))).symbols == (1, 2, 3)
    assert merge_f_S(x, z, IndexSet.of(())).symbols == (9, 8, 7)
    assert merge_f_S(x, z, IndexSet.of((2,))).symbols == (9, 2, 7)
    with pytest.raises(ProgramError):
        merge_f_S(x, Sequence.of((1, 2)), IndexSet.of((1,)))
    with pytest.raises(ProgramError):
        merge_f_S(x, z, IndexSet.of((4,)))


def test_merge_self_is_identity():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 8)
        x = Sequence.of([rng.randint(0, 9) for _ in range(n)], 9)
        s = IndexSet.of(rng.sample(range(1, n + 1), rng.randint(0, n)))
        assert merge_f_S(x, x, s).symbols == x.symbols


def test_distinguisher_tail_case_frozen():
    # lone disagreement at the last fixed position, no free room after it
    x = Sequence((1, 2, 3, 4, 5), 500)
    y = Sequence((1, 2, 3, 4, 6), 500)
    xt, yt = build_distinguisher(x, y, IndexSet.of((5,)))
    assert xt.symbols == (0, 5, 0, 0, 5)
    assert yt.symbols == (0, 5, 0, 0, 6)
    assert (lis_dp(xt), lis_dp(yt)) == (2, 3)


def test_distinguisher_head_case_frozen():
    # disagreement early, three free positions after it
    x = Sequence((1, 2, 3, 4, 5), 500)
    y = Sequence((1, 3, 4, 5, 6), 500)
    xt, yt = build_distinguisher(x, y, IndexSet.of((2,)))
    assert xt.symbols == (0, 2, 3, 501, 501)
    assert yt.symbols == (0, 3, 3, 501, 501)
    assert (lis_dp(xt), lis_dp(yt)) == (4, 3)


def test_distinguisher_preconditions():
    x = Sequence((1, 2, 3, 4, 5), 500)
    with pytest.raises(ProgramError, match="agree"):
        build_distinguisher(x, x, IndexSet.of((5,)))
    with pytest.raises(ProgramError, match="alphabet"):
        build_distinguisher(
            Sequence((1, 2, 3, 4, 5), 10), Sequence((1, 2, 3, 4, 6), 10), IndexSet.of((5,))
        )
    with pytest.raises(ProgramError, match="restriction size"):
        build_distinguisher(x, Sequence((1, 2, 3, 4, 6), 500), IndexSet.of((4, 5)))
    with pytest.raises(ProgramError, match="increasing"):
        build_distinguisher(
            Sequence((5, 2, 3, 4, 1), 500), Sequence((1, 2, 3, 4, 6), 500), IndexSet.of((5,))
        )
    with pytest.raises(ProgramError):
        build_distinguisher(x, Sequence((1, 2, 3, 4, 6), 501), IndexSet.of((5,)))


def draw_disagreeing_pair(rng, n, m, k):
    while True:
        x = tuple(sorted(rng.sample(range(1, m + 1), n)))
        y = tuple(sorted(rng.sample(range(1, m + 1), n)))
        s = IndexSet.of(rng.sample(range(1, n + 1), k))
        if any(x[i - 1] != y[i - 1] for i in s):
            return Sequence(x, m), Sequence(y, m), s


def test_distinguisher_sweep_both_cases():
    rng = random.Random(1009)
    for n in (5, 10, 15):
        m = 100 * n
        cases = {True: 0, False: 0}
        for _ in range(50):
            x, y, s = draw_disagreeing_pair(rng, n, m, n // 5)
            xt, yt = build_distinguisher(x, y, s)
            inside = set(s.indices)
            for i in range(1, n + 1):
                if i in inside:
                    assert xt.at(i) == x.at(i) and yt.at(i) == y.at(i)
                else:
                    assert xt.at(i) == yt.at(i)
                assert 0 <= xt.at(i) <= m + 1
            assert abs(lis_dp(xt) - lis_dp(yt)) == 1
            first = min(i for i in s if x.at(i) != y.at(i))
            free_after = sum(1 for i in range(first + 1, n + 1) if i not in inside)
            cases[free_after >= 2 * n // 5] += 1
        assert cases[True] and cases[False]


def test_family_search_and_literal_verify():
    fam = search_separated_family(10, 1000, k=2, target_size=8, seed=3, budget=10_000)
    assert len(fam) >= 8 and fam.k == 2 and fam.n == 10
    assert verify_separated_family(fam.sequences, 2)
    again = search_separated_family(10, 1000, k=2, target_size=8, seed=3, budget=10_000)
    assert [s.symbols for s in again.sequences] == [s.symbols for s in fam.sequences]


def test_family_verify_examples():
    assert verify_separated_family([Sequence.of((1, 2)), Sequence.of((3, 4))], 1)
    assert not verify_separated_family([Sequence.of((1, 2)), Sequence.of((1, 3))], 1)
    with pytest.raises(BudgetError):
        verify_separated_family(
            [Sequence.of(range(1, 31)), Sequence.of(range(2, 32))], 15
        )
    with pytest.raises(ProgramError):
        verify_separated_family([], 1)


def test_family_degenerate_scales():
    single = search_separated_family(10, 1000, k=2, target_size=1, seed=0, budget=10)
    assert len(single) == 1
    with pytest.raises(FamilySearchError) as info:
        search_separated_family(10, 10, k=2, target_size=2, seed=0, budget=200)
    assert len(info.value.family) == 1
    assert info.value.family.sequences[0].symbols == tuple(range(1, 11))
    with pytest.raises(ProgramError):
        search_separated_family(10, 9, k=2, target_size=1, seed=0, budget=10)


def test_family_structural_invariant():
    with pytest.raises(ProgramError, match="agree on 2"):
        SeparatedFamily((Sequence.of((1, 2, 3)), Sequence.of((1, 2, 4))), 2)
    fam = SeparatedFamily((Sequence.of((1, 2, 3)), Sequence.of((1, 4, 5))), 2)
    assert len(fam) == 2


def test_doubling_preserves_separation():
    fam = search_separated_family(10, 1000, k=2, target_size=6, seed=9, budget=10_000)
    even = doubled_family(fam)
    assert all(s % 2 == 0 for seq in even.sequences for s in seq.symbols)
    assert verify_separated_family(even.sequences, 2)


def test_program_file_round_trip(tmp_path):
    for bp in (streaming_lis_program(3, 3), constant_program()):
        text = format_program(bp)
        back = parse_program(text)
        assert back == bp
        target = tmp_path / "program.json"
        write_program_file(str(target), bp)
        assert read_program_file(str(target)) == bp
    with pytest.raises(ProgramError):
        parse_program("not json")
    with pytest.raises(ProgramError):
        parse_program('{"levels": [[{"query": 1}]]}')


def test_parse_program_accepts_only_json_integers():
    text = format_program(streaming_lis_program(2, 2))
    assert parse_program(text) == streaming_lis_program(2, 2)
    changes = [
        (None, "r_way", True),
        (None, "n_inputs", "2"),
        (None, "n_inputs", 2.7),
        (None, "n_inputs", 2.0),
        ((0, 0), "query", 1.0),
        ((0, 0), "edges", {"1": 0, "2.0": 1}),
        ((0, 0), "edges", {"1": 0, " 2": 1}),
        ((0, 0), "edges", {"1": 0, "2": "1"}),
        ((-1, 0), "output", False),
    ]
    for where, key, value in changes:
        doc = json.loads(text)
        node = doc if where is None else doc["levels"][where[0]][where[1]]
        node[key] = value
        with pytest.raises(ProgramError, match="JSON integer|decimal symbol"):
            parse_program(json.dumps(doc))
