import itertools
import random

import pytest

from backdet.automata import Alphabet, And, LetterSet, NextState, Or, WeakAlternatingAutomaton, fold
from backdet.construction import INF, BackwardDetAutomaton, accepts, basic_step, lifting_table
from backdet.errors import SemanticError, StateSpaceCapError
from backdet.lasso import LassoWord, bda_final_run
from backdet.nba import nba_to_bda
from backdet.validation import random_nba, random_waa

AB = Alphabet(("a", "b"))


def eventually_a():
    # single non-recurring state with delta(q) = [a] | X q
    delta = {"q": Or(LetterSet({"a"}), NextState("q"))}
    return WeakAlternatingAutomaton(AB, ["q"], delta, [])


def test_step_examples_eventually():
    bda = BackwardDetAutomaton(eventually_a())

    rec = bda.step("a", (INF,))
    assert rec.result == (1,)
    assert rec.critical == (1,)
    assert rec.fired == {(0, 1)}

    rec = bda.step("b", (INF,))
    assert rec.result == (INF,)
    assert rec.critical == (0,)
    # fires through the no-surviving-finite-value rule
    assert rec.fired == {(0, 1)}

    rec = bda.step("b", (1,))
    assert rec.result == (1,)
    assert rec.critical == (0,)
    assert rec.fired == frozenset()


def test_step_rejects_values_outside_the_scc_range():
    bda = BackwardDetAutomaton(eventually_a())
    for bad in (0, 2, -1):
        with pytest.raises(ValueError, match=r"state q has value .*, outside \{1\.\.1, inf\}"):
            bda.step("a", (bad,))
    for family in ((1, 1), ()):
        with pytest.raises(ValueError, match=f"family has {len(family)} values, expected 1"):
            bda.step("a", family)


def test_foreign_letters_are_rejected_before_a_row_is_kept():
    # rows are memoized per letter, so a letter outside the alphabet would
    # push scc_memo past its bound of |alphabet| * 2^e rows per SCC
    bda = BackwardDetAutomaton(eventually_a())
    with pytest.raises(ValueError, match="letter 'c' not in the alphabet a b"):
        bda.step("c", (1,))
    for k in range(50):
        with pytest.raises(ValueError, match=f"letter 'x{k}' not in the alphabet"):
            bda_final_run(bda, LassoWord(("a",), (f"x{k}",)))
    assert bda_final_run(bda, LassoWord((), ("a",))).families == ((1,),)
    assert len(bda.scc_memo[0]) <= len(AB)


def test_outside_bits_are_masked_before_a_row_is_kept():
    # a direct scc_row call may pass acceptance bits of states the SCC does
    # not read; they are masked off before the memo is keyed, so scc_memo
    # keeps one row per letter and pattern of the outside states read
    delta = {
        "p": And(NextState("q"), Or(LetterSet({"b"}), NextState("p"))),
        "q": Or(LetterSet({"a"}), NextState("q")),
    }
    waa = WeakAlternatingAutomaton(AB, ["p", "q"], delta, [])
    s, mask = waa.scc_of("p"), 1 << BackwardDetAutomaton(waa).state_pos["q"]
    rows = {}
    for letter, outside in itertools.product(AB, (0, mask)):
        bda = BackwardDetAutomaton(waa)
        assert bda.outside_mask[s] == mask
        rows[letter, outside] = bda.scc_row(s, letter, outside)
    assert rows["a", 0] != rows["a", mask]
    bda = BackwardDetAutomaton(waa)
    for letter, bits in itertools.product(AB, range(64)):
        row = bda.scc_row(s, letter, bits)
        assert bda.scc_memo[s][(letter, bits & mask)] is row
        assert row == rows[letter, bits & mask], (letter, bits)
    assert sorted(bda.scc_memo[s]) == sorted(rows)


def _reference_entry(bda, s, letter, outside, own):
    # the definition, one code at a time: each state's condition as a scalar
    # fold (a letter test or an outside state is inf when its truth equals
    # the polarity, else 0), the lifting around the least missing natural
    # m, and (S,i) fired when i <= m or no finite lifted value is >= i
    waa = bda.waa
    scc = waa.sccs[s]
    values = dict(zip(scc.states, own))

    def atom(c):
        if isinstance(c, LetterSet):
            holds = letter in c.letters
        elif c.state in values:
            return values[c.state]
        else:
            holds = bool(outside >> bda.state_pos[c.state] & 1)
        return INF if holds == scc.recurring else 0

    disj, conj = (max, min) if scc.recurring else (min, max)
    tilde = [fold(waa.delta[q], atom, disj, conj) for q in scc.states]
    lifted, fired, m = _reference_lift(tilde, scc.size)
    return bda.scc_table(s).code[lifted], fired, m


def _reference_lift(tilde, size):
    # the lifting of intermediate values around the least missing natural
    # m, and (S,i) fired when i <= m or no finite lifted value is >= i
    m = 0
    while m in tilde:
        m += 1
    lifted = tuple(v if v > m else v + 1 for v in tilde)
    fired = sum(1 << (i - 1) for i in range(1, size + 1)
                if i <= m or not any(v != INF and v >= i for v in lifted))
    return lifted, fired, m


def test_lifting_table_matches_the_definition():
    # every entry of the table that SCCs of each size up to 4 share (3, 16,
    # 125 and 1296 lifting entries): the value tuples in itertools.product
    # order over {1..size, inf} and their codes; key k of the lifting holds
    # the intermediate values as digits in base size+2 (0, the own values,
    # and inf as size+1), first state most significant, and its entry is the
    # local code of the lifted values, the fired bits and the critical
    # value; column j holds state j's coded value at each local code; a
    # recurring SCC's true atom is the all-inf column and its Or is max, a
    # non-recurring SCC's the all-0 column and min; each polarity's local
    # masks set bit j where state j accepts under the lambda rule
    for size in range(1, 5):
        values, code, columns, lift, polar = lifting_table(size)
        assert lifting_table(size) is lifting_table(size)
        domain = [*range(1, size + 1), INF]
        assert values == list(itertools.product(domain, repeat=size))
        assert code == {own: k for k, own in enumerate(values)}
        assert len(lift) == (size + 2) ** size
        for key, tilde in enumerate(itertools.product([0, *domain], repeat=size)):
            lifted, fired, m = _reference_lift(tilde, size)
            assert lift[key] == (code[lifted], fired, m), (size, tilde)
        coded = {**{v: v for v in range(1, size + 1)}, INF: size + 1}
        assert columns == [tuple(coded[v] for v in column) for column in zip(*values)]
        high, zero = [size + 1] * len(values), [0] * len(values)
        a, b = list(columns[0]), list(columns[-1])[::-1]
        for recurring, (yes, no, disj, conj, local) in polar.items():
            assert (yes, no) == ((high, zero) if recurring else (zero, high))
            assert local == [sum(1 << j for j, v in enumerate(own) if accepts(v, recurring)) for own in values]
            assert disj(a, b) == list(map(max if recurring else min, a, b))
            assert conj(a, b) == list(map(min if recurring else max, a, b))
            assert disj(a, yes) is yes and conj(a, no) is no
            assert disj(no, a) is a and conj(yes, a) is a


def test_sccs_of_one_size_share_one_value_table():
    # the value tuples, their codes, the own columns and the lifting depend
    # on the SCC size alone, so every SCC of one size, in any automaton,
    # holds the same objects; only positions, acceptance masks and
    # conditions are its own, and each acceptance mask is its polarity's
    # local mask with bit j moved to the j-th state's position
    rng = random.Random(11)
    by_size = {}
    for _ in range(40):
        bda = BackwardDetAutomaton(random_waa(rng, AB, rng.randint(2, 6)))
        for s, scc in enumerate(bda.waa.sccs):
            by_size.setdefault(scc.size, []).append((bda, bda.scc_table(s), scc))
    shared = 0
    for size, tables in by_size.items():
        values, code, columns, lift, polar = lifting_table(size)
        for bda, table, scc in tables:
            assert table.values is values and table.code is code and table.lift is lift
            assert all(table.own[q] is column for q, column in zip(scc.states, columns))
            *atoms, local = polar[scc.recurring]
            assert [table.yes, table.no, table.disj, table.conj] == atoms
            assert table.positions == tuple(bda.state_pos[q] for q in scc.states)
            assert table.accepting == [
                sum(1 << p for j, p in enumerate(table.positions) if k >> j & 1) for k in local]
        shared += size > 1 and len({id(bda) for bda, _, _ in tables}) > 1
    assert shared >= 2


def test_sccs_of_opposite_polarity_get_swapped_atoms():
    # a recurring and a non-recurring SCC of two states: the true atom of
    # one is the false atom of the other, and its Or the other's And
    delta = {
        "r0": NextState("r1"), "r1": Or(LetterSet({"a"}), NextState("r0")),
        "n0": NextState("n1"), "n1": Or(LetterSet({"b"}), NextState("n0")),
    }
    waa = WeakAlternatingAutomaton(AB, ["n0", "n1", "r0", "r1"], delta, ["r0", "r1"])
    bda = BackwardDetAutomaton(waa)
    (rec,), (non,) = ([bda.scc_table(s) for s, scc in enumerate(waa.sccs) if scc.recurring is r] for r in (True, False))
    assert rec.yes == [3] * 9 and rec.no == [0] * 9
    assert rec.yes is non.no and rec.no is non.yes
    assert rec.disj is non.conj and rec.conj is non.disj
    assert rec.values is non.values and rec.code is non.code
    assert rec.accepting != non.accepting


def _assert_rows_match_the_definition(bda):
    # every entry of every row, for every letter and every subset of the
    # outside states an SCC reads: successor code, fired bits and critical
    # value
    waa = bda.waa
    for s, scc in enumerate(waa.sccs):
        mask = bda.outside_mask[s]
        bits = [(0, 1 << p) for p in range(len(waa.states)) if mask >> p & 1]
        for letter, chosen in itertools.product(AB, itertools.product(*bits)):
            outside = sum(chosen)
            row = bda.scc_row(s, letter, outside)
            assert bda.scc_memo[s][(letter, outside)] is row
            for code, own in enumerate(bda.scc_table(s).values):
                assert row[code] == _reference_entry(bda, s, letter, outside, own), (s, letter, outside, own)


def test_step_rows_match_the_definition():
    # random weak automata with SCCs of up to 4 states
    rng = random.Random(5)
    sizes = set()
    automata = 0
    while automata < 150:
        waa = random_waa(rng, AB, rng.randint(1, 6))
        if max(scc.size for scc in waa.sccs) > 4:
            continue
        automata += 1
        sizes.update(scc.size for scc in waa.sccs)
        _assert_rows_match_the_definition(BackwardDetAutomaton(waa))
    assert sizes == {1, 2, 3, 4}


def test_rank_automaton_rows_match_the_definition():
    # the rank automata of 3-state Buchi automata: their conditions are long
    # left-deep And chains of ([b] | X p) factors, so a letter test or an
    # outside state decides most Or and And nodes and the row fold stops
    # there; random_waa rarely draws that shape.  An SCC high in the ranks
    # reads up to 17 outside states, so only automata with at most 20 000
    # row entries in all are checked
    rng = random.Random(7)
    sizes = set()
    automata = 0
    while automata < 5:
        bda = nba_to_bda(random_nba(rng, AB, 3)).bda
        sccs = bda.waa.sccs
        entries = [(len(AB) << m.bit_count()) * (scc.size + 1) ** scc.size for scc, m in zip(sccs, bda.outside_mask)]
        if sum(entries) > 20_000:
            continue
        automata += 1
        sizes.update(scc.size for scc in sccs)
        _assert_rows_match_the_definition(bda)
    assert sizes == {1, 2, 3}


def test_buchi_count_equals_state_count():
    delta = {
        "q0": NextState("q1"),
        "q1": Or(LetterSet({"a"}), NextState("q0")),
        "q2": Or(LetterSet({"b"}), NextState("q0")),
    }
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1", "q2"], delta, [])
    bda = BackwardDetAutomaton(waa)
    assert len(bda.buchi_indices) == 3


def test_state_space_bound_product():
    # one 2-SCC and one singleton: (2+1)^2 * (1+1)^1 = 18
    delta = {
        "q0": NextState("q1"),
        "q1": Or(LetterSet({"a"}), NextState("q0")),
        "q2": Or(LetterSet({"b"}), NextState("q0")),
    }
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1", "q2"], delta, [])
    bda = BackwardDetAutomaton(waa)
    assert bda.state_space_bound == 18


def test_two_state_scc_bound_nine():
    delta = {"q0": NextState("q1"), "q1": Or(LetterSet({"a"}), NextState("q0"))}
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, [])
    bda = BackwardDetAutomaton(waa)
    assert bda.state_space_bound == 9
    assert len(bda.buchi_indices) == 2
    assert len(bda.enumerate_state_space(16)) == 9


def test_enumerate_refuses_over_cap():
    bda = BackwardDetAutomaton(eventually_a())
    with pytest.raises(StateSpaceCapError):
        bda.enumerate_state_space(1)


def test_step_range_and_order_preserved():
    delta = {"q0": NextState("q1"), "q1": Or(LetterSet({"a"}), NextState("q0"))}
    waa = WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, [])
    bda = BackwardDetAutomaton(waa)
    for family in bda.enumerate_state_space(16):
        for letter in AB:
            rec = bda.step(letter, family)
            for q, v in zip(waa.states, rec.result):
                size = waa.sccs[waa.scc_of(q)].size
                assert v == INF or 1 <= v <= size


def test_output_function():
    delta = {
        "n": Or(LetterSet({"a"}), NextState("n")),
        "r": Or(LetterSet({"a"}), NextState("r")),
    }
    waa = WeakAlternatingAutomaton(AB, ["n", "r"], delta, ["r"])
    bda = BackwardDetAutomaton(waa)
    assert bda.output((1, INF)) == {"n", "r"}
    assert bda.output((INF, 1)) == frozenset()


def test_rejects_non_weak():
    # a mixed SCC fails when the automaton is built, before any BDA
    delta = {"q0": NextState("q1"), "q1": NextState("q0")}
    with pytest.raises(SemanticError, match="mixed SCC"):
        WeakAlternatingAutomaton(AB, ["q0", "q1"], delta, ["q0"])


def test_basic_step_two_fixed_families():
    # delta(q) = X q, non-recurring: the naive two-valued function admits
    # both constant runs, which is the reason the refinement exists
    waa = WeakAlternatingAutomaton(AB, ["q"], {"q": NextState("q")}, [])
    assert basic_step(waa, "a", (1,)) == (1,)
    assert basic_step(waa, "a", (INF,)) == (INF,)
    with pytest.raises(ValueError):
        basic_step(waa, "a", (2,))
    # delta(q) = [a] | X q: the letter test is 1 where the letter is in its set
    assert basic_step(eventually_a(), "a", (INF,)) == (1,)
    assert basic_step(eventually_a(), "b", (INF,)) == (INF,)
