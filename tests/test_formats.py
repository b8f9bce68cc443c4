import pytest

from backdet.automata import Alphabet, And, LetterSet, NextState, Or
from backdet.construction import BackwardDetAutomaton
from backdet.errors import FormatError
from backdet.formats import (
    format_bda,
    format_condition,
    format_waa,
    parse_condition,
    parse_lasso,
    parse_nba,
    parse_waa,
)
from backdet.nba import NBA
from backdet.nutl import Var

AB = Alphabet(("a", "b"))

WAA_TEXT = """\
# eventually a
alphabet: a b
states: q0 q1
recurring: q1
initial: q0
delta q0 = [a] | (X q1 & X q0)
delta q1 = [a b]
"""


def test_parse_waa_basics():
    waa = parse_waa(WAA_TEXT)
    assert waa.states == ("q0", "q1")
    assert waa.recurring == frozenset({"q1"})
    assert waa.initial == frozenset({"q0"})
    assert waa.delta["q0"] == Or(
        LetterSet({"a"}), And(NextState("q1"), NextState("q0"))
    )


def test_waa_round_trip():
    waa = parse_waa(WAA_TEXT)
    again = parse_waa(format_waa(waa))
    assert again == waa


def test_parse_waa_missing_sections():
    with pytest.raises(FormatError):
        parse_waa("states: q\nrecurring:\ndelta q = [a]\n")
    with pytest.raises(FormatError):
        parse_waa("alphabet: a\nrecurring:\ndelta q = [a]\n")
    with pytest.raises(FormatError):
        parse_waa("alphabet: a\nstates: q\ndelta q = [a]\n")


def test_parse_waa_duplicate_delta():
    text = "alphabet: a\nstates: q\nrecurring:\ndelta q = [a]\ndelta q = [a]\n"
    with pytest.raises(FormatError):
        parse_waa(text)


def test_condition_parse_precedence():
    c = parse_condition("[a] | X q & X p", AB, {"p", "q"})
    assert isinstance(c, Or)
    assert isinstance(c.right, And)
    assert parse_condition("([a] | X q) & X p", AB, {"p", "q"}) != c


def test_condition_empty_letter_set():
    c = parse_condition("[]", AB, set())
    assert c == LetterSet(frozenset())
    assert format_condition(c) == "[]"


def test_condition_errors():
    with pytest.raises(FormatError):
        parse_condition("[z]", AB, set())
    with pytest.raises(FormatError):
        parse_condition("X nope", AB, {"q"})
    with pytest.raises(FormatError):
        parse_condition("[a] [b]", AB, set())
    # errors name the offending token's offset
    for text, position in (("[a] | X nope", 8), ("[a z]", 3), ("[a] [b]", 4), ("([a]", 4)):
        with pytest.raises(FormatError) as err:
            parse_condition(text, AB, {"q"})
        assert err.value.position == position, text
    with pytest.raises(TypeError, match=r"not a condition: Var\(name='q'\)"):
        format_condition(Var("q"))


def test_waa_condition_errors_name_their_line():
    head = "alphabet: a b\nstates: q\nrecurring:\n"
    for body, reason, position in (
        ("delta q = [a] | X r\n", "unknown state 'r' in condition", "line 4, condition offset 8"),
        ("# comment\ndelta q = [a] |\n", "unexpected end of condition", "line 5, condition offset 5"),
        ("delta q = [c]\n", "letter 'c' not in alphabet", "line 4, condition offset 1"),
        ("delta q [a]\n", "delta line needs '='", "line 4"),
        ("edge q\n", "unrecognized line: 'edge q'", "line 4"),
    ):
        with pytest.raises(FormatError) as err:
            parse_waa(head + body)
        assert (err.value.reason, err.value.position) == (reason, position), body
        assert str(err.value).endswith(f"(at {position})")


def test_waa_with_punctuated_names_round_trips():
    text = (
        "alphabet: a-1 b.2\n"
        "states: q.0 q-1\n"
        "recurring: q-1\n"
        "initial: q.0\n"
        "delta q.0 = [a-1] | X q-1 & X q.0\n"
        "delta q-1 = [a-1 b.2] & X q-1\n"
    )
    waa = parse_waa(text)
    assert waa.alphabet.letters == ("a-1", "b.2")
    assert waa.delta["q.0"] == Or(LetterSet({"a-1"}), And(NextState("q-1"), NextState("q.0")))
    assert parse_waa(format_waa(waa)) == waa


def test_header_without_space_after_colon():
    waa = parse_waa(
        "alphabet:a b\nstates:q0 q1\nrecurring:q1 q0\n"
        "delta q0 = X q1\ndelta q1 = X q0\n"
    )
    assert waa.alphabet.letters == ("a", "b")
    assert waa.recurring == frozenset({"q0", "q1"})
    assert [(scc.states, scc.recurring) for scc in waa.sccs] == [(("q0", "q1"), True)]
    nba = parse_nba("alphabet:a b\nstates:q0 q1\ninitial:q0\nbuchi:q1 q0\ntrans q0 a q1\n")
    assert nba.alphabet.letters == ("a", "b")
    assert nba.initial == frozenset({"q0"})
    assert nba.buchi == frozenset({"q0", "q1"})


def test_condition_format_round_trip():
    # a chain that nests to the right keeps its parentheses
    texts = ["[a]", "X q | X p & [b]", "([a] | X q) & ([] | X p)", "[a] | ([b] | X q)", "X p & (X q & [a])"]
    for text in texts:
        c = parse_condition(text, AB, {"p", "q"})
        assert parse_condition(format_condition(c), AB, {"p", "q"}) is c
    assert format_condition(parse_condition("[a] | ([b] | X q)", AB, {"q"})) == "[a] | ([b] | X q)"


NBA_TEXT = """\
alphabet: a b
states: q0 q1
initial: q0
buchi: q1
trans q0 a q0
trans q0 a q1
trans q1 b q1
"""


def test_nba_round_trip():
    # every field, against the NBA the text describes
    transitions = [("q0", "a", "q0"), ("q0", "a", "q1"), ("q1", "b", "q1")]
    assert parse_nba(NBA_TEXT) == NBA(AB, ["q0", "q1"], ["q0"], transitions, ["q1"])


def test_nba_parse_errors():
    head = "alphabet: a\nstates: q\ninitial: q\n"
    for text, message in (
        (head + "trans q a\n", "missing 'buchi:' line"),
        (head, "missing 'buchi:' line"),
        (head + "buchi: q\ntrans q a\n", "trans line needs 'trans q a q2' (at line 5)"),
        (head + "buchi: q\nedge q a q\n", "unrecognized line: 'edge q a q' (at line 5)"),
    ):
        with pytest.raises(FormatError) as err:
            parse_nba(text)
        assert str(err.value) == message, text


def test_parse_lasso():
    w = parse_lasso("a b ; b a", AB)
    assert w.prefix == ("a", "b")
    assert w.period == ("b", "a")
    assert parse_lasso("; a", AB).prefix == ()
    with pytest.raises(FormatError):
        parse_lasso("a b", AB)
    with pytest.raises(FormatError):
        parse_lasso("a ;", AB)
    with pytest.raises(FormatError):
        parse_lasso("; z", AB)
    with pytest.raises(FormatError) as err:
        parse_lasso("a ; b ; c", AB)
    assert (err.value.reason, err.value.position) == ("lasso has a second ';'", 6)


def test_format_bda_header_and_table():
    waa = parse_waa(
        "alphabet: a b\nstates: q\nrecurring:\ndelta q = [a] | X q\n"
    )
    bda = BackwardDetAutomaton(waa)
    header = format_bda(bda)
    assert "state-space-bound: 2" in header
    assert "buchi-sets: (0,1)" in header
    full = format_bda(bda, enumerate_cap=16)
    assert "families: 2" in full
    assert full.count("trans ") == 4  # 2 families x 2 letters
