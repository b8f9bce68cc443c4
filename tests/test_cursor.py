import random

import pytest
from hypothesis import given, settings, strategies as st

from backdet.automata import Alphabet, fold
from backdet.errors import FormatError
from backdet.formats import format_condition, parse_condition
from backdet.ltl import format_ltl, parse_ltl, random_ltl
from backdet.node import subterms
from backdet.nutl import format_nutl, parse_nutl
from backdet.validation import random_condition, random_nutl

AB = Alphabet(("a", "b"))

PARSERS = {
    "ltl": lambda text: parse_ltl(text, AB),
    "nutl": lambda text: parse_nutl(text, AB),
    "cond": lambda text: parse_condition(text, AB, {"q", "r"}),
}

# (language, text, message, offset): empty and blank text, a character no
# token matches, trailing input, an unclosed parenthesis, an operator at the
# end, tab and newline whitespace, '!' on a non-letter, punctuation where a
# name belongs, and misplaced definitions
ERRORS = [
    ("ltl", "", "unexpected end of formula", 0),
    ("ltl", " \t\n", "unexpected end of formula", 3),
    ("ltl", "a $ b", "unexpected character '$'", 2),
    ("ltl", "a | é", "unexpected character 'é'", 4),
    ("ltl", "a b", "trailing input 'b'", 2),
    ("ltl", "(a", "unexpected end of formula", 2),
    ("ltl", "a &", "unexpected end of formula", 3),
    ("ltl", "a U", "unexpected end of formula", 3),
    ("ltl", "F", "unexpected end of formula", 1),
    ("ltl", "\ta\n&\t", "unexpected end of formula", 5),
    ("ltl", "a\t|\n)", "unexpected token ')'", 4),
    ("ltl", "!X a", "negation is only allowed on letters", 0),
    ("ltl", "!(a)", "negation is only allowed on letters", 0),
    ("ltl", "!", "negation is only allowed on letters", 0),
    ("nutl", "", "unexpected end of formula", 0),
    ("nutl", " \t\n", "unexpected end of formula", 3),
    ("nutl", "a $ b", "unexpected character '$'", 2),
    ("nutl", "a b", "trailing input 'b'", 2),
    ("nutl", "mu_0 (X).(a | O X) )", "trailing input ')'", 19),
    ("nutl", "(a", "unexpected end of formula", 2),
    ("nutl", "a |", "unexpected end of formula", 3),
    ("nutl", "O", "unexpected end of formula", 1),
    ("nutl", "\ta\n&\t", "unexpected end of formula", 5),
    ("nutl", "mu_0 (X).(a\t|\nO X", "unexpected end of formula", 17),
    ("nutl", "!(a)", "negation is only allowed on letters, got '('", 0),
    ("nutl", "!X", "negation is only allowed on letters, got 'X'", 0),
    ("nutl", "a | !X", "negation is only allowed on letters, got 'X'", 4),
    ("nutl", "!", "unexpected end of formula", 1),
    # a letter, a variable and a fix variable are identifiers
    ("nutl", "a | &", "unexpected token '&'", 4),
    ("nutl", ")", "unexpected token ')'", 0),
    ("nutl", "mu_0 (;).(O ;)", "expected a variable, got ';'", 6),
    ("nutl", "mu_0 (X,).(a)", "expected a variable, got ')'", 8),
    # the next-step operator and fix names are not variables
    ("nutl", "mu_0 (O).(a)", "expected a variable, got 'O'", 6),
    ("nutl", "nu_0 (mu_1).(a)", "expected a variable, got 'mu_1'", 6),
    ("nutl", "mu_0 (O).(a | O O)", "expected a variable, got 'O'", 6),
    ("nutl", "mu_0 (X,nu_0).(O X; a)", "expected a variable, got 'nu_0'", 8),
    # definitions '@k = <formula>;' come before the formula, each name once
    ("nutl", "a | @0", "undefined name @0", 4),
    ("nutl", "@0 = a & @1; @1 = b; @0", "@1 is used before its definition", 9),
    ("nutl", "@0 = O (@0); @0", "@0 is used before its definition", 8),
    ("nutl", "@0 = a & b; @0 = b; @0", "@0 is defined twice", 12),
    ("nutl", "@0 = a & b @0", "expected ';', got '@0'", 11),
    ("nutl", "@0 = a & b", "unexpected end of formula", 10),
    ("nutl", "a | @0 = b; @0", "definition of @0 inside the formula", 4),
    ("nutl", "@0 = a; O (@1 = b; @1)", "definition of @1 inside the formula", 11),
    ("nutl", "mu_0 (X).(@0 = O X; @0)", "definition of @0 inside the formula", 10),
    ("cond", "", "unexpected end of condition", 0),
    ("cond", " \t\n", "unexpected end of condition", 3),
    # every non-space character starts a condition token
    ("cond", "[a] $", "trailing input '$'", 4),
    ("cond", "[a] [b]", "trailing input '['", 4),
    ("cond", "X q )", "trailing input ')'", 4),
    ("cond", "([a]", "unexpected end of condition", 4),
    ("cond", "[a] |", "unexpected end of condition", 5),
    ("cond", "X", "unexpected end of condition", 1),
    ("cond", "\t[a]\n&\t", "unexpected end of condition", 7),
    ("cond", "[a\t\nb", "unexpected end of condition", 5),
    ("cond", "!a", "unexpected token in condition: '!a'", 0),
    ("cond", "[a] & !X q", "unexpected token in condition: '!X'", 6),
]


@pytest.mark.parametrize("language, text, message, offset", ERRORS)
def test_parse_errors_name_message_and_offset(language, text, message, offset):
    with pytest.raises(FormatError) as err:
        PARSERS[language](text)
    assert (err.value.reason, err.value.position) == (message, offset)
    assert str(err.value) == f"{message} (at {offset})"


# The parser net: texts drawn from printed random formulas, from token soups
# (tokens, names outside the alphabet and characters no token matches, glued
# or spaced), and from printed formulas with a soup spliced in.  Each
# language gives its printer, a printer of random formulas, and its soup.
NET = settings(derandomize=True, max_examples=150, deadline=None)
SPACES = [" ", " ", "\t", "\n"]
LANGUAGES = {
    "ltl": (
        format_ltl,
        lambda rng: format_ltl(random_ltl(rng, AB, rng.randint(1, 12))),
        ["(", ")", "!", "&", "|", "X", "F", "G", "U", "R", "a", "b", "c", "$"],
    ),
    "nutl": (
        format_nutl,
        lambda rng: format_nutl(random_nutl(rng, AB, rng.randint(0, 4))),
        ["(", ")", ".", ";", ",", "|", "&", "!", "=", "@0", "@1", "O", "mu_0", "nu_1", "a", "b", "V", "W", "$"],
    ),
    "cond": (
        format_condition,
        # printed with every operator grouped, so a chain may nest to the right
        lambda rng: fold(random_condition(rng, AB, ["q", "r"], rng.randint(0, 4)), format_condition,
                         lambda a, b: f"({a} | {b})", lambda a, b: f"({a} & {b})"),
        ["[", "]", "(", ")", "&", "|", "!", "X", "q", "r", "a", "b", "c", "$"],
    ),
}


@st.composite
def texts(draw, language):
    _, printer, vocabulary = LANGUAGES[language]
    soup = "".join(draw(st.lists(st.sampled_from(vocabulary + SPACES), max_size=12)))
    printed = printer(random.Random(draw(st.integers(0, 2**32))))
    at = draw(st.integers(0, len(printed)))
    return draw(st.sampled_from([soup, printed, printed[:at] + soup + printed[at:]]))


def names(node):
    """Every letter, variable, fix-variable and state name under ``node``."""
    for f in subterms([node]):
        for slot in f.__slots__:
            value = getattr(f, slot)
            if slot in ("name", "state"):
                yield value
            elif slot in ("vars", "letters"):
                yield from value


@pytest.mark.parametrize("language", LANGUAGES)
@NET
@given(data=st.data())
def test_parser_net(language, data):
    text = data.draw(texts(language))
    parse, fmt = PARSERS[language], LANGUAGES[language][0]
    try:
        node = parse(text)
    except FormatError as e:
        assert isinstance(e.position, int) and 0 <= e.position <= len(text), (text, e)
        return
    assert parse(fmt(node)) is node, text
    assert all(name.isidentifier() for name in names(node)), text
