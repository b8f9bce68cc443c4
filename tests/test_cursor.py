import pytest

from backdet.automata import Alphabet
from backdet.errors import FormatError
from backdet.formats import parse_condition
from backdet.ltl import parse_ltl
from backdet.nutl import parse_nutl

AB = Alphabet(("a", "b"))

PARSERS = {
    "ltl": lambda text: parse_ltl(text, AB),
    "nutl": lambda text: parse_nutl(text, AB),
    "cond": lambda text: parse_condition(text, AB, {"q"}),
}

# (language, text, message, offset): empty and blank text, a character no
# token matches, trailing input, an unclosed parenthesis, an operator at the
# end, tab and newline whitespace, and '!' on a non-letter
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
    ("nutl", "!(a)", "negation is only allowed on letters, got '('", 2),
    ("nutl", "!X", "negation is only allowed on letters, got 'X'", 2),
    ("nutl", "!", "unexpected end of formula", 1),
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
