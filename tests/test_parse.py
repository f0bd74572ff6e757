"""The expression parser: its tokens against the character-by-character
tokenizer in algebra_oracle, and every error it raises, message pinned."""

import pytest

from algebra_oracle import Tokens as OracleTokens
from dglift.algebra import BaseRing, _Tokens, build_algebra, parse_element
from dglift.cli import ParseError, parse_instance
from dglift.config import EngineConfig
from dglift.scalars import RATIONALS

CONFIG = EngineConfig(field=RATIONALS, max_degree=8)

# ASCII expressions, non-ASCII letters and digits (decimal digits such as
# "٣" are digits to both isdigit and int(); "²" and "①" are isdigit but not
# decimal; "½" and "Ⅻ" are numeric but neither digits nor letters),
# underscores, and whitespace beyond the ASCII space (no-break, em and
# ideographic spaces, line and file separators; the zero-width space and
# the byte-order mark are not whitespace).
TOKEN_INPUTS = [
    "", " ", "0", "y", "2*q*X + Y^2 - 3*X*Y", "-(y+1)^3", "1/2*y", "((a))",
    "x1_2", "_", "__a_", "a_b__c", "_1", "1_", "12ab", "2q", "3 _z",
    "é", "λ1 + Жx_2", "ǅ", "ſ", "٣", "٣y", "y٣", "१२", "²", "x²", "2²x", "①",
    "½", "1½", "x½", "Ⅻ", "y Ⅻ",
    "y\u00a0+\u20031", "\u3000y", "\x1cy\x1f", "\t\n\r\x0b\x0cy", "y\u2028",
    "\u2029", "\u0085",
    "\u200by", "\ufeff", "y $ 2", "y;", "y.5", "a-b", "[y]", "y**2", "\U0001d465",
]


def tokens_or_error(cls, text):
    try:
        return cls(text).toks
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("text", TOKEN_INPUTS)
def test_tokens_are_the_character_by_character_tokens(text):
    assert tokens_or_error(_Tokens, text) == tokens_or_error(OracleTokens, text)


@pytest.fixture(scope="module")
def alg():
    return build_algebra(BaseRing("q", 2), [("X", 1, "q"), ("Y", 2, "q*X")], 0, CONFIG)


@pytest.mark.parametrize("text, allow, message", [
    ("X $ 2", None, "unexpected character '$' in expression"),
    ("X ½", None, "unexpected character '½' in expression"),
    ("X Y", None, "trailing input at 'Y'"),
    ("2q", None, "trailing input at 'q'"),
    ("Z", None, "name 'Z' not allowed here"),
    ("q*Y", ["X"], "name 'Y' not allowed here"),
    ("(X", None, "expected ), found None"),
    ("(2X)", None, "expected ), found 'X'"),
    ("1/", None, "expected int, found None"),
    ("X^Y", None, "expected int, found 'Y'"),
    ("", None, "unexpected token None"),
    ("+X", None, "unexpected token '+'"),
    ("X*)", None, "unexpected token ')'"),
])
def test_parse_element_errors(alg, text, allow, message):
    with pytest.raises(ValueError) as exc:
        parse_element(alg, text, allow_vars=allow)
    assert str(exc.value) == message


def test_parse_element_allows_the_base_generator_and_listed_names(alg):
    q, X = alg.gen("q"), alg.gen("X")
    assert parse_element(alg, "q\u3000* X", allow_vars=["X"]) == q * X


def test_cli_reports_a_bad_coefficient_expression(tmp_path):
    p = tmp_path / "bad_coefficient.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n"
                 "[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * y $\n")
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert exc.value.lineno == 8
    assert str(exc.value) == ("line 8: bad coefficient expression: "
                              "unexpected character '$' in expression")
