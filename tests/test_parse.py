"""The expression parser: its tokens against the character-by-character
tokenizer in algebra_oracle, and every error it raises, message pinned."""

import gc
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import Tokens as OracleTokens
from dglift.algebra import POWER_COEFF_BITS, BaseRing, _Tokens, build_algebra, parse_element
from dglift.cli import ParseError, _parse_module_expr, main, parse_instance
from dglift.config import EngineConfig
from dglift.scalars import DEFAULT_PRIME, RATIONALS, field_from_spec

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
    ("(X", None, "expected ), found the end of the line"),
    ("(2X)", None, "expected ), found 'X'"),
    ("1/", None, "expected int, found the end of the line"),
    ("X^Y", None, "expected int, found 'Y'"),
    ("", None, "expected a term, found the end of the line"),
    ("+X", None, "unexpected token '+'"),
    ("X*)", None, "unexpected token ')'"),
])
def test_parse_element_errors(alg, text, allow, message):
    with pytest.raises(ValueError) as exc:
        parse_element(alg, text, allow_vars=allow)
    assert str(exc.value) == message


# ----- the name rule -----------------------------------------------------------

# ASCII word characters, and one each of a combining mark, a superscript
# digit, a vulgar fraction, a letter number and a middle dot: the tokens
# read "x²" and "x½" as names, while "ि", "Ⅻ" and "·" are identifier
# characters to str.isidentifier that no name token holds.
NAME_CHARS = string.ascii_letters + string.digits + "_" + "\u093f²½Ⅻ·"


def one_name_token(text):
    """The name rule, read off the character-by-character tokenizer."""
    return tokens_or_error(OracleTokens, text) == [("name", text)]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=NAME_CHARS, max_size=4))
def test_a_declared_variable_can_be_written_exactly_when_it_is_a_name(tmp_path_factory, name):
    """A variable declared under any string, then written in a d line:
    the file parses exactly when the string is one name token, and
    otherwise the declaration is the syntax error, not the d line."""
    p = tmp_path_factory.mktemp("names") / "name.dg"
    p.write_text(f"[base]\nring = k\n[algebra]\nvar {name} : 1 = 0\n[module N]\n"
                 f"gen e0 : 0\ngen e1 : 2\nd e1 = e0 * {name}\n")
    if one_name_token(name):
        M = parse_instance(str(p), CONFIG).modules["N"]
        assert M.diff == {(0, 1): M.algebra.gen(name)}
    else:
        with pytest.raises(ParseError) as exc:
            parse_instance(str(p), CONFIG)
        assert str(exc.value) == f"line 4: variable name {name!r} is not an identifier"


@pytest.mark.parametrize("text, lineno, message", [
    ("[base]\nring = k[{0}]/({0}^2)\n[algebra]\nvar y : 1 = {0}\n[module N]\ngen e0 : 0\n",
     2, "cannot parse base ring 'k[{0}]/({0}^2)' (expected k or k[a]/(a^m))"),
    ("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n[module N]\ngen {0} : 0\ngen e1 : 2\n"
     "d e1 = {0} * y\n", 6, "generator name '{0}' is not an identifier"),
    ("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n[module {0}]\ngen e0 : 0\n",
     5, "module name '{0}' is not an identifier"),
], ids=["ring", "generator", "module"])
@pytest.mark.parametrize("name", ["x²", "x\u093f", "Ⅻ", "x·y"])
def test_every_declared_name_follows_the_name_rule(tmp_path, text, lineno, message, name):
    """A ring generator, a generator and a module follow the variables'
    rule: "x²" is declared and written, and each string that is no name
    token is refused at its declaration."""
    p = tmp_path / "name.dg"
    p.write_text(text.format(name))
    if name == "x²":
        parse_instance(str(p), CONFIG)
        return
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert (exc.value.lineno, str(exc.value)) == (lineno, f"line {lineno}: "
                                                  + message.format(name))


@pytest.mark.parametrize("text, bad", [
    ("Y^²", "²"), ("1/²", "²"), ("²", "²"), ("Y^2²", "²"), ("①*X", "①")])
def test_an_int_is_a_run_of_decimal_digits(alg, text, bad):
    """A digit that int() does not read, such as "²" or "①", is a character
    the grammar refuses, not an int; a decimal digit of any script is one."""
    with pytest.raises(ValueError) as exc:
        parse_element(alg, text)
    assert str(exc.value) == f"unexpected character {bad!r} in expression"
    assert parse_element(alg, "Y^٣ + ٣/2*q") == parse_element(alg, "Y^3 + 3/2*q")


@pytest.mark.parametrize("lines, lineno, message", [
    ("var z : 2 = y^²\n", 5, "d(z): unexpected character '²' in expression"),
    ("[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * y^²\n", 8,
     "bad coefficient expression: unexpected character '²' in expression"),
], ids=["variable-line", "module-line"])
def test_a_non_decimal_digit_is_a_syntax_error_at_its_line(tmp_path, capsys, lines, lineno,
                                                           message):
    p = tmp_path / "superscript.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n" + lines)
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert (exc.value.lineno, str(exc.value)) == (lineno, f"line {lineno}: {message}")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"syntax error: line {lineno}: {message}\n"


@pytest.mark.parametrize("lines, lineno, message", [
    ("[algebra]\nvar y : 1_0 = 0\n", 4, "expected: var NAME : DEGREE = EXPR"),
    ("[algebra]\nvar y : 1 = 0\n[module N]\ngen e0 : +0\n", 6, "expected: gen NAME : DEGREE"),
    ("[algebra]\nvar y : 1 = 0\n[module N]\ngen e0 : 0\n[limits]\nmax_degree = 1_2\n", 8,
     "max_degree must be an integer"),
    ("[algebra]\nA = +0\nvar y : 1 = 0\n", 4, "A must be an integer prefix length"),
    ("[algebra]\nvar y : 1 = 0\nvar z : 2 = y^1_0\n", 5, "d(z): trailing input at '_0'"),
], ids=["var-degree-underscore", "gen-degree-plus", "limit-underscore", "A-plus",
        "power-underscore"])
def test_an_integer_is_written_as_the_grammar_writes_one(tmp_path, capsys, lines, lineno,
                                                         message):
    """A degree, A or a limit is an optional '-' and a run of decimal digits,
    the int of the expression grammar, which refuses y^1_0: '1_0' and '+0',
    which int() would take as 10 and 0, are syntax errors at their line."""
    p = tmp_path / "integer.dg"
    p.write_text("[base]\nring = k\n" + lines)
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert (exc.value.lineno, str(exc.value)) == (lineno, f"line {lineno}: {message}")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"syntax error: line {lineno}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("X*", "expected a term, found the end of the line"),
    ("-", "expected a term, found the end of the line"),
    ("X^", "expected int, found the end of the line"),
], ids=["dangling-star", "sign-only", "dangling-caret"])
def test_the_end_of_an_expression_is_named(alg, text, message):
    with pytest.raises(ValueError) as exc:
        parse_element(alg, text)
    assert str(exc.value) == message


def test_an_empty_variable_differential_names_the_end_of_the_line(tmp_path):
    p = tmp_path / "empty.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 =\n[module N]\ngen e0 : 0\n")
    assert main(["check", str(p)]) == 2
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert str(exc.value) == "line 4: d(y): expected a term, found the end of the line"


def test_parse_element_allows_the_base_generator_and_listed_names(alg):
    q, X = alg.gen("q"), alg.gen("X")
    assert parse_element(alg, "q\u3000* X", allow_vars=["X"]) == q * X


def test_parse_element_leaves_no_reference_cycle(alg):
    """A parse is freed by reference counting alone: with the collector
    off, a collection right after parsing a nested expression finds no
    object of it."""
    text = "-(2*q*X + (Y^2 - 1/2*X*Y))*(1 + q)^2"
    want = parse_element(alg, text)
    gc.collect()
    gc.disable()
    try:
        got = parse_element(alg, text)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert got == want


def test_cli_reports_a_bad_coefficient_expression(tmp_path):
    p = tmp_path / "bad_coefficient.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n"
                 "[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * y $\n")
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert exc.value.lineno == 8
    assert str(exc.value) == ("line 8: bad coefficient expression: "
                              "unexpected character '$' in expression")


@pytest.mark.parametrize("spec, lines, lineno, message", [
    ("Q", "[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * 1/0\n", 8,
     "bad coefficient expression: coefficient 1/0 has a zero denominator in Q"),
    ("Q", "var z : 2 = 1/0 * y\n", 5, "d(z): coefficient 1/0 has a zero denominator in Q"),
    ("Fp", f"[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * 1/{DEFAULT_PRIME}\n", 8,
     f"bad coefficient expression: coefficient 1/{DEFAULT_PRIME} has a zero "
     f"denominator in Fp:{DEFAULT_PRIME}"),
], ids=["module-line", "variable-line", "Fp-module-line"])
def test_a_zero_denominator_is_a_syntax_error_at_its_line(tmp_path, capsys, spec, lines,
                                                          lineno, message):
    """1/0, or 1/p on F_p, is a syntax error at its line naming the
    coefficient and the field, on a module line and on a variable line:
    the CLI exits 2 with no traceback."""
    p = tmp_path / "zero_denominator.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n" + lines)
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), EngineConfig(field=field_from_spec(spec), max_degree=8))
    assert exc.value.lineno == lineno
    assert str(exc.value) == f"line {lineno}: {message}"
    assert main(["check", str(p), "--field", spec]) == 2
    assert capsys.readouterr().err == f"syntax error: line {lineno}: {message}\n"


def test_a_power_stops_at_its_first_zero_product():
    """Square-and-multiply stops once a product is zero: y^1000000000 on an
    exterior algebra is 0 after one squaring, and q^3 is 0 over k[q]/(q^2)."""
    ext = build_algebra(BaseRing(), [("y", 1, "0")], 0, CONFIG)
    start = time.perf_counter()
    assert parse_element(ext, "y^1000000000").is_zero()
    assert time.perf_counter() - start < 0.1
    tate = build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0, CONFIG)
    assert parse_element(tate, "q^3").is_zero()
    assert parse_element(tate, "(1 + q)^5") == parse_element(tate, "1 + 5*q")
    assert parse_element(tate, "(1 + X)^0") == tate.one()


def test_a_power_past_the_degree_cap_is_a_syntax_error_at_its_line(tmp_path, capsys):
    """(1 + x)^1000000000 with x even has terms of every even degree: the
    first product with a term past max_degree is refused, naming the cap,
    and the CLI exits 2 at the line of the power."""
    poly = build_algebra(BaseRing(), [("x", 2, "0")], 0, CONFIG)
    assert parse_element(poly, "(1 + x)^4") == parse_element(
        poly, "1 + 4*x + 6*x^2 + 4*x^3 + x^4")
    message = ("bad coefficient expression: a power of 1 + x has a term of degree 16, "
               "past the degree cap max_degree = 8")
    p = tmp_path / "power_past_cap.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar x : 2 = 0\n"
                 "[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * (1 + x)^1000000000\n")
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert str(exc.value) == f"line 8: {message}"
    assert main(["check", str(p), "--max-degree", "8"]) == 2
    assert capsys.readouterr().err == f"syntax error: line 8: {message}\n"


def test_a_power_with_a_coefficient_past_the_bound_is_refused(tmp_path, capsys):
    """Over Q a power of a scalar has no degree to stop it: the first
    product with a coefficient of more than POWER_COEFF_BITS bits is refused
    at once, naming the bound, and an instance file gets a syntax error at
    the line of the power.  2^64 and (1 + q)^1000 over k[q]/(q^2) parse, and
    on F_p, whose values stay reduced, 2^100000000 parses as before."""
    ext = build_algebra(BaseRing(), [("y", 1, "0")], 0, CONFIG)
    message = (f"a power of 2 has a coefficient of 4098 bits, past the bound of "
               f"{POWER_COEFF_BITS} bits")
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        parse_element(ext, "2^100000000")
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == message
    assert parse_element(ext, "2^64") == ext.one().scale(2 ** 64)
    tate = build_algebra(BaseRing("q", 2), [("X", 1, "q")], 0, CONFIG)
    assert parse_element(tate, "(1 + q)^1000") == parse_element(tate, "1 + 1000*q")
    fp = build_algebra(BaseRing(), [("y", 1, "0")], 0,
                       EngineConfig(field=field_from_spec("Fp"), max_degree=8))
    assert parse_element(fp, "2^100000000") == fp.one().scale(pow(2, 100000000, DEFAULT_PRIME))
    p = tmp_path / "power_past_bound.dg"
    p.write_text("[base]\nring = k\n[algebra]\nvar y : 1 = 0\n"
                 "[module N]\ngen e0 : 0\ngen e1 : 2\nd e1 = e0 * 2^100000000 * y\n")
    with pytest.raises(ParseError) as exc:
        parse_instance(str(p), CONFIG)
    assert str(exc.value) == f"line 8: bad coefficient expression: {message}"
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err == f"syntax error: line 8: bad coefficient expression: {message}\n"


# ----- module differentials ---------------------------------------------------

# powers only here, so that no product passes the degree cap
ATOMS = st.sampled_from(["y", "z", "q", "2", "1/2", " 3 ", "z^2", "(1 + q)^3"])


def _combine(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["*", " * ", "* "]), inner).map("".join),
        st.tuples(inner, st.sampled_from([" + ", "-", " - "]), inner).map(
            lambda t: "(" + "".join(t) + ")"),
        st.tuples(st.sampled_from(["-", "- "]), inner).map(lambda t: "( " + "".join(t) + ")"))


# a signed term of the algebra's grammar: a top-level sum is parenthesized
COEFFICIENTS = st.tuples(st.sampled_from(["", "-", "- "]),
                         st.recursive(ATOMS, _combine, max_leaves=4)).map("".join)
TERMS = st.tuples(st.sampled_from(["e0", "e1", "0"]),
                  st.sampled_from(["*", " * ", " *"]),
                  st.one_of(st.none(), COEFFICIENTS))
FIRST_SIGNS = ["", " ", "-", "+ ", "- -"]
LATER_SIGNS = ["+", "-", " + ", " - ", " + -", "--"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(LATER_SIGNS), TERMS), min_size=1, max_size=4),
       st.sampled_from(FIRST_SIGNS))
def test_a_module_differential_is_the_sum_of_its_signed_coefficients(terms, first):
    """A right-hand side of random signed terms, GEN [* coefficient] or 0,
    the coefficients with spaces, parentheses and *- : it parses to the sum,
    per generator, of parse_element of each coefficient times the term's
    sign (signs in a row multiply), in the order the generators first
    appear, and without the generators whose sum is zero."""
    alg = build_algebra(BaseRing("q", 3), [("y", 1, "0"), ("z", 2, "0")], 0, CONFIG)
    text, want = "", {}
    for k, (sign, (head, star, coefficient)) in enumerate(terms):
        sign = first if k == 0 else sign
        text += sign + head
        if head != "0" and coefficient is not None:
            text += star + coefficient
        if head == "0":
            continue
        el = parse_element(alg, coefficient if coefficient is not None else "1")
        el = el.neg() if sign.count("-") % 2 else el
        want[head] = want[head] + el if head in want else el
    got = _parse_module_expr(alg, ["e0", "e1"], text, 1)
    assert [(g, el.terms) for g, el in got.items()] == \
        [(g, el.terms) for g, el in want.items() if not el.is_zero()]
