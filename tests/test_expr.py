import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.expr import (
    Aggregate,
    Arith,
    Compare,
    Connective,
    MAX_DEPTH,
    MAX_OPERATORS,
    EvalContext,
    EvalError,
    ExprError,
    ExprSyntaxError,
    If,
    Not,
    Num,
    ParamRef,
    PropRef,
    Sort,
    SortError,
    Text,
    evaluate,
    expr_equal,
    infer_sort,
    normalize,
    parse,
    print_expr,
)

from oodn.model import Method

from .helpers import obj, qprop, qual
from .strategies import expressions


class TestParse:
    def test_number(self):
        assert parse("42") == Num(42.0)
        assert parse("2.5e3") == Num(2500.0)

    def test_negative_literal(self):
        assert parse("-7") == Num(-7.0)

    def test_string(self):
        assert parse('"cm"').value == "cm"

    def test_propref(self):
        assert parse("self.side_sizes.values") == PropRef("side_sizes", "values")
        assert parse("self.p.units") == PropRef("p", "units")

    def test_paramref(self):
        assert parse("d1") == ParamRef("d1")

    def test_precedence(self):
        e = parse("1 + 2 * 3")
        assert e == Arith("+", Num(1.0), Arith("*", Num(2.0), Num(3.0)))

    def test_left_associative(self):
        assert parse("8 - 2 - 1") == Arith("-", Arith("-", Num(8.0), Num(2.0)), Num(1.0))

    def test_connectives_bind_looser_than_comparison(self):
        e = parse("x > 0 and y > 0")
        assert isinstance(e, Connective)
        assert isinstance(e.left, Compare)

    def test_not_and_if(self):
        e = parse("if not (x > 0) then 1 else 0")
        assert isinstance(e, If)
        assert isinstance(e.condition, Not)

    def test_aggregate(self):
        e = parse("all_equal(self.angles.values)")
        assert e == Aggregate("all_equal", PropRef("angles", "values"))

    def test_unary_minus_on_expression(self):
        assert parse("-x") == Arith("-", Num(0.0), ParamRef("x"))

    def test_trailing_operator_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("self.p1.value == 4 and")

    def test_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + %")
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_unknown_accessor(self):
        with pytest.raises(ExprSyntaxError):
            parse("self.p.size")

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("median(self.p.values)")

    def test_keyword_not_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("then + 1")

    def test_aggregate_arity(self):
        with pytest.raises(ExprSyntaxError):
            parse("sum(x, y)")

    @pytest.mark.parametrize(
        "source", ["1" + "0" * 400, "1e400", "-1e400"], ids=["digits", "exp", "neg"]
    )
    def test_non_finite_literal_rejected(self, source):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse(f"x * {source}")

    @pytest.mark.parametrize(
        "source",
        [
            "(" * 3000 + "x" + ")" * 3000,
            "not " * 3000 + "x",
            "-" * 3000 + "x",
            "if 1 > 0 then " * 3000 + "x" + " else 0" * 3000,
            "sum(" * 3000 + "self.p.values" + ")" * 3000,
        ],
        ids=["parens", "not", "minus", "if", "aggregate"],
    )
    def test_nesting_limit(self, source):
        with pytest.raises(ExprSyntaxError, match=f"nested more than {MAX_DEPTH} levels"):
            parse(source)

    def test_operator_limit(self):
        assert parse(" + ".join(["x"] * (MAX_OPERATORS + 1)))
        with pytest.raises(ExprSyntaxError, match=f"more than {MAX_OPERATORS} operators"):
            parse(" * ".join(["x"] * (MAX_OPERATORS + 2)))

    # The whole expression is level 1.  Printing writes `-e` as `0 - e`
    # and drops parentheses, and the printed text must parse again.
    @pytest.mark.parametrize(
        "source",
        [
            "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
            "-" * (MAX_DEPTH - 1) + "x",
            "not " * (MAX_DEPTH - 2) + "(x > 0)",
            "if x > 0 then " * (MAX_DEPTH - 1) + "x" + " else 0" * (MAX_DEPTH - 1),
            "if " * (MAX_DEPTH - 1) + "x > 0" + " then 1 else 0" * (MAX_DEPTH - 1),
            "x + (" * (MAX_DEPTH - 1) + " - ".join(["x"] * 66) + ")" * (MAX_DEPTH - 1),
        ],
        ids=["parens", "minus", "not", "if-then", "if-condition", "tallest"],
    )
    def test_deepest_accepted_trees(self, source):
        e = parse(source)
        assert parse(print_expr(e)) == e
        # The recursive tree walkers handle every tree the parser returns.
        assert print_expr(normalize(e)) and hash(e) is not None
        assert infer_sort(e) in (Sort.NUMBER, Sort.DEGREE)
        value = evaluate(e, EvalContext(subject=obj("o", qprop("p", value=1.0)), arguments={"x": 1.0}))
        assert math.isfinite(value)


class TestErrorPosition:
    """Syntax errors name the 1-based line and column of the offending token."""

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("x +\n  y *\n  3 @ 4", "unexpected character '@'", 3, 5),
            ('"ab\ncd" == @', "unexpected character '@'", 2, 8),
            ('"ab\ncd" ==\n  )', "expected an expression, got ')'", 3, 3),
            ("x +\n", "expected an expression, got end of input", 2, 1),
            ("x +\n  median(self.p.values)", "unknown function 'median'", 2, 3),
            ("self.p\n  .size", "unknown property accessor 'size'", 2, 4),
            ("sum(self.p.values\n, y)", "sum takes exactly one argument", 2, 1),
            ("x *\n 1e400", "number out of range", 2, 2),
            # The 64th "(" opens level 65 at the "x" after it.
            ("(\n" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "nested more than 64 levels", 65, 1),
            # Line k holds the k-th "+".
            ("x" + " +\n x" * (MAX_OPERATORS + 1), "more than 128 operators", 129, 4),
        ],
        ids=[
            "character", "after-string", "token-after-string", "end", "function",
            "accessor", "arity", "range", "depth", "operators",
        ],
    )
    def test_multi_line(self, source, message, line, column):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(source)
        assert message in str(exc.value)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).endswith(f"(line {line}, column {column})")

    def test_first_bad_character_wins(self):
        # Lexing errors come before parse errors that stand earlier.
        with pytest.raises(ExprSyntaxError, match=r"unexpected character '#' \(line 2, column 3\)"):
            parse(") +\n  # @")


class TestParseRobustness:
    """Any text either fails with ExprSyntaxError or parses to a tree that
    prints and parses back to itself."""

    @staticmethod
    def _check(source):
        try:
            tree = parse(source)
        except ExprSyntaxError:
            return
        assert parse(print_expr(tree)) == tree

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, source):
        self._check(source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='x1.05e()+-*/<=>!"\\\n\t sumaxndortheflifv'))
    def test_grammar_characters(self, source):
        self._check(source)


class TestNum:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ExprError, match="not finite"):
            Num(value)

    def test_method_body_through_the_api(self):
        with pytest.raises(ExprError, match="not finite"):
            Method("f", ("x",), Arith("*", ParamRef("x"), Num(math.inf)))

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, value):
        with pytest.raises(ExprError, match="a bool is not a number"):
            Num(value)


class TestPrint:
    def test_minimal_parentheses(self):
        assert print_expr(parse("1 + 2 * 3")) == "1 + 2 * 3"
        assert print_expr(parse("(1 + 2) * 3")) == "(1 + 2) * 3"

    def test_subtraction_grouping(self):
        assert print_expr(parse("8 - (2 - 1)")) == "8 - (2 - 1)"
        assert print_expr(parse("8 - 2 - 1")) == "8 - 2 - 1"

    def test_integral_floats_print_bare(self):
        assert print_expr(Num(4.0)) == "4"
        assert print_expr(Num(0.5)) == "0.5"

    def test_string_escaping(self):
        e = parse('"a\\"b"')
        assert parse(print_expr(e)) == e

    def test_string_escapes_in_one_pass(self):
        assert parse(r'"\\ \" \n \t"') == Text('\\ " \n \t')
        # An escaped backslash does not start another escape; other
        # escapes stay as written.
        assert parse(r'"\\n \q"') == Text("\\n \\q")

    def test_string_with_nul(self):
        e = Text("a\x00b")
        assert parse('"a\x00b"') == e
        assert parse(print_expr(e)) == e

    @settings(max_examples=200)
    @given(expressions())
    def test_round_trip(self, e):
        assert parse(print_expr(e)) == e


class TestNormalize:
    def test_commutative_sort(self):
        assert normalize(parse("b + a")) == normalize(parse("a + b"))
        assert normalize(parse("y and x")) == normalize(parse("x and y"))
        assert normalize(parse("x == y")) == normalize(parse("y == x"))

    def test_non_commutative_kept(self):
        assert normalize(parse("a - b")) != normalize(parse("b - a"))
        assert normalize(parse("a / b")) != normalize(parse("b / a"))

    def test_constant_folding(self):
        assert normalize(parse("2 * 3")) == Num(6.0)
        assert normalize(parse("1 + 2 * 3")) == Num(7.0)
        assert normalize(parse("4 > 3")) == Num(1.0)
        assert normalize(parse("not 1")) == Num(0.0)
        assert normalize(parse("if 1 > 0 then x else y")) == ParamRef("x")
        # An operator over literals folds exactly when it evaluates to a
        # finite number; otherwise it stays symbolic, operands sorted.
        for source, normal_form in [
            ("not 5", "not 5"),
            ("not 0.25", "0.75"),
            ("0.5 and 2", "0.5 and 2"),
            ("0.5 or 0.25", "0.5"),
            ('"a" < "b"', '"a" < "b"'),
            ('"a" == "a"', "1"),
            ('"b" != "a"', "1"),
            ('1 + "a"', '1 + "a"'),
            ('1 == "a"', '1 == "a"'),
            ("if 5 then x else y", "x"),
            ("1e308 * 10", "10 * 1e+308"),
            ("not (not 0.3)", "0.30000000000000004"),
        ]:
            assert print_expr(normalize(parse(source))) == normal_form, source

    def test_division_by_zero_stays_symbolic(self):
        e = normalize(parse("1 / 0"))
        assert e == Arith("/", Num(1.0), Num(0.0))

    @pytest.mark.parametrize("source", ["1e308 * 10", "1e308 + 1e308", "1e308 / 0.1"])
    def test_overflow_stays_symbolic(self, source):
        e = normalize(parse(source))
        assert isinstance(e, Arith)
        assert parse(print_expr(e)) == e

    def test_double_negation(self):
        assert normalize(parse("not (not (x > 0))")) == normalize(parse("x > 0"))

    @settings(max_examples=200)
    @given(expressions())
    def test_idempotent(self, e):
        once = normalize(e)
        assert normalize(once) == once

    @settings(max_examples=200)
    @given(expressions())
    def test_semantics_preserved(self, e):
        subject = obj(
            "o",
            qprop("p1", "cm", [2, 2, 2, 2]),
            qprop("p2", "deg", 3.0),
            qprop("side_sizes", "cm", [3, 4, 5]),
        )
        ctx = EvalContext(
            subject=subject,
            arguments={"x": 2.0, "y": 0.5, "width": 3.0, "height": 4.0, "d1": 1.0},
        )
        try:
            before = evaluate(e, ctx)
        except EvalError:
            return  # e.g. division by zero: must still fail after normalizing
        after = evaluate(normalize(e), ctx)
        if isinstance(before, float) and isinstance(after, float):
            assert math.isclose(before, after, rel_tol=1e-12, abs_tol=1e-12)
        else:
            assert before == after


class TestExprEqual:
    def test_reflexive_symmetric(self):
        a, b = parse("a + b"), parse("b + a")
        assert expr_equal(a, a)
        assert expr_equal(a, b) and expr_equal(b, a)

    def test_transitive(self):
        a = parse("a + (2 * 3)")
        b = parse("a + 6")
        c = parse("6 + a")
        assert expr_equal(a, b) and expr_equal(b, c) and expr_equal(a, c)

    def test_different_formulas_differ(self):
        assert not expr_equal(parse("d1 * d2 / 2"), parse("a * a"))

    def test_whitespace_and_parens_irrelevant(self):
        assert expr_equal(parse("( a+b )"), parse("a   +   b"))


class TestSorts:
    def test_literals(self):
        assert infer_sort(Num(0.5)) is Sort.DEGREE
        assert infer_sort(Num(7.0)) is Sort.NUMBER
        assert infer_sort(parse('"cm"')) is Sort.TEXT

    def test_refs(self):
        assert infer_sort(parse("self.p.values")) is Sort.NUMBER_LIST
        assert infer_sort(parse("self.p.units")) is Sort.TEXT
        assert infer_sort(parse("self.p.value")) is Sort.NUMBER

    def test_compare_and_connective(self):
        assert infer_sort(parse("x > 0 and y > 0")) is Sort.DEGREE
        assert infer_sort(parse("all_equal(self.p.values)")) is Sort.DEGREE

    def test_text_ordering_rejected(self):
        with pytest.raises(SortError):
            infer_sort(parse('"a" < "b"'))

    def test_literal_outside_unit_interval_not_a_degree(self):
        with pytest.raises(SortError):
            infer_sort(parse("2 and x > 0"))

    def test_aggregate_needs_list(self):
        with pytest.raises(SortError):
            infer_sort(parse("sum(x)"))


class TestEvaluate:
    def _square(self):
        return obj(
            "sq",
            qprop("side_sizes", "cm", [2, 2, 2, 2]),
            qprop("n", "count", 12.0),
        )

    def test_all_equal_true(self):
        e = parse("all_equal(self.side_sizes.values)")
        assert evaluate(e, EvalContext(subject=self._square())) == 1.0

    def test_all_equal_false(self):
        subject = obj("r", qprop("angle_measures", "deg", [70, 110, 70, 110]))
        e = parse("all_equal(self.angle_measures.values)")
        assert evaluate(e, EvalContext(subject=subject)) == 0.0

    def test_comparison_degrees(self):
        ctx = EvalContext(subject=self._square())
        assert evaluate(parse("self.n.value > 0"), ctx) == 1.0
        ctx2 = EvalContext(subject=obj("o", qprop("n", "count", -1.0)))
        assert evaluate(parse("self.n.value > 0"), ctx2) == 0.0

    def test_fuzzy_connectives(self):
        ctx = EvalContext(arguments={"a": 0.3, "b": 0.8})
        assert evaluate(parse("a and b"), ctx) == 0.3
        assert evaluate(parse("a or b"), ctx) == 0.8
        assert evaluate(parse("not a"), ctx) == pytest.approx(0.7)

    def test_method_body_with_arguments(self):
        result = evaluate(parse("d1 * d2 / 2"), EvalContext(arguments={"d1": 4, "d2": 6}))
        assert result == 12.0

    def test_aggregates(self):
        ctx = EvalContext(subject=self._square())
        assert evaluate(parse("sum(self.side_sizes.values)"), ctx) == 8.0
        assert evaluate(parse("min(self.side_sizes.values)"), ctx) == 2.0
        assert evaluate(parse("count(self.side_sizes.values)"), ctx) == 4.0

    def test_count_attr(self):
        ctx = EvalContext(subject=self._square())
        assert evaluate(parse("self.side_sizes.count"), ctx) == 4.0

    def test_stored_degree_via_value(self):
        subject = obj("o", qual("ok", degree=0.25))
        assert evaluate(parse("self.ok.value"), EvalContext(subject=subject)) == 0.25

    def test_if_branches(self):
        ctx = EvalContext(arguments={"x": 5.0})
        assert evaluate(parse("if x > 0 then x else 0 - x"), ctx) == 5.0
        ctx = EvalContext(arguments={"x": -5.0})
        assert evaluate(parse("if x > 0 then x else 0 - x"), ctx) == 5.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(parse("1 / (x - x)"), EvalContext(arguments={"x": 1.0}))

    def test_unresolved_parameter(self):
        with pytest.raises(EvalError, match="unresolved parameter"):
            evaluate(parse("q + 1"), EvalContext())

    def test_missing_property(self):
        with pytest.raises(EvalError, match="no property"):
            evaluate(parse("self.ghost.value"), EvalContext(subject=self._square()))

    def test_degree_out_of_range(self):
        with pytest.raises(EvalError, match="out of range"):
            evaluate(parse("x and x"), EvalContext(arguments={"x": 3.0}))

    @pytest.mark.parametrize(
        "source, message",
        [
            ("x + 1", "expected a number"),
            ("x * x", "expected a number"),
            ("x and 1", "expected a number"),
            ("not x", "expected a number"),
            ("if x then 1 else 0", "expected a number"),
            ("x == 1", "comparison needs two numbers or two texts"),
            ("1 < x", "comparison needs two numbers or two texts"),
        ],
    )
    def test_bool_argument_is_not_a_number(self, source, message):
        for value in (True, False):
            with pytest.raises(EvalError, match=message):
                evaluate(parse(source), EvalContext(arguments={"x": value}))

    def test_scalar_value_of_list_property(self):
        with pytest.raises(EvalError, match="use .values"):
            evaluate(parse("self.side_sizes.value"), EvalContext(subject=self._square()))
