"""Tests for the query language: lexer, parser, compiler."""

import pytest

from repro.errors import ParseError
from repro.model import Span
from repro.catalog import Catalog
from repro.lang import compile_query, parse, tokenize
from repro.lang.ast_nodes import Binary, Call, ColumnRef, Literal, Unary


class TestLexer:
    def test_names_keywords_numbers(self):
        tokens = tokenize("select(ibm, close > 7 and not flag)")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "name" and kinds[-1] == "eof"
        texts = [t.text for t in tokens if t.kind == "keyword"]
        assert texts == ["and", "not"]

    def test_numbers(self):
        tokens = tokenize("1 2.5 100")
        assert [t.kind for t in tokens[:-1]] == ["int", "float", "int"]

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            tokenize("1.")
        with pytest.raises(ParseError):
            tokenize("1.2.3")

    def test_strings(self):
        tokens = tokenize("select(v, name == 'etna')")
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].text == "etna"

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize("'oops")

    def test_comments_skipped(self):
        tokens = tokenize("ibm # a comment\n")
        assert [t.kind for t in tokens] == ["name", "eof"]

    def test_unknown_char(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("ibm @ hp")

    def test_line_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_two_char_symbols(self):
        tokens = tokenize(">= <= == !=")
        assert [t.text for t in tokens[:-1]] == [">=", "<=", "==", "!="]

    def test_end_columns(self):
        tokens = tokenize("select >= 'etna' 2.5")
        assert [(t.column, t.end_column) for t in tokens[:-1]] == [
            (1, 7),   # select
            (8, 10),  # >=
            (11, 17), # 'etna' spans both quotes
            (18, 21), # 2.5
        ]

    def test_eof_position(self):
        tokens = tokenize("ab\ncd")
        eof = tokens[-1]
        assert eof.kind == "eof"
        assert (eof.line, eof.column) == (2, 3)
        assert eof.pos.end_column == eof.pos.column  # zero-width

    def test_column_tracking_after_comment(self):
        # Regression: comment skipping used to not advance the column,
        # misplacing every token reported after a same-line comment.
        tokens = tokenize("ibm # trailing comment")
        eof = tokens[-1]
        assert (eof.line, eof.column) == (1, 23)

    def test_lexer_error_has_position_and_caret(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("ibm @ hp")
        error = excinfo.value
        assert (error.line, error.column) == (1, 5)
        assert "^" in error.excerpt
        assert "ibm @ hp" in str(error)


class TestParser:
    def test_precedence(self):
        ast = parse("a + b * c > d and e or not f")
        # ((((a + (b*c)) > d) and e) or (not f))
        assert isinstance(ast, Binary) and ast.op == "or"
        assert isinstance(ast.right, Unary) and ast.right.op == "not"
        left = ast.left
        assert isinstance(left, Binary) and left.op == "and"
        cmp = left.left
        assert isinstance(cmp, Binary) and cmp.op == ">"
        add = cmp.left
        assert isinstance(add, Binary) and add.op == "+"
        assert isinstance(add.right, Binary) and add.right.op == "*"

    def test_parentheses(self):
        ast = parse("(a + b) * c")
        assert isinstance(ast, Binary) and ast.op == "*"
        assert isinstance(ast.left, Binary) and ast.left.op == "+"

    def test_unary_minus(self):
        ast = parse("-3")
        assert isinstance(ast, Unary) and ast.op == "-"

    def test_call_with_aliases(self):
        ast = parse("compose(v as a, previous(e) as b, x > 1)")
        assert isinstance(ast, Call)
        assert ast.aliases == ("a", "b", None)
        assert isinstance(ast.args[1], Call) and ast.args[1].func == "previous"

    def test_empty_call(self):
        ast = parse("f()")
        assert isinstance(ast, Call) and ast.args == ()

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("ibm hp")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse("select(ibm, x > 1")

    def test_missing_alias_name(self):
        with pytest.raises(ParseError, match="alias"):
            parse("compose(a as , b)")

    def test_booleans(self):
        ast = parse("true and false")
        assert isinstance(ast.left, Literal) and ast.left.value is True

    def test_node_positions(self):
        ast = parse("select(ibm, close > 7.0)")
        assert (ast.pos.line, ast.pos.column) == (1, 1)
        cmp = ast.args[1]
        assert (cmp.pos.line, cmp.pos.column) == (1, 19)  # the '>' token
        assert (cmp.left.pos.line, cmp.left.pos.column) == (1, 13)
        assert cmp.left.pos.end_column == 18
        assert (cmp.right.pos.line, cmp.right.pos.column) == (1, 21)

    def test_alias_positions(self):
        ast = parse("compose(v as a, e as bee)")
        positions = ast.alias_positions
        assert (positions[0].column, positions[0].end_column) == (14, 15)
        assert (positions[1].column, positions[1].end_column) == (22, 25)

    def test_parse_error_has_caret_excerpt(self):
        with pytest.raises(ParseError) as excinfo:
            parse("select(ibm close)")
        error = excinfo.value
        assert (error.line, error.column) == (1, 12)
        assert "select(ibm close)" in str(error)
        assert "^^^^^" in str(error)  # caret under `close`

    def test_parse_error_at_end_of_input(self):
        with pytest.raises(ParseError, match="end of input") as excinfo:
            parse("select(ibm, x > 1")
        assert excinfo.value.column == 18

    def test_multiline_positions(self):
        ast = parse("select(\n  ibm,\n  close > 7.0)")
        assert ast.pos.line == 1
        assert ast.args[0].pos.line == 2
        assert ast.args[1].pos.line == 3


class TestCompiler:
    def env(self, table1):
        _catalog, sequences = table1
        return sequences

    def test_full_pipeline(self, table1):
        catalog, _sequences = table1
        query = compile_query(
            "project(select(compose(ibm as i, hp as h), i_close > h_close), i_close)",
            catalog,
        )
        assert query.schema.names == ("i_close",)
        naive = query.run_naive()
        assert query.run(catalog=catalog).to_pairs() == naive.to_pairs()

    def test_all_operators_compile(self, table1):
        catalog, _ = table1
        sources = [
            "select(ibm, close > 100.0)",
            "project(ibm, close, volume)",
            "shift(ibm, -3)",
            "shift(ibm, 3)",
            "previous(ibm)",
            "next(ibm)",
            "voffset(ibm, -2)",
            "window(ibm, avg, close, 6)",
            "window(ibm, sum, close, 6, ma)",
            "cumulative(ibm, max, close)",
            "global_agg(ibm, min, close)",
            "compose(ibm as a, dec as b)",
            "compose(ibm as a, dec as b, a_close > b_close)",
        ]
        for source in sources:
            query = compile_query(source, catalog)
            output = query.run(span=Span(200, 320), catalog=catalog)
            expected = query.run_naive(Span(200, 320))
            assert output.to_pairs() == expected.to_pairs(), source

    def test_dict_env(self, table1):
        _catalog, sequences = table1
        query = compile_query("select(ibm, close > 100.0)", dict(sequences))
        assert len(query.run_naive()) > 0

    def test_unknown_sequence(self, table1):
        catalog, _ = table1
        with pytest.raises(ParseError, match="unknown sequence"):
            compile_query("select(msft, close > 1.0)", catalog)

    def test_unknown_operator(self, table1):
        catalog, _ = table1
        with pytest.raises(ParseError, match="unknown operator"):
            compile_query("frobnicate(ibm)", catalog)

    def test_arity_errors(self, table1):
        catalog, _ = table1
        with pytest.raises(ParseError, match="arguments"):
            compile_query("select(ibm)", catalog)
        with pytest.raises(ParseError, match="arguments"):
            compile_query("previous(ibm, 2)", catalog)

    def test_bad_aggregate(self, table1):
        catalog, _ = table1
        with pytest.raises(ParseError, match="unknown aggregate"):
            compile_query("window(ibm, median, close, 3)", catalog)

    def test_operator_inside_predicate_rejected(self, table1):
        catalog, _ = table1
        with pytest.raises(ParseError, match="predicate"):
            compile_query("select(ibm, previous(ibm) > 1)", catalog)

    def test_expected_int(self, table1):
        catalog, _ = table1
        with pytest.raises(ParseError, match="integer"):
            compile_query("shift(ibm, close)", catalog)

    def test_negative_offsets_parse(self, table1):
        catalog, _ = table1
        query = compile_query("voffset(ibm, -1)", catalog)
        assert query.schema.names == ("open", "close", "high", "low", "volume")

    def test_unary_minus_and_arith_in_predicate(self, table1):
        catalog, _ = table1
        query = compile_query("select(ibm, close - open > -1000.0)", catalog)
        assert len(query.run_naive()) > 0

    def test_window_missing_width_rejected(self, table1):
        # Regression: the shared aggregate arity check used to admit a
        # 3-argument window(), which then crashed on the missing width.
        catalog, _ = table1
        with pytest.raises(ParseError, match="arguments"):
            compile_query("window(ibm, avg, close)", catalog)
