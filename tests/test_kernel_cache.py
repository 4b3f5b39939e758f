"""Tests for the kernel code cache behind the expression codegen.

Generated kernel source binds its constants by name, so two predicates
of one shape lower to the same source text and share one compiled code
object.  Each compiled kernel must still answer with its own constants,
whatever was compiled after it, and a division by zero must still name
its own expression.
"""

import inspect
import re

import pytest

from repro.algebra.expressions import compile_filter, compile_rowwise, col
from repro.errors import ExpressionError
from repro.model import AtomType, Record, RecordSchema
from repro.model.bitmask import Bitmask

SCHEMA = RecordSchema.of(close=AtomType.FLOAT, volume=AtomType.INT, sym=AtomType.STR)
ROWS = [(101.5, 2000, "ibm"), (99.0, 0, "hp"), (120.0, 50, "dec"), (7.0, 150, "sun")]
COLUMNS = [list(cells) for cells in zip(*ROWS)]

LOW = col("volume") > 1
HIGH = col("volume") > 100


def oracle(expr, valid):
    return [ok and bool(expr.eval(Record(SCHEMA, row))) for ok, row in zip(valid, ROWS)]


def scalar_kernel(refine):
    """The scalar loop a ``compile_filter`` result runs on a batch."""
    return inspect.getclosurevars(refine).nonlocals["scalar"]


class TestSharedCode:
    def test_rowwise_shares_code_and_keeps_its_constants(self):
        low = compile_rowwise(LOW, SCHEMA)
        high = compile_rowwise(HIGH, SCHEMA)
        assert low.__code__ is high.__code__
        for row in ROWS:
            record = Record(SCHEMA, row)
            assert low(row) == LOW.eval(record)
            assert high(row) == HIGH.eval(record)
        assert [low(row) for row in ROWS] != [high(row) for row in ROWS]

    @pytest.mark.parametrize("packed", [False, True])
    def test_filter_shares_code_and_keeps_its_constants(self, packed):
        low = compile_filter(LOW, SCHEMA)
        high = compile_filter(HIGH, SCHEMA)
        assert scalar_kernel(low).__code__ is scalar_kernel(high).__code__
        valid = [True, True, True, False]
        mask = Bitmask.from_bools(valid) if packed else valid
        for refine, expr in ((low, LOW), (high, HIGH)):
            out = refine(COLUMNS, mask)
            assert (out.tolist() if packed else out) == oracle(expr, valid)
        assert oracle(LOW, valid) != oracle(HIGH, valid)

    def test_different_shapes_do_not_share(self):
        first = compile_rowwise(col("volume") > 1, SCHEMA)
        second = compile_rowwise(col("volume") < 1, SCHEMA)
        assert first.__code__ is not second.__code__


class TestLaterCompileDoesNotLeak:
    def test_rowwise_answers_with_the_first_constants(self):
        first = compile_rowwise(LOW, SCHEMA)
        compile_rowwise(HIGH, SCHEMA)
        assert [first(row) for row in ROWS] == [
            LOW.eval(Record(SCHEMA, row)) for row in ROWS
        ]

    def test_filter_answers_with_the_first_constants(self):
        first = compile_filter(LOW, SCHEMA)
        compile_filter(HIGH, SCHEMA)
        valid = [True] * len(ROWS)
        assert first(COLUMNS, valid) == oracle(LOW, valid)


class TestDivisionErrorNamesItsOwnExpression:
    # One shape, two divisors: each divides by zero on a different row.
    BY_2000 = col("close") / (col("volume") - 2000) > 1
    BY_50 = col("close") / (col("volume") - 50) > 1

    def test_rowwise(self):
        first = compile_rowwise(self.BY_2000, SCHEMA)
        second = compile_rowwise(self.BY_50, SCHEMA)
        assert first.__code__ is second.__code__
        with pytest.raises(ExpressionError, match=re.escape(repr(self.BY_2000.left))):
            first(ROWS[0])
        with pytest.raises(ExpressionError, match=re.escape(repr(self.BY_50.left))):
            second(ROWS[2])

    def test_filter(self):
        first = compile_filter(self.BY_2000, SCHEMA)
        second = compile_filter(self.BY_50, SCHEMA)
        assert scalar_kernel(first).__code__ is scalar_kernel(second).__code__
        with pytest.raises(ExpressionError, match=re.escape(repr(self.BY_2000.left))):
            first(COLUMNS, [True, False, False, False])
        with pytest.raises(ExpressionError, match=re.escape(repr(self.BY_50.left))):
            second(COLUMNS, [False, False, True, False])
