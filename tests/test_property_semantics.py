"""Property-based tests: the optimized engine equals the naive oracle.

Random base sequences and random operator trees are generated with
hypothesis; for every generated query the optimizer+engine answer must
be *identical* (positions and records) to the denotational reference
evaluator.  This is the library's master correctness property.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.model import AtomType, BaseSequence, Record, RecordSchema, Span
from repro.algebra import (
    Compose,
    CumulativeAggregate,
    GlobalAggregate,
    Operator,
    PositionalOffset,
    Project,
    Query,
    Select,
    SequenceLeaf,
    ValueOffset,
    WindowAggregate,
    col,
    lit,
)
from repro.execution import run_query

FUNCS = ("sum", "avg", "min", "max", "count")


@st.composite
def base_sequence(draw, name: str):
    """A small random single-FLOAT sequence with a unique attribute name."""
    schema = RecordSchema.of(**{name: AtomType.FLOAT})
    start = draw(st.integers(min_value=-10, max_value=10))
    length = draw(st.integers(min_value=1, max_value=30))
    span = Span(start, start + length - 1)
    positions = draw(
        st.sets(
            st.integers(min_value=start, max_value=start + length - 1),
            min_size=0,
            max_size=length,
        )
    )
    items = []
    for position in sorted(positions):
        value = draw(
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            )
        )
        items.append((position, Record(schema, (value,))))
    return BaseSequence(schema, items, span=span)


class _TreeBuilder:
    """Builds a random, always-type-correct operator tree."""

    def __init__(self, draw):
        self.draw = draw
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"c{self.counter}"

    def leaf(self) -> Operator:
        name = self.fresh()
        sequence = self.draw(base_sequence(name))
        return SequenceLeaf(sequence, name)

    @staticmethod
    def _span_of(node: Operator) -> Span:
        return node.infer_span([_TreeBuilder._span_of(c) for c in node.inputs])

    def build(self, depth: int) -> Operator:
        if depth <= 0:
            return self.leaf()
        choice = self.draw(st.integers(min_value=0, max_value=8))
        if choice == 0:
            return self.leaf()
        child = self.build(depth - 1)
        child_span = self._span_of(child)
        attrs = list(child.schema.names)
        attr = self.draw(st.sampled_from(attrs))
        if choice == 1:
            threshold = self.draw(st.floats(min_value=-100, max_value=100,
                                            allow_nan=False, allow_infinity=False))
            predicate = col(attr) > threshold
            if self.draw(st.booleans()):
                # A column-free conjunct, true or false: Step 5 must
                # still apply it (once) although it names no input.
                low, high = self.draw(st.integers(0, 2)), self.draw(st.integers(0, 2))
                predicate = predicate & (lit(low) < high)
            return Select(child, predicate)
        if choice == 2:
            keep = self.draw(
                st.lists(st.sampled_from(attrs), min_size=1, max_size=len(attrs),
                         unique=True)
            )
            return Project(child, keep)
        if choice == 3:
            offset = self.draw(st.integers(min_value=-4, max_value=4))
            return PositionalOffset(child, offset)
        if choice == 4:
            # Value offsets into the past/future need the child span
            # bounded below/above respectively (a documented limit:
            # e.g. previous(next(S)) has no bounded scan window).
            candidates = []
            if child_span.is_empty or child_span.start is not None:
                candidates.extend([-2, -1])
            if child_span.is_empty or child_span.end is not None:
                candidates.extend([1, 2])
            if not candidates:
                return Select(child, col(attr) > 0.0)
            offset = self.draw(st.sampled_from(candidates))
            return ValueOffset(child, offset)
        if choice == 5:
            func = self.draw(st.sampled_from(FUNCS))
            width = self.draw(st.integers(min_value=1, max_value=6))
            return WindowAggregate(child, func, attr, width, self.fresh())
        if choice == 6:
            if not child_span.is_empty and child_span.start is None:
                return Select(child, col(attr) > 0.0)
            func = self.draw(st.sampled_from(FUNCS))
            return CumulativeAggregate(child, func, attr, self.fresh())
        if choice == 7:
            if not child_span.is_bounded:
                return Select(child, col(attr) > 0.0)
            func = self.draw(st.sampled_from(FUNCS))
            return GlobalAggregate(child, func, attr, self.fresh())
        other = self.build(depth - 1)
        prefix_left, prefix_right = self.fresh(), self.fresh()
        return Compose(child, other, prefixes=(prefix_left, prefix_right))


@st.composite
def random_query(draw, max_depth: int = 3):
    builder = _TreeBuilder(draw)
    root = builder.build(max_depth)
    return Query(root)


def evaluation_span(query: Query) -> Span:
    """A bounded span to evaluate over, slightly beyond the defaults."""
    try:
        span = query.default_span()
    except Exception:
        return Span(-5, 35)
    assert span.start is not None and span.end is not None
    return Span(span.start - 3, span.end + 3)


def _constant_false_conjunct() -> Query:
    """The shrunk counterexample of a Step 5 that dropped column-free
    conjuncts: the engine returned the record the predicate rejects."""
    schema = RecordSchema.of(c1=AtomType.FLOAT)
    sequence = BaseSequence(schema, [(0, Record(schema, (1.0,)))], span=Span(0, 0))
    return Query(Select(SequenceLeaf(sequence, "c1"), (col("c1") > 0.0) & (lit(0) < 0)))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=random_query())
@example(query=_constant_false_conjunct())
def test_engine_matches_naive_oracle(query: Query):
    span = evaluation_span(query)
    expected = query.run_naive(span)
    got = run_query(query, span=span)
    assert expected.to_pairs() == got.to_pairs()
    # the engine must agree with or without Step 3 rewrites (a plan for
    # the as-written query exercises different block shapes)
    unrewritten = run_query(query, span=span, rewrite=False)
    assert expected.to_pairs() == unrewritten.to_pairs()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=random_query())
def test_rewrites_preserve_semantics(query: Query):
    from repro.optimizer import apply_rewrites

    span = evaluation_span(query)
    rewritten, _trace = apply_rewrites(query)
    assert query.run_naive(span).to_pairs() == rewritten.run_naive(span).to_pairs()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=random_query(max_depth=2), data=st.data())
def test_narrower_span_is_a_restriction(query: Query, data):
    """Evaluating over a sub-span equals restricting the full answer."""
    span = evaluation_span(query)
    assert span.start is not None and span.end is not None
    lo = data.draw(st.integers(min_value=span.start, max_value=span.end))
    hi = data.draw(st.integers(min_value=lo, max_value=span.end))
    sub = Span(lo, hi)
    full = run_query(query, span=span)
    narrow = run_query(query, span=sub)
    assert narrow.to_pairs() == [
        (p, r) for p, r in full.to_pairs() if p in sub
    ]
