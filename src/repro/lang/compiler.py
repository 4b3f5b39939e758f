"""The one text → query path (the paper's Step 1, "query specification").

Operator signatures (first argument is always a sequence expression)::

    select(S, predicate)
    project(S, attr [, attr ...])
    shift(S, offset)
    previous(S)   next(S)   voffset(S, offset)
    window(S, func, attr, width [, output_name])
    cumulative(S, func, attr [, output_name])
    global_agg(S, func, attr [, output_name])
    compose(S1 [as p1], S2 [as p2] [, predicate])

Bare names in sequence positions resolve against the environment (a
name → Sequence mapping, or a :class:`~repro.catalog.Catalog`); bare
names in value positions are column references.

:mod:`repro.lang.analyzer` is the only module that builds algebra
operators from AST nodes; :func:`compile_query` wraps the tree it
built.
"""

from __future__ import annotations

from repro.algebra.graph import Query
from repro.lang.analyzer import Environment, analyze

__all__ = ["Environment", "compile_query"]


def compile_query(source: str, env: Environment) -> Query:
    """Parse, semantically analyze, and compile a query text.

    The front-end analyzer (:mod:`repro.lang.analyzer`) runs on the
    parsed text: error diagnostics raise
    :class:`~repro.errors.SemanticError` (a
    :class:`~repro.errors.ParseError` subclass) aggregating *all*
    findings with source positions and caret excerpts, and the
    resulting :class:`Query` carries the report on ``query.analysis``
    (warnings on ``query.warnings``).  The analyzer's operator tree is
    wrapped by the one :class:`Query` constructor; its validation reads
    the schemas the algebra derived while the analyzer built the tree.

    Args:
        source: the query text.
        env: name → Sequence mapping, or a Catalog.

    Raises:
        ParseError: on syntax errors, or (as :class:`SemanticError`)
            on semantic errors.
    """
    result = analyze(source, env).raise_if_errors()
    assert result.root is not None  # no errors => tree was built
    query = Query(result.root)
    query.analysis = result.report
    query.annotations = result
    return query
