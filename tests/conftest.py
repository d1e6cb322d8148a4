"""Fixtures shared across the tier-1 suite.

Tests whose ids keep a ``legacy`` / ``vectorized`` parameter run the
``legacy`` side with the reference engines of
:func:`repro.check.mutations.reference_engines` swapped into production:
the dict-driven shared walk, the scalar folds, the rectangle recursion
and the message-level disjointness runner.
"""

import pytest

from repro.check.mutations import reference_engines


@pytest.fixture
def under(monkeypatch):
    """``under(kernel, fn)``: ``fn()`` on the engine (``"vectorized"``)
    or with every reference engine swapped in (``"legacy"``), which must
    then serve at least one call."""

    def run(kernel, fn):
        if kernel == "vectorized":
            return fn()
        with monkeypatch.context() as patch:
            calls = reference_engines(patch.setattr)
            result = fn()
            assert any(calls.values()), "no reference engine was reached"
        return result

    return run


@pytest.fixture
def reference_and_engine(under):
    """``run(compute)`` returns ``(reference, engine)``: ``compute()``
    with the reference engines swapped in, then on production."""
    return lambda compute: (
        under("legacy", compute),
        under("vectorized", compute),
    )
