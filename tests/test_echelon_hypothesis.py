"""Hypothesis property of the fraction-free row-echelon form
(``linalg._Echelon``): on small int matrices, often sparse, its rank, pivot
columns, ``last``, stored minors and ``by_column`` agree with sympy
(``helpers.assert_forward_echelon``)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import assert_forward_echelon  # noqa: E402


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_forward_echelon_agrees_with_sympy(data):
    # a zero entry is drawn about half the time, so that zero pivot-column
    # entries (the scaling step), dependent and all-zero rows all occur
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    assert_forward_echelon(data.draw(st.lists(row, min_size=nrows, max_size=nrows)))
