"""Hypothesis property of the argument readers: with any one matrix or
mapping argument swapped for a drawn malformed value, every entry point that
reads one returns or raises a ``LieGrowthError``, never another exception."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liegrowth.errors import LieGrowthError  # noqa: E402

from helpers import matrix_and_mapping_calls  # noqa: E402

CALLS = matrix_and_mapping_calls()

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.floats(allow_nan=True),
    st.text(max_size=2),
)
_bad = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(_scalars, inner, max_size=2),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CALLS)), _bad)
def test_a_malformed_argument_is_answered_or_refused(name, bad):
    call, args, slot = CALLS[name]
    args = list(args)
    args[slot] = bad
    try:
        call(*args)
    except LieGrowthError:
        pass
