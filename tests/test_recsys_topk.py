"""Tests for repro.recsys.topk (the shared partition-based top-k)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.recsys.topk import top_k

# Half the draws come from a handful of values (and -inf), so ties are the
# common case, including ties straddling the k-th value boundary.
_values = st.lists(
    st.one_of(
        st.sampled_from([-np.inf, -1.0, 0.0, 0.25, 0.5, 1.0, 3.0]),
        st.floats(allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), values=_values)
def test_top_k_equals_full_lexsort(data, values):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    k = data.draw(st.integers(min_value=0, max_value=n + 2))
    expected = np.lexsort((np.arange(n), -values))[:k]
    assert np.array_equal(top_k(values, k), expected)


def test_empty_selection_is_integer_typed():
    picked = top_k(np.array([1.0, 2.0]), 0)
    assert picked.shape == (0,)
    assert picked.dtype == np.intp
