"""Shared hypothesis settings and an arbitrary-JSON-value strategy for the
fuzz tests."""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st

from equiblend.harness import MAX_DIM, MAX_STAGE, OPERATORS, REGISTRY, SCENARIO_KEYS, SCHEMES, Z_SPACES

# database=None: hypothesis writes no example database into the checkout
FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# json.load accepts NaN and Infinity, so the floats include them
_EDGES = [0, 1, -1, 2, MAX_DIM, MAX_DIM + 1, MAX_STAGE, MAX_STAGE + 1, 2**52, 10**18, 10**400, -0.0, 0.5, 1e-300, 1e300, math.nan, math.inf, -math.inf]
# the names the parser reads, so that generated objects reach past its first checks
_WORDS = [*SCENARIO_KEYS, *REGISTRY, *OPERATORS, *SCHEMES, *Z_SPACES, "none", "kind", "dim", "lo", "hi", "domain", "x", "y"]
_WORDS += ["rational", "irrational", "sequential", "origin", "level", "leaf"]
_WORDS += ["sequential_fan", "real_line", "half_open_line", "box"]  # the x_space kinds a scheme derives

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_EDGES)
    | st.sampled_from(_WORDS)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
