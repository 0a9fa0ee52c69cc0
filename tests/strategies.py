"""Hypothesis strategies shared by the tolerance-window scan oracles."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def scan_inputs(draw):
    """At most 12 sorted nonnegative values and a tolerance.

    Multiples of one scale give exact ties and exactly equal gaps, whose
    differences are exact in binary; the tolerance is one such gap or a
    float either side of it, so comparisons land on `<=` at tol and 1 ulp
    off it.  Arbitrary floats add rounded differences, and 1e-18 * scale is
    a tolerance below the spacing of the values.
    """
    scale = draw(st.sampled_from([1.0, 2.0**-20, 1e6]))
    grid = draw(st.lists(st.integers(0, 12), max_size=12))
    free = draw(st.lists(st.floats(0.0, 12.0 * scale), max_size=12 - len(grid)))
    values = np.array(sorted([scale * k for k in grid] + free), dtype=float)
    gap = scale * draw(st.integers(1, 3))
    tol = draw(
        st.sampled_from([np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf), 1e-18 * scale])
    )
    return values, float(tol)
