"""Assertion helpers shared by the test modules."""

import tracemalloc

import numpy as np


def params_equal(a, b) -> bool:
    """Two models with the same layout and equal values in every tensor."""
    return a.layout is b.layout and bool(np.array_equal(a.vec, b.vec))


def traced_peak(fn) -> int:
    """``tracemalloc`` peak of one call, above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
