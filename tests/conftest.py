"""Suite-wide test settings and helpers.

Property tests draw the same examples on every run: hypothesis seeds its
generator from each test function, keeps no example database, and imposes
no per-example deadline (timings on a shared machine are not a property).
"""

import tracemalloc


def traced_peak(fn):
    """``(peak, value)``: the peak bytes ``tracemalloc`` traces while ``fn()`` runs, and its value.

    Only allocations made during the call count, so arrays that exist
    before it (weights, inputs) stay out of the peak.
    """
    tracemalloc.start()
    try:
        value = fn()
        return tracemalloc.get_traced_memory()[1], value
    finally:
        tracemalloc.stop()

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
