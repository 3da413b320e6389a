"""Suite-wide test settings.

Property tests draw the same examples on every run: hypothesis seeds its
generator from each test function, keeps no example database, and imposes
no per-example deadline (timings on a shared machine are not a property).
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
