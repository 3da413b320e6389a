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


def traced_retained(fn):
    """``(retained, value)``: the bytes allocated during ``fn()`` still alive when it returns.

    With nothing else cached by the call, that is the memory ``value`` keeps alive.
    """
    tracemalloc.start()
    try:
        value = fn()
        return tracemalloc.get_traced_memory()[0], value
    finally:
        tracemalloc.stop()


def graph_nodes(loss):
    """Every graph node reachable from the tensor ``loss``, its own first, each once."""
    nodes, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
