"""The one best-of timer the bench scripts share."""

import time


def best_of(fn, repeats=3, warmup=0, setup=None):
    """Best-of-``repeats`` wall clock of ``fn()``, and its last result.

    ``warmup`` untimed calls run first (compile and allocator warm-up
    outside the clock).  ``setup``, when given, runs untimed before every
    timed call, e.g. to clear a memo so that each call does the full work.
    """
    for _ in range(warmup):
        fn()
    best = result = None
    for _ in range(repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result
