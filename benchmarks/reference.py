"""A fixed amount of work for measuring how fast the host runs right now.

The benchmark times reference_kernel() next to every op and reports op
time in units of it, because a shared host's speed can drift by up to
2x over minutes, and such drift slows the kernel and the ops alike.
"""

import time

import numpy as np


def reference_kernel():
    """Seconds taken by fixed work that no change to the package can
    move: sorts, gathers, row-wise unique and dict inserts of tuples, the
    kinds of work the ops do, on arrays of a few MB, small next to the
    ops' own. About 0.2 s."""
    rng = np.random.default_rng(0)
    a = rng.random(200_000)
    idx = rng.integers(0, a.size, a.size)
    faces = rng.integers(0, 20_000, (40_000, 3))
    t0 = time.perf_counter()
    for _ in range(4):
        np.sort(a)
        a[idx].sum()
        np.unique(np.sort(faces, axis=1), axis=0)
        table = {}
        for k in range(20_000):
            table[(k, k + 1, k + 2)] = k
    return time.perf_counter() - t0

