"""Explicit statevector reference for the search simulator in ``hqvq.grover``.

The tests hold ``grover.marked_probability``, the closed form, against it.
"""

import math

import numpy as np

STATEVECTOR_CAP = 4096


def statevector_distribution(marked: np.ndarray, n: int, j: int) -> np.ndarray:
    """Reference implementation: apply the iteration j times to real amplitudes.

    ``marked`` holds the ascending marked indices out of ``n``.  Each iteration
    flips the sign of the marked amplitudes and reflects about the uniform
    vector.  O(j * n); capped because it exists only to cross-check the
    closed form.
    """
    if n > STATEVECTOR_CAP:
        raise ValueError(f"statevector size {n} exceeds cap {STATEVECTOR_CAP}")
    amp = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(j):
        amp[marked] *= -1.0
        amp = 2.0 * amp.mean() - amp
    return amp * amp
