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


def phase_matched_distribution(marked: np.ndarray, n: int, j: int, phase: float) -> np.ndarray:
    """Reference implementation with phases: apply the phase-rotating iteration j times to complex amplitudes.

    Each iteration multiplies the marked amplitudes by exp(i phase) and
    applies -(I + (exp(i phase) - 1)|s><s|) about the uniform vector s, the
    iteration of G. L. Long (Phys. Rev. A 64, 022307, 2001); a phase of pi
    gives ``statevector_distribution``'s.  O(j * n), capped likewise.
    """
    if n > STATEVECTOR_CAP:
        raise ValueError(f"statevector size {n} exceeds cap {STATEVECTOR_CAP}")
    turn = np.exp(1j * phase)
    amp = np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    for _ in range(j):
        amp[marked] *= turn
        amp = -(amp + (turn - 1.0) * amp.mean())
    return (amp * amp.conj()).real


def phase_matched_success(n: np.ndarray, j: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """The same iteration's chance of the one marked index, on the exact 2-D reduction, elementwise over arrays.

    The state stays in the span of the marked index tau and the uniform
    vector r over the n - 1 others, where s = sin(beta) tau + cos(beta) r
    with sin(beta) = 1/sqrt(n); it costs O(max j) steps for all n at once.
    """
    sin_b = 1.0 / np.sqrt(n)
    cos_b = np.sqrt(1.0 - sin_b * sin_b)
    turn = np.exp(1j * phase)
    a, b = sin_b.astype(np.complex128), cos_b.astype(np.complex128)
    for step in range(int(np.max(j, initial=0))):
        live = step < j
        a2 = a * turn
        overlap = sin_b * a2 + cos_b * b
        a = np.where(live, -(a2 + (turn - 1.0) * overlap * sin_b), a)
        b = np.where(live, -(b + (turn - 1.0) * overlap * cos_b), b)
    return (a * a.conj()).real
