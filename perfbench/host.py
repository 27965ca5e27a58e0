"""A fixed host kernel that turns measured seconds into seconds at a
reference host speed.

On the shared two-core VM this benchmark was tuned on, the speed of the same
code toggles between two levels about 1.9 times apart every few seconds, and
the share of time at the slow level changes from minute to minute.  Medians
of raw times then differ by 10-50% between runs of identical work.  So the
benchmark times this kernel right before and right after every timed call,
and every ``SAMPLE_INTERVAL_S`` while it runs (calls of the tracking model
last a second or more, long enough for the host to change speed within
them), and divides the call's seconds by the kernel's mean slowdown against
``REFERENCE_S``: a call that ran while the host was slow is scaled back to
what it would take where the kernel takes ``REFERENCE_S``.  A sample taken
while a call runs interrupts it from a SIGALRM handler in the main thread,
between two bytecodes, and its time is subtracted from the call's.  The kernel
calls nothing in the program, so the program's own speed-ups and
slow-downs pass through unchanged.  It runs with the cyclic garbage
collector off, so a larger live heap left by the program (longer collection
passes) does not slow the kernel and is not divided out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

SCALAR_CYCLES = 50
MATRIX_STEPS = 30
REFERENCE_S = 0.0065  # the kernel's time on that VM when it is not slowed
SAMPLE_INTERVAL_S = 0.2


@dataclass
class _State:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("non-finite kernel state")


def kernel_s() -> float:
    """Seconds for the kernel, timed with the cyclic garbage collector off."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel_s()
    finally:
        if gc_was_enabled:
            gc.enable()


def _kernel_s() -> float:
    """A scalar predict/update loop on one-element arrays, then a
    9-dimensional one with a matrix exponential and a Python loop over index
    pairs, the same kinds of work as the two models' filters."""
    state = _State(np.array([0.3]), np.array([[0.01]]))
    q, r, eye = np.array([[0.01]]), np.array([[0.001]]), np.eye(1)
    drift = 0.01 * (np.arange(81.0).reshape(9, 9) % 7 - 3)
    coeffs = 0.001 * (np.arange(729.0).reshape(9, 9, 9) % 5 - 2)
    eye9 = np.eye(9)
    t0 = time.perf_counter()
    for i in range(SCALAR_CYCLES):
        m, p = state.mean, state.cov
        for _ in range(4):
            b = np.array([-0.5 * m[0] ** 3])
            a = np.array([[-1.5 * m[0] ** 2]])
            m = m + 0.25 * b + 0.03 * (a @ b)
            f = np.exp(0.25 * a)
            p = f @ p @ f.T + 0.25 * q
            p = 0.5 * (p + p.T)
        h = np.array([[(0.1 - m[0] ** 2) / (0.1 + m[0] ** 2) ** 2]])
        s = h @ p @ h.T + r
        if np.linalg.cond(s) > 1e12:
            raise ValueError("ill-conditioned kernel innovation")
        gain = np.linalg.solve(s, h @ p).T
        m = m + gain @ (np.array([0.2 + 0.01 * (i % 7)]) - np.array([m[0] / (0.1 + m[0] ** 2)]))
        p = np.einsum("ij,jk->ik", eye - gain @ h, p)
        state = _State(m, 0.5 * (p + p.T))
    cov = eye9
    for _ in range(MATRIX_STEPS):
        f = scipy.linalg.expm(0.05 * drift)
        cov = f @ cov @ f.T + 0.01 * eye9
        cov = 0.5 * (cov + cov.T)
        c = np.einsum("kij,ij->k", coeffs, cov)
        for j in range(9):
            for k in range(j, 9):
                c = c + coeffs[:, j, k] * cov[j, k]
        if not np.all(np.isfinite(np.linalg.solve(cov + eye9, c))):
            raise ValueError("non-finite kernel state")
    return time.perf_counter() - t0


@contextmanager
def sampling(samples: list[float]):
    """Append a kernel time to ``samples`` every ``SAMPLE_INTERVAL_S`` while
    the block runs.  Yields a one-element list that holds, once the block
    has ended, the seconds the samples took."""
    spent = [0.0]
    busy = [False]

    def on_timer(signum, frame):
        if busy[0]:  # the host is so slow that a sample outlasts the interval
            return
        busy[0] = True
        t0 = time.perf_counter()
        samples.append(kernel_s())
        spent[0] += time.perf_counter() - t0
        busy[0] = False

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield spent
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # A signal that arrived just before the timer stopped may still be
        # waiting for the interpreter.  Under SIG_DFL (an IntEnum) some
        # CPython versions then try to call the handler and raise TypeError,
        # so a no-op handler takes its place.
        signal.signal(signal.SIGALRM, previous if callable(previous) else _ignore)


def _ignore(signum, frame) -> None:
    pass


def scaled(seconds: float, kernel_times: list[float]) -> float:
    """``seconds`` of a call, at the reference host speed, given the kernel
    times taken from right before to right after it."""
    return seconds * REFERENCE_S / statistics.mean(kernel_times)
