"""A wall-clock limit for calls whose quadrature could run away."""

from __future__ import annotations

import contextlib
import signal


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once ``seconds`` have passed: a call
    whose quadrature runs away never returns, so the test fails instead."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
