"""Shared fixtures."""

import signal

import pytest

from trifuse import train


@pytest.fixture(autouse=True)
def blas_threads_kept():
    """Put back the BLAS thread count a test found, for tests that set a caller's count."""
    before = train.blas_threads()
    yield
    train.blas_threads(before)


@pytest.fixture
def fails_before_hanging():
    """Turn a call that blocks for 10 s into a TimeoutError, so a test of a
    FIFO in place of a data file fails instead of waiting for a writer."""

    def expire(signum, frame):
        raise TimeoutError("blocked for 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
