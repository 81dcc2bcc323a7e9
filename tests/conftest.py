"""A time limit on every test, so that a walker that loops fails its test instead of hanging the suite."""

import signal

import pytest

# ``pytester`` runs a scratch pytest project (``tests/test_pytest_settings.py``).
pytest_plugins = ["pytester"]

# Seconds per test, setup and teardown included: far above the slowest
# test, which takes a few seconds.
TEST_TIME_LIMIT = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT``.

    Not an ``Exception``, so that neither the code under test nor
    Hypothesis, which would shrink by running the example again, catches it.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT} s time limit")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarms on this platform: no limit
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
