"""The suite's pytest settings, run on a scratch project by ``pytester``."""

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(i):
    assert i < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_alone(pytester, pytestconfig):
    # With ``filterwarnings = ["error"]`` alone, the DeprecationWarning that
    # Hypothesis's report hook raises on a failure ends the session with an
    # INTERNALERROR, and the passing test never runs.
    lines = "".join(f"    {entry}\n" for entry in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{lines}")
    pytester.makepyfile(FAILING_AND_PASSING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
