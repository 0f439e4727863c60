"""The suite-wide hang alarm of ``conftest.py`` fails the hung test by name."""

import signal
import time

import pytest


def test_alarm_fails_the_running_test_by_name(request):
    # Fire the alarm the autouse hook armed after 50 ms instead of its
    # full budget; the hook disarms the timer and restores the handler on
    # teardown.
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match=request.node.name) as failed:
        time.sleep(5.0)
    assert "still running after" in str(failed.value)
