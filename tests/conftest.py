"""Test-suite configuration: a watchdog on the exit of the process.

Once pytest has printed its summary, the interpreter still joins
every non-daemon thread and pool manager left alive before it exits.
A process that is still alive a minute after the session prints
every thread's stack to stderr, once, so a hang at exit names where
it waits. The process is not killed, and an exit cancels the dump.
"""

import faulthandler
import sys

#: Seconds after the session before a process that is still alive
#: dumps every thread's stack.
EXIT_WATCHDOG_S = 60


def pytest_unconfigure(config):
    faulthandler.dump_traceback_later(EXIT_WATCHDOG_S, exit=False,
                                      file=sys.__stderr__)
