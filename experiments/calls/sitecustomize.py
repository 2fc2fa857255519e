"""Record which functions under ``src/repro/`` a Python process runs.

Python imports this module at start-up when its directory is on
``PYTHONPATH``; it records only if ``REPRO_CALLS_DIR`` names a directory
too.  Then a ``sys.setprofile`` / ``threading.setprofile`` hook notes the
first ``call`` of every code object, and at exit the process writes the
``(path, first line)`` of each one under ``src/repro/`` to
``$REPRO_CALLS_DIR/<pid>-<ns>.json``, with the process's ``pid`` and
``argv``.  Child processes inherit both variables, so spawned workers
and scripts run by tests are recorded as well.
``experiments/uncalled.py`` reads the files.

The first line of a code object is its first decorator's line, which is
how the report keys a ``def``.  Anything that switches the profiler off
(``pytest-benchmark`` times without ``--benchmark-disable``) hides the
calls it makes meanwhile: a process whose main thread no longer runs
the hook at exit says so in its file (``"hook_lost": true``), and the
report fails.  A process killed by a signal writes nothing.
"""

import atexit
import json
import os
import sys
import threading
import time


def _start(out: str) -> None:
    out = os.path.abspath(out)
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    def write():
        lost = sys.getprofile() is not hook
        # The hook must be off before teardown, or the interpreter's own
        # finalisation runs into it.
        sys.setprofile(None)
        threading.setprofile(None)
        calls = set()
        # A copy: daemon threads still running keep their hook.
        for path, line in seen.copy():
            _, mark, tail = os.path.abspath(path).rpartition("/src/repro/")
            if mark:
                calls.add(("src/repro/" + tail, line))
        os.makedirs(out, exist_ok=True)
        name = os.path.join(out, f"{os.getpid()}-{time.time_ns()}.json")
        record = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "hook_lost": lost,
            "calls": sorted(calls),
        }
        with open(name, "w") as handle:
            json.dump(record, handle)

    atexit.register(write)
    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("REPRO_CALLS_DIR"):
    _start(os.environ["REPRO_CALLS_DIR"])
