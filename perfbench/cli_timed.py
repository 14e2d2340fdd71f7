"""``python -m realsurf.cli`` with three time marks, for traced runs.

    python3 perfbench/cli_timed.py <realsurf arguments>

Runs the realsurf CLI in this process and appends one line to standard
error, ``PERFBENCH <started> <imported> <done>``: ``time.perf_counter``
when the interpreter reached this file, after ``import realsurf.cli``,
and after ``main`` returned.  On Linux that clock is the system-wide
monotonic clock, so the parent can place the marks inside its own span
of the process.  Exit code and standard output are the CLI's own.
"""

import sys
import time

started = time.perf_counter()
from realsurf.cli import main  # noqa: E402

imported = time.perf_counter()
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
done = time.perf_counter()
sys.stdout.flush()
print(f"PERFBENCH {started!r} {imported!r} {done!r}", file=sys.stderr)
sys.exit(code)
