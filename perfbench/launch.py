"""Run one repfn CLI command in this fresh interpreter, for the benchmark.

    python3 launch.py FD SRC TRACE_OUT ARGS...

Imports numpy, then repfn.cli from SRC, and writes the monotonic clock
readings taken after each import to file descriptor FD; then runs the CLI
with ARGS and exits with its code.  The first reading ends the launch
reference, which no repfn code can change: repfn imports numpy anyway.  When TRACE_OUT is not "-", the package's public
functions are wrapped first and the recorded spans are written to TRACE_OUT.
"""

import os
import sys
import time

fd, src, trace_out, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]

import numpy  # noqa: E402,F401

numpy_ready = time.monotonic()

import repfn.cli  # noqa: E402

imported = time.monotonic()
if not os.path.abspath(repfn.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"launch: repfn was imported from {repfn.cli.__file__}, not from {src}")
os.write(fd, f"{numpy_ready!r} {imported!r}".encode())
os.close(fd)

if trace_out == "-":
    sys.exit(repfn.cli.main(argv))

import tracing  # noqa: E402

recorder = tracing.install()
try:
    code = repfn.cli.main(argv)
finally:
    recorder.dump(trace_out)
sys.exit(code)
