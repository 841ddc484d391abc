"""Run one gsvdist CLI command in-process with the layer tracer installed.

Usage: python perfbench/cliprobe.py <gsvdist cli arguments...>

Prints one JSON object: the exit code, the command's captured standard
output, the seconds spent in ``main()`` and the recorded spans.
"""

import contextlib
import io
import json
import sys
import time

import gsvdist.cli

from tracing import Tracer, install

tracer = Tracer()
install(tracer)
captured = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(captured):
    rc = gsvdist.cli.main(sys.argv[1:])
main_s = time.perf_counter() - t0
print(json.dumps({"rc": rc, "stdout": captured.getvalue(), "main_s": main_s, "spans": tracer.spans}))
