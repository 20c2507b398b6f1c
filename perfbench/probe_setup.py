"""Time what every sumcol command pays before it solves: importing the
package and loading the instance, in a fresh interpreter.

Usage: python3 perfbench/probe_setup.py SRC_DIR INSTANCE
Prints one JSON object with ``import_s`` and ``load_s``.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sumcol  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
sumcol.load_dimacs(sys.argv[2])
t2 = time.perf_counter()

import json  # noqa: E402  (after timing, so a module sumcol skips is not charged)

print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "file": sumcol.__file__}))
