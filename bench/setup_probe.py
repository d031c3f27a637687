"""Time one benchmark set-up in a fresh interpreter and print its seconds.

    python3 bench/setup_probe.py SRC WORKLOAD SEED MODULE...

The set-up is what a command-line user pays on every call, the import of
the workload's jetform MODULEs with every module they pull in, followed
by making the workload's cases.  Nothing but ``sys`` and ``time`` is
imported before the clock starts; the benchmark's own modules are
imported while it is stopped.
"""

import sys
import time

src, name, seed, modules = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
sys.path.insert(0, src)
t0 = time.perf_counter()
for module in modules:
    __import__(module)
imported = time.perf_counter() - t0

import workloads  # noqa: E402  (with the clock stopped)

t0 = time.perf_counter()
w = workloads.WORKLOADS[name]
w.prepare()
w.generate(seed)
print(imported + time.perf_counter() - t0)
