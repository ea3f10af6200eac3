"""Warm laced's lazy caches for a workload's types.

Each argument is KIND:LABEL: `gen:D8` builds the canonical system, and
`iso:E8` also builds its ordered base by mapping it onto itself.  run.py
calls warm() in its own process before measuring.  Run as a script from the
root of a checkout, in a fresh interpreter, it times the set-up cost every
CLI process pays, the import of laced and the warming, and prints it as JSON:

    python3 perfbench/warm.py iso:E8 gen:D9

`raw_s` is wall time and `ref_s` time on the reference host (see probe.py).
"""

from __future__ import annotations

import json
import sys
import time


def warm(args: list[str]) -> None:
    import laced

    for arg in args:
        kind, label = arg.split(":")
        system = laced.gen(label)
        if kind == "iso":
            laced.isometry_to_canonical(system)


def main(args: list[str]) -> None:
    from probe import HostClock

    with HostClock() as clock:
        t0 = time.perf_counter()
        warm(args)
        t1 = time.perf_counter()
    raw, ref = clock.split(t0, t1)
    print(json.dumps({"raw_s": raw, "ref_s": ref}))


if __name__ == "__main__":
    sys.path.insert(0, "src")
    main(sys.argv[1:])
