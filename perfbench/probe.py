"""Speed probe: how fast this core starts a Python interpreter, moment by moment.

    python3 perfbench/probe.py PATH

Over and over, it times a bare interpreter start (`python -c pass`) by its
CPU time, rests REST times as long as that took, and appends one line per
start to PATH: the midpoint on the monotonic clock (shared by every process
on the machine) and the CPU seconds.  It runs until it is terminated.

The harness runs it on the core the program under test runs on: a shared
host slows each core by its own neighbours' load, and a probe on another
core does not see it.  A bare start never touches latinmagic.  On a shared
2-vCPU Intel Xeon virtual machine, of the references tried (this one, a
start that also imports the standard modules the CLI imports, and two
pure-Python loops), it followed the CLI's calls most closely, long ones as
well as short ones: as the load changed, the calls' CPU time changed about
as much as a bare start's, but only about two thirds as much as a loop's.
"""
from __future__ import annotations

import resource
import signal
import subprocess
import sys
import time

REST = 3  # the probe takes about a quarter of its core


def children_cpu_seconds() -> float:
    """User plus system CPU time of all child processes ended and waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def read_samples(path) -> list[tuple[float, float]]:
    """(midpoint, CPU seconds) of each whole line the probe wrote."""
    samples = []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if line.endswith("\n") and len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
    return samples


def main(path: str) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(path, "w", encoding="ascii", buffering=1) as handle:
        while True:
            begin, cpu = time.monotonic(), children_cpu_seconds()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            end, cpu = time.monotonic(), children_cpu_seconds() - cpu
            handle.write(f"{(begin + end) / 2:.6f} {cpu:.9f}\n")
            time.sleep(REST * (end - begin))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
