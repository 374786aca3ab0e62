"""Machine-speed calibration for the benchmark's host times.

On a shared host the same Python code runs at speeds that differ by up
to 1.8x from one stretch of seconds to the next (measured on a 2-vCPU
VM: a fixed loop took 65 ms in some stretches and 115 ms in others).
Raw host times then spread far wider than any regression worth
catching.  The benchmark times a fixed loop in the process that runs
each simulation, before construction, between construction and run,
and after the run, and scales each phase's host time by
REFERENCE_S / loop time, so it reads as seconds at one fixed machine
speed.  The loop is the benchmark's own
code, so a change to the simulator moves the scaled times exactly as
it moves the raw ones.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# loop time the scaled host times are expressed against
REFERENCE_S = 0.002


def _reference_loop(iterations: int = 20_000) -> int:
    """Fixed integer arithmetic in the interpreter's main loop.

    Of the loops tried (an event heap with dicts, method calls on small
    objects, plain arithmetic), this one's time followed the
    simulator's own most closely across the host's fast and slow
    stretches.
    """
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return acc


def loop_seconds(reps: int = 3) -> float:
    """Median host time of the reference loop right now."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)
