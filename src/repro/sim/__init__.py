"""Discrete-event simulation kernel.

The whole reproduction runs on this kernel: compute-blade threads,
application coroutines, RNIC processing pipelines and memory blades are all
simulated processes exchanging events in virtual nanoseconds.

The kernel is deliberately small and simpy-like: a process is a Python
generator that yields *waitables* (:class:`Timeout`, :class:`Event`,
acquisition tickets from :class:`FifoLock`) and is resumed with the
waitable's value.
"""

from repro.sim.core import Charge, Delay, Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import FifoLock, SpinLock, TokenBucket
from repro.sim.rng import ScrambledZipfianGenerator, UniformGenerator, ZipfianGenerator

__all__ = [
    "Charge",
    "Delay",
    "Event",
    "FifoLock",
    "Interrupt",
    "Process",
    "ScrambledZipfianGenerator",
    "Simulator",
    "SpinLock",
    "Timeout",
    "TokenBucket",
    "UniformGenerator",
    "ZipfianGenerator",
]
