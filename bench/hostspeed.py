"""How fast the host runs the Python interpreter right now.

The benchmark's reference machine shares its CPUs with other tenants, and
the speed at which it runs the same code swings by up to 2x, for a fraction
of a second or for minutes.  ``reference_seconds`` times a fixed piece of
pure-Python work that uses no boolseq code; the benchmark times it next to
every job, CLI call and set-up, and during every job (``Sampler``), and
reports times scaled to the speed at which that work takes
``NOMINAL_SECONDS``:

    normalised time = measured time * NOMINAL_SECONDS / reference time nearby

A change to boolseq moves the measured time and leaves the reference alone,
so it moves the normalised time by the same factor.  A swing of the host's
speed moves both and mostly cancels.
"""

from __future__ import annotations

import signal
import statistics
import time


class _Registers:
    __slots__ = ("a", "b", "out")


# A toy register program: (operation, argument) pairs.
_PROGRAM = tuple(((i * 37) % 5, (i * 11) % 3) for i in range(64))
_REPEATS = 100

# The reference work's typical time on the machine the bounds were set on
# (a 2-core shared VM), so that normalised times read close to wall time there.
NOMINAL_SECONDS = 0.00075


def _reference_work() -> int:
    """Run the toy program ``_REPEATS`` times: attribute reads and writes,
    tuple unpacking and branches, like the library's executors.  It makes
    no objects the garbage collector tracks."""
    registers = _Registers()
    program = _PROGRAM
    end = len(program)
    steps = 0
    for repeat in range(_REPEATS):
        registers.a = repeat & 1 == 1
        registers.b = False
        registers.out = False
        pc = 0
        while pc < end:
            op, arg = program[pc]
            steps += 1
            if op == 0:
                registers.a = not registers.a
            elif op == 1:
                registers.b = registers.a != registers.b
            elif op == 2:
                if registers.b:
                    pc += 1
            elif op == 3:
                registers.out = registers.a or registers.b
            else:
                registers.out = arg == 1
            pc += 1
    return steps


def reference_seconds() -> float:
    """Wall time of one run of the reference work."""
    began = time.perf_counter()
    _reference_work()
    return time.perf_counter() - began


def around(samples: int) -> float:
    """Median of ``samples`` reference timings taken now."""
    return statistics.median(reference_seconds() for _ in range(samples))


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference work took ``reference``, normalised."""
    return seconds * NOMINAL_SECONDS / reference


class Sampler:
    """Times the reference work every ``interval`` seconds while active.

    A ``SIGALRM`` handler does the timing, between two bytecodes of whatever
    runs, so a long job gets reference timings from during it rather than
    only from its two ends.  ``spent`` is the time the handler took, which
    the caller takes off the job's time.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        began = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - began

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
