"""A fixed unit of host work that tells how fast the shared host runs now.

The benchmark's host is shared: other tenants' load changes how fast the
same code runs by up to 2x, in phases lasting seconds to minutes.  The
program and this probe slow down together, so the ratio of a
repetition's time to the probe's time around it hardly moves while the
raw time does.  :data:`REFERENCE_S` converts that ratio back to seconds
on a reference host.

The probe imports nothing from the program, so no change to the program
can change it.  Its mix follows the program's, because contention slows
kinds of work unequally (interpreted code most, streaming over large
arrays least): about two thirds interpreted object code (attribute
reads, method calls, dict stores, integer arithmetic, as in the DDR
state machines and event loops), the rest many numpy calls on small
arrays and passes over a 2 MB one, as in the serving columns.
"""

import time

import numpy as np

#: The probe's time on the reference host: 2 vCPUs of a Xeon shared host
#: in a quiet phase.  Times scaled by ``REFERENCE_S / probe seconds`` are
#: seconds on that host.
REFERENCE_S = 0.025


class _Bank:
    __slots__ = ("row", "ready", "hits")

    def __init__(self):
        self.row = -1
        self.ready = 0
        self.hits = 0

    def access(self, row, now):
        if row == self.row:
            self.hits += 1
            self.ready = max(now, self.ready) + 4
        else:
            self.row = row
            self.ready = max(now, self.ready) + 32
        return self.ready


def _interpreted(steps=25_000):
    banks = [_Bank() for _ in range(16)]
    last = {}
    state = now = 12_345
    for _ in range(steps):
        state = (state * 1_103_515_245 + 12_345) & 0x7FFFFFFF
        now = banks[state & 15].access((state >> 4) & 63, now)
        last[state & 4095] = now
    return now + len(last)


_SMALL = np.random.default_rng(7).random(1 << 10)
_LARGE = np.random.default_rng(8).random(1 << 18)


def _small_arrays(calls=600):
    total = 0.0
    for _ in range(calls):
        total += float(np.cumsum(_SMALL)[-1])
        total += float(np.searchsorted(_SMALL, 0.5))
    return total


def _large_array(passes=12):
    return sum(float((_LARGE * 1.5 + 2.0).sum()) for _ in range(passes))


def probe_seconds():
    """Host seconds one fixed unit of probe work takes right now."""
    start = time.perf_counter()
    _interpreted()
    _small_arrays()
    _large_array()
    return time.perf_counter() - start
