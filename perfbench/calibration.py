"""The machine's own speed, measured between the timed items.

The benchmark's machine shares its CPUs with other tenants, and its speed
drifts by 15-25 % in spells of seconds to minutes. Every timed item is
followed by a burst of a fixed reference kernel that imports nothing of
thermoquery; the item's time is scaled by how fast that kernel ran just
then. A scaled time reads what the item would take on a machine where one
reference unit takes ``NOMINAL_UNIT_S``, so a change of the machine's speed
cancels, while a change of the program's speed does not.

The kernel mixes, in about equal time, interpreted Python, numpy calls on a
small array and numpy calls on a mid-sized one, which is what the machine's
drift slows down. It has no memory-bound part: streaming over an array larger
than the cache took the same time in fast and slow spells, and a kernel that
contained it followed the drift too weakly.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The duration of one unit that scaled times are expressed against.
NOMINAL_UNIT_S = 0.001
# Each burst lasts at least this long; after an item it lasts at least
# SHARE of the item's time, after set-up SETUP_SHARE of the set-up time.
MIN_BURST_S = 0.002
SHARE = 0.25
SETUP_SHARE = 0.5

_SMALL = np.linspace(0.0, 1.0, 2048)
_MID = np.linspace(0.0, 1.0, 1 << 14)


def unit() -> float:
    total = 0.0
    for i in range(2400):
        total += math.exp(-i * 1e-3)
    for _ in range(48):
        total += float(np.exp(-_SMALL).sum())
    total += float(np.logaddexp(_MID, -_MID).sum())
    return total


def burst(want_s: float) -> tuple[int, float]:
    """Run whole units for at least ``max(MIN_BURST_S, want_s)``; return
    how many ran and how long they took."""
    want = max(MIN_BURST_S, want_s)
    units = 0
    start = perf_counter()
    while True:
        unit()
        units += 1
        elapsed = perf_counter() - start
        if elapsed >= want:
            return units, elapsed


def factor(units: int, elapsed: float) -> float:
    """What scales a time taken alongside these units to the nominal machine."""
    return NOMINAL_UNIT_S * units / elapsed
