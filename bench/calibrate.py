"""Calibration child: fixed work of the same shape as a pass, with no equiblend code.

    python3 calibrate.py

It imports numpy and scipy.optimize (equiblend's own heavy imports), then
scans a table of small objects by key, calling a support test on each, as a
blend term does, and exits.  run.py times it from spawn to exit just before
each untraced pass.  Its code and inputs never change, so the ratio of a
pass's time to it cancels the host's speed drift and leaves the program's
own cost.
"""

import random

import numpy  # noqa: F401
import scipy.optimize  # noqa: F401

KEYS = 2048
ROUNDS = 900


class Box:
    def __init__(self, lo: float, hi: float):
        self.lo = (lo,)
        self.hi = (hi,)

    def contains(self, x) -> bool:
        return isinstance(x, float) and self.lo[0] <= x < self.hi[0]


def table() -> tuple:
    """Keys in order, and key -> Box built in shuffled order, so the boxes
    are spread over the heap as a scheme level's are."""
    keys = [(k, k + 1) for k in range(KEYS)]
    order = keys[:]
    random.Random(0).shuffle(order)
    boxes = {}
    for key in order:
        lo = key[0] / KEYS
        boxes[key] = Box(lo, lo + 3.0 / KEYS)
    return keys, boxes


def scan(keys: list, boxes: dict) -> float:
    acc = 0.0
    for r in range(ROUNDS):
        x = (r * 0.013) % 1.0
        for key in keys:
            if boxes[key].contains(x):
                acc += x * 0.5
    return acc


if __name__ == "__main__":
    scan(*table())
