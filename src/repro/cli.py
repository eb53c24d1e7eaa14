"""Argument types shared by the command-line tools.

A number outside its range is rejected while the arguments are parsed,
so it gets argparse's usage error and exit 2, never a crash deep in the
run and never exit 1, which ``repro-racecheck`` and ``repro-fuzz``
reserve for "races/divergences found".
"""

from __future__ import annotations

import argparse
import math
from typing import Callable, Optional

__all__ = ["bounded", "POSITIVE_INT", "NON_NEGATIVE_INT", "NON_NEGATIVE_FLOAT",
           "POSITIVE_FLOAT", "PROBABILITY", "PORT"]


def bounded(kind: type, lo: float, hi: Optional[float] = None, *,
            open_lo: bool = False) -> Callable[[str], float]:
    """An argparse ``type=`` that parses ``kind`` (``int`` or ``float``)
    and accepts only finite values in ``[lo, hi]`` (``(lo, hi]`` with
    ``open_lo``; ``hi=None``: no upper bound)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if kind is int else 'a number'}, "
                f"got {text!r}") from None
        # Written so that NaN fails the comparison and is rejected.
        above = value > lo if open_lo else value >= lo
        if not (above and (hi is None or value <= hi)
                and math.isfinite(value)):
            if hi is None:
                bound = f"{'>' if open_lo else '>='} {lo}"
            else:
                bound = f"in {'(' if open_lo else '['}{lo}, {hi}]"
            what = "a finite number " if kind is float else ""
            raise argparse.ArgumentTypeError(
                f"must be {what}{bound}, got {text}")
        return value

    return parse


POSITIVE_INT = bounded(int, 1)
NON_NEGATIVE_INT = bounded(int, 0)
NON_NEGATIVE_FLOAT = bounded(float, 0.0)
POSITIVE_FLOAT = bounded(float, 0.0, open_lo=True)
PROBABILITY = bounded(float, 0.0, 1.0)
#: ``--serve-metrics PORT``: a TCP port; 0 binds an ephemeral one.
PORT = bounded(int, 0, 65535)
