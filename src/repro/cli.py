"""Argument types shared by the command-line tools.

A number outside its range is rejected while the arguments are parsed,
so it gets argparse's usage error and exit 2, never a crash deep in the
run and never exit 1, which ``repro-racecheck`` and ``repro-fuzz``
reserve for "races/divergences found".
"""

from __future__ import annotations

import argparse
from typing import Callable, Optional

__all__ = ["bounded", "POSITIVE_INT", "NON_NEGATIVE_INT", "PROBABILITY",
           "PORT"]


def bounded(kind: type, lo: float,
            hi: Optional[float] = None) -> Callable[[str], float]:
    """An argparse ``type=`` that parses ``kind`` (``int`` or ``float``)
    and accepts only values in ``[lo, hi]`` (``hi=None``: no upper
    bound)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if kind is int else 'a number'}, "
                f"got {text!r}") from None
        # Written so that NaN fails the comparison and is rejected.
        if not (value >= lo and (hi is None or value <= hi)):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


POSITIVE_INT = bounded(int, 1)
NON_NEGATIVE_INT = bounded(int, 0)
PROBABILITY = bounded(float, 0.0, 1.0)
#: ``--serve-metrics PORT``: a TCP port; 0 binds an ephemeral one.
PORT = bounded(int, 0, 65535)
