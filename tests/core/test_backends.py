"""Engine selection for the detector (docs/ALGORITHM.md §13-§14).

``DeterminacyRaceDetector(engine=…)`` accepts exactly ``"array"`` (the
default integer access kernel) and ``"object"`` (the paper's DTRG).
Every other name is a ``ValueError``, including the retired ``"depa"``
and ``"vc"`` PRECEDE plug-ins and the old ``"dtrg"`` alias.  The
engines' verdict equivalence is swept in
``tests/properties/test_array_equivalence.py``.
"""

import pytest

from repro.core.detector import DeterminacyRaceDetector

ENGINES = ("array", "object")


def test_detector_accepts_every_engine():
    for name in ENGINES:
        det = DeterminacyRaceDetector(engine=name)
        assert det.engine == name and det.dtrg is not None


def test_unknown_engine_names_raise():
    for name in ("depa", "vc", "dtrg", "hb-tree", "Array", ""):
        with pytest.raises(ValueError, match="unknown DTRG engine"):
            DeterminacyRaceDetector(engine=name)


def _race_pairs(engine):
    """One racy and one race-free access pattern through the detector."""
    from repro.testing.generator import (
        Async, Program, Read, Write, run_program,
    )

    prog = Program(num_locs=2, body=[
        Async([Write(0), Read(1)]),  # write races with the parent's below
        Write(0),
        Read(1),                     # read/read with the child: no race
    ])
    det = DeterminacyRaceDetector(policy="collect", engine=engine)
    run_program(prog, [det])
    return sorted({(repr(r.loc), r.kind.value) for r in det.races})


def test_detector_reports_identical_races_on_every_engine():
    golden = _race_pairs("object")
    assert golden  # the scenario above must actually race
    assert _race_pairs("array") == golden
