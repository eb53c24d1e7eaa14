"""Unit tests for the event vocabulary and trace container."""

import pytest

from repro.core.events import (
    GetEvent,
    ReadEvent,
    TaskCreateEvent,
    Trace,
    WriteEvent,
)


def sample_trace():
    trace = Trace()
    trace.append(TaskCreateEvent(parent=0, child=1, is_future=True, ief=0))
    trace.append(WriteEvent(task=1, loc=("x", 0)))
    trace.append(GetEvent(consumer=0, producer=1))
    trace.append(ReadEvent(task=0, loc=("x", 0)))
    return trace


def test_counts_fingerprint():
    assert sample_trace().counts() == (1, 1, 2)


def test_events_are_value_objects():
    a = WriteEvent(task=1, loc=("x", 0))
    b = WriteEvent(task=1, loc=("x", 0))
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(Exception):
        a.task = 2  # frozen


def test_len_and_iter():
    trace = sample_trace()
    assert len(trace) == 4
    assert [type(e).__name__ for e in trace] == [
        "TaskCreateEvent", "WriteEvent", "GetEvent", "ReadEvent",
    ]


def test_save_load_roundtrip(tmp_path):
    trace = sample_trace()
    path = tmp_path / "trace.pkl"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.events == trace.events


def test_load_rejects_non_trace(tmp_path):
    import pickle

    path = tmp_path / "junk.pkl"
    with open(path, "wb") as fh:
        pickle.dump([1, 2, 3], fh)
    with pytest.raises(TypeError):
        Trace.load(path)


def test_load_event_list_pickle(tmp_path):
    """A trace pickled by the event-list ``Trace`` of earlier versions
    (state ``{'events': [...]}``) loads by re-encoding its events."""
    import copyreg
    import pickle

    events = list(sample_trace())

    class EventListPickler(pickle.Pickler):
        """Writes a ``Trace`` exactly as the old dataclass pickled."""

        def reducer_override(self, obj):
            if type(obj) is Trace:
                return copyreg.__newobj__, (Trace,), {"events": events}
            return NotImplemented

    path = tmp_path / "old.pkl"
    with open(path, "wb") as fh:
        EventListPickler(fh, protocol=pickle.HIGHEST_PROTOCOL).dump(Trace())
    loaded = Trace.load(path)
    assert loaded == sample_trace()
    assert loaded.events == events
    assert loaded.counts() == (1, 1, 2)


def test_rows_appended_after_a_read_are_seen():
    trace = sample_trace()
    assert len(trace.access) == 6  # the read moves pending rows over
    trace.append(WriteEvent(task=0, loc=("y", 1)))
    assert len(trace) == 5
    assert list(trace.access[-3:]) == [1, 0, 1]
    assert trace.events[-1] == WriteEvent(task=0, loc=("y", 1))
    assert list(trace.runs) == [1, 1, 0, 1, 1, 1, 0, 2]
