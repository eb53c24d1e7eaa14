"""Unit tests for the race provenance layer (flight recorder + witnesses)."""

import json

from repro.core.detector import DeterminacyRaceDetector
from repro.graph import GraphBuilder, ReachabilityClosure
from repro.memory.shared import SharedArray
from repro.memory.tracer import TraceRecorder, replay_trace
from repro.obs.provenance import (
    SITE_UNKNOWN,
    RaceProvenance,
    RaceWitness,
    SiteTable,
    confirm_witness,
    render_witness_text,
    witness_report_data,
)
from repro.obs.validate import validate_witness, validate_witness_report
from repro.runtime.runtime import Runtime


class TestSiteTable:
    def test_interns_and_dedupes(self):
        table = SiteTable(capacity=8)
        a = table.intern("prog.py", 3, "worker")
        assert a != SITE_UNKNOWN
        assert table.intern("prog.py", 3, "worker") == a
        assert table.intern("prog.py", 4, "worker") != a
        assert table.label(a) == "prog.py:3 (worker)"
        assert len(table) == 2
        assert table.num_dropped == 0

    def test_overflow_collapses_to_unknown_and_counts(self):
        table = SiteTable(capacity=2)
        a = table.intern("p.py", 1, "f")
        b = table.intern("p.py", 2, "f")
        c = table.intern("p.py", 3, "f")
        assert a != SITE_UNKNOWN and b != SITE_UNKNOWN
        assert c == SITE_UNKNOWN
        assert table.num_dropped == 1
        assert table.label(c) == "<unknown>"
        # existing sites still intern to their ids after overflow
        assert table.intern("p.py", 1, "f") == a

    def test_intern_label_replay_path(self):
        table = SiteTable(capacity=4)
        sid = table.intern_label("prog.py:9 (main)")
        assert table.label(sid) == "prog.py:9 (main)"
        assert table.intern_label("prog.py:9 (main)") == sid
        assert table.intern_label(None) == SITE_UNKNOWN
        assert table.intern_label("") == SITE_UNKNOWN

    def test_out_of_range_sid_is_unknown(self):
        table = SiteTable()
        assert table.label(999) == "<unknown>"
        assert table.label(-1) == "<unknown>"


def run_racy(provenance=None, extra_observers=()):
    """One future-read race, accesses performed directly in this file so
    the captured sites point here (past the runtime/shared skip list)."""
    det = DeterminacyRaceDetector(provenance=provenance, engine="object")
    rt = Runtime(observers=[det, *extra_observers], provenance=provenance)

    def program(rt):
        data = SharedArray(rt, "data", 2)
        f = rt.future(lambda: data.write(0, 1), name="producer")
        data.read(0)
        f.get()

    rt.run(program)
    return det


class TestFlightRecorder:
    def test_sites_point_at_user_code(self):
        prov = RaceProvenance()
        det = run_racy(prov)
        (race,) = list(det.report)
        assert race.prev_site and "test_provenance.py" in race.prev_site
        assert "(<lambda>)" in race.prev_site
        assert race.current_site and "(program)" in race.current_site
        assert race.witness_id == "w0"

    def test_spawn_sites_and_ring(self):
        prov = RaceProvenance()
        run_racy(prov)
        # tid 1 = the producer future, spawned from program()
        assert prov.spawn_site_label(1) and "(program)" in prov.spawn_site_label(1)
        kinds = [entry[0] for entry in prov.recent()]
        assert kinds == ["spawn", "write", "read", "get"]
        assert prov.num_events == 4

    def test_ring_is_bounded(self):
        prov = RaceProvenance(ring_capacity=2)
        run_racy(prov)
        assert len(prov.recent()) == 2
        assert prov.num_events == 4
        assert prov.recent(1)[0][0] == "get"

    def test_site_capacity_bounds_memory(self):
        prov = RaceProvenance(site_capacity=1)
        run_racy(prov)
        assert len(prov.sites) == 1
        assert prov.sites.num_dropped > 0

    def test_disabled_path_installs_nothing(self):
        det = DeterminacyRaceDetector()
        rt = Runtime(observers=[det])
        assert len(rt._observers) == 1  # no provenance adapter injected
        assert det.provenance is None
        assert det.witnesses == []


class TestWitnesses:
    def test_witness_built_per_deduplicated_race(self):
        prov = RaceProvenance()
        det = run_racy(prov)
        assert len(det.witnesses) == len(list(det.report)) == 1
        (w,) = det.witnesses
        assert w.kind == "write-read"
        assert w.loc == ("data", 0)
        assert w.certificate["verdict"] is False

    def test_witness_confirmed_and_schema_valid(self):
        prov = RaceProvenance()
        gb = GraphBuilder()
        det = run_racy(prov, extra_observers=[gb])
        (w,) = det.witnesses
        assert confirm_witness(w, gb.graph,
                               closure=ReachabilityClosure(gb.graph))
        assert validate_witness(w.to_data()) == []
        report = witness_report_data(det.witnesses, program="prog.py",
                                     verified=True)
        assert validate_witness_report(report) == []
        json.dumps(report)  # JSON-serializable end to end

    def test_render_witness_text(self):
        prov = RaceProvenance()
        det = run_racy(prov)
        text = render_witness_text(det.witnesses[0])
        assert "witness w0" in text
        assert "PRECEDE(1, 0) = False" in text
        assert "producer" in text
        assert "reverse direction" in text

    def test_render_without_certificate(self):
        w = RaceWitness(witness_id="w9", loc="x", kind="write-write",
                        prev_task=1, current_task=2)
        assert "(no certificate recorded)" in render_witness_text(w)


class TestReplayProvenance:
    def test_sites_survive_record_replay(self):
        recording_prov = RaceProvenance()
        recorder = TraceRecorder(provenance=recording_prov)
        run_racy(recording_prov, extra_observers=[recorder])

        replay_prov = RaceProvenance()
        det = DeterminacyRaceDetector(provenance=replay_prov, engine="object")
        replay_trace(recorder.trace, [det], provenance=replay_prov)
        (race,) = list(det.report)
        assert race.prev_site and "test_provenance.py" in race.prev_site
        assert race.current_site and "(program)" in race.current_site
        assert det.witnesses and det.witnesses[0].certificate["verdict"] is False

    def test_sites_survive_save_load_replay(self, tmp_path):
        """Spawn and get sites ride in the trace's ``structure_sites``
        column next to the access sites, through save/load: replaying
        the loaded trace attributes races and spawn sites exactly like
        the live run."""
        from repro.core.events import Trace

        live_prov = RaceProvenance()
        recorder = TraceRecorder(provenance=live_prov)
        live = run_racy(live_prov, extra_observers=[recorder])
        path = tmp_path / "trace.pkl"
        recorder.trace.save(path)
        loaded = Trace.load(path)
        assert loaded == recorder.trace
        assert loaded.structure_sites is not None
        assert loaded.access_sites is not None

        replay_prov = RaceProvenance()
        det = DeterminacyRaceDetector(provenance=replay_prov, engine="object")
        replay_trace(loaded, [det], provenance=replay_prov)

        def attribution(d):
            return [(r.pair_key, r.prev_site, r.current_site, r.witness_id)
                    for r in d.report]

        assert attribution(det) == attribution(live)
        assert ([(w.prev_site, w.current_site, w.certificate)
                 for w in det.witnesses]
                == [(w.prev_site, w.current_site, w.certificate)
                    for w in live.witnesses])
        for tid in loaded.task_keys[1:]:
            assert replay_prov.spawn_site_label(tid) is not None
            assert (replay_prov.spawn_site_label(tid)
                    == live_prov.spawn_site_label(tid))

    def test_replay_without_provenance_still_detects(self):
        recorder = TraceRecorder()
        run_racy(extra_observers=[recorder])
        det = DeterminacyRaceDetector()
        replay_trace(recorder.trace, [det])
        assert det.report.racy_locations == {("data", 0)}
        (race,) = list(det.report)
        assert race.prev_site is None and race.witness_id is None
