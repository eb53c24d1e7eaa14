"""Integration tests for --serve-metrics / --heartbeat on the CLI tools.

Two layers: in-process ``main([...])`` calls check that the telemetry
flags compose with the existing exit-code contracts, and one subprocess
test drives a real ``repro-racecheck --serve-metrics 0`` and scrapes it
mid-run (the same loop the CI ``obs-live`` job runs against
``examples/longrun_demo.py``, just smaller).
"""

import json
import os
import re
import socket
import subprocess
import sys
import textwrap
import time
import urllib.request

import pytest

from repro.harness.bench import main as bench_main
from repro.obs.exposition import parse_exposition
from repro.tools.fuzz import main as fuzz_main
from repro.tools.racecheck import main as racecheck_main

URL_RE = re.compile(r"serving live metrics at (http://127\.0\.0\.1:\d+)")


@pytest.fixture()
def clean_program(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(textwrap.dedent("""
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "data", 4)

        def program(rt, data):
            f = rt.future(lambda: data.write(0, 1))
            f.get()
            assert data.read(0) == 1
    """))
    return str(path)


@pytest.fixture()
def racy_program(tmp_path):
    path = tmp_path / "racy.py"
    path.write_text(textwrap.dedent("""
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "data", 4)

        def program(rt, data):
            f = rt.future(lambda: data.write(0, 1), name="producer")
            data.read(0)
            f.get()
    """))
    return str(path)


# ---------------------------------------------------------------------- #
# --serve-metrics PORT validation, shared by the three CLIs
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("port", ["-1", "70000", "busy"])
@pytest.mark.parametrize("tool", ["racecheck", "fuzz", "bench"])
def test_bad_or_busy_serve_metrics_port_exits_two(
        tool, port, clean_program, tmp_path, capsys):
    """An out-of-range port is a usage error at parse time; a port that
    cannot be bound is one ``error:`` line.  Both exit 2, never the
    traceback and exit 1 that would read as "races found"."""
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        if port == "busy":
            port = str(held.getsockname()[1])
        argv = {
            "racecheck": [clean_program],
            "fuzz": ["--seeds", "0:1", "--mode", "scoped"],
            "bench": ["--scale", "tiny", "--only", "Jacobi",
                      "--output", str(tmp_path / "bench.json")],
        }[tool] + ["--serve-metrics", port]
        main = {"racecheck": racecheck_main, "fuzz": fuzz_main,
                "bench": bench_main}[tool]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [ln for ln in err.splitlines() if "error:" in ln]
    assert "--serve-metrics" in line


# ---------------------------------------------------------------------- #
# racecheck
# ---------------------------------------------------------------------- #
def test_racecheck_serve_metrics_prints_url_and_keeps_exit_zero(
        clean_program, capsys):
    assert racecheck_main([clean_program, "--serve-metrics", "0"]) == 0
    captured = capsys.readouterr()
    assert URL_RE.search(captured.err)
    assert "/snapshot" in captured.err
    assert "no determinacy races" in captured.out


def test_racecheck_serve_metrics_keeps_racy_exit_one(racy_program, capsys):
    assert racecheck_main([racy_program, "--serve-metrics", "0"]) == 1
    assert "determinacy race" in capsys.readouterr().out


def test_racecheck_fast_composes_with_telemetry(clean_program, capsys):
    assert racecheck_main(
        [clean_program, "--fast", "--serve-metrics", "0"]) == 0
    assert URL_RE.search(capsys.readouterr().err)


def test_racecheck_heartbeat_emits_final_line(clean_program, capsys):
    assert racecheck_main([clean_program, "--heartbeat", "60"]) == 0
    err = capsys.readouterr().err
    # The run is far shorter than the cadence; the stop() flush still
    # guarantees one line carrying the final state.
    assert "[live]" in err
    assert "events=" in err and "races=0" in err


def test_racecheck_rejects_bad_heartbeat_and_interval(clean_program, capsys):
    for flag, value in (("--heartbeat", "-1"), ("--heartbeat", "nan"),
                        ("--sample-interval", "0"),
                        ("--sample-interval", "nan")):
        with pytest.raises(SystemExit) as excinfo:
            racecheck_main([clean_program, flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


def test_racecheck_scrape_midrun_subprocess(tmp_path):
    """Drive a real subprocess and scrape /metrics + /snapshot while the
    check is still running; the exposition must parse strictly and the
    detector counters must be live."""
    prog = tmp_path / "slow.py"
    prog.write_text(textwrap.dedent("""
        import time
        from repro import SharedArray

        def setup(rt):
            return SharedArray(rt, "d", 64)

        def program(rt, d):
            for sweep in range(40):
                with rt.finish():
                    for i in range(64):
                        rt.async_(lambda i=i: d.write(i, i))
                time.sleep(0.02)
    """))
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.racecheck", str(prog),
         "--serve-metrics", "0", "--sample-interval", "0.05"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        match = None
        deadline = time.monotonic() + 10.0
        line = ""
        while time.monotonic() < deadline and match is None:
            line = proc.stderr.readline()
            match = URL_RE.search(line)
        assert match, f"no URL line on stderr (last: {line!r})"
        url = match.group(1)

        samples = None
        accesses = 0.0
        while proc.poll() is None and time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(
                        f"{url}/metrics", timeout=2.0) as resp:
                    samples = parse_exposition(resp.read().decode())
                with urllib.request.urlopen(
                        f"{url}/snapshot", timeout=2.0) as resp:
                    snap = json.loads(resp.read())
            except OSError:
                break  # server already torn down
            accesses = max(
                accesses, samples.get(("repro_detector_accesses", ""), 0))
            assert "progress" in snap and "gauges" in snap
            time.sleep(0.05)

        out, err = proc.communicate(timeout=30.0)
        assert proc.returncode == 0, err
        assert samples is not None, "never scraped a full exposition"
        assert accesses > 0, "detector counters never went live"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# ---------------------------------------------------------------------- #
# fuzz
# ---------------------------------------------------------------------- #
def test_fuzz_serve_metrics_and_heartbeat(capsys):
    code = fuzz_main(["--seeds", "0:3", "--mode", "scoped",
                      "--serve-metrics", "0", "--heartbeat", "60"])
    assert code == 0
    captured = capsys.readouterr()
    assert URL_RE.search(captured.err)
    assert "[live]" in captured.err
    assert "events=3/3" in captured.err  # one progress tick per seed
    assert "fuzz run summary" in captured.out


# ---------------------------------------------------------------------- #
# bench
# ---------------------------------------------------------------------- #
def test_bench_serve_metrics_and_heartbeat(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = bench_main(["--scale", "tiny", "--only", "Jacobi",
                       "--repeats", "1", "--output", str(out),
                       "--serve-metrics", "0", "--heartbeat", "60"])
    assert code == 0
    captured = capsys.readouterr()
    assert URL_RE.search(captured.err)
    assert "[live]" in captured.err
    data = json.loads(out.read_text())
    assert data["workloads"][0]["name"] == "Jacobi"


def test_bench_rejects_bad_heartbeat(capsys):
    for value in ("-2", "nan"):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--heartbeat", value])
        assert excinfo.value.code == 2
        assert "--heartbeat" in capsys.readouterr().err
