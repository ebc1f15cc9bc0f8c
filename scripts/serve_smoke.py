#!/usr/bin/env python3
"""Fault drill for `gpuperf serve` (stdlib-only).

Starts the daemon, throws a burst of traffic at it — good requests,
past-deadline requests, malformed and oversized lines, an HTTP scrape —
asserts every structured error payload, validates the OpenMetrics dump
(including the serve.gc.* gauges), then SIGTERMs and asserts a clean
drain with exit code 0.

Usage: serve_smoke.py /path/to/gpuperf.exe [--dashboard]

With --dashboard the drill instead exercises the observability surface:
boots the daemon with a structured access log, drives a burst that
includes one past-deadline and one malformed request, then validates
the /dashboard HTML with a real parser, the JSONL log schema (every
line carries level/component/trace_id), that every wire response
carries a trace id, that the timeout request's wire response and its
access-log line share one, that the serve-path accuracy ledger
records are stamped with the originating request's trace id, and that
the matmul ledger's run ids are 1..N in file order (so run it on an
empty cache directory, as CI does).
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

OK = 0


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)
    print(f"ok: {msg}")


def start_daemon(exe, extra=()):
    proc = subprocess.Popen(
        [exe, "serve", "--port", "0", "--queue", "4", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    m = re.search(r"listening on .*:(\d+)", line)
    if not m:
        proc.kill()
        fail(f"no listening banner, got: {line!r}")
    return proc, int(m.group(1))


def connect(port):
    s = socket.create_connection(("127.0.0.1", port), timeout=120)
    return s, s.makefile("rw")


def roundtrip(f, obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()
    return json.loads(f.readline())


def main():
    exe = sys.argv[1]
    if "--dashboard" in sys.argv[2:]:
        log_path = "serve-smoke-access.jsonl"
        if os.path.exists(log_path):
            os.remove(log_path)
        proc, port = start_daemon(exe, ["--access-log", log_path])
        try:
            dashboard_drill(proc, port, log_path)
        finally:
            if proc.poll() is None:
                proc.kill()
        return
    proc, port = start_daemon(exe)
    try:
        drill(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()


def drill(proc, port):
    s, f = connect(port)

    # Liveness.
    check(roundtrip(f, {"op": "ping"}) == {"op": "pong"}, "ping/pong")
    health = roundtrip(f, {"op": "health"})
    check(health["status"] == "ok", "health reports ok")
    check(health["queue_cap"] == 4, "health reflects --queue")

    # A good request.
    r = roundtrip(
        f,
        {
            "id": "good",
            "workload": "matmul",
            "params": {"n": 64, "tile": 8},
        },
    )
    check(r["id"] == "good" and r["status"] == "ok", "analysis request ok")
    check(r["confidence"] in ("calibrated", "degraded"), "confidence present")
    check(
        "predicted_s" in r["result"] and "bottleneck" in r["result"],
        "result carries the analysis",
    )

    # Past-deadline request: answered as timeout, never run.
    r = roundtrip(
        f,
        {
            "id": "late",
            "workload": "matmul",
            "params": {"n": 64, "tile": 8},
            "deadline_ms": 0,
        },
    )
    check(r["status"] == "timeout", "0ms deadline -> timeout")
    check(
        any(d["stage"] == "budget" for d in r["diagnostics"]),
        "timeout carries a budget diagnostic",
    )

    # Malformed line: structured rejection, connection survives.
    f.write("{definitely not json\n")
    f.flush()
    r = json.loads(f.readline())
    check(r["status"] == "malformed", "malformed line rejected")

    # Unknown field: rejected, not silently ignored.
    r = roundtrip(f, {"workload": "matmul", "dedline_ms": 5})
    check(r["status"] == "malformed", "misspelled field rejected")

    # Crashing request (bad matmul shape): error response, daemon fine.
    r = roundtrip(
        f, {"id": "boom", "workload": "matmul", "params": {"n": 100}}
    )
    check(r["status"] == "error", "shape violation -> error response")
    check(roundtrip(f, {"op": "ping"}) == {"op": "pong"}, "daemon survives")

    # Burst past the queue cap: every line gets an answer, some refused.
    burst = [
        json.dumps(
            {
                "id": f"b{i}",
                "workload": "matmul",
                "params": {"n": 64, "tile": 8},
            }
        )
        for i in range(8)
    ]
    f.write("\n".join(burst) + "\n")
    f.flush()
    statuses = [json.loads(f.readline())["status"] for _ in burst]
    check(len(statuses) == 8, "every burst line answered")
    check(
        all(st in ("ok", "overloaded") for st in statuses),
        "burst answers are ok/overloaded only",
    )
    check("overloaded" in statuses, "backpressure engaged past the cap")
    s.close()

    # HTTP endpoints on the same port.
    hs = socket.create_connection(("127.0.0.1", port), timeout=30)
    hs.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
    raw = b""
    while chunk := hs.recv(65536):
        raw += chunk
    hs.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    check(head.startswith("HTTP/1.0 200"), "/metrics is 200")
    check("openmetrics-text" in head, "/metrics declares OpenMetrics")
    validate_openmetrics(body)

    hs = socket.create_connection(("127.0.0.1", port), timeout=30)
    hs.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
    raw = b""
    while chunk := hs.recv(65536):
        raw += chunk
    hs.close()
    body = raw.decode().partition("\r\n\r\n")[2]
    health = json.loads(body)
    check(health["status"] == "ok", "/healthz is healthy")
    check("cache_degraded" in health, "/healthz reports cache state")

    # Graceful shutdown: SIGTERM -> clean drain -> exit 0.
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not drain within 60s of SIGTERM")
    check(code == 0, f"clean drain exits 0 (got {code})")
    print("serve smoke: all checks passed")


def http_get(port, path):
    hs = socket.create_connection(("127.0.0.1", port), timeout=30)
    hs.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    raw = b""
    while chunk := hs.recv(65536):
        raw += chunk
    hs.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    return head, body


TRACE_ID = re.compile(r"^[0-9a-f]{16}$")


def validate_html(body, name):
    from html.parser import HTMLParser

    void = {"meta", "br", "hr", "img", "link", "input", "rect", "line"}

    class Check(HTMLParser):
        def __init__(self):
            super().__init__()
            self.stack = []

        def handle_starttag(self, tag, attrs):
            if tag not in void:
                self.stack.append(tag)

        def handle_startendtag(self, tag, attrs):
            pass

        def handle_endtag(self, tag):
            if not (self.stack and self.stack[-1] == tag):
                fail(f"{name}: mismatched </{tag}> (open: {self.stack[-3:]})")
            self.stack.pop()

    c = Check()
    c.feed(body)
    check(not c.stack, f"{name}: HTML well-formed (no unclosed tags)")


def dashboard_drill(proc, port, log_path):
    s, f = connect(port)

    # A small burst: three good requests, one past-deadline, one
    # malformed line — every wire response must carry a trace id.
    wire_ids = {}
    for i in range(3):
        r = roundtrip(
            f,
            {
                "id": f"g{i}",
                "workload": "matmul",
                "params": {"n": 64, "tile": 8},
            },
        )
        check(r["status"] == "ok", f"request g{i} ok")
        check(TRACE_ID.match(r.get("trace_id", "")), f"g{i} carries a trace id")
        stages = r.get("stage_us", {})
        check(
            "queue-wait" in stages and "model" in stages,
            f"g{i} stage breakdown has queue-wait and model",
        )
        total_us = sum(stages.values())
        check(
            abs(total_us - r["elapsed_ms"] * 1000.0) < 1.0,
            f"g{i} stages tile elapsed ({total_us:.1f} vs "
            f"{r['elapsed_ms'] * 1000.0:.1f} us)",
        )
        wire_ids[f"g{i}"] = r["trace_id"]

    r = roundtrip(
        f,
        {
            "id": "late",
            "workload": "matmul",
            "params": {"n": 64, "tile": 8},
            "deadline_ms": 0,
        },
    )
    check(r["status"] == "timeout", "0ms deadline -> timeout")
    check(TRACE_ID.match(r.get("trace_id", "")), "timeout carries a trace id")
    timeout_trace = r["trace_id"]

    f.write("{definitely not json\n")
    f.flush()
    r = json.loads(f.readline())
    check(r["status"] == "malformed", "malformed line rejected")
    check(
        TRACE_ID.match(r.get("trace_id", "")),
        "even the malformed response carries a trace id",
    )
    s.close()

    # The live dashboard: well-formed HTML with per-status counts and
    # non-empty stage-latency percentiles.
    head, body = http_get(port, "/dashboard")
    check(head.startswith("HTTP/1.0 200"), "/dashboard is 200")
    check("text/html" in head, "/dashboard declares text/html")
    validate_html(body, "/dashboard")
    for needle, why in [
        ("Responses by status", "per-status table present"),
        (">ok<", "ok status row present"),
        (">timeout<", "timeout status row present"),
        ("Latency by stage", "stage-latency table present"),
        ("queue-wait", "queue-wait stage percentiles present"),
        ("p95", "percentile columns present"),
        ("Calibration cache", "calibration cache section present"),
    ]:
        check(needle in body, f"/dashboard: {why}")

    # Graceful shutdown first so the access log is flushed and closed.
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not drain within 60s of SIGTERM")
    check(code == 0, f"clean drain exits 0 (got {code})")

    # Structured access log: every line is one JSON object carrying
    # level, component and trace_id.
    lines = [ln for ln in open(log_path) if ln.strip()]
    check(len(lines) >= 5, f"access log has the burst ({len(lines)} lines)")
    by_trace = {}
    for ln in lines:
        ev = json.loads(ln)
        for key in ("level", "component", "trace_id", "ts", "msg"):
            if key not in ev:
                fail(f"log line missing {key!r}: {ln.strip()}")
        if ev["component"] == "serve.access":
            by_trace[ev["trace_id"]] = ev
    check(True, "every log line carries level/component/trace_id")

    # The timeout request's access-log line and wire response share a
    # trace id; so do the good requests.
    check(
        timeout_trace in by_trace
        and by_trace[timeout_trace]["status"] == "timeout",
        "timeout wire response and access-log line share a trace id",
    )
    for rid, trace in wire_ids.items():
        check(
            trace in by_trace and by_trace[trace]["id"] == rid,
            f"{rid} wire response and access-log line share a trace id",
        )

    # The serve-path accuracy ledger is stamped with the originating
    # request's trace id.
    cache_dir = os.environ.get(
        "GPUPERF_CACHE_DIR",
        os.path.join(
            os.environ.get(
                "XDG_CACHE_HOME",
                os.path.join(os.path.expanduser("~"), ".cache"),
            ),
            "gpuperf",
        ),
    )
    ledger = os.path.join(cache_dir, "ledger", "matmul.jsonl")
    check(os.path.exists(ledger), "serve wrote the matmul accuracy ledger")
    stamped = [
        json.loads(ln)
        for ln in open(ledger)
        if json.loads(ln).get("trace_id") in wire_ids.values()
    ]
    check(
        len(stamped) == len(wire_ids),
        f"ledger records stamped with the requests' trace ids "
        f"({len(stamped)}/{len(wire_ids)})",
    )
    # Appends after the first answer from the ledger's tail index rather
    # than a reload; run ids must still count up from 1 in file order.
    # The drill starts on an empty cache directory, so the file holds
    # this daemon's records alone.
    runs = [json.loads(ln)["run"] for ln in open(ledger) if ln.strip()]
    check(
        runs == list(range(1, len(runs) + 1)),
        f"matmul ledger run ids are 1..{len(runs)} in file order",
    )
    print("dashboard smoke: all checks passed")


def validate_openmetrics(body):
    """Minimal OpenMetrics shape check: TYPE lines precede their samples,
    sample values parse as floats, counters end in _total."""
    types = {}
    values = {}
    samples = 0
    for line in body.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split()
            types[name] = kind
            continue
        if not line or line.startswith("#"):
            continue  # HELP / UNIT / EOF
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
        if not m:
            fail(f"unparsable metrics line: {line!r}")
        name, _, value = m.groups()
        values[name] = float(value)  # raises on garbage
        base = re.sub(r"_(total|count|sum|bucket)$", "", name)
        if base not in types and name not in types:
            fail(f"sample {name} has no TYPE declaration")
        samples += 1
    check(samples > 10, f"metrics dump is substantive ({samples} samples)")
    serve_metrics = [n for n in types if n.startswith("serve_")]
    check(
        len(serve_metrics) >= 5,
        f"serve metrics exported ({len(serve_metrics)} families)",
    )
    # The daemon's GC cost, refreshed before every dump: the drill's
    # requests have run minor collections and grown the heap by now.
    for family in ("minor_collections", "major_collections", "heap_words"):
        name = "serve_gc_" + family
        check(types.get(name) == "gauge", f"{name} gauge exported")
    check(
        values["serve_gc_minor_collections"] > 0
        and values["serve_gc_heap_words"] > 0,
        "GC gauges are current",
    )


if __name__ == "__main__":
    main()
