#!/usr/bin/env python3
"""Smoke-test `gpuperf sweep-devices` across the built-in device fleet.

Runs one compute-bound workload (matmul) and one atomic-bound workload
(histogram) through `sweep-devices --format json`, schema-validates the
payload, and asserts the cross-device physics the fleet exists to show:

- the fleet has the ten expected devices and the baseline row is the
  1.00x reference;
- matmul's bottleneck classification SHIFTS between device generations
  (instruction-pipeline-bound on GT200, global-memory-bound on the
  volta/ampere-like profiles) — at least two distinct bottleneck
  classes across the fleet, at least one row flagged shifted;
- histogram stays atomic-bound on every device (contention scales with
  the machine, so no shift) and nothing is flagged shifted;
- `gpuperf whatif` and the what-if section of `gpuperf report --format
  json` tell the same device comparison as the sweep: for each workload,
  every device's speedup (at the two decimals `whatif` prints) and
  bottleneck agree with its sweep row.

Usage: sweep_smoke.py path/to/gpuperf.exe
"""

import json
import re
import subprocess
import sys

EXPECTED_DEVICES = [
    "baseline", "maxblocks16", "banks17", "segment16", "segment4",
    "bigregfile", "bigsmem", "earlyrelease", "volta-like", "ampere-like",
]
BOTTLENECKS = {
    "instruction pipeline", "shared memory", "atomic serialization",
    "global memory",
}

fail_count = 0


def check(cond, msg):
    global fail_count
    if cond:
        print(f"  ok: {msg}")
    else:
        fail_count += 1
        print(f"  FAIL: {msg}")


def run(exe, *args):
    out = subprocess.run([exe, *args], check=True, capture_output=True,
                         text=True)
    return out.stdout


def sweep(exe, workload, extra=()):
    return json.loads(run(exe, "sweep-devices", workload, "--format", "json",
                          *extra))


# One `gpuperf whatif` line: spec name, prediction, bottleneck and, past
# the baseline line, the speedup.
WHATIF_LINE = re.compile(
    r"^(?P<spec>.+?) +(?P<ms>\S+) ms  (?P<bottleneck>.+?)"
    r"(?: \((?P<speedup>\S+)x\))?$")


def check_comparisons_agree(exe, workload, extra, rows):
    """`whatif` over every variant and `report`'s what-if rows against the
    sweep rows of the same workload."""
    variants = [r["device"] for r in rows[1:]]
    args = [a for v in variants for a in ("--variant", v)]
    lines = run(exe, "whatif", workload, *extra, *args).splitlines()
    check(len(lines) == len(rows),
          f"whatif {workload}: one line per device ({len(lines)})")
    for i, (line, r) in enumerate(zip(lines, rows)):
        d = r["device"]
        m = WHATIF_LINE.match(line)
        check(m is not None, f"whatif {workload} {d}: line parses: {line!r}")
        if m is None:
            continue
        check(m["spec"] == r["spec"], f"whatif {workload} {d}: spec name")
        check(m["bottleneck"] == r["bottleneck"],
              f"whatif {workload} {d}: bottleneck {m['bottleneck']!r}")
        want = None if i == 0 else f"{r['speedup']:.2f}"
        check(m["speedup"] == want,
              f"whatif {workload} {d}: speedup {m['speedup']} (sweep {want})")

    report = json.loads(run(exe, "report", workload, *extra, "--format",
                            "json", "--no-ledger"))
    check(report.get("bottleneck") == rows[0]["bottleneck"],
          f"report {workload}: baseline bottleneck")
    whatif = report.get("whatif", [])
    check([w.get("variant") for w in whatif] == variants,
          f"report {workload}: one what-if row per variant")
    for w, r in zip(whatif, rows[1:]):
        d = r["device"]
        check(w.get("speedup") == r["speedup"],
              f"report {workload} {d}: speedup {w.get('speedup')} "
              f"(sweep {r['speedup']})")
        check(w.get("bottleneck") == r["bottleneck"],
              f"report {workload} {d}: bottleneck")


def validate_schema(payload, workload):
    check(payload.get("workload") == workload, f"workload field is {workload!r}")
    rows = payload.get("devices")
    check(isinstance(rows, list), "devices is a list")
    names = [r.get("device") for r in rows]
    check(names == EXPECTED_DEVICES,
          f"fleet is the ten expected devices (got {names})")
    for r in rows:
        d = r.get("device", "?")
        check(isinstance(r.get("spec"), str) and r["spec"],
              f"{d}: spec is a non-empty string")
        check(isinstance(r.get("predicted_s"), (int, float))
              and r["predicted_s"] > 0, f"{d}: predicted_s > 0")
        check(isinstance(r.get("speedup"), (int, float)) and r["speedup"] > 0,
              f"{d}: speedup > 0")
        check(r.get("bottleneck") in BOTTLENECKS,
              f"{d}: bottleneck {r.get('bottleneck')!r} is a known class")
        check(isinstance(r.get("bottleneck_shifted"), bool),
              f"{d}: bottleneck_shifted is a bool")
        check(r.get("confidence") in ("calibrated", "degraded"),
              f"{d}: confidence {r.get('confidence')!r} is a known level")
        times = r.get("times", {})
        check(all(isinstance(times.get(k), (int, float)) and times[k] >= 0
                  for k in ("instruction_s", "shared_s", "atomic_s",
                            "global_s")),
              f"{d}: four non-negative component times")
        sb = r.get("stage_bottlenecks")
        check(isinstance(sb, list) and sb
              and all(s in ("instr", "shared", "atomic", "global")
                      for s in sb),
              f"{d}: stage bottleneck chain uses known short names")
    base = rows[0]
    check(abs(base["speedup"] - 1.0) < 1e-9, "baseline speedup is 1.00x")
    check(base["bottleneck_shifted"] is False, "baseline is never shifted")
    return rows


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} path/to/gpuperf.exe")
    exe = sys.argv[1]

    print("== matmul: bottleneck must shift across generations ==")
    rows = validate_schema(sweep(exe, "matmul", ("--tile", "16")), "matmul")
    matmul_rows = rows
    classes = {r["bottleneck"] for r in rows}
    check(len(classes) >= 2,
          f"fleet spans >=2 bottleneck classes (got {sorted(classes)})")
    shifted = [r["device"] for r in rows if r["bottleneck_shifted"]]
    check(len(shifted) >= 1, f"some device shifts bottleneck (got {shifted})")
    by_dev = {r["device"]: r for r in rows}
    for dev in ("volta-like", "ampere-like"):
        check(by_dev[dev]["bottleneck"] == "global memory",
              f"{dev} is global-memory-bound on matmul")
        check(by_dev[dev]["speedup"] > 1.0, f"{dev} beats the GT200 baseline")

    print("== histogram: atomic-bound on every device, no shift ==")
    rows = validate_schema(sweep(exe, "histogram"), "histogram")
    check(all(r["bottleneck"] == "atomic serialization" for r in rows),
          "every device is atomic-serialization-bound")
    check(not any(r["bottleneck_shifted"] for r in rows),
          "no device is flagged shifted")

    print("== whatif and report agree with the sweep ==")
    check_comparisons_agree(exe, "matmul", ("--tile", "16"), matmul_rows)
    check_comparisons_agree(exe, "histogram", (), rows)

    if fail_count:
        sys.exit(f"sweep smoke: {fail_count} check(s) failed")
    print("sweep smoke: all checks passed")


if __name__ == "__main__":
    main()
