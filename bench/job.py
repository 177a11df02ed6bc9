"""Run one benchmark job in a fresh interpreter and report it as JSON.

Usage: python3 bench/job.py ROOT PAYLOAD_JSON

The process imports gapseq from ROOT/src and notes when it is ready. It
then times the reference computation three times, the job (from its call
into gapseq to the last byte of its output) and the reference three
times more, and prints one JSON line; ``ref_s`` is the median of the six
reference times. A lib job's result is checked here, after the timing,
by its digest against the one the payload carries.
"""

import sys
import time


def reference() -> float:
    """Seconds taken by a fixed mix of interpreted loops, big-integer
    arithmetic and decimal conversion; one ``ref`` is this time, measured
    beside every job. The conversions (about a third of the time) slow
    down less than the rest when the host is loaded, as gapseq's
    rendering and b-file parsing do."""
    t0 = time.perf_counter()
    seen = {}
    acc = 0
    for i in range(40000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        seen[acc & 4095] = i
    a, b = 0, 1
    for _ in range(4000):
        a, b = b, a + b
    x = (a * b) // (a + 1)
    y = pow(3, 20000) * pow(7, 9000)
    z = 7**4500
    for _ in range(12):
        z = int(str(z)) + 1
    check = acc ^ len(seen) ^ (x & 0xFFFF) ^ (y % 1000003) ^ (z & 0xFF)
    if check == -1:
        raise AssertionError("unreachable")
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """This process's peak resident memory in KiB. VmHWM, unlike
    getrusage's ru_maxrss, is not inherited from the parent across exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    # gapseq comes first, so that `ready` marks it imported and ready before
    # any module of the benchmark's own is loaded.
    sys.path.insert(0, sys.argv[1] + "/src")
    import gapseq
    import gapseq.cli

    ready = time.monotonic()
    import importlib
    import io
    import json
    import os
    import statistics

    payload = json.loads(sys.argv[2])
    trace = None
    if payload.get("trace"):
        import tracing

        trace = tracing.Tracer()
    ref_before = [reference() for _ in range(3)]
    if trace:
        trace.install()
    report = {"ready": ready}
    if "cli" in payload:
        out = open(payload["out"], "w", encoding="utf-8", newline="\n")
        err = io.StringIO()
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            code = gapseq.cli.run(payload["cli"])
            out.flush()
        except Exception as exc:  # reported as a wrong result, not a crash
            code, report["error"] = None, f"gapseq raised {exc!r}"
        job_s = time.perf_counter() - t0
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        out.close()
        report.update(exit=code, stderr=err.getvalue()[-2000:])
        out_bytes = os.path.getsize(payload["out"])
    else:
        module, name = payload["lib"].split(".")
        func = getattr(importlib.import_module(f"gapseq.{module}"), name)
        args = [
            getattr(gapseq, a["spec"])(*a["args"]) if isinstance(a, dict) else a
            for a in payload["args"]
        ]
        t0 = time.perf_counter()
        try:
            result = func(*args)
        except Exception as exc:  # reported as a wrong result, not a crash
            result, report["error"] = None, f"gapseq raised {exc!r}"
        job_s = time.perf_counter() - t0
        out_bytes = 0
    rss_kb = peak_rss_kb()
    if trace:
        trace.uninstall()
        report["trace"] = trace.report(out_bytes)
    ref_after = [reference() for _ in range(3)]
    if "lib" in payload and "error" not in report:
        import oracles

        if oracles.digest(result) != payload["want"]:
            report["error"] = "result differs from the oracle"
    report.update(job_s=job_s, ref_s=statistics.median(ref_before + ref_after), rss_kb=rss_kb)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
