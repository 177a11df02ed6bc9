"""What the benchmark's tracer (bench/tracing.py) reads from gapseq.

The tracer wraps gapseq's public functions by name and counts from their
arguments and results; a rename or a changed result type in gapseq would
silently zero a per-layer metric. This runs it around in-process CLI
calls of each layer and checks the counters it reports.
"""

import importlib.util
from pathlib import Path

import gapseq.cli
from gapseq import folding

from conftest import FIXTURES

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

BFILE = FIXTURES / "b054265.txt"
FOLD_COUNT = 3000
ARGVS = [
    ["terms", "--spec", "fold", "--count", str(FOLD_COUNT)],
    ["gapprod", "--spec", "linear:3,1", "--count", "40"],
    ["check-oeis", "--spec", "primes", "--kind", "gapsum", "--id", "A054265",
     "--bfile", str(BFILE)],
    ["gf", "--horadam=1,1,1,1", "--gapsum", "--expand", "20"],
    ["table", "fc"],
]


def test_tracer_reads_every_layer(capsys):
    original = gapseq.cli.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [gapseq.cli.run(argv) for argv in ARGVS]
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert codes == [0] * len(ARGVS)
    assert gapseq.cli.run is original

    report = tracer.report(len(out.encode()))
    counts = report["counts"]
    data = BFILE.read_bytes()
    rows = [line for line in data.splitlines() if line.strip() and not line.startswith(b"#")]
    assert counts["oeis.bytes_parsed"] == len(data)
    assert counts["oeis.entries_parsed"] == len(rows)
    assert counts["folding.walk_len"] == len(folding._walk) - 1 >= FOLD_COUNT - 1
    assert {"cli.parse", "cli.render"} <= report["self_s"].keys()
    for name in ("gaps.product_range_calls", "genfun.ratfunc_builds", "tables.built"):
        assert counts[name] > 0, name
    assert counts["cli.out_bytes"] == len(out.encode())
