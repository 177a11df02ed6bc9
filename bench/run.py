"""gapseq benchmark: one workload of gapseq jobs, each in a fresh interpreter.

    python3 bench/run.py --workload stream|bignum|verify --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are found from
this file). Jobs run one at a time, each in its own interpreter, in
whole rounds of the workload's job list until the next round would pass
``--seconds``. Every job's output is checked against the oracles. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1). Details of the run land in
.bench_work/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
JOB_TIMEOUT_S = 60
# setup_s is reported in seconds at a fixed reference speed: each job's
# spawn-to-ready time in refs, times this nominal ref time (about what
# the reference computation takes on the machine the figures in the
# README come from). Raw seconds drift with the load on a shared host.
NOMINAL_REF_S = 0.013

END_TO_END = {
    "wall_ref": "ref",
    "job_p50_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, tracer key). Times are self seconds turned
# into ref units job by job; counts are summed over a round.
PER_LAYER = {
    "cli.parse_ref": ("ref", "cli.parse"),
    "cli.render_ref": ("ref", "cli.render"),
    "cli.out_bytes": ("bytes", "cli.out_bytes"),
    "sequences.self_ref": ("ref", "sequences"),
    "sequences.term_calls": ("count", "sequences.term_calls"),
    "sequences.terms_calls": ("count", "sequences.terms_calls"),
    "sequences.term_calls_per_value": ("ratio", None),
    "sequences.nth_prime_calls": ("count", "sequences.nth_prime_calls"),
    "gaps.self_ref": ("ref", "gaps"),
    "gaps.calls": ("count", "gaps.entries"),
    "gaps.product_range_calls": ("count", "gaps.product_range_calls"),
    "gaps.product_bits": ("bits", "gaps.product_bits"),
    "combinatorics.self_ref": ("ref", "combinatorics"),
    "combinatorics.binom_calls": ("count", "combinatorics.binom_calls"),
    "combinatorics.binom_bits": ("bits", "combinatorics.binom_bits"),
    "folding.self_ref": ("ref", "folding"),
    "folding.walk_len": ("count", "folding.walk_len"),
    "genfun.self_ref": ("ref", "genfun"),
    "genfun.ratfunc_builds": ("count", "genfun.ratfunc_builds"),
    "genfun.poly_gcd_calls": ("count", "genfun.poly_gcd_calls"),
    "genfun.expand_coeffs": ("count", "genfun.expand_coeffs"),
    "oeis.parse_ref": ("ref", "oeis.parse"),
    "oeis.bytes_parsed": ("bytes", "oeis.bytes_parsed"),
    "oeis.entries_parsed": ("count", "oeis.entries_parsed"),
    "oeis.cross_check_ref": ("ref", "oeis.cross_check"),
    "oeis.compared": ("count", "oeis.compared"),
    "tables.self_ref": ("ref", "tables"),
    "tables.built": ("count", "tables.built"),
    "trace.overhead_ref": ("ref", None),
}


class Runner:
    def __init__(self, jobs: list[workloads.Job], workdir: Path) -> None:
        self.jobs = jobs
        self.out_path = workdir / "out.txt"
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.unexpected = False
        # Outputs already found right by the oracles in this run: the same
        # bytes from the same job get the same verdict without a recheck.
        self.verified: set[tuple[str, int, str, str]] = set()

    def run_job(self, job: workloads.Job, trace: bool) -> dict:
        payload = dict(job.payload, out=str(self.out_path), trace=trace)
        argv = [sys.executable, str(BENCH / "job.py"), str(ROOT), json.dumps(payload)]
        spawned = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"job process {job.name!r} failed:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        error = report.get("error")
        if job.check is not None and not error:
            try:
                out = self.out_path.read_text(encoding="utf-8")
                key = (job.name, report["exit"], out, report["stderr"])
                if key not in self.verified:
                    error = job.check(report["exit"], out, report["stderr"])
                    if not error:
                        self.verified.add(key)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        self.attempted += 1
        if error:
            self.failed += 1
            if not job.known_fault:
                self.unexpected = True
                self.errors.append(f"{job.name}: {error}")
        report["ref_units"] = report["job_s"] / report["ref_s"]
        return report

    def run_round(self, trace: bool) -> list[dict]:
        return [self.run_job(job, trace) for job in self.jobs]


def _layer_totals(jobs: list[workloads.Job], reports: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    values = 0
    for job, rep in zip(jobs, reports):
        values += job.values
        tr = rep["trace"]
        for name, (unit, key) in PER_LAYER.items():
            if key is None:
                continue
            if unit == "ref":
                v = tr["self_s"].get(key, 0.0) / rep["ref_s"]
            else:
                v = tr["counts"].get(key, 0)
            totals[name] = totals.get(name, 0) + v
    totals["sequences.term_calls_per_value"] = totals["sequences.term_calls"] / values
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gapseq" / "__init__.py").is_file():
        print(f"bench: no gapseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the checker's own parsing only
    failures = selftest.run()
    if failures:
        print("bench: oracle self-test failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 3

    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    jobs = workloads.WORKLOADS[args.workload](rng, workdir)
    # Compile gapseq's bytecode once, as an installed package would have it.
    Runner(jobs, workdir).run_job(jobs[0], trace=False)
    runner = Runner(jobs, workdir)

    rounds: list[tuple[bool, list[dict]]] = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        rounds.append((traced, runner.run_round(traced)))
        last = time.monotonic() - t0
        done = time.monotonic() - start + last > args.seconds
        if done and (not args.trace or len(rounds) >= 2):
            break

    plain = [reps for traced, reps in rounds if not traced]
    # Time for the whole job list: the sum over jobs of each job's median
    # over rounds, so one disturbed job in one round does not move it.
    wall = sum(statistics.median(reps[i]["ref_units"] for reps in plain)
               for i in range(len(jobs)))
    if args.trace:
        traced_rounds = [reps for traced, reps in rounds if traced]
        per_round = [_layer_totals(jobs, reps) for reps in traced_rounds]
        traced_wall = sum(statistics.median(reps[i]["ref_units"] for reps in traced_rounds)
                          for i in range(len(jobs)))
        values = {name: statistics.median(t[name] for t in per_round)
                  for name in PER_LAYER if name != "trace.overhead_ref"}
        values["trace.overhead_ref"] = traced_wall - wall
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        reports = [r for reps in plain for r in reps]
        values = {
            "wall_ref": wall,
            "job_p50_ref": statistics.median(r["ref_units"] for r in reports),
            "setup_s": NOMINAL_REF_S * statistics.median(
                r["setup_s"] / r["ref_s"] for r in reports),
            "peak_rss_mb": max(r["rss_kb"] for r in reports) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    all_reports = [r for _, reps in rounds for r in reps]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "rounds": len(rounds),
        "ref_s_median": statistics.median(r["ref_s"] for r in all_reports),
        "wall_s": sum(statistics.median(reps[i]["job_s"] for reps in plain)
                      for i in range(len(jobs))),
        "job_p50_s": statistics.median(r["job_s"] for reps in plain for r in reps),
        "setup_s_raw_median": statistics.median(r["setup_s"] for reps in plain for r in reps),
        "jobs": {
            job.name: {
                "job_s": statistics.median(reps[i]["job_s"] for reps in plain),
                "ref_units": statistics.median(reps[i]["ref_units"] for reps in plain),
                "rss_mb": max(reps[i]["rss_kb"] for reps in plain) / 1024,
            }
            for i, job in enumerate(jobs)
        },
        "errors": runner.errors,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(dict(detail, metrics=metrics), indent=1) + "\n")
    for err in runner.errors:
        print(f"bench: wrong output: {err}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ref={detail['ref_s_median'] * 1e3:.2f}ms wall={detail['wall_s']:.3f}s "
          f"job_p50={detail['job_p50_s'] * 1e3:.1f}ms", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
