"""Benchmark for kovex: time to an exact verdict on three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 38 --trace 0

``--workload`` is one of ``corpus``, ``series_deep`` and ``loci_scale``
(``BENCHMARK.json`` says why each was chosen).  The process runs one
workload as a closed loop with one client: the jobs run one after another,
and passes over the job list repeat until the next one would end after
``--seconds``.  Every job's output is checked against a reference after
its pass, outside the timed region; a job that raises, exits with an
unexpected code or disagrees with its reference counts as failed.

The host is a share of a machine whose speed moves by up to 1.8x for
seconds to minutes at a time, in CPU time as much as in wall time, so a
latency in seconds says as much about the neighbours as about kovex.  Each
job is therefore timed between runs of ``reference_work``, a fixed
computation of the benchmark's own, and its latency is taken in multiples
of their mean time around it (unit ``ref``, see ``_per_job``): both slow
down together, and the ratio holds within a few percent where the seconds
swing by a quarter.  Each job's ratio is the median over the passes.

End-to-end metrics: ``pass_rel`` and ``cpu_rel``, the sums over the job
list of each job's wall and process CPU time in ``ref``; ``job_rel_p50``
and ``job_rel_max``, the median and the largest of the jobs' wall times in
``ref`` (the largest is the hardest input's latency); ``setup_s``, the
median wall time of fresh processes that only start, import kovex and
build the inputs; and ``peak_rss_mib``, the process's peak resident
memory.  The same times in seconds are printed and kept in the result
file, with ``ref_s``, the median reference time, which converts one into
the other.

With ``--trace 0`` the last line on standard output is the JSON result with
every end-to-end metric.  With ``--trace 1`` untraced passes alternate with
passes traced by spans around kovex's public functions (``tracing.py``),
and the last line holds the per-layer metrics.  The full result (environment,
per-pass times, failed jobs) goes to ``bench/out/<workload>-seed<N>-
trace<T>.json``, and a traced run writes its spans beside it.

kovex is imported from ``src/`` of the checkout; without it the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
REFERENCE_RUNS = 2
NEIGHBOURS = 2

FLOW_OTHER = ("param_flow", "flow_ladder_check", "flow_support_check",
              "expansion_support_check", "kernel_identity_check",
              "g0_nonzero_certificate")

# Work counts that must repeat exactly from pass to pass.
COUNTS = ("kovalevskaya.find_loci.calls", "kovalevskaya.verify_locus.calls",
          "kovalevskaya.loci_missing", "degeneration.find_loci.calls",
          "exactalg.solve_poly_system.calls",
          "exactalg.roots_exact_first.calls", "laurent.build_series.calls",
          "laurent.orders", "laurent.terms", "cli.report_bytes", "trace.spans")


def _import_kovex(root: Path) -> None:
    src = root / "src"
    if not (src / "kovex" / "__init__.py").is_file():
        raise workloads.SetupError(f"no kovex sources under {src}")
    sys.path.insert(0, str(src))
    import kovex
    if Path(kovex.__file__).resolve().parent != (src / "kovex").resolve():
        raise workloads.SetupError(
            f"kovex was imported from {kovex.__file__}, not from {src}")


def _setup(args, scratch: Path):
    root = Path.cwd()
    _import_kovex(root)
    scratch.mkdir(parents=True, exist_ok=True)
    return workloads.build(args.workload, args.seed, root, scratch)


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that start, set up and exit."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def _observers() -> dict:
    def series(sol):
        return {"laurent.orders": sol.truncation,
                "laurent.terms": sum(len(p.terms) for row in sol.coefficients
                                     for p in row)}

    def loci(search):
        return {"exact_loci": sum(1 for loc in search.loci if loc.is_exact)}

    return {"laurent.build_series": series, "kovalevskaya.find_loci": loci}


def reference_work() -> Fraction:
    """A fixed computation in the style of kovex's inner loops (small
    ``Fraction`` products and sums), about 10 ms on a 2-core VM.  It is
    the benchmark's own code, the same on every commit it measures."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i) * Fraction(i + 1, i + 3)
    return total


def _reference_times() -> list[float]:
    """Wall times of REFERENCE_RUNS back-to-back runs of reference_work."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs passes over a workload's jobs and checks every output.

    Around every job it times ``reference_work`` REFERENCE_RUNS times
    before and as many after, so that each latency has beside it the
    host's speed at that moment (``ref_s``, the mean of those times)."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.passes: list[dict] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self._first_digest: dict[str, str] = {}
        self._job_id = 0

    def run_pass(self) -> dict:
        tracer = self.tracer
        traced = bool(tracer and tracer.installed)
        span_start = len(tracer.spans) if tracer else 0
        counts_start = dict(tracer.counts) if tracer else {}
        outputs, latencies, cpu_times, refs = [], [], [], []
        start_pass = time.perf_counter()
        for job in self.workload.jobs:
            self._job_id += 1
            before = _reference_times()
            if tracer:
                tracer.job = self._job_id
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                result = (True, job.run())
            except Exception:  # a failed job is counted, never fatal
                result = (False, traceback.format_exc(limit=4))
            latencies.append(time.perf_counter() - start)
            cpu_times.append(time.process_time() - cpu_start)
            if tracer:
                tracer.job = None
            refs.append(statistics.fmean(before + _reference_times()))
            outputs.append(result)
        record = {"wall_s": sum(latencies), "cpu_s": sum(cpu_times),
                  "elapsed_s": time.perf_counter() - start_pass,
                  "job_s": latencies, "job_cpu_s": cpu_times,
                  "ref_s": refs, "traced": traced, "report_bytes": 0,
                  "loci_missing": 0, "digests": {}}
        if tracer:
            record["spans"] = (span_start, len(tracer.spans))
            record["counts"] = {k: v - counts_start.get(k, 0)
                                for k, v in tracer.counts.items()}
        for job, (ran, value) in zip(self.workload.jobs, outputs):
            self.attempted += 1
            outcome = (self._check(job, value) if ran
                       else workloads.Outcome(False, value))
            first = self._first_digest.setdefault(job.name, outcome.digest)
            if outcome.ok and outcome.digest != first:
                outcome = workloads.Outcome(
                    False, "output differs from the first pass's")
            record["report_bytes"] += outcome.report_bytes
            record["loci_missing"] += outcome.loci_missing
            record["digests"][job.name] = outcome.digest
            if not outcome.ok:
                self.failures.append({"pass": len(self.passes),
                                      "job": job.name,
                                      "detail": outcome.detail})
        self.passes.append(record)
        return record

    @staticmethod
    def _check(job, value):
        try:
            return job.check(value)
        except Exception:  # an output the check cannot read fails the job
            return workloads.Outcome(False, traceback.format_exc(limit=4))

    def run_for(self, seconds: float) -> list[dict]:
        """Passes until the next one would end after ``seconds``; at least
        one."""
        deadline = time.perf_counter() + seconds
        done = [self.run_pass()]
        while time.perf_counter() + statistics.median(
                p["elapsed_s"] for p in done) <= deadline:
            done.append(self.run_pass())
        return done


def _per_job(measured: list[dict], key: str, reference: bool) -> list[float]:
    """Each job's median over the passes of ``key``, in seconds or, with
    ``reference``, in multiples of the reference time around it: the mean
    of ``ref_s`` over the job and the NEIGHBOURS jobs on either side of it
    in the order they ran, across pass boundaries.  Twenty reference runs
    spread over the seconds around a job follow the host's speed through a
    job of several seconds better than the four beside it."""
    jobs = len(measured[0][key])
    times = [t for p in measured for t in p[key]]
    refs = [r for p in measured for r in p["ref_s"]]
    local = [statistics.fmean(refs[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
             if reference else 1.0 for i in range(len(refs))]
    return [statistics.median(t / r for t, r in zip(times[j::jobs],
                                                    local[j::jobs]))
            for j in range(jobs)]


def end_to_end(measured: list[dict], setup: list[float], names: list[str]):
    """The end-to-end metrics, and the same times in seconds (reported,
    not metrics)."""
    wall = _per_job(measured, "job_s", True)
    metrics = {
        "pass_rel": (sum(wall), "ref"),
        "cpu_rel": (sum(_per_job(measured, "job_cpu_s", True)), "ref"),
        "job_rel_p50": (statistics.median(wall), "ref"),
        "job_rel_max": (max(wall), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    seconds = _per_job(measured, "job_s", False)
    raw = {"pass_s": sum(seconds), "job_s_p50": statistics.median(seconds),
           "job_s_max": max(seconds),
           "ref_s": statistics.median(r for p in measured for r in p["ref_s"]),
           "job_s": dict(zip(names, seconds))}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, raw


def _layer_metrics(spans, record) -> dict:
    """Per-layer metrics of one traced pass."""
    stats = tracing.summarize(spans)

    def get(key, what):
        return stats.get(key, {}).get(what, 0)

    counts = record["counts"]
    verify = get("kovalevskaya.verify_locus", "calls")
    out = {
        "kovalevskaya.find_loci.calls": get("kovalevskaya.find_loci", "calls"),
        "kovalevskaya.find_loci.self_s": get("kovalevskaya.find_loci", "self_s"),
        "kovalevskaya.verify_locus.calls": verify,
        "kovalevskaya.verify_locus.self_s":
            get("kovalevskaya.verify_locus", "self_s"),
        "kovalevskaya.exact_yield":
            counts.get("exact_loci", 0) / verify if verify else 0.0,
        "kovalevskaya.loci_missing": record["loci_missing"],
        "degeneration.find_loci.calls":
            get("degeneration>kovalevskaya.find_loci", "calls"),
        "degeneration.find_loci.total_s":
            get("degeneration>kovalevskaya.find_loci", "total_s"),
        "degeneration.degenerate.total_s":
            get("degeneration.degenerate_gamma1", "total_s")
            + get("degeneration.degenerate_gamma_ge2", "total_s"),
        "degeneration.deformed_field_check.total_s":
            get("degeneration.deformed_field_check", "total_s"),
        "degeneration.g_expansion.self_s":
            get("degeneration.g_expansion", "self_s"),
        "degeneration.flow_other.self_s":
            sum(get(f"degeneration.{f}", "self_s") for f in FLOW_OTHER),
        "exactalg.solve_poly_system.calls":
            get("exactalg.solve_poly_system", "calls"),
        "exactalg.solve_poly_system.self_s":
            get("exactalg.solve_poly_system", "self_s"),
        "exactalg.roots_exact_first.calls":
            get("exactalg.roots_exact_first", "calls"),
        "exactalg.roots_exact_first.self_s":
            get("exactalg.roots_exact_first", "self_s"),
        "vfmodel.infer_weights.self_s": get("vfmodel.infer_weights", "self_s"),
        "vfmodel.check_zero_set.self_s": get("vfmodel.check_zero_set", "self_s"),
        "vfmodel.commutes.self_s": get("vfmodel.commutes", "self_s"),
        "laurent.build_series.calls": get("laurent.build_series", "calls"),
        "laurent.build_series.self_s": get("laurent.build_series", "self_s"),
        "laurent.orders": counts.get("laurent.orders", 0),
        "laurent.terms": counts.get("laurent.terms", 0),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.report_bytes": record["report_bytes"],
        "vfparse.parse_problem.self_s": get("vfparse.parse_problem", "self_s"),
        "trace.spans": len(spans),
    }
    for module in tracing.MODULES:
        out[f"{module}.self_s"] = get(module, "self_s")
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"kovalevskaya.exact_yield": "ratio",
            "cli.report_bytes": "bytes"}.get(name, "count")


def traced_metrics(args, runner: Runner, tracer: tracing.Tracer):
    """Untraced and traced passes alternate, so both see the same host."""
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        pair_s = sum(statistics.median(p["elapsed_s"] for p in side)
                     for side in (plain, traced))
        if time.perf_counter() + pair_s > deadline:
            break
    per_pass = [_layer_metrics(tracer.spans[slice(*p["spans"])], p)
                for p in traced]
    # median_low keeps the counts, which repeat exactly, whole numbers
    values = {name: statistics.median_low(p[name] for p in per_pass)
              for name in per_pass[0]}
    plain_s = statistics.median(p["wall_s"] for p in plain)
    traced_s = statistics.median(p["wall_s"] for p in traced)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.pass_s"] = traced_s
    detail = {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
              "counts_repeat": {n: len({p[n] for p in per_pass}) == 1
                                for n in COUNTS},
              "per_pass": per_pass}
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out_dir = HERE / "out"
    scratch = out_dir / f"scratch-{os.getpid()}"
    try:
        try:
            workload = _setup(args, scratch)
        except workloads.SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            return 0
        return _measure(args, workload, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, workload, out_dir: Path) -> int:
    tracer = tracing.Tracer(_observers()) if args.trace else None
    runner = Runner(workload, tracer)
    result: dict = {"workload": args.workload, "trace": args.trace,
                    "environment": _environment(args.seed),
                    "inputs_digest": workload.inputs_digest,
                    "jobs": [job.name for job in workload.jobs],
                    "notes": workload.notes}
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, result["trace_detail"] = traced_metrics(args, runner, tracer)
        tracer.write(Path(f"{stem}.spans.jsonl"))
    else:
        measured = runner.run_for(args.seconds)
        setup = _setup_seconds(args)
        metrics, result["seconds"] = end_to_end(measured, setup,
                                                result["jobs"])
        result["setup_s"] = setup
    failed = len(runner.failures)
    line = {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}
    result.update(line)
    result["fail_frac"] = failed / runner.attempted
    result["failures"] = runner.failures
    result["passes"] = [{k: v for k, v in p.items() if k != "spans"}
                        for p in runner.passes]
    out_dir.mkdir(parents=True, exist_ok=True)
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'passes measured':45s} {len(runner.passes)}")
        for name in ("pass_s", "job_s_p50", "job_s_max", "ref_s"):
            print(f"{name + ' (seconds, not a metric)':45s} "
                  f"{result['seconds'][name]:.6g} s")
    print(f"{'fail_frac':45s} {result['fail_frac']:.6g} ratio "
          f"({failed} of {runner.attempted} jobs)")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
