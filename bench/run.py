"""Benchmark of pclindex: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload index-n200 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload switching-curve --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 5

One process, one thread: the launcher pins the BLAS thread pools to one
thread before numpy is imported, and every job runs in-process in a
closed loop (the next job starts when the previous one has returned).
pclindex is imported from ``src/`` of the checkout; nothing is installed.

A workload is a round of one or two jobs.  A run sets the workload up
three times (fresh import of pclindex, model generation, loading, one
warm-up round).  With ``--trace 0`` it then repeats rounds for
``--seconds``.  A fixed calibration kernel is timed around and during
every job and set-up (calibration.py), and every end-to-end time is
rescaled to the host speed at which the kernel takes its reference time
(WORKLOADS.md says why): ``round_s`` is the median round, and ``setup_s``
the median set-up, at that speed.  Each job's median in plain seconds is
in the ``#`` summary.  With ``--trace 1`` it times untraced rounds for
half of ``--seconds``, traced rounds for the other half, then a size
sweep of the index pipeline, and reports the per-layer metrics.
``--workload all`` runs every workload and prints each job's named
metric.  Every job's output is checked; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
and the exit code is 1 when a check failed.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MAX_TRACED_ROUNDS = 3
SWEEP_SIZES = (25, 50, 100, 200)
SWEEP_COUNTERS = ("linalg.solve.calls", "linalg.solve.flops",
                  "greedy.workload.calls", "setsystem.inner_boundary.calls")
PKG_MODULES = ("admission", "bandit", "cli", "dp", "greedy", "modelio",
               "policies", "setsystem", "simulate")

# (metric, unit, better); values are per round of the workload's jobs
PER_LAYER = [
    ("setsystem.inner_boundary.calls", "count", "lower"),
    ("setsystem.inner_boundary.self_s", "s", "lower"),
    ("setsystem.contains.calls", "count", "lower"),
    ("greedy.ag2.self_s", "s", "lower"),
    ("greedy.workload.calls", "count", "lower"),
    ("greedy.workload.self_s", "s", "lower"),
    ("bandit.pcl_index.self_s", "s", "lower"),
    ("bandit.activity_measure.calls", "count", "lower"),
    ("bandit.activity_measure.self_s", "s", "lower"),
    ("bandit.normalized_passive_cost.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.solve.flops", "flop_computed", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("dp.solve.calls", "count", "lower"),
    ("dp.solve.self_s", "s", "lower"),
    ("dp.pi_passes", "count", "lower"),
    ("dp.crosscheck_indices.self_s", "s", "lower"),
    ("dp.nu_sweep.self_s", "s", "lower"),
    ("dp.fair_charge.self_s", "s", "lower"),
    ("admission.indices.calls", "count", "lower"),
    ("admission.indices.states", "count", "lower"),
    ("admission.indices.self_s", "s", "lower"),
    ("admission.workload_table.self_s", "s", "lower"),
    ("admission.uniformize.self_s", "s", "lower"),
    ("policies.index_table.calls", "count", "lower"),
    ("policies.index_table.self_s", "s", "lower"),
    ("policies.decide.calls", "count", "lower"),
    ("policies.decide.self_s", "s", "lower"),
    ("policies.rate_lookups", "count", "lower"),
    ("policies.rate_lookups.self_s", "s", "lower"),
    ("simulate.events", "count", "higher"),
    ("simulate.self_s", "s", "lower"),
    ("modelio.load_model.self_s", "s", "lower"),
    ("modelio.bytes_read", "byte", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "byte", "lower"),
    ("proc.wait_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
PER_LAYER += [(f"sweep.n{n}.{c}", "flop_computed" if c.endswith("flops") else "count", "lower")
              for n in SWEEP_SIZES for c in SWEEP_COUNTERS]
PER_LAYER += [(f"sweep.{c}.exponent", "ratio", "lower") for c in SWEEP_COUNTERS]
# metrics the tracer reports under another key
TRACER_KEYS = {"policies.rate_lookups": "policies.rate_lookups.calls"}
# exact counts: identical in every traced round of one run
COUNT_UNITS = ("count", "flop_computed", "byte")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Fresh import of pclindex from the checkout's src/ (dependencies
    stay imported)."""
    for name in [n for n in sys.modules if n == "pclindex" or n.startswith("pclindex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(**{m: importlib.import_module(f"pclindex.{m}")
                                    for m in PKG_MODULES})


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "git_sha": git_sha()}


class Run:
    """One workload run: its set-up, its rounds of jobs, and the count of
    attempted and failed jobs."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pkg = self.prep = None

    def record(self, results) -> None:
        """Check one round's results (outside any timed region)."""
        for job, res in zip(self.workload.jobs, results):
            self.attempted += 1
            try:
                found = job.check(self.prep, res)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                found = [f"report not as expected: {type(exc).__name__}: {exc}"]
            if found:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{job.metric}: {'; '.join(found)}")

    def set_up(self) -> tuple[float, float]:
        """SETUP_REPS set-ups, each sampling the calibration kernel;
        returns their median duration, in plain seconds and rescaled to
        the kernel's reference time."""
        times, scaled, warm = [], [], []
        for _ in range(SETUP_REPS):
            with calibration.Sampler() as sampler:
                self.pkg = import_package()
                self.prep = workloads.prepare(self.pkg, self.workload, self.seed, self.workdir)
                warm.append([workloads.execute(job, self.pkg, self.prep)
                             for job in self.workload.jobs])
            times.append(sampler.wall_s)
            scaled.append(calibration.at_reference(sampler.wall_s, sampler.mean_s))
        if self.workload.prepare_reference is not None:
            self.workload.prepare_reference(self.pkg, self.prep)
        for results in warm:
            self.record(results)
        return statistics.median(times), statistics.median(scaled)

    def timed_round(self, calibrate: bool) -> tuple[list[tuple], list]:
        """Run each job once: (wall s, cpu s, calibration s) per job, and
        the results.  The calibration time is the mean kernel time sampled
        around and during the job, whose own times leave the samples out.
        Traced rounds pass ``calibrate=False``: the tracer would count the
        kernel's solves."""
        times, results = [], []
        for job in self.workload.jobs:
            if calibrate:
                with calibration.Sampler() as sampler:
                    results.append(workloads.execute(job, self.pkg, self.prep))
                times.append((sampler.wall_s, sampler.cpu_s, sampler.mean_s))
            else:
                c0, t0 = time.process_time(), time.perf_counter()
                results.append(workloads.execute(job, self.pkg, self.prep))
                times.append((time.perf_counter() - t0, time.process_time() - c0, None))
        return times, results

    def measure(self, seconds: float) -> list[list[tuple]]:
        """Closed loop of calibrated rounds for ``seconds`` (at least
        MIN_ROUNDS): (wall s, cpu s, calibration s, events) per job of
        each round."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            times, results = self.timed_round(calibrate=True)
            self.record(results)
            rounds.append([(wall, cpu, ref, workloads.work_done(res))
                           for (wall, cpu, ref), res in zip(times, results)])
        return rounds


def round_walls(rounds) -> list[float]:
    return [sum(job[0] for job in r) for r in rounds]


def round_scaled(rounds) -> list[float]:
    """Each round's time rescaled to the calibration kernel's reference
    time, job by job with the kernel's time during that job."""
    return [sum(calibration.at_reference(wall, ref) for wall, _, ref, _ in r)
            for r in rounds]


def tail_note(values: list[float]) -> str:
    """Sample count and the highest common percentile with at least ten
    samples beyond it."""
    import numpy as np
    n = len(values)
    fit = [p for p in (50, 75, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10]
    if not fit:
        return f"n={n}, no percentile has 10 samples beyond it"
    p = fit[-1]
    return f"n={n}, p{p:g}={float(np.percentile(values, p)):.6g}"


def named_metrics(workload, rounds) -> dict[str, float]:
    """Each job's named metric, the median over the run of its time
    rescaled to the calibration kernel's reference time, with a summary
    line per job that also gives its fastest value and its plain median."""
    out = {}
    for i, job in enumerate(workload.jobs):
        scaled = [calibration.at_reference(r[i][0], r[i][2]) for r in rounds]
        plain = [r[i][0] for r in rounds]
        if job.unit == "1/s":
            scaled = [r[i][3] / t for r, t in zip(rounds, scaled)]
            plain = [r[i][3] / t for r, t in zip(rounds, plain)]
            best = max(scaled)
        else:
            best = min(scaled)
        out[job.metric] = statistics.median(scaled)
        print(f"# {workload.name}: {job.metric} = {out[job.metric]!r} {job.unit} "
              f"(median; {tail_note(scaled)}; fastest {best!r}; "
              f"plain median {statistics.median(plain)!r})")
    return out


def untraced(run: Run, seconds: float) -> dict:
    setup_plain, setup_s = run.set_up()
    rounds = run.measure(seconds)
    named = named_metrics(run.workload, rounds)
    walls, scaled = round_walls(rounds), round_scaled(rounds)
    refs = [job[2] for r in rounds for job in r]
    print(f"# {run.workload.name}: round_s = {statistics.median(scaled)!r} s "
          f"(median; {tail_note(scaled)}; fastest {min(scaled)!r}); plain seconds: "
          f"round median {statistics.median(walls)!r}, fastest {min(walls)!r}; "
          f"calibration kernel median {statistics.median(refs)!r} s, fastest {min(refs)!r} s, "
          f"reference {calibration.REFERENCE_S!r} s; setup_s = {setup_s!r} s "
          f"({setup_plain!r} s plain; medians of {SETUP_REPS})")
    return {"round_s": statistics.median(scaled), "setup_s": setup_s, "named": named}


def traced(run: Run, seconds: float) -> dict:
    import tracer as tracing

    run.set_up()
    plain = run.measure(seconds / 2)
    waits = [sum(wall - cpu for wall, cpu, _, _ in r) for r in plain]

    trace = tracing.Tracer().install()
    walls, outputs = [], []
    deadline = time.perf_counter() + seconds / 2
    try:
        while len(walls) < MIN_TRACED_ROUNDS or (
                time.perf_counter() < deadline and len(walls) < MAX_TRACED_ROUNDS):
            with trace.job(len(walls)) as counts:
                times, results = run.timed_round(calibrate=False)
            counts["cli.report_bytes"] = sum(len(res.stdout) for res in results)
            walls.append(sum(wall for wall, _, _ in times))
            outputs.append(results)
    finally:
        problems = trace.uninstall()
    for results in outputs:
        run.record(results)
    spans = trace.arrays()
    problems += trace.check_spans(spans)
    per_round = [trace.per_job(spans, k) for k in range(len(walls))]

    metrics = {}
    for name, unit, _ in PER_LAYER:
        key = TRACER_KEYS.get(name, name)
        if name.startswith(("sweep.", "proc.", "trace.")):
            continue
        values = [counts.get(key, 0) for counts in per_round]
        if unit in COUNT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = min(values)
    metrics["proc.wait_s"] = statistics.median(waits)
    metrics["trace.overhead_frac"] = min(walls) / min(round_walls(plain)) - 1.0

    sweep, sweep_problems = size_sweep(run)
    problems += sweep_problems
    metrics.update(sweep)
    for problem in problems:
        run.problems.append(f"tracer: {problem}")
    if problems:
        run.failed += 1
        run.attempted += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# {run.workload.name}: traced {len(walls)} rounds, {len(spans['start'])} spans, "
          f"overhead {metrics['trace.overhead_frac']:.3f}, peak memory {peak_mb:.0f} MB")
    return metrics


def size_sweep(run: Run) -> tuple[dict, list[str]]:
    """Exact counts of the index pipeline at growing n, and their
    log-log growth exponents."""
    import numpy as np
    import tracer as tracing

    index = workloads.WORKLOADS["index-n200"]
    sweep_run = Run(index, run.seed, run.workdir)
    preps = [workloads.prepare(run.pkg, index, run.seed, run.workdir, size=n)
             for n in SWEEP_SIZES]
    results = []
    trace = tracing.Tracer().install()
    try:
        for n, prep in zip(SWEEP_SIZES, preps):
            with trace.job(n):
                results.append([workloads.execute(job, run.pkg, prep) for job in index.jobs])
    finally:
        problems = trace.uninstall()
    for prep, res in zip(preps, results):
        sweep_run.prep = prep
        sweep_run.record(res)
    spans = trace.arrays()
    problems += trace.check_spans(spans)
    problems += sweep_run.problems
    out = {}
    for counter in SWEEP_COUNTERS:
        counts = [trace.per_job(spans, n).get(counter, 0.0) for n in SWEEP_SIZES]
        for n, value in zip(SWEEP_SIZES, counts):
            out[f"sweep.n{n}.{counter}"] = value
        out[f"sweep.{counter}.exponent"] = float(
            np.polyfit(np.log(SWEEP_SIZES), np.log(counts), 1)[0]) if min(counts) > 0 else 0.0
    return out, problems


def result_line(run_or_runs, metrics: dict, units: dict) -> dict:
    runs = run_or_runs if isinstance(run_or_runs, list) else [run_or_runs]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args, workdir: str) -> tuple[list, dict, dict]:
    """Every workload in turn, each reported under its named metric."""
    runs, metrics, units = [], {}, {}
    setup_total = 0.0
    for workload in workloads.WORKLOADS.values():
        run = Run(workload, args.seed, workdir)
        out = untraced(run, args.seconds)
        runs.append(run)
        metrics.update(out["named"])
        units.update({job.metric: job.unit for job in workload.jobs})
        setup_total += out["setup_s"]
    metrics["setup_s"], units["setup_s"] = setup_total, "s"
    attempted = sum(r.attempted for r in runs)
    metrics["fail_rate"] = sum(r.failed for r in runs) / attempted
    units["fail_rate"] = "ratio"
    for name, value in metrics.items():
        print(f"# {name:>22} = {value!r} {units[name]}")
    return runs, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative")
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all" and args.trace:
        fail("--workload all has no traced mode")

    print("# env " + json.dumps(environment(args), sort_keys=True))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        if args.workload == "all":
            runs, metrics, units = run_all(args, workdir)
            line = result_line(runs, metrics, units)
            problems = [p for r in runs for p in r.problems]
        else:
            run = Run(workloads.WORKLOADS[args.workload], args.seed, workdir)
            if args.trace:
                metrics = traced(run, args.seconds)
                units = {name: unit for name, unit, _ in PER_LAYER}
            else:
                metrics = untraced(run, args.seconds)
                del metrics["named"]
                units = {"round_s": "s", "setup_s": "s"}
            line = result_line(run, metrics, units)
            problems = run.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "pclindex")):
        fail(f"no pclindex sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import calibration  # noqa: E402  (imports numpy after the BLAS pin)
    import workloads  # noqa: E402
    sys.exit(main())
