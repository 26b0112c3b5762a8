"""Seeded workloads of the pclindex benchmark.

Every workload draws its model parameters from the run's seed, writes
them as JSON model files, loads them through ``pclindex.modelio`` and
then repeats a round of one or two jobs.  A job is a CLI subcommand run
in-process through ``pclindex.cli.main`` or, for the switching curve,
one library call.  Each job's output is checked; a failed check counts
the job as failed.
Parameter ranges and the reason for each workload are in WORKLOADS.md.

Nothing here imports pclindex at module level: the launcher re-imports
the package for every set-up repetition and hands the fresh modules in
as ``pkg``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference

SIM_POLICIES = {"routing": ("index", "shortest", "naive"),
                "mts": ("index", "least-stock")}
SIM_REPORT_NAMES = {"index": "index", "shortest": "shortest-queue",
                    "naive": "naive-rate", "least-stock": "least-stock"}
# event budget per replication and replications per policy
SIM_BUDGET = {"routing": (250, 160), "mts": (250, 240)}
SIM_TRUNCATION = 200      # cap applied to the infinite routing buffers
SIM_Z_LIMIT = 4.0         # allowed distance to the exact value, in standard errors
CURVE_BOUND = 300
CURVE_FIT_FROM = 50       # pclindex.policies.switching_curve's default
CURVE_RHO = (4.0, 2.0)    # lam/mu of the two queues
CURVE_SLOPE_TOL = 0.10


@dataclass
class JobResult:
    """What one job produced: the CLI exit code and stdout, or the value
    returned by a library call."""

    code: int
    stdout: str = ""
    value: object = None
    error: str = ""        # the exception a job raised, if any

    @functools.cached_property
    def report(self) -> dict:
        """The CLI's JSON report (parsed once, after the job was timed)."""
        return json.loads(self.stdout)


@dataclass
class Prepared:
    """A workload's generated documents and files, loaded models, and the
    exact values the simulation checks compare against."""

    seed: int
    n: int | None
    docs: dict[str, dict]
    files: dict[str, str]
    models: dict[str, object]
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Job:
    metric: str            # named metric: the run's median, in the summary
    unit: str              # "s" per job, or "1/s" events per second
    run: Callable          # (pkg, Prepared) -> JobResult
    check: Callable        # (Prepared, JobResult) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable     # (rng, n) -> {file stem: model document}
    jobs: tuple[Job, ...]  # one round runs each job once
    size: int | None = None
    prepare_reference: Callable | None = None   # (pkg, Prepared) -> None


def execute(job: Job, pkg, prep: Prepared) -> JobResult:
    """Run one job; an exception fails the job, not the benchmark run."""
    try:
        return job.run(pkg, prep)
    except Exception as exc:  # noqa: BLE001  (reported by the job's check)
        return JobResult(-1, error=f"{type(exc).__name__}: {exc}")


def run_cli(pkg, argv: list[str]) -> JobResult:
    """Run one CLI command in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return JobResult(code, out.getvalue())


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def concave_rates(mu0: float, a: float, scale: float, count: int) -> list[float]:
    """mu_i = mu0 + a (1 - exp(-i / scale)) for i = 1..count."""
    i = np.arange(1, count + 1)
    return (mu0 + a * (1.0 - np.exp(-i / scale))).tolist()


def power_costs(c: float, p: float, count: int) -> list[float]:
    """h_i = c i^p for i = 0..count-1."""
    return (c * np.arange(count, dtype=float) ** p).tolist()


def admission_doc(rng: np.random.Generator, n: int) -> dict:
    """Regular admission queue: lam = 1, concave increasing service
    rates and convex costs, discount rate 0.1."""
    mu0, a, scale = rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.6), rng.uniform(5.0, 20.0)
    c, p = rng.uniform(0.5, 2.0), rng.uniform(1.5, 2.0)
    return {"kind": "admission", "n": n, "alpha": 0.1,
            "lambda": [1.0] * (n + 1),
            "mu": concave_rates(mu0, a, scale, n),
            "h": power_costs(c, p, n + 1)}


def gen_admission(rng, n):
    return {"model": admission_doc(rng, n)}


def gen_routing(rng):
    """Two infinite-buffer queues with per-state service rates and costs;
    lam / mu_k(infinity) lies in [0.7, 1.3] for each queue."""
    lam = rng.uniform(0.8, 1.2)
    queues = []
    for _ in range(2):
        mu_inf = lam / rng.uniform(0.7, 1.3)
        a = rng.uniform(0.1, 0.3) * mu_inf
        scale = rng.uniform(2.0, 6.0)
        c, p = rng.uniform(0.5, 2.0), rng.uniform(1.0, 1.3)
        queues.append({"n": None,
                       "mu": concave_rates(mu_inf - a, a, scale, SIM_TRUNCATION + 2),
                       "h": power_costs(c, p, SIM_TRUNCATION + 2)})
    return {"kind": "routing", "lambda": lam, "alpha": rng.uniform(0.1, 0.2),
            "nu": rng.uniform(20.0, 60.0), "queues": queues}


def gen_mts(rng):
    """Two products with scalar rates and stock caps of 8."""
    products = [{"n": 8, "lambda": rng.uniform(0.3, 0.5), "mu": rng.uniform(1.0, 1.5),
                 "c": rng.uniform(0.5, 1.5), "s": rng.uniform(1.0, 3.0),
                 "r": rng.uniform(1.0, 3.0)} for _ in range(2)]
    return {"kind": "mts", "alpha": rng.uniform(0.1, 0.2), "nu": rng.uniform(4.0, 12.0),
            "products": products}


def gen_sim(rng, n):
    return {"routing": gen_routing(rng), "mts": gen_mts(rng)}


def gen_curve(rng, n):
    """Heavy-traffic two-queue system: constant service rates with
    lam/mu = 4 and 2, costs h_i = c_k i^p_k."""
    mu1 = rng.uniform(0.8, 1.2)
    rho1, rho2 = CURVE_RHO
    lam = rho1 * mu1
    costs = [(rng.uniform(0.5, 1.0), rng.uniform(1.1, 1.5)),
             (rng.uniform(2.0, 4.0), rng.uniform(1.1, 1.5))]
    # long enough for two doublings of queue 2's table
    length = 4 * (CURVE_BOUND + 2) + 2
    queues = [{"n": None, "mu": mu, "h": power_costs(c, p, length)}
              for mu, (c, p) in zip((mu1, lam / rho2), costs)]
    return {"model": {"kind": "routing", "lambda": lam, "alpha": 0.0, "queues": queues}}


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def job_index(pkg, prep):
    return run_cli(pkg, ["index", prep.files["model"]])


def job_verify(pkg, prep):
    return run_cli(pkg, ["dp-verify", prep.files["model"]])


def job_counterexample(pkg, prep):
    return run_cli(pkg, ["counterexample"])


def _sim_argv(prep, kind):
    events, reps = SIM_BUDGET[kind]
    return ["simulate", prep.files[kind], "--policy", ",".join(SIM_POLICIES[kind]),
            "--events", str(events), "--reps", str(reps),
            "--seed", str(prep.seed), "--truncation", str(SIM_TRUNCATION)]


def job_routing(pkg, prep):
    return run_cli(pkg, _sim_argv(prep, "routing"))


def job_mts(pkg, prep):
    return run_cli(pkg, _sim_argv(prep, "mts"))


def job_curve(pkg, prep):
    curve = pkg.policies.switching_curve(prep.models["model"], bound=CURVE_BOUND)
    return JobResult(0, value=curve)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _report(res: JobResult) -> tuple[dict | None, list[str]]:
    if res.error:
        return None, [f"raised {res.error}"]
    if res.code != 0:
        return None, [f"exit code {res.code}"]
    try:
        return res.report["results"], []
    except (ValueError, KeyError) as exc:
        return None, [f"unreadable report: {exc}"]


def work_done(res: JobResult) -> int:
    """Events simulated by a simulate job; 0 for every other job."""
    try:
        if res.code != 0 or res.report.get("command") != "simulate":
            return 0
        return sum(int(r["events"]) for r in res.report["results"].values())
    except (ValueError, KeyError):
        return 0


def check_index(prep, res):
    results, problems = _report(res)
    if results is None:
        return problems
    if len(results["indices"]) != prep.n:
        return [f"{len(results['indices'])} indices for n = {prep.n}"]
    nu = [results["indices"][str(j)] for j in range(prep.n)]
    if not results["pcl"]["pcl_indexable"]:
        problems.append("pcl_indexable is false")
    gap = results["recursion_vs_greedy_gap"]
    if not gap <= 1e-9 * max(1.0, max(abs(v) for v in nu)):
        problems.append(f"recursion_vs_greedy_gap {gap!r} too large")
    return problems


def check_verify(prep, res):
    results, problems = _report(res)
    if results is None:
        return problems
    if not results["crosscheck"]["agree"]:
        problems.append("crosscheck does not agree")
    if not results["sweep"]["nested_decreasing"]:
        problems.append("sweep is not nested decreasing")
    return problems


def check_counterexample(prep, res):
    results, problems = _report(res)
    if results is not None and not results["match_1e-8"]:
        problems.append("Whittle values not reproduced to 1e-8")
    return problems


def check_sim(kind, prep, res):
    results, problems = _report(res)
    if results is None:
        return problems
    for policy, exact in prep.reference[kind].items():
        rep = results.get(SIM_REPORT_NAMES[policy])
        if rep is None:
            problems.append(f"no result for policy {policy}")
            continue
        if rep["truncation_flagged"]:
            problems.append(f"{policy}: truncation flagged")
        # the reference is exact, so the combined standard error is the run's
        # own; the floor covers policies whose replications all coincide
        if not abs(rep["mean"] - exact) <= SIM_Z_LIMIT * rep["se"] + 1e-9 * max(1.0, abs(exact)):
            problems.append(f"{policy}: mean {rep['mean']!r} is more than "
                            f"{SIM_Z_LIMIT} se ({rep['se']!r}) from exact {exact!r}")
    return problems


def check_curve(prep, res):
    if res.error:
        return [f"raised {res.error}"]
    curve = res.value
    boundary = np.asarray(curve.boundary, dtype=float)
    problems = []
    if len(boundary) != CURVE_BOUND + 1:
        problems.append(f"boundary has {len(boundary)} points")
        return problems
    if np.any(np.diff(boundary) < 0):
        problems.append("boundary is not nondecreasing")
    limit = math.log(CURVE_RHO[0]) / math.log(CURVE_RHO[1])
    xs = np.arange(CURVE_FIT_FROM, CURVE_BOUND + 1, dtype=float)
    slope = float(np.polyfit(xs, boundary[CURVE_FIT_FROM:], 1)[0])
    if not abs(slope - limit) <= CURVE_SLOPE_TOL * limit:
        problems.append(f"boundary slope {slope!r} not within 10% of {limit!r}")
    return problems


# ---------------------------------------------------------------------------
# Exact references for the simulation checks
# ---------------------------------------------------------------------------

def ref_sim(pkg, prep):
    """Exact discounted cost of every simulated policy on both files."""
    routing, mts = prep.models["routing"], prep.models["mts"]
    tables = [pkg.policies.routing_index_table(routing, k, SIM_TRUNCATION)
              for k in range(len(routing.queues))]
    prep.reference["routing"] = {
        policy: reference.routing_value(prep.docs["routing"], policy, tables, SIM_TRUNCATION)
        for policy in SIM_POLICIES["routing"]}
    tables = [pkg.policies.mts_index_table(mts, k, p.n) for k, p in enumerate(mts.products)]
    prep.reference["mts"] = {policy: reference.mts_value(prep.docs["mts"], policy, tables)
                             for policy in SIM_POLICIES["mts"]}


WORKLOADS = {w.name: w for w in (
    Workload("index-n200",
             "pclindex index on a regular n=200 admission queue: the indexability "
             "test and greedy indices dominate; no DP, no simulation",
             gen_admission, (Job("index_s", "s", job_index, check_index),), size=200),
    Workload("verify-n100",
             "pclindex dp-verify at n=100 plus pclindex counterexample: dp.solve "
             "dominates, on 101-state and on 3-state models",
             gen_admission, (Job("verify_s", "s", job_verify, check_verify),
                             Job("counterexample_s", "s", job_counterexample,
                                 check_counterexample)), size=100),
    Workload("simulate-queues",
             "pclindex simulate on a 2-queue routing file and a 2-product make-to-stock "
             "file: event loop and rate lookups; index layers bypassed",
             gen_sim, (Job("routing_events_per_s", "1/s", job_routing,
                           functools.partial(check_sim, "routing")),
                       Job("mts_events_per_s", "1/s", job_mts,
                           functools.partial(check_sim, "mts"))),
             prepare_reference=ref_sim),
    Workload("switching-curve",
             "policies.switching_curve(bound=300) in heavy traffic: admission workload "
             "tables dominate; bandit, dp and simulate bypassed",
             gen_curve, (Job("curve_s", "s", job_curve, check_curve),)),
)}


def generate(workload: Workload, seed: int, workdir: str,
             size: int | None) -> tuple[dict, dict]:
    """Draw the workload's model documents from ``seed`` and write them."""
    rng = np.random.default_rng([seed, 20_230_401])
    docs = workload.generate(rng, size)
    files = {}
    for stem, doc in docs.items():
        path = os.path.join(workdir, f"{workload.name}-{stem}-n{size}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        files[stem] = path
    return docs, files


def prepare(pkg, workload: Workload, seed: int, workdir: str,
            size: int | None = None) -> Prepared:
    """Generate, write and load the workload's models; ``size`` overrides
    the workload's n (the traced size sweep)."""
    size = size or workload.size
    docs, files = generate(workload, seed, workdir, size)
    models = {stem: pkg.modelio.load_model(path)[0] for stem, path in files.items()}
    return Prepared(seed, size, docs, files, models)
