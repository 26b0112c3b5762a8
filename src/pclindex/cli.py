"""Command-line front end.

Subcommands wire the library layers to JSON model files: ``index``
computes allocation indices, ``dp-verify`` cross-checks them against the
dynamic-programming oracle, ``simulate`` evaluates policies on queueing
systems, and ``counterexample`` runs the canned non-monotone Whittle
pipeline end to end.  The machine-readable report goes to stdout; human
log lines go to stderr.  Exit codes: 0 success, 2 input error,
3 assumption violation, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys

import numpy as np

from . import __version__, admission, bandit, dp, policies
from .errors import AssumptionError, InternalConsistencyError, PclIndexError, StructureError
from .simulate import SimConfig, simulate_all
from .modelio import (ModelFileError, digest, document_from_model, load_model)
from .setsystem import SetSystem, powerset_family, require_valid, threshold_family

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
EXIT_INCONSISTENT = 4


def _log(msg: str):
    print(msg, file=_sys.stderr)


def _report(command: str, doc, results: dict, seed: int | None = None) -> dict:
    out = {
        "command": command,
        "version": __version__,
        "input_digest": digest(doc) if doc is not None else None,
        "results": results,
    }
    if seed is not None:
        out["seed"] = seed
    return out


def _emit(report: dict) -> None:
    _sys.stdout.write(json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n")


def _family_for(n: int, name: str, doc: dict) -> SetSystem:
    if name == "threshold":
        return threshold_family(n)
    if name == "powerset":
        try:
            return powerset_family(n)
        except ValueError as exc:
            raise ModelFileError(f"--family=powerset: {exc}") from exc
    if name == "explicit":
        fam = doc.get("family")
        if fam is None:
            raise ModelFileError("--family=explicit requires a 'family' field in the model file")
        try:
            sys = SetSystem(n, tuple(frozenset(s) for s in fam))
            require_valid(sys)
        except (ValueError, StructureError) as exc:
            raise ModelFileError(f"bad 'family': {exc}") from exc
        return sys
    raise ModelFileError(f"unknown family {name!r}")


def _pcl_results(report: bandit.PCLReport) -> dict:
    return {
        "indices": {str(j): v for j, v in sorted(report.nu_by_state.items())},
        "priority_order": list(report.state_order),
        "admissible": report.admissible,
        "positive_workloads": report.positive_workloads,
        "pcl_indexable": report.indexable,
        "workload_violations": [
            {"set": sorted(s), "state": j, "value": w}
            for s, j, w in report.workload_violations
        ],
    }


def _pcl(rb: bandit.RBModel, fam: SetSystem) -> bandit.PCLReport:
    """The discounted PCL report when beta < 1, else the average one."""
    return bandit.pcl_index(rb, fam) if rb.beta < 1 else bandit.average_pcl_index(rb, fam)


def cmd_index(args) -> int:
    model, doc = load_model(args.file)
    results: dict = {"kind": doc["kind"]}
    if isinstance(model, admission.ACModel):
        assumptions = admission.validate_assumptions(model)
        results["assumption_report"] = {
            "ok": assumptions.ok, "violations": list(assumptions.violations)}
        if not assumptions.ok:
            _emit(_report("index", doc, results))
            _log("regularity assumptions violated; no indices computed")
            return EXIT_ASSUMPTION
        nu = admission.indices(model)
        results["indices"] = {str(j): float(nu[j]) for j in range(model.n)}
        rep = _pcl(admission.uniformize(model), _family_for(model.n, args.family, doc))
        results["pcl"] = _pcl_results(rep)
        agree = max(abs(rep.nu_by_state[j] - nu[j]) for j in range(model.n))
        results["recursion_vs_greedy_gap"] = float(agree)
        if agree > dp.INDEX_REL_TOL * max(1.0, float(np.max(np.abs(nu)))):
            _emit(_report("index", doc, results))
            _log("closed recursion and greedy route disagree")
            return EXIT_INCONSISTENT
    elif isinstance(model, bandit.RBModel):
        rep = _pcl(model, _family_for(len(model.controllable), args.family, doc))
        results["pcl"] = _pcl_results(rep)
    else:
        raise ModelFileError("index command expects an 'rb' or 'admission' model")
    _emit(_report("index", doc, results))
    return EXIT_OK


def cmd_dp_verify(args) -> int:
    if args.grid < 2:
        raise ModelFileError(f"--grid must be at least 2, got {args.grid}")
    model, doc = load_model(args.file)
    if isinstance(model, admission.ACModel):
        rb, need = admission.uniformize(model), "alpha > 0"
    elif isinstance(model, bandit.RBModel):
        rb, need = model, "beta < 1"
    else:
        raise ModelFileError("dp-verify expects an 'rb' or 'admission' model")
    fam = _family_for(len(rb.controllable), args.family, doc)
    if not rb.beta < 1:
        raise ModelFileError(f"dp-verify needs a discounted model ({need})")
    rep = bandit.pcl_index(rb, fam)
    results: dict = {"pcl": _pcl_results(rep)}
    if not rep.indexable:
        _emit(_report("dp-verify", doc, results))
        _log("model is not PCL-indexable for this family; nothing to verify")
        return EXIT_ASSUMPTION
    path = dp.charge_path(rb)
    check = dp.crosscheck_indices(path, rep)
    results["crosscheck"] = {
        "agree": check.agree,
        "dp_indices": {str(j): v for j, v in
                       zip(sorted(rb.controllable), check.dp_indices.tolist())},
        "dp_vs_pcl_gap": check.gap,
        "mismatches": [{"state": j, "pcl_index": nu, "dp_switches": list(at)}
                       for j, nu, at in check.mismatches],
    }
    values = sorted(set(rep.nu_by_state.values()))
    span = max(1.0, values[-1] - values[0])
    grid = np.linspace(values[0] - 0.25 * span, values[-1] + 0.25 * span, args.grid)
    sweep = dp.nu_sweep(path, grid, family=fam)
    results["sweep"] = {
        "grid": list(sweep.grid),
        "active_sets": [np.flatnonzero(row).tolist() for row in sweep.active_masks],
        "nested_decreasing": sweep.nested_decreasing,
        "all_in_family": all(sweep.in_family),
    }
    _emit(_report("dp-verify", doc, results))
    ok = check.agree and sweep.nested_decreasing
    if not ok:
        _log("dynamic-programming oracle disagrees with the greedy indices")
    return EXIT_OK if ok else EXIT_INCONSISTENT


def cmd_simulate(args) -> int:
    model, doc = load_model(args.file)
    if not isinstance(model, (policies.RoutingSystem, policies.MTSSystem)):
        raise ModelFileError("simulate expects a 'routing' or 'mts' model")
    try:
        config = SimConfig(
            horizon=args.horizon, max_events=args.events,
            replications=args.reps, seed=args.seed, truncation=args.truncation)
    except ValueError as exc:
        raise ModelFileError(f"bad simulation settings: {exc}") from exc
    names = list(dict.fromkeys(name.strip() for name in args.policy.split(",")))
    try:   # an unknown policy, or a warm-up that uses up the event budget
        reports = simulate_all(model, names, config)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc
    results = {}
    for report in reports:
        _log(f"{report.policy}: mean {report.mean:.6g} +- {1.96 * report.se:.2g} (95% CI)")
        results[report.policy] = {
            "mean": report.mean, "se": report.se, "ci95": list(report.ci95),
            "replications": report.replications, "events": report.events,
            "boundary_fraction": report.boundary_fraction,
            "truncation_flagged": report.truncation_flagged,
        }
    _emit(_report("simulate", doc, results, seed=args.seed))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    model, expected = admission.whittle_counterexample()
    doc = document_from_model(model)
    rb = admission.whittle_variant(model)
    path = dp.charge_path(rb)
    computed = {j: dp.fair_charge(path, j) for j in sorted(expected)}
    worst = max(abs(computed[j] - expected[j]) for j in expected)
    match = worst <= 1e-8
    ordered = [computed[j] for j in sorted(computed)]
    monotone_whittle = all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
    rep = bandit.pcl_index(admission.uniformize(model), threshold_family(model.n))
    extended = [rep.nu_by_state[j] for j in range(model.n)]
    results = {
        "whittle_indices": {str(j): computed[j] for j in sorted(computed)},
        "expected": {str(j): expected[j] for j in sorted(expected)},
        "max_abs_error": worst,
        "match_1e-8": match,
        "monotone_in_state": monotone_whittle,
        "consistent_with_threshold_policies": monotone_whittle,
        "extended_indices": extended,
        "extended_monotone": bool(np.all(np.diff(extended) >= -1e-12)),
        "extended_pcl_indexable": rep.indexable,
    }
    _emit(_report("counterexample", doc, results))
    if match and not monotone_whittle and rep.indexable:
        _log("PASS: Whittle values reproduced; ordering inconsistent with "
             "threshold policies; extended index monotone")
        return EXIT_OK
    _log("FAIL: counterexample pipeline did not reproduce the expected values")
    return EXIT_INCONSISTENT


class _Parser(argparse.ArgumentParser):
    """An unknown option or a malformed value is an input error like any
    other: ``main`` reports it as JSON with exit code 2, where argparse
    exits with only its usage on stderr."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        raise ModelFileError(f"{self.prog}: {message}")


@functools.cache   # one parser per process: main parses each argv with it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pclindex",
        description="Allocation indices for restless bandits and queueing control")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("index", help="compute allocation indices for a model file")
    p.add_argument("file")
    p.add_argument("--family", default="threshold",
                   choices=["threshold", "powerset", "explicit"])
    p.set_defaults(fn=cmd_index)

    p = subs.add_parser("dp-verify", help="verify indices against the DP oracle")
    p.add_argument("file")
    p.add_argument("--family", default="threshold",
                   choices=["threshold", "powerset", "explicit"])
    p.add_argument("--grid", type=int, default=21)
    p.set_defaults(fn=cmd_dp_verify)

    p = subs.add_parser("simulate", help="evaluate policies by simulation")
    p.add_argument("file")
    p.add_argument("--policy", default="index")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--events", type=int, default=None)
    p.add_argument("--truncation", type=int, default=200)
    p.set_defaults(fn=cmd_simulate)

    p = subs.add_parser("counterexample",
                        help="run the canned non-monotone Whittle pipeline")
    p.set_defaults(fn=cmd_counterexample)
    return parser


# the exit code and log label of each error class main reports; the first match wins
_ERRORS = ((ModelFileError, EXIT_INPUT, "input error"),
           (AssumptionError, EXIT_ASSUMPTION, "assumption violation"),
           (InternalConsistencyError, EXIT_INCONSISTENT, "internal consistency failure"),
           (PclIndexError, EXIT_ASSUMPTION, "error"))


def main(argv=None) -> int:
    try:   # --help and --version still exit from argparse, with code 0
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ModelFileError, PclIndexError) as exc:
        code, label = next((code, label) for cls, code, label in _ERRORS if isinstance(exc, cls))
        _emit({"error": str(exc), "exit_code": code})
        _log(f"{label}: {exc}")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
