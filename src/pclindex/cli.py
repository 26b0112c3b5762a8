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
import json
import sys as _sys

import numpy as np

from . import __version__, admission, bandit, dp, policies
from .errors import AssumptionError, InternalConsistencyError, PclIndexError, UnsupportedModelError
from .simulate import SimConfig, simulate_all
from .modelio import (ModelFileError, digest, document_from_model, load_model)
from .setsystem import SetSystem, powerset_family, threshold_family

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


_COMPACT = json.JSONEncoder(separators=(",", ":"), allow_nan=True)
_NESTED = (dict, list, tuple, str)


def _dumps(o, indent: str = "") -> str:
    """``json.dumps(o, sort_keys=True, indent=2, allow_nan=True)`` for str
    keys, in one pass: scalars, and the values of flat lists and dicts of
    numbers, bools and nulls, go through json's C encoder, and the
    indentation is added here."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = indent + "  "
        keys = sorted(o)
        values = [o[k] for k in keys]
        # a dict may mix scalars and containers in any order, so look at every value
        flat = not any(isinstance(v, _NESTED) for v in values) and _flat(values)
        parts = flat.split(",") if flat else [_dumps(v, inner) for v in values]
        items = (f"{inner}{_COMPACT.encode(k)}: {p}" for k, p in zip(keys, parts))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = indent + "  "
        flat = _flat(o)
        if flat:
            body = inner + flat.replace(",", ",\n" + inner)
        else:
            body = ",\n".join(inner + _dumps(v, inner) for v in o)
        return "[\n" + body + "\n" + indent + "]"
    return _COMPACT.encode(o)


def _flat(values) -> str | None:
    """The compact encodings of ``values``, comma-separated, from one
    C-encoder pass; None when some value is a string or a container."""
    # a nested first element rules the flat form out without encoding
    flat = not isinstance(values[0], _NESTED) and _COMPACT.encode(values)
    if flat and not ('"' in flat or "{" in flat or "[" in flat[1:]):
        return flat[1:-1]
    return None


def _emit(report: dict) -> None:
    _sys.stdout.write(_dumps(report) + "\n")


def _family_for(n: int, name: str, doc: dict) -> SetSystem:
    if name == "threshold":
        return threshold_family(n)
    if name == "powerset":
        return powerset_family(n)
    if name == "explicit":
        fam = doc.get("family")
        if fam is None:
            raise ModelFileError("--family=explicit requires a 'family' field in the model file")
        try:
            return SetSystem(n, tuple(frozenset(s) for s in fam))
        except ValueError as exc:
            raise ModelFileError(f"bad 'family': {exc}") from exc
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
        if agree > 1e-9 * max(1.0, float(np.max(np.abs(nu)))):
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
    if not (np.isfinite(args.eps) and args.eps >= 0):
        raise ModelFileError(f"--eps must be finite and nonnegative, got {args.eps}")
    model, doc = load_model(args.file)
    if isinstance(model, admission.ACModel):
        try:
            rb = admission.uniformize(model)
        except ValueError as exc:   # a zero arrival rate at a controllable state
            raise UnsupportedModelError(str(exc)) from exc
        fam, need = threshold_family(model.n), "alpha > 0"
    elif isinstance(model, bandit.RBModel):
        rb, need = model, "beta < 1"
        fam = _family_for(len(model.controllable), args.family, doc)
    else:
        raise ModelFileError("dp-verify expects an 'rb' or 'admission' model")
    if not rb.beta < 1:
        raise ModelFileError(f"dp-verify needs a discounted model ({need})")
    rep = bandit.pcl_index(rb, fam)
    results: dict = {"pcl": _pcl_results(rep)}
    if not rep.indexable:
        _emit(_report("dp-verify", doc, results))
        _log("model is not PCL-indexable for this family; nothing to verify")
        return EXIT_ASSUMPTION
    check = dp.crosscheck_indices(rb, rep, eps=args.eps)
    results["crosscheck"] = {
        "grid": list(check.grid),
        "agree": check.agree,
        "mismatches": [
            {"nu": g, "expected": sorted(e), "observed": sorted(o)}
            for g, e, o in check.mismatches
        ],
    }
    values = sorted(set(rep.nu_by_state.values()))
    span = max(1.0, values[-1] - values[0])
    grid = np.linspace(values[0] - 0.25 * span, values[-1] + 0.25 * span, args.grid)
    sweep = dp.nu_sweep(rb, grid, eps=args.eps, family=fam)
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
        raise ModelFileError(f"bad simulation budget: {exc}") from exc
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
    computed = {j: dp.fair_charge(rb, j) for j in sorted(expected)}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--eps", type=float, default=dp.DEFAULT_INDIFFERENCE)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ModelFileError as exc:
        _emit({"error": str(exc), "exit_code": EXIT_INPUT})
        _log(f"input error: {exc}")
        return EXIT_INPUT
    except AssumptionError as exc:
        _emit({"error": str(exc), "exit_code": EXIT_ASSUMPTION})
        _log(f"assumption violation: {exc}")
        return EXIT_ASSUMPTION
    except InternalConsistencyError as exc:
        _emit({"error": str(exc), "exit_code": EXIT_INCONSISTENT})
        _log(f"internal consistency failure: {exc}")
        return EXIT_INCONSISTENT
    except PclIndexError as exc:
        _emit({"error": str(exc), "exit_code": EXIT_ASSUMPTION})
        _log(f"error: {exc}")
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    raise SystemExit(main())
