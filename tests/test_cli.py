import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pclindex import __version__, admission, bandit, cli, dp
from pclindex.modelio import (canonical_json, document_from_model, load_model,
                              model_from_document)
from pclindex.setsystem import powerset_family, threshold_family
from pclindex.simulate import REPLICATION_CAP

from conftest import ROUTING_DOC, package_env, random_rb, run_cli, write_doc


ADMISSION_DOC = {
    "kind": "admission", "n": 4,
    "lambda": [1.0, 1.0, 1.0, 1.0, 1.0],
    "mu": [2.0, 2.0, 2.0, 2.0],
    "h": [0.0, 1.0, 2.0, 3.0, 4.0],
    "alpha": 0.0,
}

MTS_DOC = {
    "kind": "mts", "alpha": 0.0, "nu": 0.5,
    "products": [{"n": 5, "lambda": 0.8, "mu": 1.2, "c": 1.0, "s": 0.5, "r": 0.7}],
}


def rb_doc():
    model, _ = admission.whittle_counterexample()
    return document_from_model(admission.whittle_variant(model))


# ---------------------------------------------------------------------------
# Model file round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("doc", [ADMISSION_DOC, ROUTING_DOC, MTS_DOC],
                         ids=["admission", "routing", "mts"])
def test_round_trip_is_idempotent(doc, tmp_path):
    model = model_from_document(doc)
    once = canonical_json(document_from_model(model))
    twice = canonical_json(document_from_model(model_from_document(json.loads(once))))
    assert once == twice


def test_rb_round_trip_through_file(tmp_path):
    doc = rb_doc()
    model = model_from_document(doc)
    path = tmp_path / "rb.json"
    path.write_text(canonical_json(document_from_model(model)) + "\n")
    reloaded, raw = load_model(str(path))
    assert canonical_json(document_from_model(reloaded)) == canonical_json(raw)
    assert np.allclose(reloaded.P0, model.P0)


def test_numpy_integer_buffer_size_round_trips():
    # a numpy integer n was stored as given, and writing the model's
    # document then raised json's TypeError
    model = admission.ACModel(np.int64(2), [1.0] * 3, [1.0] * 2, [0.0, 1.0, 2.0], 0.1)
    assert type(model.n) is int
    assert json.loads(canonical_json(document_from_model(model)))["n"] == 2


def test_schema_rejects_unknown_kind(tmp_path, capsys):
    path = write_doc(tmp_path, {"kind": "mystery"})
    code, out, _ = run_cli(capsys, "index", path)
    assert code == 2
    assert "error" in out


def test_schema_rejects_bad_shapes(tmp_path, capsys):
    doc = dict(ADMISSION_DOC)
    doc["mu"] = [2.0, 2.0]   # wrong length
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 2


@pytest.mark.parametrize("field, value, message", [
    ("states", 7, "'states' is 7, but the matrices have 3 states"),
    ("controllable", [0, 0, 1], "schema violation at controllable"),
], ids=["states", "controllable"])
def test_rb_file_fields_agree_with_the_matrices(tmp_path, capsys, field, value, message):
    # 'states' was never read, so a 3-state file claiming 7 loaded as 3
    # states; a repeated controllable state loaded and dumped once
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, dict(rb_doc(), **{field: value})))
    assert code == 2 and out["error"].startswith(message)


def test_rb_file_with_integer_valued_float_states_loads(tmp_path, capsys):
    # the schema's "integer" admits 1.0; the model refuses a float, so the
    # loader passes the validated entries on as ints
    doc = dict(rb_doc(), controllable=[0, 1.0, 2])
    model = model_from_document(doc)
    assert model.controllable == {0, 1, 2} and all(type(j) is int for j in model.controllable)
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 0 and sorted(out["results"]["pcl"]["indices"]) == ["0", "1", "2"]


@pytest.mark.parametrize("doc, key", [(ROUTING_DOC, "queues"), (MTS_DOC, "products")],
                         ids=["routing", "mts"])
def test_integer_valued_float_buffer_size_simulates(tmp_path, capsys, doc, key):
    # the schema's "integer" admits 5.0, which passed validation and then
    # ended simulate in a TypeError traceback; the loader passes it on as an int
    floats = dict(doc, **{key: [dict(spec, n=float(spec["n"])) for spec in doc[key]]})
    assert all(type(spec.n) is int for spec in getattr(model_from_document(floats), key))
    argv = ["--events", "500", "--reps", "2", "--seed", "1"]
    reports = [run_cli(capsys, "simulate", write_doc(tmp_path, d, name), *argv)
               for d, name in ((doc, "ints.json"), (floats, "floats.json"))]
    assert [code for code, _, _ in reports] == [0, 0]
    assert reports[1][1]["results"] == reports[0][1]["results"]


@pytest.mark.parametrize("command", ["index", "dp-verify"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, command, literal):
    path = tmp_path / "model.json"
    text = json.dumps(dict(ADMISSION_DOC, alpha=0.3))
    path.write_text(text.replace('"h": [0.0', f'"h": [{literal}'))
    code, out, _ = run_cli(capsys, command, str(path))
    assert code == 2
    assert "non-finite" in out["error"]


def test_non_number_array_element_is_a_schema_violation(tmp_path, capsys):
    doc = dict(ADMISSION_DOC, h=[0.0, "x", 2.0, 3.0, 4.0])
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 2
    assert out["error"].startswith("schema violation at h/1")


def test_missing_file_is_input_error(capsys):
    code, out, _ = run_cli(capsys, "index", "/nonexistent/x.json")
    assert code == 2


# ---------------------------------------------------------------------------
# index command
# ---------------------------------------------------------------------------

def test_index_constant_rate_queue_matches_closed_form(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, ADMISSION_DOC))
    assert code == 0
    got = [out["results"]["indices"][str(j)] for j in range(4)]
    want = [admission.closed_form_index("linear", 1.0, 2.0, 1.0, j) for j in range(4)]
    assert np.allclose(got, want, atol=1e-9)
    assert out["results"]["pcl"]["pcl_indexable"]
    assert out["version"]
    assert out["input_digest"]


def test_index_single_slot_buffer(tmp_path, capsys):
    doc = {"kind": "admission", "n": 1, "lambda": [1.0, 1.0], "mu": [2.0],
           "h": [0.0, 3.0], "alpha": 0.5}
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 0
    m = model_from_document(doc)
    want = m.delta_h[0] / (m.alpha + m.delta_d[0])
    assert out["results"]["indices"]["0"] == pytest.approx(want)


def test_index_assumption_violation_exits_3(tmp_path, capsys):
    doc = dict(ADMISSION_DOC)
    doc["lambda"] = [1.0, 3.0, 5.0, 7.0, 9.0]   # sharply increasing arrivals
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 3
    assert out["results"]["assumption_report"]["violations"]


def test_index_whittle_rb_reports_nonmonotone_ranking(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, rb_doc()),
                           "--family", "powerset")
    assert code == 0
    idx = out["results"]["pcl"]["indices"]
    assert idx["0"] > idx["1"] > idx["2"]


def test_index_explicit_family(tmp_path, capsys):
    doc = rb_doc()
    doc["family"] = [[], [2], [1, 2], [0, 1, 2]]
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc),
                           "--family", "explicit")
    assert code == 0
    pcl = out["results"]["pcl"]
    # the chain is not reported: chain[k] = sorted(priority_order[k:])
    assert "chain" not in pcl
    ground = {j: e for e, j in enumerate(sorted(doc["controllable"]))}
    order = [ground[j] for j in pcl["priority_order"]]
    assert sorted(order) == list(range(len(order)))
    assert all(sorted(order[k:]) in doc["family"] for k in range(len(order)))


def test_index_nonpositive_workload_on_the_chain_exits_3(tmp_path, capsys):
    # alpha 0, lam 1, mu 0.8, h_i = i^2: the limiting workload of the
    # threshold set {131..199} at state 169 rounds to about -1.6e-15
    n = 200
    doc = {"kind": "admission", "n": n, "lambda": [1.0] * (n + 1), "mu": [0.8] * n,
           "h": [float(i * i) for i in range(n + 1)], "alpha": 0.0}
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 3 and out["exit_code"] == 3
    assert out["error"].startswith("marginal workload w([")
    assert "not positive on the adaptive-greedy chain" in out["error"]


@pytest.mark.parametrize("big", [1e17, 1e100, 1e308])
def test_index_singular_set_active_system_exits_3(tmp_path, capsys, big):
    # Lambda >= max(lam + mu) passes the schema, but at alpha 0.1 the
    # discount factor Lambda / (alpha + Lambda) rounds to 1, and the
    # anchored systems of the average scan are singular
    doc = dict(ADMISSION_DOC, alpha=0.1, Lambda=big)
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 3 and out["exit_code"] == 3
    assert out["error"].startswith("set-active system is singular")


def test_index_rb_nonpositive_workload_on_the_chain_exits_3(tmp_path, capsys):
    # the 84th draw has w(J, 0) = -0.048 at the whole ground set J, where
    # the powerset walk starts
    rng = np.random.default_rng(0)
    for _ in range(84):
        model = random_rb(rng, 4, 3, near=bool(rng.integers(2)))
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, document_from_model(model)),
                           "--family", "powerset")
    assert code == 3 and out["exit_code"] == 3
    assert out["error"].startswith("marginal workload w([0, 1, 2], 0) = -0.047")


@pytest.mark.parametrize("command", ["index", "dp-verify"])
@pytest.mark.parametrize("member", [[2.0], [3], [1, 5]], ids=["float", "past", "mixed"])
def test_explicit_family_bad_member_is_an_input_error(tmp_path, capsys, command, member):
    doc = rb_doc()
    doc["family"] = [[], member, [1, 2], [0, 1, 2]]
    code, out, _ = run_cli(capsys, command, write_doc(tmp_path, doc), "--family", "explicit")
    assert code == 2
    assert out["exit_code"] == 2
    assert "not a subset of 0..2" in out["error"]


def test_index_vanishing_discount_uses_the_average_criterion(tmp_path, capsys):
    # alpha this small uniformizes to beta == 1.0 exactly: the criterion
    # follows the uniformized beta, so the run matches alpha = 0
    doc = dict(ADMISSION_DOC, alpha=1e-17)
    assert admission.uniformize(model_from_document(doc)).beta == 1.0
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, doc))
    assert code == 0
    code0, out0, _ = run_cli(capsys, "index", write_doc(tmp_path, ADMISSION_DOC, "flat.json"))
    assert code0 == 0
    assert out["results"]["pcl"] == out0["results"]["pcl"]


# ---------------------------------------------------------------------------
# dp-verify command
# ---------------------------------------------------------------------------

def test_dp_verify_agrees_on_compliant_model(tmp_path, capsys):
    doc = dict(ADMISSION_DOC)
    doc["alpha"] = 0.3
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, doc))
    assert code == 0
    assert out["results"]["crosscheck"]["agree"]
    assert out["results"]["crosscheck"]["mismatches"] == []
    assert out["results"]["sweep"]["nested_decreasing"]
    assert out["results"]["sweep"]["all_in_family"]


def test_dp_verify_needs_discounting(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, ADMISSION_DOC))
    assert code == 2


def test_dp_verify_vanishing_discount_is_an_input_error(tmp_path, capsys):
    doc = dict(ADMISSION_DOC, alpha=1e-17)
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, doc))
    assert code == 2
    assert out["error"] == "dp-verify needs a discounted model (alpha > 0)"


def test_dp_verify_zero_arrival_rate_is_out_of_scope(tmp_path, capsys):
    # a zero arrival rate at a controllable state leaves no activity weight
    # to uniformize; the ValueError used to escape as a traceback (exit 1)
    doc = {"kind": "admission", "n": 3, "lambda": [1, 0, 1, 1], "mu": [1, 1, 1],
           "h": [0, 1, 2, 3], "alpha": 0.1}
    code, out, err = run_cli(capsys, "dp-verify", write_doc(tmp_path, doc))
    assert code == 3
    assert out["exit_code"] == 3 and "results" not in out
    assert out["error"].startswith("arrival rates lambda_0..lambda_n must be positive")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["index", "dp-verify"])
def test_zero_arrival_rate_at_the_full_buffer_is_out_of_scope(tmp_path, capsys, command):
    # lambda_n = 0 zeroes the activity weight of the uncontrollable state:
    # index used to exit 1 with RBModel's ValueError as a traceback
    doc = {"kind": "admission", "n": 2, "alpha": 0.1, "lambda": [1, 1, 0], "mu": [1, 1],
           "h": [0, 1, 4]}
    code, out, err = run_cli(capsys, command, write_doc(tmp_path, doc))
    assert code == 3 and out["exit_code"] == 3
    assert out["error"].startswith("arrival rates lambda_0..lambda_n must be positive")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["index", "dp-verify"])
def test_rb_file_without_controllable_states_is_an_input_error(tmp_path, capsys, command):
    # threshold_family(0) used to raise a ValueError: exit 1
    code, out, _ = run_cli(capsys, command, write_doc(tmp_path, dict(rb_doc(), controllable=[])))
    assert code == 2 and out["exit_code"] == 2
    assert out["error"].startswith("schema violation at controllable")


@pytest.mark.parametrize("command", ["index", "dp-verify"])
def test_explicit_family_without_the_empty_set_is_an_input_error(tmp_path, capsys, command):
    # the walk used to reach {1} and exit 3 as "not accessible"
    doc = dict(rb_doc(), family=[[2], [1, 2], [0, 1, 2]])
    code, out, _ = run_cli(capsys, command, write_doc(tmp_path, doc), "--family", "explicit")
    assert code == 2 and out["exit_code"] == 2
    assert out["error"].startswith("bad 'family': set system invalid: missing empty set")


def test_dp_verify_admission_file_reads_the_family_option(tmp_path, capsys, monkeypatch):
    # the option used to be ignored on admission files: explicit exited 0
    # (index exits 2) and powerset swept the threshold family
    path = write_doc(tmp_path, dict(ADMISSION_DOC, alpha=0.3))
    code, out, _ = run_cli(capsys, "dp-verify", path, "--family", "explicit")
    assert code == 2 and out["exit_code"] == 2
    assert "requires a 'family' field" in out["error"]
    swept, sweep = [], dp.nu_sweep
    monkeypatch.setattr(dp, "nu_sweep",
                        lambda *args, **kw: swept.append(kw["family"]) or sweep(*args, **kw))
    code, out, _ = run_cli(capsys, "dp-verify", path, "--family", "powerset")
    assert code == 0 and out["results"]["crosscheck"]["agree"]
    assert set(swept[0].family) == set(powerset_family(4).family)


# n = 50, lam 1, mu 1/1.3, h_i = i^2, alpha 1e-6: near-critical discounting
# puts the PCL indices of states 26..49 up to 911 (1.1e-5 relative) off
# the charge path's breakpoints, while both keep the same order.  Neither
# path is exact here: against exact rational indices (a Fraction solve on
# the uniformized model's own float bits, at states 0, 10, 26, 35 and 49)
# the breakpoints are up to 6.8e-6 off and the PCL indices up to 4e-7, so
# the disagreement is mostly the DP's own error
DRIFTING_N50 = {"kind": "admission", "n": 50, "alpha": 1e-6, "lambda": [1.0] * 51,
                "mu": [1 / 1.3] * 50, "h": [float(j * j) for j in range(51)]}


def test_dp_verify_disagreement_exits_4(tmp_path, capsys):
    # both index paths keep the same order here, but the numbers differ:
    # exit code 4, naming the states
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, DRIFTING_N50))
    assert code == 4
    check = out["results"]["crosscheck"]
    assert not check["agree"] and out["results"]["sweep"]["nested_decreasing"]
    assert [row["state"] for row in check["mismatches"]] == list(range(26, 50))
    assert 900 < check["dp_vs_pcl_gap"] < 920
    assert check["dp_vs_pcl_gap"] == max(
        abs(check["dp_indices"][str(row["state"])] - row["pcl_index"])
        for row in check["mismatches"])


@pytest.mark.parametrize("argv", [
    ["--grid", "-3"], ["--grid", "0"], ["--grid", "1"],
    ["--eps", "-1"], ["--eps", "nan"], ["--eps", "inf"], ["--grid", "abc"],
    ["--family", "nope"], ["--eps", "1"], ["--grid", str(cli.GRID_CAP + 1)]])
def test_dp_verify_bad_option_is_an_input_error(tmp_path, capsys, argv):
    # a negative grid ended in a traceback, an empty one checked nothing
    # and passed, and 10**9 charges ended in numpy's _ArrayMemoryError; the
    # sweep's sets take no indifference band, so --eps is an unknown
    # option.  Each is reported as JSON, exit 2
    doc = dict(ADMISSION_DOC, alpha=0.3)
    code, out, err = run_cli(capsys, "dp-verify", write_doc(tmp_path, doc), *argv)
    assert code == 2
    assert out["exit_code"] == 2 and "results" not in out
    if argv[0] != "--grid" or argv[1] == "abc":   # argparse's own errors keep their usage
        assert argv[0] in out["error"] and err.startswith("usage: pclindex")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["simulate"], ["index", "m.json", "--x"],
                                  ["simulate", "m.json", "--seed", "1.5"]])
def test_usage_errors_are_reported_as_json(capsys, argv):
    # a missing or unknown subcommand, a missing file, an unknown option and
    # a malformed value: argparse's errors, each a JSON report with exit 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out["exit_code"] == 2 and out["error"].startswith("pclindex")
    assert "usage: pclindex" in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
def test_help_and_version_still_exit_cleanly(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: pclindex") if "--help" in argv else out.strip() == __version__


def test_parser_is_built_once_and_each_call_gets_its_own_defaults(tmp_path, capsys,
                                                                  monkeypatch):
    # one parser serves every call in a process, so an option given in one
    # call must not leak into the next
    built = []

    class Spy(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Spy)
    cli.build_parser.cache_clear()
    try:
        route = write_doc(tmp_path, ROUTING_DOC, "route.json")
        model = write_doc(tmp_path, rb_doc(), "rb.json")
        argv = ["simulate", route, "--policy", "index", "--events", "200", "--reps", "2"]
        seeds = [run_cli(capsys, *argv, *seed)[1]["seed"] for seed in (["--seed", "3"], [])]
        assert seeds == [3, 0]
        pcl = [run_cli(capsys, "index", model, *family)[1]["results"]["pcl"]
               for family in ([], ["--family", "powerset"], [])]
        assert pcl[2] == pcl[0] != pcl[1]
        # the parser and its four subcommands' parsers, once for the five calls
        assert built.count("pclindex") == 1 and len(built) == 5
    finally:
        cli.build_parser.cache_clear()   # the next test builds a stock parser


def test_dp_verify_report_is_pinned(tmp_path, capsys):
    # SHA-256 of the whole stdout: a change in any reported bit, or in
    # the version string, moves it
    doc = {"kind": "admission", "n": 30, "alpha": 0.1, "lambda": [1.0] * 31,
           "mu": [1.3] * 30, "h": [float(j * j) for j in range(31)]}
    assert cli.main(["dp-verify", write_doc(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "562dfeae267076cdcb1d72973e94490080e2e1539acf02057ad582f95a7aeff4"


def test_dp_verify_solves_each_path_policy_once(tmp_path, capsys, monkeypatch):
    # regular queue at n = 100 (lam 1, mu 1.3, h_i = i^2, alpha 0.1): the
    # cross-check and the sweep read one charge path, whose 101 threshold
    # policies are solved once each, besides the solves of pcl_index; a
    # stacked build counts one system per mask row
    n = 100
    doc = {"kind": "admission", "n": n, "alpha": 0.1, "lambda": [1.0] * (n + 1),
           "mu": [1.3] * n, "h": [float(j * j) for j in range(n + 1)]}
    path = write_doc(tmp_path, doc)
    calls, exact = [0], bandit._SolveKernel.system

    def counting(self, masks):
        calls[0] += len(np.atleast_2d(masks))
        return exact(self, masks)

    monkeypatch.setattr(bandit._SolveKernel, "system", counting)
    bandit.pcl_index(admission.uniformize(load_model(path)[0]), threshold_family(n))
    pcl, calls[0] = calls[0], 0
    code, out, _ = run_cli(capsys, "dp-verify", path)
    assert code == 0 and out["results"]["crosscheck"]["agree"]
    assert pcl < calls[0] <= pcl + n + 5


def test_dp_verify_mismatch_report_is_pinned(tmp_path, capsys):
    # pinned like the report above, on the disagreement path: the
    # mismatch rows and the sweep's sets printed from the boolean masks
    assert cli.main(["dp-verify", write_doc(tmp_path, DRIFTING_N50)]) == 4
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9d34e9fa490a96420f118975feab73951108bcf97636ede1adb0e29ec25eb442"


PINNED_N30 = {"kind": "admission", "n": 30, "alpha": 0.1, "lambda": [1.0] * 31,
              "mu": [1.3] * 30, "h": [float(j * j) for j in range(31)]}


@pytest.mark.parametrize("doc, argv, code, sha", [
    (PINNED_N30, ["index"], 0,
     "e43ad9b9a61250fbf34088be230cd87c112f0b3a758d99a00df4357892d65b6d"),
    (dict(PINNED_N30, alpha=0.0), ["index"], 0,
     "bfbd956afcc086d6399188b25d0b88989faa31cf24ffc59fc4eec5c7638a8016"),
    (rb_doc(), ["index", "--family", "powerset"], 0,
     "c908f410bd78f9e0b1ba5bf078c915750fd25146d967e332202612f68c1ee503"),
    (dict(PINNED_N30, h=[0.0, "x"] + PINNED_N30["h"][2:]), ["index"], 2,
     "bbacc5f335090888fca6c349d63b282fd324eba449e3fa6a255bfd5a255a59a5"),
], ids=["discounted", "average", "rb-powerset", "input-error"])
def test_index_report_is_pinned(tmp_path, capsys, doc, argv, code, sha):
    # pinned like the dp-verify report
    assert cli.main([argv[0], write_doc(tmp_path, doc), *argv[1:]]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def test_simulate_routing_reports_all_policies(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", write_doc(tmp_path, ROUTING_DOC),
        "--policy", "index,shortest,naive", "--events", "3000",
        "--reps", "4", "--seed", "2")
    assert code == 0
    assert set(out["results"]) == {"index", "shortest-queue", "naive-rate"}
    assert out["seed"] == 2
    for rep in out["results"].values():
        lo, hi = rep["ci95"]
        assert lo <= rep["mean"] <= hi
        assert math.isfinite(rep["mean"]) and rep["events"] > 0


def test_simulate_mts(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", write_doc(tmp_path, MTS_DOC),
        "--policy", "index,least-stock", "--events", "2000", "--reps", "3", "--seed", "1")
    assert code == 0
    assert set(out["results"]) == {"index", "least-stock"}
    assert all(math.isfinite(r["mean"]) and r["events"] > 0 for r in out["results"].values())


def test_simulate_rejects_admission_kind(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, ADMISSION_DOC),
                           "--events", "100")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--events", "0"], ["--events", "-3"], ["--events", "100", "--reps", "0"],
    ["--horizon", "0"], ["--events", "100", "--truncation", "0"], ["--horizon", "nan"],
    ["--events", "10", "--reps", str(REPLICATION_CAP + 1)]])
def test_simulate_bad_budget_is_an_input_error(tmp_path, capsys, argv):
    # an empty budget used to report mean 0.0 with exit 0, a bad
    # replication count or horizon ended in a traceback, and 10**9
    # replications in numpy's _ArrayMemoryError
    code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, ROUTING_DOC), *argv)
    assert code == 2
    assert out["exit_code"] == 2 and "results" not in out


@pytest.mark.parametrize("queue, argv", [
    ({"n": 10**15, "mu": 1.0, "h": 1.0}, []),
    ({"mu": 1.0, "h": 1.0}, ["--truncation", str(10**15)])], ids=["buffer", "truncation"])
def test_simulate_past_the_level_cap_is_an_input_error(tmp_path, capsys, queue, argv):
    # a buffer of 10**15 levels, given or truncated, ended in a MemoryError traceback
    doc = dict(ROUTING_DOC, queues=[queue, ROUTING_DOC["queues"][1]])
    code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, doc), "--events", "100",
                           *argv)
    assert code == 2
    assert out["exit_code"] == 2 and "exceeds the level cap" in out["error"]


@pytest.mark.parametrize("command", ["index", "dp-verify"])
def test_powerset_past_its_limit_is_an_input_error(tmp_path, capsys, command):
    # the 2^200 members of the powerset of a 200-state queue were built until
    # the process was killed; the limit refuses them before any is built
    n = 200
    doc = {"kind": "admission", "n": n, "lambda": [1.0] * (n + 1), "mu": [1.3] * n,
           "h": [float(i * i) for i in range(n + 1)], "alpha": 0.1}
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, command, write_doc(tmp_path, doc), "--family", "powerset")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out["exit_code"] == 2
    assert out["error"].startswith("--family=powerset: the powerset family of 200 elements")


@pytest.mark.parametrize("argv, sha", [
    (["--events", "3000", "--reps", "4", "--seed", "2"],
     "54e433cc56490ae37aef04d1730a2c7ea5e6949824e1eb61029cebb8bc32e2d7"),
    (["--horizon", "300", "--reps", "3", "--seed", "5"],
     "7e71bc5af5cf87724ee195e159168b04e2474c1a42df088ce538fa0a32d56da1"),
], ids=["events", "horizon"])
def test_simulate_report_is_pinned(tmp_path, capsys, argv, sha):
    # pinned like the dp-verify report; the digests were taken when each
    # policy still ran its own lockstep, so sharing one leaves every bit
    assert cli.main(["simulate", write_doc(tmp_path, ROUTING_DOC),
                     "--policy", "index,shortest,naive", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("doc, policy, unknown", [
    (ROUTING_DOC, "index,bogus", "'bogus'"), (ROUTING_DOC, "least-stock", "'least-stock'"),
    (MTS_DOC, "index,naive", "'naive'")],
    ids=["bogus", "mts-rule-on-routing", "routing-rule-on-mts"])
def test_simulate_unknown_policy_is_an_input_error(tmp_path, capsys, doc, policy, unknown):
    # every name is checked before any simulation starts, so nothing is
    # logged for the known names either
    code, out, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc),
                             "--policy", policy, "--events", "100")
    assert code == 2 and "results" not in out
    assert unknown in out["error"]
    rules = "index, shortest, naive" if doc is ROUTING_DOC else "index, least-stock"
    assert out["error"].endswith(rules)
    assert "mean" not in err


def test_simulate_repeated_policy_is_simulated_once(tmp_path, capsys):
    path = write_doc(tmp_path, ROUTING_DOC)
    argv = ["--events", "500", "--reps", "3", "--seed", "1"]
    code, once, err_once = run_cli(capsys, "simulate", path, "--policy", "index", *argv)
    code_twice, twice, err_twice = run_cli(capsys, "simulate", path, "--policy",
                                           "index, index", *argv)
    assert code == code_twice == 0
    assert twice == once and list(twice["results"]) == ["index"]
    assert err_twice == err_once


def test_simulate_warmup_that_uses_up_the_budget_is_an_input_error(tmp_path, capsys):
    # the warm-up of max(1, int(0.1 * 1)) events is the whole budget, which
    # used to divide the lumped subsidies by 1e-300
    doc = {"kind": "mts", "alpha": 0.0, "nu": 3.0,
           "products": [{"n": 8, "lambda": 0.9, "mu": 1.5, "c": 1.0, "s": 2.0, "r": 1.2},
                        {"n": 8, "lambda": 0.5, "mu": 1.1, "c": 0.6, "s": 4.0, "r": 2.0}]}
    code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, doc),
                           "--policy", "least-stock", "--events", "1", "--reps", "4")
    assert code == 2 and "results" not in out
    assert "warm-up" in out["error"]


# ---------------------------------------------------------------------------
# counterexample command
# ---------------------------------------------------------------------------

def test_counterexample_passes_end_to_end(capsys):
    code, out, err = run_cli(capsys, "counterexample")
    assert code == 0
    res = out["results"]
    assert res["match_1e-8"]
    assert not res["monotone_in_state"]
    assert res["extended_monotone"] and res["extended_pcl_indexable"]
    assert res["whittle_indices"]["1"] == pytest.approx(3300 / 6767, abs=1e-13)
    assert res["whittle_indices"]["0"] == pytest.approx(11022 / 19111, abs=1e-13)
    assert res["whittle_indices"]["2"] == 0.0
    assert res["max_abs_error"] <= 1e-13
    assert "PASS" in err


def test_counterexample_report_is_pinned(capsys):
    # pinned like the dp-verify report; the Whittle indices are the exact
    # breakpoints of the charge path, within 6.7e-15 of their fractions
    assert cli.main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0e009f51d75d8b12329b0891e6c0f73329c73929bd104938a8de9507013903e0"


# ---------------------------------------------------------------------------
# Cold start
# ---------------------------------------------------------------------------

SPARSE_PROBE = """import sys
from pclindex import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("scipy.sparse" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("alpha, loaded", [(None, False), (0.1, False), (0.0, True)],
                         ids=["import", "discounted-index", "average-index"])
def test_scipy_sparse_is_loaded_by_the_average_criterion_only(tmp_path, alpha, loaded):
    # in a fresh process, importing the CLI and a discounted index job leave
    # scipy.sparse unloaded; the average criterion's communication and
    # recurrent-class checks import it
    argv = [] if alpha is None else ["index", write_doc(tmp_path, dict(ADMISSION_DOC,
                                                                       alpha=alpha))]
    proc = subprocess.run([sys.executable, "-c", SPARSE_PROBE, *argv], cwd=tmp_path,
                          env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split()[-1] == str(loaded)
