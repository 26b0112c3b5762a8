import hashlib
import json

import numpy as np
import pytest

from pclindex import admission, cli
from pclindex.modelio import (canonical_json, document_from_model, load_model,
                              model_from_document, save_model)

from conftest import random_rb


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ADMISSION_DOC = {
    "kind": "admission", "n": 4,
    "lambda": [1.0, 1.0, 1.0, 1.0, 1.0],
    "mu": [2.0, 2.0, 2.0, 2.0],
    "h": [0.0, 1.0, 2.0, 3.0, 4.0],
    "alpha": 0.0,
}

ROUTING_DOC = {
    "kind": "routing", "lambda": 2.0, "alpha": 0.0, "nu": 5.0,
    "queues": [{"n": 5, "mu": 1.0, "h": 1.0}, {"n": 5, "mu": 1.5, "h": 2.0}],
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
    save_model(model, str(path))
    reloaded, raw = load_model(str(path))
    assert canonical_json(document_from_model(reloaded)) == canonical_json(raw)
    assert np.allclose(reloaded.P0, model.P0)


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
    assert out["error"].startswith("arrival rates at controllable states must be positive")
    assert "Traceback" not in err


def test_dp_verify_disagreement_exits_4(tmp_path, capsys):
    # an absurd indifference tolerance makes the DP call every state
    # indifferent, which cannot match the index sets: exit code 4
    doc = dict(ADMISSION_DOC)
    doc["alpha"] = 0.3
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, doc),
                           "--eps", "1e9")
    assert code == 4
    assert out["results"]["crosscheck"]["mismatches"]


@pytest.mark.parametrize("argv", [
    ["--grid", "-3"], ["--grid", "0"], ["--grid", "1"],
    ["--eps", "-1"], ["--eps", "nan"], ["--eps", "inf"]])
def test_dp_verify_bad_option_is_an_input_error(tmp_path, capsys, argv):
    # a negative grid ended in a traceback, an empty one checked nothing
    # and passed, and a negative or NaN eps was reported as an oracle
    # disagreement (exit 4)
    doc = dict(ADMISSION_DOC, alpha=0.3)
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, doc), *argv)
    assert code == 2
    assert out["exit_code"] == 2 and "results" not in out


def test_dp_verify_report_is_pinned(tmp_path, capsys):
    # SHA-256 of the whole stdout: a change in any reported bit, or in
    # the version string, moves it
    doc = {"kind": "admission", "n": 30, "alpha": 0.1, "lambda": [1.0] * 31,
           "mu": [1.3] * 30, "h": [float(j * j) for j in range(31)]}
    assert cli.main(["dp-verify", write_doc(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "076d462708f3c411d9485eaa2da346c40097dad96ca016cf04dadbe9ae49cb18"


def test_dp_verify_mismatch_report_is_pinned(tmp_path, capsys):
    # pinned like the report above, on the disagreement path: the
    # mismatch rows and the sweep's sets printed from the boolean masks
    doc = dict(ADMISSION_DOC, alpha=0.3)
    assert cli.main(["dp-verify", write_doc(tmp_path, doc), "--eps", "1e9"]) == 4
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1ff2f6794637016481b364f2e5373ba4c8bb3c5cc44e633b424e28cc6f04bddb"


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


def test_simulate_mts(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", write_doc(tmp_path, MTS_DOC),
        "--policy", "index", "--events", "2000", "--reps", "3", "--seed", "1")
    assert code == 0
    assert "index" in out["results"]


def test_simulate_rejects_admission_kind(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, ADMISSION_DOC),
                           "--events", "100")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--events", "0"], ["--events", "-3"], ["--events", "100", "--reps", "0"],
    ["--horizon", "0"], ["--events", "100", "--truncation", "0"], ["--horizon", "nan"]])
def test_simulate_bad_budget_is_an_input_error(tmp_path, capsys, argv):
    # an empty budget used to report mean 0.0 with exit 0, and a bad
    # replication count or horizon ended in a traceback
    code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, ROUTING_DOC), *argv)
    assert code == 2
    assert out["exit_code"] == 2 and "results" not in out


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
    assert res["whittle_indices"]["1"] == pytest.approx(3300 / 6767, abs=1e-8)
    assert res["whittle_indices"]["0"] == pytest.approx(11022 / 19111, abs=1e-8)
    assert "PASS" in err


def test_counterexample_report_is_pinned(capsys):
    # pinned like the dp-verify report
    assert cli.main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0ad7bed71c35247ca4ac4738cd273449d1fc6a8274cb2ffea8db3c4f39100187"
