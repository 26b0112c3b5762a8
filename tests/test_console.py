"""The command line at scale, and the console script in fresh processes.

Most jobs run in this process through ``cli.main``.  Three checks need a
process of their own: the console script run away from ``src/``, the
peak-RSS gate of the n = 4000 ``index`` job, and the byte identity of two
processes' reports.  They run the installed ``pclindex`` script when it
is on PATH, with PYTHONPATH removed, and otherwise ``python -m
pclindex.cli`` on the package this pytest process imported.
"""

import math
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from pclindex import admission, bandit
from pclindex.setsystem import threshold_family

from conftest import ROUTING_DOC, assert_canonical, package_env, run_cli, write_doc


def queue(n, alpha):
    """The regular queue: arrivals at rate 1, service at 1.3, holding cost j^2."""
    return {"kind": "admission", "n": n, "alpha": alpha, "lambda": [1.0] * (n + 1),
            "mu": [1.3] * n, "h": [float(j * j) for j in range(n + 1)]}


RB_DOC = {
    "kind": "rb", "states": 3, "controllable": [0, 1], "beta": 0.9,
    "P0": [[0.5, 0.5, 0.0], [0.2, 0.5, 0.3], [0.0, 0.4, 0.6]],
    "P1": [[0.9, 0.1, 0.0], [0.6, 0.4, 0.0], [0.0, 0.4, 0.6]],
    "h0": [1.0, 2.0, 4.0], "h1": [1.5, 2.5, 4.0], "theta1": [1.0, 1.0, 1.0],
    "family": [[], [1], [0, 1]],
}


def scale(indices: dict) -> float:
    return max(1.0, max(map(abs, indices.values())))


def console(tmp_path, *argv, timeout=120):
    """Run one ``pclindex`` job in a fresh process from tmp_path: its exit
    code, canonical report and peak RSS in MiB.  A job still running at
    the timeout is killed and fails the test.  The RSS is wait4's for that
    process alone, so no earlier child of the pytest process counts."""
    script = shutil.which("pclindex")
    if script:
        cmd, env = [script], {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    else:
        cmd, env = [sys.executable, "-m", "pclindex.cli"], package_env()
    path = tmp_path / f"{argv[0]}.out"   # a file, not a pipe: wait4 blocks until the exit
    with open(path, "w") as out:
        proc = subprocess.Popen(cmd + list(argv), cwd=tmp_path, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)   # kill skips a process already reaped
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode >= 0, f"{argv} ended by signal {-proc.returncode} (timeout {timeout} s)"
    return proc.returncode, assert_canonical(path.read_text()), usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# The regular queue at scale, in process
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, alpha", [(600, 0.1), (600, 0.0), (8, 0.0)],
                         ids=["n600-discounted", "n600-average", "n8-average"])
def test_index_is_indexable_and_matches_the_recursion(tmp_path, capsys, n, alpha):
    # at n = 600 the discounted and the average family scans each run in
    # 5 batches
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, queue(n, alpha)))
    assert code == 0
    res = out["results"]
    assert res["pcl"]["pcl_indexable"] and "chain" not in res["pcl"]
    assert res["recursion_vs_greedy_gap"] <= 1e-9 * scale(res["indices"])


@pytest.mark.parametrize("grid", [21, 400])
def test_dp_verify_at_n600_agrees(tmp_path, capsys, grid):
    # the charge path runs in 17 speculative batches, 16 of them cut to 36
    # policies by the cap; the sweep's sets at 400 charges are each read
    # off the path's policies
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, queue(600, 0.1)),
                           "--grid", str(grid))
    assert code == 0
    check, sweep = out["results"]["crosscheck"], out["results"]["sweep"]
    assert check["agree"] and check["mismatches"] == []
    assert check["dp_vs_pcl_gap"] <= 1e-9 * scale(out["results"]["pcl"]["indices"])
    assert len(sweep["grid"]) == grid
    assert sweep["nested_decreasing"] and sweep["all_in_family"]


def test_dp_verify_at_n2000_agrees(tmp_path, capsys):
    # a charge path of 2001 pieces in batches of 10 policies (the cap)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, queue(2000, 0.1)))
    assert time.perf_counter() - start < 120
    assert code == 0
    assert out["results"]["crosscheck"]["agree"] and out["results"]["sweep"]["nested_decreasing"]


# ---------------------------------------------------------------------------
# A restless-bandit file with an explicit family, in process
# ---------------------------------------------------------------------------

def test_rb_index_with_an_explicit_family(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, RB_DOC), "--family", "explicit")
    assert code == 0 and out["results"]["pcl"]["pcl_indexable"]


def test_rb_index_at_beta_1_reproduces_its_fractions(tmp_path, capsys):
    # the average criterion on a dense kernel
    code, out, _ = run_cli(capsys, "index", write_doc(tmp_path, dict(RB_DOC, beta=1.0)),
                           "--family", "explicit")
    assert code == 0
    pcl, want = out["results"]["pcl"], {"0": 1 / 14, "1": 157 / 20}
    assert pcl["pcl_indexable"] and pcl["indices"].keys() == want.keys()
    assert all(abs(pcl["indices"][k] - v) <= 1e-12 * v for k, v in want.items())


def test_rb_dp_verify_with_an_explicit_family(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "dp-verify", write_doc(tmp_path, RB_DOC),
                           "--family", "explicit")
    assert code == 0
    assert out["results"]["pcl"]["pcl_indexable"] and out["results"]["crosscheck"]["agree"]


# ---------------------------------------------------------------------------
# The certificates at scale: they read the report's chain as one mask
# stack, in batches of SCAN_ENTRIES operator entries
# ---------------------------------------------------------------------------

def regular_rb(n, alpha):
    return admission.uniformize(admission.ACModel(
        n, np.full(n + 1, 1.0), np.full(n, 1.3), np.arange(n + 1.0) ** 2, alpha))


@pytest.fixture(scope="module")
def discounted_200():
    rb = regular_rb(200, 0.1)
    return rb, bandit.pcl_index(rb, threshold_family(200))


def test_dmr_report_at_n200(discounted_200):
    # each chain step's n + 1 one-swap neighbours in one stacked call
    report = bandit.dmr_report(*discounted_200)
    assert report.all_ok, report


def test_value_breakpoints_at_n200(discounted_200):
    segs = bandit.value_breakpoints(*discounted_200, 0)
    assert len(segs.intercepts) == len(segs.slopes) == 201


def test_constrained_policy_at_n600_randomizes_one_state():
    rb = regular_rb(600, 0.0)
    rep = bandit.average_pcl_index(rb, threshold_family(600))
    hi, lo = (bandit.average_limits(rb, s).b_bar for s in (rep.state_order, []))
    pol = bandit.constrained_policy(rb, rep, 0.5 * (lo + hi))
    assert pol.randomized_state is not None and 0 < pol.p_active < 1, pol


# ---------------------------------------------------------------------------
# The console script, each job in a fresh process
# ---------------------------------------------------------------------------

def test_console_script_runs_away_from_src(tmp_path):
    write_doc(tmp_path, queue(8, 0.1), "queue.json")
    code, out, _ = console(tmp_path, "dp-verify", "queue.json")
    assert code == 0
    res = out["results"]
    assert res["crosscheck"]["agree"] and res["sweep"]["nested_decreasing"]
    assert "grid" not in res["crosscheck"]
    assert res["crosscheck"]["dp_vs_pcl_gap"] <= 1e-9 * scale(res["pcl"]["indices"])


def test_index_at_n4000_peaks_under_500_mib(tmp_path):
    # the threshold family held as masks and the family scan read by member
    # id; the model is held in band storage (dense P0 and P1 took 950 MiB).
    # Exit 0 also gates the recursion-vs-greedy gap
    write_doc(tmp_path, queue(4000, 0.1), "queue.json")
    code, out, peak = console(tmp_path, "index", "queue.json", timeout=120)
    assert code == 0
    assert out["results"]["pcl"]["pcl_indexable"] and len(out["results"]["indices"]) == 4000
    assert peak < 500, f"peak RSS {peak:.0f} MiB, over 500 MiB"


def test_three_word_seed_reports_match_across_processes(tmp_path):
    # the seed 2**64 + 1 takes three 32-bit words
    write_doc(tmp_path, ROUTING_DOC, "route.json")
    argv = ["simulate", "route.json", "--policy", "index,shortest,naive", "--events", "200",
            "--reps", "3", "--seed", str(2**64 + 1)]
    runs = []
    for _ in range(2):
        code, out, _ = console(tmp_path, *argv)
        assert code == 0
        runs.append((tmp_path / "simulate.out").read_bytes())
    assert runs[0] == runs[1]
    assert out["seed"] == 2**64 + 1 and len(out["results"]) == 3
    assert all(math.isfinite(r["mean"]) for r in out["results"].values())
