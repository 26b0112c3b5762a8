"""The benchmark tracer (bench/tracer.py) wraps pclindex attributes by
name; every one it names must still be defined where it looks, or a
traced benchmark run breaks.  The tracer module is only imported here,
never changed."""

import importlib
import importlib.util
import pathlib

import pytest

import pclindex.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name, owner, attr", [t[:3] for t in tracer.TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in tracer.TARGETS])
def test_target_resolves_through_owner_dict(name, owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = obj.__dict__[cls]
    assert attr in obj.__dict__, f"{owner} no longer defines {attr} (span {name})"


def test_index_core_targets_are_traced():
    traced = {(owner, attr) for _, owner, attr, _ in tracer.TARGETS}
    assert {("pclindex.greedy:WorkloadOracle", "workload"),
            ("pclindex.setsystem:SetSystem", "inner_boundary"),
            ("pclindex.setsystem:SetSystem", "__contains__"),
            ("pclindex.admission", "workload_table")} <= traced


def test_install_and_uninstall_leave_no_wrapper():
    trace = tracer.Tracer()
    try:
        trace.install()
    finally:
        problems = trace.uninstall()
    assert problems == []
