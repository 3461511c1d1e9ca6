"""Tests of the benchmark's tracer: exact call counts prove no alias is missed.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import goldman.cli  # noqa: E402
from goldman import cocycle_basis, random_representation  # noqa: E402

import jobs  # noqa: E402
import tracer as tracer_module  # noqa: E402


@pytest.fixture
def tracer():
    t = tracer_module.Tracer()
    t.install()
    t.begin_pass()
    try:
        yield t
    finally:
        t.uninstall()


def _children(t, parent_name, child_name):
    """Child-span counts of every span named parent_name."""
    names = [t.names[i] for i in t.span_name]
    counts = {i: 0 for i, n in enumerate(names) if n == parent_name}
    for i, n in enumerate(names):
        if n == child_name and t.span_parent[i] in counts:
            counts[t.span_parent[i]] += 1
    return list(counts.values())


@pytest.mark.parametrize("genus", [2, 3])
def test_pairing_dual_extends_each_dual_generator_once(genus):
    basis = cocycle_basis(random_representation(genus, 2, seed=4))
    chi, psi = basis.h1_complement[:2]
    t = tracer_module.Tracer()
    t.install()
    try:
        goldman.pairing.pairing_dual(chi, psi)
    finally:
        t.uninstall()
    assert _children(t, "pairing.pairing_dual", "cocycles.extend") == [2 * genus]
    assert _children(t, "pairing.pairing_dual", "reps.evaluate") == [2 * genus]


@pytest.mark.parametrize("genus", [2, 3])
def test_relator_tangent_matrix_differentiates_each_generator_once(genus, tracer):
    rep = random_representation(genus, 2, seed=5)
    goldman.cocycles.cocycle_basis(rep)
    # cocycles holds its own alias of relator_tangent_matrix, words calls
    # fox_derivative through its own global: both must be seen.
    assert _children(tracer, "cocycles.cocycle_basis", "reps.relator_tangent_matrix") == [1]
    assert _children(tracer, "reps.relator_tangent_matrix",
                     "words.fox_derivative") == [2 * genus]


def test_uninstall_restores_the_original_functions():
    t = tracer_module.Tracer()
    originals = {(id(h), a): getattr(h, a) for h, a, _, _ in t._bindings}
    t.install()
    assert all(getattr(h, a) is w for h, a, _, w in t._bindings)
    t.uninstall()
    assert all(getattr(h, a) is originals[(id(h), a)] for h, a, _, _ in t._bindings)
    aliases = {(getattr(h, "__name__", ""), a) for h, a, _, _ in t._bindings}
    assert ("goldman.pairing", "extend") in aliases
    assert ("goldman.charts", "pairing_dual") in aliases


def _closedness(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert goldman.cli.main(argv) == 0
    return out.getvalue()


def test_tracing_does_not_change_output(tracer):
    argv = ["--genus", "2", "--rank", "2", "--seed", "9", "closedness",
            "--steps", "4e-3,2e-3"]
    traced = _closedness(argv)
    tracer.uninstall()
    assert traced == _closedness(argv)
    agg = tracer.aggregate_pass()
    assert agg["calls"]["cli.cmd_closedness"] == 1
    assert tracer_module.layer_metric("charts.point_cache_hit_ratio", agg, {}) > 0
    assert tracer_module.layer_metric("reps.newton_iterations_per_call", agg, {}) >= 1


def test_every_benchmark_metric_resolves():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    t = tracer_module.Tracer()
    agg = t.aggregate_pass()
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_frac":
            continue
        stem, _, field = name.rpartition(".")
        if stem.startswith("verify."):
            assert stem[len("verify."):] in t.check_spans, name
        elif field in ("calls", "self_s") and not name.startswith(("fileio.", "cli.self")):
            assert stem in t.names, name
        elif stem.startswith("cli.") and field == "s":
            assert "cli.cmd_" + stem[4:].replace("-", "_") in t.names, name
        tracer_module.layer_metric(name, agg, t.check_spans)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(jobs.WORKLOADS)


def test_plans_are_seeded(tmp_path):
    for workload in jobs.WORKLOADS:
        assert jobs.plan(workload, 3, tmp_path) == jobs.plan(workload, 3, tmp_path)
        assert jobs.plan(workload, 3, tmp_path) != jobs.plan(workload, 4, tmp_path)
