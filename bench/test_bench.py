"""Tests of the benchmark itself, on tiny sizes of its three workloads."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import calibration
import run
import tracing
import workloads
from sketchbench import agm, mincut, overlap

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS_PER_OP = {m[0] for m in tracing.LAYER_METRICS if m[1] == "op" and m[3] == "self"}


def tiny(name: str, seed: int = 3) -> workloads.Workload:
    if name == "agm-hard":
        return workloads.AgmHard(seed, n=36)
    if name == "lb-reduce":
        return workloads.LbReduce(seed, m=6, s=3)
    return workloads.OverlapSweep(seed, m=6, s=3)


#: Per-layer metrics each workload must emit with a nonzero value.
EXERCISED = {
    "agm-hard": [
        "agm.encode_first_s", "agm.encode_first_peak_mb", "agm.encode_s", "model.check_bits_s",
        "model.execute_s", "agm.decode_s", "agm.certificate_cut_s", "agm.certificate_edges",
        "agm.certificate_mult", "mincut.oracle_s", "mincut.calls", "lbgraph.random_spec_s",
        "lbgraph.build_s",
    ],
    "lb-reduce": [
        "setfam.choose_partition_s", "setfam.message_partitions_s", "setfam.common_block_s",
        "setfam.find_separated_pair_s", "setfam.verify_record_s", "setfam.block_size.min",
        "setfam.pigeonhole_floor", "setfam.pinned_ratio", "protocols.encode_s",
        "protocols.encode_calls", "reduction.alice_s", "reduction.bob_s", "reduction.charlie_s",
        "reduction.referee_s", "reduction.compatible_graph_s", "lbgraph.build_s",
        "model.execute_s", "reduction.encode_s", "reduction.encode_calls",
        "reduction.charlie_calls", "mincut.oracle_s", "mincut.calls",
    ],
    "overlap-sweep": [
        "overlap.build_blocks_s", "overlap.enumerate_s", "overlap.encode_s", "overlap.decode_s",
        "overlap.answer_s", "overlap.instances",
    ],
}
COMMON = ["bench.op_s", "trace.ops_per_s", "trace.untraced_ops_per_s"]


def attributes():
    """Every library attribute the traced run wraps, as it is now."""
    return {
        (module.__name__, attr): getattr(module, attr)
        for module, attr, _, _ in tracing.Instrumentation(tracing.Tracer()).patches
    }


ORIGINALS = attributes()


@pytest.fixture(scope="module")
def untraced():
    """Result, record and attributes after one untraced run of each tiny workload."""
    return {name: (*run.run(tiny(name), 0, None, setup_seconds=0), attributes()) for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    """Result, record, tracer and attributes after one traced run of each tiny workload."""
    out = {}
    for name in workloads.WORKLOADS:
        tracer = tracing.Tracer()
        out[name] = (*run.run(tiny(name), 0, tracer, setup_seconds=0), tracer, attributes())
    return out


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert {m[0] for m in tracing.LAYER_METRICS} <= declared
    for names in EXERCISED.values():
        assert set(names) <= declared
    assert set(COMMON) <= declared


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, untraced):
    result, record, after = untraced[name]
    assert after == ORIGINALS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value in result["metrics"].values())
    assert record["samples"]["ops"] == result["attempted"]
    assert record["params"] == tiny(name).params


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_its_layers_and_self_times_add_up(name, traced):
    result, record, tracer, after = traced[name]
    assert after == ORIGINALS
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) <= {m["name"] for m in SPEC["per_layer"]}
    for metric in EXERCISED[name] + COMMON:
        assert metrics[metric] > 0, metric
    layer_sum = sum(metrics[m] for m in SECONDS_PER_OP) + metrics["bench.unattributed_s"]
    assert layer_sum == pytest.approx(metrics["bench.op_s"], rel=1e-9)
    assert record["samples"]["traced_ops"] >= 1 and record["samples"]["untraced_ops"] >= 1
    roots = tracer.roots("op")
    assert len({r["root"] for r in roots}) == len(roots) == record["samples"]["traced_ops"]
    ids = {s["id"] for s in tracer.spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in tracer.spans)


def test_overlap_instances_equal_the_enumerated_count(traced):
    result = traced["overlap-sweep"][0]
    expected = sum(1 for _ in overlap.enumerate_valid_instances(6, 3))
    assert result["metrics"]["overlap.instances"] == expected
    assert expected == math.comb(6, 3) * 3 * math.comb(3, 2) * 2**3 * 2**2


def test_agm_longest_message_is_the_budget(untraced):
    result = untraced["agm-hard"][0]
    assert result["metrics"]["msg_bits.max"] == agm.budget_bits(36, 3, 0.05)


def test_overlap_longest_message_is_s_minus_one(untraced):
    result = untraced["overlap-sweep"][0]
    assert result["metrics"]["msg_bits.max"] == 2


def test_times_are_scaled_by_the_slowdown_around_them():
    assert calibration.scaled([2.0, 3.0], [1.0, 3.0, 1.0]) == [1.0, 1.5]
    for workload in workloads.WORKLOADS.values():
        assert set(workload.calibration) <= set(calibration.KERNELS)
        assert sum(workload.calibration.values()) == 1
    assert calibration.slowdown({}) == 1.0
    assert calibration.slowdown({"interpreter": 1.0}) > 0


def test_untraced_run_records_the_measured_times(untraced):
    result, record, _ = untraced["lb-reduce"]
    calibrations = record["calibration"]
    assert len(calibrations["setup_slowdowns"]) == record["samples"]["setup"] + 1
    assert calibrations["op_slowdown.min"] > 0
    assert record["measured"]["ops_per_s"] > 0


def test_inputs_follow_the_seed():
    a, b, c = (workloads.LbReduce(seed, m=6, s=3) for seed in (5, 5, 6))
    assert [a.instance(i) for i in range(4)] == [b.instance(i) for i in range(4)]
    assert [a.instance(i) for i in range(4)] != [c.instance(i) for i in range(4)]
    assert [overlap.answer(a.instance(i)) for i in range(4)] == [True, False, True, False]


class _RaisesOnTracedOp(workloads.OverlapSweep):
    def op(self, i, tracer):
        if tracer is not None:
            assert mincut.is_k_edge_connected is not ORIGINALS[("sketchbench.mincut", "is_k_edge_connected")]
            raise RuntimeError("boom")
        return super().op(i, tracer)


def test_op_that_raises_fails_the_run_and_wrappers_come_off():
    result, record = run.run(_RaisesOnTracedOp(1, m=6, s=3), 0, tracing.Tracer(), setup_seconds=0)
    assert attributes() == ORIGINALS
    assert not result["correct"]
    assert record["checks_failed"]["raised"] == record["samples"]["traced_ops"]
    assert result["failed"] >= record["samples"]["traced_ops"]
    assert "boom" in record["errors"][0]


def test_broken_check_fails_the_run(monkeypatch):
    monkeypatch.setattr(overlap, "answer", lambda instance: not instance.x[instance.sigma] == 0)
    result, record = run.run(tiny("overlap-sweep"), 0, None, setup_seconds=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_ratio"] == 0
    assert record["checks_failed"]["decode_matches_answer"] == result["attempted"]


def test_checks_hold_under_optimize_flag():
    script = (
        "import sys; sys.path.insert(0, 'bench'); import run, workloads; "
        "from sketchbench import overlap; "
        "overlap.answer = lambda instance: False; "
        "result, _ = run.run(workloads.OverlapSweep(1, m=6, s=3), 0, None, setup_seconds=0); "
        "print(result['correct'], result['failed'] > 0)"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], cwd=run.ROOT, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "overlap-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
