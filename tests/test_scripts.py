"""Smoke test of the layer records under ``scripts/``: harness, AGM, set-family, simulation, oracle and overlap records.

Each record is run on one small input (a graph, an n=16 set-family search,
an m=9 simulation, an m=7 sweep or an m=9 attack) with two versions, this package as ``current`` and a
second copy of it loaded by ``layer_record.load_checkout``.
Nothing is written: the report step (``layer_record.main``) runs only where
it must refuse a checkout before any record call.
"""

import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sketchbench
from sketchbench import lbgraph, protocols, reduction, setfam
from sketchbench.mincut import CutResult
from sketchbench.overlap import attack, truncated_protocol

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scripts():
    # The harness pins thread pools and extends sys.path on import; undo both
    # afterwards, and write no bytecode next to the scripts.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        patch.setattr(sys, "dont_write_bytecode", True)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            patch.setenv(var, "1")
        harness = _load("layer_record")
        versions = {"current": sketchbench, "baseline": harness.load_checkout(ROOT / "src", "baseline")}
        yield SimpleNamespace(
            harness=harness,
            agm=_load("agm_layer"),
            lb=_load("lb_layer"),
            mincut=_load("mincut_layer"),
            overlap=_load("overlap_layer"),
            versions=versions,
        )


def _check_spreads(row, layers):
    for name in ("current", "baseline"):
        assert set(row[name]) == set(layers)
        for low, mid, high in row[name].values():
            assert 0 <= low <= mid <= high


def test_agm_record_row(scripts):
    spec = lbgraph.random_spec(36, 3, 1, condition=lbgraph.Condition.C1)
    graph, advice = lbgraph.build_lb_graph(spec)
    row = scripts.agm.measure((graph, advice, 1), scripts.versions)
    assert set(row) == {
        "n", "bits", "transcript_sha256", "transcript_mb", "execute_peak_mb", "component_sketch_calls", "current",
        "baseline",
    }
    assert row["n"] == 36 and len(row["transcript_sha256"]) == 64
    # A C1 member: every stack peels a spanning forest, in at least one round.
    assert row["component_sketch_calls"]["current"] == row["component_sketch_calls"]["baseline"] >= 3
    # The peak holds the transcript at least: 36 messages of row["bits"] bits.
    for peak in row["execute_peak_mb"].values():
        assert peak >= 36 * row["bits"] / 8 / 2**20
    layers = set(scripts.agm.LAYERS) - {"decode_ms"} | {"unpack_ms", "peel_ms", "execute_ms"}
    _check_spreads(row, layers)
    assert scripts.versions["baseline"].agm.__name__ == "sketchbench_baseline.agm"


def test_agm_record_needs_the_unpack_step(scripts):
    # The in-place check is a layer the record needs: a version without it
    # is refused, by name, before any call.
    assert scripts.agm.LAYERS["unpack_ms"] == ("agm", "_message_rows")
    assert scripts.agm.LAYERS["unpack_ms"] in scripts.agm.NEEDS
    lacking = SimpleNamespace(agm=SimpleNamespace(), model=scripts.versions["current"].model)
    for attr in ("make_agm_protocol", "agm_decide_kconn", "global_min_cut"):
        setattr(lacking.agm, attr, getattr(scripts.versions["current"].agm, attr))
    with pytest.raises(SystemExit, match=r"^the record calls what a version lacks: lacking agm\._message_rows$"):
        scripts.harness.require({"current": scripts.versions["current"], "lacking": lacking}, scripts.agm.NEEDS)


def test_lb_record_row(scripts):
    row = scripts.lb.measure(("toy2", 16, 2, 2), scripts.versions)
    assert set(row) == {
        "protocol", "n", "k", "members", "trials", "pinned", "context_sha256", "peak_rss_mb", "current", "baseline"
    }
    assert (row["protocol"], row["n"], row["k"], row["members"], row["trials"]) == ("toy2", 16, 2, 4, 2)
    family = setfam.complete_family(lbgraph.layout(16)[1], 3)
    ctx = setfam.choose_partition(protocols.make_protocol("toy2", 16, 2), family, 16, 2, 2, scripts.lb.SEED)
    assert row["pinned"] == len(ctx.good) > 0
    assert row["context_sha256"] == hashlib.sha256(ctx.to_json().encode()).hexdigest()
    _check_spreads(row, set(scripts.lb.LAYERS) | {"encode_ms", "choose_partition_ms"})
    assert scripts.versions["baseline"].setfam.__name__ == "sketchbench_baseline.setfam"
    # The wrapped functions are put back after each call.
    assert scripts.versions["baseline"].setfam.common_block.__module__ == "sketchbench_baseline.setfam"


def test_lb_reduce_record_row(scripts):
    row = scripts.lb.measure_reduce(("toy2", 9, 4, 2, 8, 6), scripts.versions)
    assert set(row) == {
        "protocol", "m", "s", "k", "trials", "instances", "context_sha256", "transcripts_sha256", "peak_rss_mb",
        "current", "baseline",
    }
    assert (row["protocol"], row["m"], row["s"], row["k"], row["trials"], row["instances"]) == ("toy2", 9, 4, 2, 8, 6)
    protocol = protocols.make_protocol("toy2", reduction.reduction_size(9), 2)
    ctx = reduction.build_context(protocol, 9, 4, 2, scripts.lb.SEED, trials=8)
    assert row["context_sha256"] == hashlib.sha256(ctx.to_json().encode()).hexdigest()
    # The record runs the lb-reduce workload's first instances at the record's seed.
    workload = scripts.lb.workloads.LbReduce(scripts.lb.SEED, m=9, s=4, trials=8)
    digest = hashlib.sha256()
    for i in range(6):
        digest.update(repr(reduction.simulate(workload.instance(i), ctx, protocol)[1]).encode())
    assert row["transcripts_sha256"] == digest.hexdigest()
    _check_spreads(row, set(scripts.lb.REDUCE_LAYERS))
    assert scripts.versions["baseline"].reduction.simulate.__module__ == "sketchbench_baseline.reduction"


def test_mincut_record_row(scripts):
    row = scripts.mincut.measure(scripts.mincut.cycle(16), scripts.versions)
    assert set(row) == {"n", "edges", "lambda", "current", "baseline"}
    assert (row["n"], row["edges"], row["lambda"]) == (16, 16, 2)
    _check_spreads(row, {"global_min_cut_ms"})


def test_overlap_sweep_record_row(scripts):
    row = scripts.overlap.measure_sweep((7, 4), scripts.versions)
    assert set(row) == {"protocol", "m", "s", "instances", "sweep_sha256", "misdecodes", "current", "baseline"}
    # The instance lines test_enumeration_golden pins at (7, 4); appb decodes every one.
    assert (row["protocol"], row["m"], row["s"], row["instances"]) == ("appb", 7, 4, 17_920)
    assert row["sweep_sha256"][:16] == "bdd2cc0acfd90760" and row["misdecodes"] == 0
    _check_spreads(row, set(scripts.overlap.SWEEP_LAYERS) | {"enumerate_ms", "charlie_decode_ms"})
    # The wrapped functions are put back after each call.
    assert scripts.versions["baseline"].overlap.appb_encode.__module__ == "sketchbench_baseline.overlap"


def test_overlap_attack_record_row(scripts):
    row = scripts.overlap.measure_attack(("trunc", 9, 4), scripts.versions)
    assert set(row) == {"protocol", "m", "s", "counterexample", "current", "baseline"}
    cex = attack(truncated_protocol(9, 4), 9, 4)
    assert row["counterexample"] == {
        "sigma": cex.sigma,
        "supp_x": list(cex.supp_x),
        "supp_y": list(cex.supp_y),
        "x_xhat_y_yhat": [v.to_string() for v in (cex.x, cex.x_hat, cex.y, cex.y_hat)],
        "msg_a": cex.msg_a,
        "msg_b": cex.msg_b,
        "wrong": [list(pair) for pair in cex.wrong],
    }
    _check_spreads(row, set(scripts.overlap.ATTACK_LAYERS) | {"attack_ms"})
    assert scripts.overlap.measure_attack(("appb", 7, 4), scripts.versions)["counterexample"] is None


def test_mincut_record_refuses_an_uncertified_cut(scripts):
    # Value 2 is right for the cycle, but the side {1, 3} crosses 4 edges.
    wrong = SimpleNamespace(mincut=SimpleNamespace(global_min_cut=lambda graph: CutResult(2, frozenset({1, 3}))))
    with pytest.raises(SystemExit, match="does not certify"):
        scripts.mincut.measure(scripts.mincut.cycle(16), {"current": sketchbench, "baseline": wrong})


def test_harness_alternates_and_requires_one_value(scripts):
    order = []

    def call(name, package):
        order.append(name)
        return {"x_ms": float(len(order))}, package

    spreads, value = scripts.harness.measure({"current": 7, "baseline": 7}, call, 4)
    assert order == ["baseline", "current", "current", "baseline", "baseline", "current", "current", "baseline"]
    assert value == 7 and spreads == {"baseline": {"x_ms": [1, 4.5, 8]}, "current": {"x_ms": [2, 4.5, 7]}}
    with pytest.raises(SystemExit, match="disagree"):
        scripts.harness.measure({"current": 7, "baseline": 8}, call, 2)
    # An odd count would let one version go first once more than the other.
    calls = len(order)
    for repeats in (0, 1, 3, 21):
        with pytest.raises(ValueError, match=f"repeats must be even.*got {repeats}"):
            scripts.harness.measure({"current": 7, "baseline": 7}, call, repeats)
    assert len(order) == calls


def test_record_refuses_a_checkout_lacking_a_function_before_any_call(scripts, tmp_path, monkeypatch):
    # A copy of this checkout without reduction.check_instance, which the
    # simulation row calls after the search rows have run for minutes.
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "sketchbench", src / "sketchbench", ignore=shutil.ignore_patterns("__pycache__"))
    for module in (src / "sketchbench").glob("*.py"):
        module.write_text(module.read_text().replace("check_instance", "renamed_check_instance"))
    # load_checkout must load the copy, not the baseline this module already loaded.
    for name in [name for name in sys.modules if name.partition(".")[0] == "sketchbench_baseline"]:
        monkeypatch.delitem(sys.modules, name)
    out = tmp_path / "BENCH_lb.json"
    monkeypatch.setattr(sys, "argv", ["lb_layer.py", "--baseline", str(src), "--out", str(out)])

    def record(versions):
        raise AssertionError("the record ran")

    with pytest.raises(SystemExit, match=r"^the record calls what a version lacks: baseline reduction\.check_instance$"):
        scripts.harness.main(scripts.lb.__doc__, out.name, ("reduction",), scripts.lb.NEEDS, record)
    assert not out.exists()
    # This checkout has everything each record needs.
    for record_script in (scripts.agm, scripts.lb, scripts.overlap):
        scripts.harness.require(scripts.versions, record_script.NEEDS)
