"""Time the layers of one AGM sketch execution, ``model.execute`` with ``agm``.

    python3 scripts/agm_layer.py [--out BENCH_agm.json] [--baseline OTHER_CHECKOUT/src]

Imports the library from ``src/`` next to this directory and the benchmark's
workloads from ``bench/``, so the inputs are the ones the benchmark feeds the
sketch at seed 1:

- ``agm-hard``: the hard-family members and shared randomness of the first 10
  ops of ``agm-hard`` (n=256, k=3, delta=0.05, 259,200-bit messages);
- ``n1024``: one C1 member of the hard family at n=1024, k=3, delta=0.05
  (380,160-bit messages).

Each execution is timed layer by layer, by wrapping the library functions
that ``execute`` reaches through module globals:

- ``node_sketch_ms``: ``agm.node_sketch``, every node's cell array;
- ``cells_to_bits_ms``: ``agm._cells_to_bits``, packing cells into messages;
- ``check_bits_ms``: ``model.check_bits``, the message type, length and
  padding check;
- ``bits_to_cells_ms``: ``agm._bits_to_cells``, unpacking in the decoder;
- ``certificate_cut_ms``: ``agm.global_min_cut`` on the union certificate;
- ``peel_ms``: the rest of ``agm.agm_decide_kconn``: peeling the k forests,
  with the earlier forests subtracted, and building the certificate graph;
- ``component_sketches_ms``: ``agm._component_sketches``, inside ``peel_ms``:
  each round's component sums, earlier forests subtracted;
- ``extract_ms``: ``agm._extract_edges``, inside ``peel_ms``: one edge per
  component and round;
- ``execute_ms``: the whole ``model.execute`` call.

A version that does not define a layer's function (an older checkout under
``--baseline``) reports no time for that layer; ``peel_ms`` is comparable
across versions.

Each graph records, for each layer, the minimum, median and maximum over 5
executions of the layer's total time in ms.  Each group gets the median of its
graphs' medians under ``median_ms``, and the smallest minimum and largest
maximum under ``range_ms``: two versions whose ranges overlap are not told
apart by their medians alone.  ``--baseline``
loads the ``sketchbench`` package from another checkout's ``src/`` and times
it in the same process: each repeat runs both versions, in alternating order,
so that both see the same machine state.  The two must give the same
transcript (compared by SHA-256 over the messages) and the same decision.
Each row holds the layers of this checkout under ``current`` and those of the
other under ``baseline``, and ``transcript_mb``: the memory that each
version's messages of one execution hold, by ``sys.getsizeof`` of each message
object (a ``Bits`` pair with its bytes, or a '0'/'1' ``str`` in a version
before packed messages).  Packed, the n=1024 transcript holds 46.5 MB of
messages; as '0'/'1' text it held 371.3 MB.  The report names each version by
the SHA-256 of its ``model.py`` and ``agm.py``, and gives the process's peak
RSS.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import sketchbench.agm  # noqa: E402
import sketchbench.model  # noqa: E402
import workloads  # noqa: E402
from sketchbench import lbgraph  # noqa: E402

SEED = 1
REPEATS = 5
K, DELTA = 3, 0.05

#: Layer name -> (module attribute, function) that the layer's time is summed
#: over.  ``decode_ms`` is not reported: ``peel_ms`` is what it leaves after
#: unpacking and the certificate cut.
LAYERS = {
    "node_sketch_ms": ("agm", "node_sketch"),
    "cells_to_bits_ms": ("agm", "_cells_to_bits"),
    "check_bits_ms": ("model", "check_bits"),
    "bits_to_cells_ms": ("agm", "_bits_to_cells"),
    "component_sketches_ms": ("agm", "_component_sketches"),
    "extract_ms": ("agm", "_extract_edges"),
    "certificate_cut_ms": ("agm", "global_min_cut"),
    "decode_ms": ("agm", "agm_decide_kconn"),
}


def agm_hard_inputs(count: int = 10) -> list[tuple]:
    """(graph, advice, randomness seed) of the first ``count`` ``agm-hard`` ops."""
    workload = workloads.AgmHard(SEED)
    inputs = []
    for i in range(count):
        graph, advice = lbgraph.build_lb_graph(workload._member(i)[1])
        inputs.append((graph, advice, workloads.derive_int(SEED, 2, i)))
    return inputs


def n1024_inputs() -> list[tuple]:
    spec = lbgraph.random_spec(1024, K, SEED, condition=lbgraph.Condition.C1)
    graph, advice = lbgraph.build_lb_graph(spec)
    return [(graph, advice, SEED)]


def load_baseline(src: Path):
    """Another checkout's ``sketchbench`` package, under the name ``baseline_sketchbench``."""
    init = src / "sketchbench" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "baseline_sketchbench", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    for name in ("model", "agm"):
        importlib.import_module(f"{spec.name}.{name}")
    return package


@contextmanager
def timed_layers(package, totals: dict):
    """Wrap the function of each layer in ``totals`` so that its calls add their time there."""
    saved = []
    for layer in totals:
        module_name, attr = LAYERS[layer]
        module = getattr(package, module_name)
        inner = getattr(module, attr)

        def wrapper(*args, _inner=inner, _layer=layer, **kwargs):
            start = perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                totals[_layer] += perf_counter() - start

        saved.append((module, attr, inner))
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, inner in saved:
            setattr(module, attr, inner)


def message_mb(bits) -> float:
    """Memory one message object holds: a packed ``Bits`` pair with its bytes, or a ``str``."""
    size = sys.getsizeof(bits)
    if isinstance(bits, tuple):
        size += sys.getsizeof(bits[0])
    return size / 2**20


def run_once(package, protocol, graph, advice, seed: int) -> tuple[dict, str, float]:
    """Layer times in ms of one execution, a digest of its transcript and decision, and its message MB."""
    totals = {layer: 0.0 for layer, (module, attr) in LAYERS.items() if hasattr(getattr(package, module), attr)}
    randomness = package.model.SharedRandomness(seed)
    with timed_layers(package, totals):
        start = perf_counter()
        transcript = package.model.execute(protocol, graph, advice, randomness)
        totals["execute_ms"] = perf_counter() - start
    decode = totals.pop("decode_ms")
    totals["peel_ms"] = decode - totals["bits_to_cells_ms"] - totals["certificate_cut_ms"]
    digest = hashlib.sha256()
    for node, bits in transcript.messages:
        digest.update(f"{node}:{bits};".encode("ascii"))
    digest.update(transcript.decision.value.encode("ascii"))
    size = sum(message_mb(bits) for _, bits in transcript.messages)
    return {layer: seconds * 1e3 for layer, seconds in totals.items()}, digest.hexdigest(), size


def measure(inputs: tuple, versions: dict) -> dict:
    """Median layer times of each version on one graph, versions alternating in order."""
    graph, advice, seed = inputs
    protocols = {name: package.agm.make_agm_protocol(graph.n, K, DELTA) for name, package in versions.items()}
    samples = {name: [] for name in versions}
    digests = set()
    sizes = {}
    for r in range(REPEATS):
        for name in sorted(versions, reverse=r % 2 == 1):
            times, digest, sizes[name] = run_once(versions[name], protocols[name], graph, advice, seed)
            samples[name].append(times)
            digests.add(digest)
    if len(digests) != 1:
        raise SystemExit(f"n={graph.n}: executions differ in transcript or decision")
    row = {
        "n": graph.n,
        "bits": protocols["current"].max_bits,
        "transcript_sha256": digests.pop(),
        "transcript_mb": {name: round(mb, 1) for name, mb in sizes.items()},
    }
    for name, runs in samples.items():
        row[name] = {layer: spread([run[layer] for run in runs]) for layer in runs[0]}
    return row


def spread(values: list) -> list:
    """[minimum, median, maximum] of ``values``, rounded to the microsecond."""
    return [round(value, 3) for value in (min(values), statistics.median(values), max(values))]


def sha256(package) -> dict:
    return {
        name: hashlib.sha256(Path(getattr(package, name).__file__).read_bytes()).hexdigest()
        for name in ("model", "agm")
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_agm.json")
    parser.add_argument("--baseline", type=Path, help="another checkout's src/ to time alongside")
    args = parser.parse_args()

    versions = {"current": sketchbench}
    if args.baseline is not None:
        versions["baseline"] = load_baseline(args.baseline)
    groups = {"agm-hard": agm_hard_inputs(), "n1024": n1024_inputs()}
    for package in versions.values():  # warm-up: hash keys, first allocations
        graph, advice, seed = groups["agm-hard"][0]
        run_once(package, package.agm.make_agm_protocol(graph.n, K, DELTA), graph, advice, seed)
    rows = {name: [measure(inputs, versions) for inputs in group] for name, group in groups.items()}
    report = {
        "seed": SEED,
        "repeats": REPEATS,
        "k": K,
        "delta": DELTA,
        "source_sha256": {name: sha256(package) for name, package in versions.items()},
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "graphs": rows,
        "median_ms": {
            group: {
                name: {
                    layer: round(statistics.median(row[name][layer][1] for row in group_rows), 3)
                    for layer in group_rows[0][name]
                }
                for name in versions
            }
            for group, group_rows in rows.items()
        },
        "range_ms": {
            group: {
                name: {
                    layer: [
                        min(row[name][layer][0] for row in group_rows),
                        max(row[name][layer][2] for row in group_rows),
                    ]
                    for layer in group_rows[0][name]
                }
                for name in versions
            }
            for group, group_rows in rows.items()
        },
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for group, by_version in report["median_ms"].items():
        for name, medians in by_version.items():
            ranges = report["range_ms"][group][name]
            cells = "  ".join(
                f"{layer[:-3]} {ms:.1f} [{ranges[layer][0]:.1f}-{ranges[layer][1]:.1f}]" for layer, ms in medians.items()
            )
            print(f"{group:8s} {name:8s} {cells}")


if __name__ == "__main__":
    main()
