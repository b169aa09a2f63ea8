"""Time the layers of one AGM sketch execution, ``model.execute`` with ``agm``.

    python3 scripts/agm_layer.py [--out BENCH_agm.json] [--baseline OTHER_CHECKOUT/src]

The inputs are the ones the benchmark feeds the sketch at seed 1:

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
``--baseline``) reports no time for that layer, except the three that
``peel_ms`` is computed from: a version without one of those is refused
before the first call.  ``peel_ms`` is comparable across versions.  Every
execution of a graph must give the same ``transcript_sha256``, a SHA-256
over the messages and the decision.  Each row also gives ``bits``, the
message length, and per version ``transcript_mb``: the memory that one
execution's messages hold, by ``sys.getsizeof`` of each message object (a
``Bits`` pair with its bytes, or a '0'/'1' ``str`` in a version before
packed messages).  Packed, the n=1024
transcript holds 46.5 MB of messages; as '0'/'1' text it held 371.3 MB.
``layer_record`` describes the repeats, ranges and report.
"""

import hashlib
import sys
from time import perf_counter

import layer_record  # first: it pins the thread pools and puts src/ and bench/ on sys.path
import workloads
from sketchbench import lbgraph

SEED = 1
REPEATS = 6
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

#: Every (module, attribute) the record calls, and the layers ``peel_ms`` is computed from.
NEEDS = (
    ("agm", "make_agm_protocol"),
    ("model", "SharedRandomness"),
    ("model", "execute"),
    *(LAYERS[layer] for layer in ("decode_ms", "bits_to_cells_ms", "certificate_cut_ms")),
)


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


def message_mb(bits) -> float:
    """Memory one message object holds: a packed ``Bits`` pair with its bytes, or a ``str``."""
    size = sys.getsizeof(bits)
    if isinstance(bits, tuple):
        size += sys.getsizeof(bits[0])
    return size / 2**20


def measure(inputs: tuple, versions: dict) -> dict:
    """The row of one graph: its layer spreads per version and its transcript digest."""
    graph, advice, seed = inputs
    protocols = {name: package.agm.make_agm_protocol(graph.n, K, DELTA) for name, package in versions.items()}
    sizes = {}

    def execute(name, package):
        totals = {layer: 0.0 for layer, (module, attr) in LAYERS.items() if hasattr(getattr(package, module), attr)}
        randomness = package.model.SharedRandomness(seed)
        with layer_record.timed_layers(package, LAYERS, totals):
            start = perf_counter()
            transcript = package.model.execute(protocols[name], graph, advice, randomness)
            totals["execute_ms"] = perf_counter() - start
        decode = totals.pop("decode_ms")
        totals["peel_ms"] = decode - totals["bits_to_cells_ms"] - totals["certificate_cut_ms"]
        digest = hashlib.sha256()
        for node, bits in transcript.messages:
            digest.update(f"{node}:{bits};".encode("ascii"))
        digest.update(transcript.decision.value.encode("ascii"))
        sizes[name] = round(sum(message_mb(bits) for _, bits in transcript.messages), 1)
        return {layer: seconds * 1e3 for layer, seconds in totals.items()}, digest.hexdigest()

    spreads, digest = layer_record.measure(versions, execute, REPEATS)
    return {
        "n": graph.n,
        "bits": protocols["current"].max_bits,
        "transcript_sha256": digest,
        "transcript_mb": sizes,
        **spreads,
    }


def record(versions: dict) -> tuple[dict, dict]:
    groups = {"agm-hard": agm_hard_inputs(), "n1024": n1024_inputs()}
    measure(groups["agm-hard"][0], versions)  # warm-up: hash keys, first allocations
    rows = {name: [measure(inputs, versions) for inputs in group] for name, group in groups.items()}
    return {"seed": SEED, "repeats": REPEATS, "k": K, "delta": DELTA}, rows


if __name__ == "__main__":
    layer_record.main(__doc__, "BENCH_agm.json", ("model", "agm"), NEEDS, record)
