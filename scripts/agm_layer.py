"""Time the layers of one AGM sketch execution, ``model.execute`` with ``agm``.

    python3 scripts/agm_layer.py [--out BENCH_agm.json] [--baseline OTHER_CHECKOUT/src]

The inputs are the ones the benchmark feeds the sketch at seed 1:

- ``agm-hard``: the hard-family members and shared randomness of the first 10
  ops of ``agm-hard`` (n=256, k=3, delta=0.05, 259,200-bit messages);
- ``n1024``: one C1 member of the hard family at n=1024, k=3, delta=0.05
  (380,160-bit messages);
- ``n4096``: one C1 member at n=4096, k=3, delta=0.05 (524,160-bit
  messages, a 256 MB transcript).

Each execution is timed layer by layer, by wrapping the library functions
that ``execute`` reaches through module globals:

- ``node_sketch_ms``: ``agm.node_sketch``, every node's cell array;
- ``cells_to_bits_ms``: ``agm._cells_to_bits``, packing cells into messages;
- ``check_bits_ms``: ``model.check_bits``, the message type, length and
  padding check;
- ``unpack_ms``: ``agm._message_rows``, the decoder's check of every
  message in place;
- ``certificate_cut_ms``: ``agm.global_min_cut`` on the union certificate;
- ``peel_ms``: the rest of ``agm.agm_decide_kconn``: peeling the k forests,
  with the earlier forests subtracted, and building the certificate graph.
  It includes page faults: glibc hands the freed top of the heap back to the
  system after each Borůvka round, and the next round faults about 1 MB of
  fresh pages in again.  ``bench/run.py`` shows none of this, since its
  memory calibration kernel raises glibc's trim threshold;
- ``component_sketches_ms``: ``agm._component_sketches``, inside ``peel_ms``:
  each round's component sums, earlier forests subtracted;
- ``extract_ms``: ``agm._extract_edges``, inside ``peel_ms``: one edge per
  component and round;
- ``execute_ms``: the whole ``model.execute`` call.

A version that does not define a layer's function (an older checkout under
``--baseline``) reports no time for that layer, except the three that
``peel_ms`` is computed from: a version without one of those is refused
before the first call.  ``peel_ms`` includes each round's gather of its cells
from the message bytes.  Every execution of a graph must give the same
``transcript_sha256``, a SHA-256 over each message's node, bit length and
packed bytes, then the decision.  Each row also gives ``bits``, the message
length, and per version:

- ``transcript_mb``: the memory that one execution's messages hold, by
  ``sys.getsizeof`` of each ``Bits`` pair and its bytes: 46.5 MB at n=1024;
- ``execute_peak_mb``: the peak of the memory that ``tracemalloc`` sees
  allocated during one more, untimed, execution: the messages, the
  encoder's and the decoder's arrays;
- ``component_sketch_calls``: the ``agm._component_sketches`` calls, one per
  Borůvka round run, of that execution's decode.  A stack ends at its first
  all-zero round, so C0 members, whose later stacks run out of boundary
  edges, need fewer rounds.

``layer_record`` describes the repeats, ranges and report.
"""

import hashlib
import sys
import tracemalloc
from contextlib import contextmanager
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
    "component_sketches_ms": ("agm", "_component_sketches"),
    "extract_ms": ("agm", "_extract_edges"),
    "certificate_cut_ms": ("agm", "global_min_cut"),
    "decode_ms": ("agm", "agm_decide_kconn"),
    "unpack_ms": ("agm", "_message_rows"),
}

#: Every (module, attribute) the record calls, and the layers ``peel_ms`` is
#: computed from.
NEEDS = (
    ("agm", "make_agm_protocol"),
    ("model", "SharedRandomness"),
    ("model", "execute"),
    *(LAYERS[layer] for layer in ("decode_ms", "certificate_cut_ms", "unpack_ms")),
)


def agm_hard_inputs(count: int = 10) -> list[tuple]:
    """(graph, advice, randomness seed) of the first ``count`` ``agm-hard`` ops."""
    workload = workloads.AgmHard(SEED)
    inputs = []
    for i in range(count):
        graph, advice = lbgraph.build_lb_graph(workload._member(i)[1])
        inputs.append((graph, advice, workloads.derive_int(SEED, 2, i)))
    return inputs


def c1_inputs(n: int) -> list[tuple]:
    """(graph, advice, randomness seed) of one C1 member of the hard family at n."""
    spec = lbgraph.random_spec(n, K, SEED, condition=lbgraph.Condition.C1)
    graph, advice = lbgraph.build_lb_graph(spec)
    return [(graph, advice, SEED)]


def message_mb(bits) -> float:
    """Memory one message object holds: a packed ``Bits`` pair with its bytes."""
    return (sys.getsizeof(bits) + sys.getsizeof(bits.data)) / 2**20


@contextmanager
def counted_rounds(agm):
    """A one-item list that counts the ``agm._component_sketches`` calls made inside the block.

    The count stays None in a version without that function.
    """
    if not hasattr(agm, "_component_sketches"):
        yield [None]
        return
    calls, inner = [0], agm._component_sketches

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    agm._component_sketches = counting
    try:
        yield calls
    finally:
        agm._component_sketches = inner


def measure(inputs: tuple, versions: dict) -> dict:
    """The row of one graph: its layer spreads per version and its transcript digest."""
    graph, advice, seed = inputs
    protocols = {name: package.agm.make_agm_protocol(graph.n, K, DELTA) for name, package in versions.items()}
    sizes, peaks, rounds = {}, {}, {}
    for name, package in versions.items():
        tracemalloc.start()
        try:
            with counted_rounds(package.agm) as calls:
                package.model.execute(protocols[name], graph, advice, package.model.SharedRandomness(seed))
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
        finally:
            tracemalloc.stop()
        rounds[name] = calls[0]

    def execute(name, package):
        totals = {
            layer: 0.0 for layer, (module, attr) in LAYERS.items() if hasattr(getattr(package, module), attr)
        }
        randomness = package.model.SharedRandomness(seed)
        with layer_record.timed_layers(package, LAYERS, totals):
            start = perf_counter()
            transcript = package.model.execute(protocols[name], graph, advice, randomness)
            totals["execute_ms"] = perf_counter() - start
        decode = totals.pop("decode_ms")
        totals["peel_ms"] = decode - totals["unpack_ms"] - totals["certificate_cut_ms"]
        digest = hashlib.sha256()
        for node, bits in transcript.messages:
            digest.update(f"{node}:{len(bits)}:".encode() + bits.data)
        digest.update(transcript.decision.value.encode("ascii"))
        sizes[name] = round(sum(message_mb(bits) for _, bits in transcript.messages), 1)
        return {layer: seconds * 1e3 for layer, seconds in totals.items()}, digest.hexdigest()

    spreads, digest = layer_record.measure(versions, execute, REPEATS)
    return {
        "n": graph.n,
        "bits": protocols["current"].max_bits,
        "transcript_sha256": digest,
        "transcript_mb": sizes,
        "execute_peak_mb": peaks,
        "component_sketch_calls": rounds,
        **spreads,
    }


def record(versions: dict) -> tuple[dict, dict]:
    groups = {"agm-hard": agm_hard_inputs(), "n1024": c1_inputs(1024), "n4096": c1_inputs(4096)}
    measure(groups["agm-hard"][0], versions)  # warm-up: hash keys, first allocations
    rows = {name: [measure(inputs, versions) for inputs in group] for name, group in groups.items()}
    return {"seed": SEED, "repeats": REPEATS, "k": K, "delta": DELTA}, rows


if __name__ == "__main__":
    layer_record.main(__doc__, "BENCH_agm.json", ("model", "agm"), NEEDS, record)
