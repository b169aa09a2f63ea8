"""Time the layers of the set-family search, ``setfam.choose_partition``, and of the three-party simulation.

    python3 scripts/lb_layer.py [--out BENCH_lb.json] [--baseline OTHER_CHECKOUT/src]

Each search case searches n=256 (|W| = 16) with seed 1 and 4 trials, over
the complete family of sigma neighborhoods, the (2k-1)-subsets of W:

- ``k2``: k=2, the 560 3-subsets, the family ``reduction.build_context``
  uses at m=96 (the ``lb-reduce`` workload's set-up);
- ``k3``: k=3, the 4,368 5-subsets, passed explicitly since
  ``setfam.neighborhood_family`` refuses families above 4,096.

Each group holds one row per protocol, ``toy2`` and ``trunc:3``.  The
layers are timed by wrapping the functions ``choose_partition`` reaches
through ``setfam``'s globals, and the protocol's encoder:

- ``choose_partition_ms``: the whole call;
- ``message_partitions_ms``: ``setfam.message_partitions``, every node's
  role messages, encodes included;
- ``encode_ms``: the protocol's ``encode``, every call: the search's, inside
  ``message_partitions_ms``, and the re-verification's, inside
  ``verify_record_ms``;
- ``common_block_ms``: ``setfam.common_block``, per node and trial: the
  positions of the largest block of members with equal role messages;
- ``find_separated_pair_ms``: ``setfam.find_separated_pair``, per node and
  trial: the block's first C0 and first C1 positions, one class lookup per
  position scanned (the members are classified once per trial, outside it);
- ``verify_record_ms``: ``setfam.verify_record``, the winning trial's
  records re-encoded from scratch.

Every call on a case must give the same ``context_sha256``, the SHA-256 of
the chosen context's ``to_json()``.

The ``reduce`` group times the three-party simulation on the ``lb-reduce``
workload's parameters: ``toy2`` at m=96, s=48, k=2, a context built once per
version with seed 1 and 4 trials (not timed), and the workload's first 64
instances at seed 1 (``LbReduce.instance``, yes on even indices), each version
reading its own copy from ``OverlapInstance.to_json``.  ``verify-fidelity``'s
``reduction.check_instance`` checks each: the simulation's messages must equal
``execute``'s on the compatible graph.  Times are ms per instance, summed over
the functions named through ``reduction``'s globals:

- ``simulate_ms``: the whole three-party run, referee included;
- ``alice_ms``, ``bob_ms``: ``alice_messages`` and ``bob_messages``;
- ``charlie_ms``: ``charlie_messages``;
- ``compatible_graph_ms``: ``build_compatible_graph``;
- ``execute_ms``: ``execute``, the honest run on the compatible graph.

Every call must give the same ``transcripts_sha256``, the SHA-256 of the
assembled messages of every instance in order, and each version's context
the same ``context_sha256``.

Each row also gives ``peak_rss_mb``, the process's peak RSS once the row is
done: the rows run in the order listed, both versions in one process, so it
is a high-water mark over the rows so far.  ``layer_record`` describes the
repeats, ranges and report.
"""

import hashlib
import resource
from dataclasses import replace
from time import perf_counter

import layer_record  # first: it pins the thread pools and puts src/ and bench/ on sys.path
import workloads

SEED = 1
REPEATS = 4
N, TRIALS = 256, 4
PROTOCOLS = ("toy2", "trunc:3")

#: Layer name -> (module attribute, function) that the layer's time is summed over.
LAYERS = {
    "message_partitions_ms": ("setfam", "message_partitions"),
    "common_block_ms": ("setfam", "common_block"),
    "find_separated_pair_ms": ("setfam", "find_separated_pair"),
    "verify_record_ms": ("setfam", "verify_record"),
}

#: The ``reduce`` case: the ``lb-reduce`` workload's protocol, m, s, k and trials, and the instance count.
REDUCE = ("toy2", 96, 48, 2, TRIALS, 64)

#: The ``reduce`` group's layers, as ``LAYERS``.
REDUCE_LAYERS = {
    "simulate_ms": ("reduction", "simulate"),
    "alice_ms": ("reduction", "alice_messages"),
    "bob_ms": ("reduction", "bob_messages"),
    "charlie_ms": ("reduction", "charlie_messages"),
    "compatible_graph_ms": ("reduction", "build_compatible_graph"),
    "execute_ms": ("reduction", "execute"),
}

#: Every (module, attribute) the record times or calls, checked in each version before the first call.
NEEDS = (
    *LAYERS.values(),
    *REDUCE_LAYERS.values(),
    ("lbgraph", "layout"),
    ("overlap", "OverlapInstance"),
    ("protocols", "make_protocol"),
    ("reduction", "build_context"),
    ("reduction", "check_instance"),
    ("reduction", "reduction_size"),
    ("setfam", "choose_partition"),
    ("setfam", "complete_family"),
)


def measure(case: tuple, versions: dict) -> dict:
    """The row of one (protocol, n, k, trials) case: its layer spreads per version and its context digest."""
    name, n, k, trials = case
    families = {
        version: package.setfam.complete_family(package.lbgraph.layout(n)[1], 2 * k - 1)
        for version, package in versions.items()
    }
    pinned = set()

    def search(version, package):
        totals = {layer: 0.0 for layer in (*LAYERS, "encode_ms")}
        protocol = package.protocols.make_protocol(name, n, k)
        protocol = replace(protocol, encode=layer_record.timed(protocol.encode, totals, "encode_ms"))
        with layer_record.timed_layers(package, LAYERS, totals):
            start = perf_counter()
            ctx = package.setfam.choose_partition(protocol, families[version], n, k, trials, SEED)
            totals["choose_partition_ms"] = perf_counter() - start
        pinned.add(len(ctx.good))
        digest = hashlib.sha256(ctx.to_json().encode()).hexdigest()
        return {layer: seconds * 1e3 for layer, seconds in totals.items()}, digest

    spreads, digest = layer_record.measure(versions, search, REPEATS)
    return {
        "protocol": name,
        "n": n,
        "k": k,
        "members": len(families["current"].members),
        "trials": trials,
        "pinned": pinned.pop(),
        "context_sha256": digest,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        **spreads,
    }


def measure_reduce(case: tuple, versions: dict) -> dict:
    """The row of one (protocol, m, s, k, trials, instances) simulation case."""
    name, m, s, k, trials, count = case
    workload = workloads.LbReduce(SEED, protocol=name, m=m, s=s, k=k, trials=trials)
    texts = [workload.instance(i).to_json() for i in range(count)]
    setups, contexts = {}, set()
    for version, package in versions.items():
        protocol = package.protocols.make_protocol(name, package.reduction.reduction_size(m), k)
        ctx = package.reduction.build_context(protocol, m, s, k, SEED, trials=trials)
        contexts.add(hashlib.sha256(ctx.to_json().encode()).hexdigest())
        setups[version] = protocol, ctx, [package.overlap.OverlapInstance.from_json(text) for text in texts]
    if len(contexts) != 1:
        raise SystemExit(f"the versions build different contexts: {sorted(contexts)}")

    def check(version, package):
        protocol, ctx, instances = setups[version]
        totals = dict.fromkeys(REDUCE_LAYERS, 0.0)
        digest = hashlib.sha256()
        with layer_record.timed_layers(package, REDUCE_LAYERS, totals):
            for instance in instances:
                run = package.reduction.check_instance(instance, ctx, protocol)
                if run.mismatches:
                    raise SystemExit(f"{version}: the simulation differs from the honest run at {run.mismatches}")
                digest.update(repr(run.assembled).encode())
        return {layer: seconds * 1e3 / count for layer, seconds in totals.items()}, digest.hexdigest()

    spreads, digest = layer_record.measure(versions, check, REPEATS)
    return {
        "protocol": name,
        "m": m,
        "s": s,
        "k": k,
        "trials": trials,
        "instances": count,
        "context_sha256": contexts.pop(),
        "transcripts_sha256": digest,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        **spreads,
    }


def record(versions: dict) -> tuple[dict, dict]:
    measure(("toy2", 36, 2, 2), versions)  # warm-up: imports, cached layouts, first allocations
    rows = {
        f"k{k}": [measure((name, N, k, TRIALS), versions) for name in PROTOCOLS] for k in (2, 3)
    }
    rows["reduce"] = [measure_reduce(REDUCE, versions)]
    return {"seed": SEED, "repeats": REPEATS}, rows


if __name__ == "__main__":
    layer_record.main(__doc__, "BENCH_lb.json", ("lbgraph", "setfam", "reduction", "model", "protocols"), NEEDS, record)
