"""The benchmark's three workloads.

Each workload derives every input from its seed, calls the same public
library functions as the matching CLI subcommand, and checks each op's result
without ``assert``, so the checks hold under ``python -O``.  ``op`` returns the
names of the checks the op broke and the longest message any node or party
sent during it.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from sketchbench import agm, lbgraph, mincut, model, overlap, protocols, reduction
from sketchbench.cli import binomial_allowance

import tracing

#: Calibration kernels (see ``calibration.py``) that scale set-up times: start-up,
#: imports and the one-time searches are interpreter-bound on every workload.
SETUP_CALIBRATION = {"interpreter": 1.0}


def derive(seed: int, *key: int) -> np.random.Generator:
    """Generator for one input, drawn from the workload seed and a key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive_int(seed: int, *key: int) -> int:
    return int(derive(seed, *key).integers(0, 2**31))


class Workload:
    """Set up (repeatedly, each time from scratch), then ops until the run's time is up.

    A run makes ``min_ops`` ops at least.  ``tracer`` is None except in a traced
    set-up or op.
    """

    name = ""
    min_ops = 2
    #: Calibration kernels that scale op times, weighted so that their
    #: slow-down on a shared machine matches the op's.
    calibration = {"interpreter": 1.0}

    def __init__(self, seed: int, **params):
        self.seed = seed
        self.params = params
        self.setup_failures: list[str] = []

    def setup(self, tracer) -> None:
        raise NotImplementedError

    def op(self, i: int, tracer) -> tuple[list[str], int]:
        raise NotImplementedError

    def tolerated(self, attempted: int) -> dict[str, int]:
        """Check failures a correct run may show, with how many it may show."""
        return {}

    def layer_extras(self, tracer) -> dict[str, float]:
        """Per-layer values computed from the workload's own parameters."""
        return {}


class AgmHard(Workload):
    """AGM sketch on hard-family members whose connectivity turns on one node."""

    name = "agm-hard"
    #: Small numpy calls and the oracle on one side, the 79 MB hash tables on
    #: the other: in the slow mode an op slows about 1.5x, the interpreter
    #: kernel 1.8x and the memory kernel 1.4x.
    calibration = {"interpreter": 0.5, "memory": 0.5}

    def __init__(self, seed: int, n: int = 256, k: int = 3, delta: float = 0.05):
        super().__init__(seed, n=n, k=k, delta=delta)

    def setup(self, tracer) -> None:
        n, k, delta = self.params["n"], self.params["k"], self.params["delta"]
        self.protocol = agm.make_agm_protocol(n, k, delta)
        self.budget = agm.budget_bits(n, k, delta)

    def _member(self, i: int):
        n, k = self.params["n"], self.params["k"]
        condition = lbgraph.Condition.C0 if i % 2 == 0 else lbgraph.Condition.C1
        spec = lbgraph.random_spec(n, k, derive_int(self.seed, 1, i), condition=condition)
        return condition, spec

    def op(self, i: int, tracer) -> tuple[list[str], int]:
        k = self.params["k"]
        condition, spec = self._member(i)
        graph, advice = lbgraph.build_lb_graph(spec)
        randomness = model.SharedRandomness(derive_int(self.seed, 2, i))
        transcript = model.execute(self.protocol, graph, advice, randomness)
        truth = mincut.is_k_edge_connected(graph, k)

        lengths = [len(bits) for _, bits in transcript.messages]
        failures = []
        if any(length != self.budget for length in lengths):
            failures.append("sketch_budget")
        if truth != (condition is lbgraph.Condition.C1):
            failures.append("dichotomy")
        if (transcript.decision is model.Decision.CONNECTED) != truth:
            failures.append("oracle_agreement")
        return failures, max(lengths)

    def tolerated(self, attempted: int) -> dict[str, int]:
        return {"oracle_agreement": binomial_allowance(attempted, self.params["delta"], 0.99)}

    def encode_first_peak_mb(self) -> float:
        """Peak traced allocation of one first encode, whose shared tables are not yet built.

        Measured apart from the timed ops, because tracemalloc slows the
        table build several-fold.
        """
        n, k, delta = self.params["n"], self.params["k"], self.params["delta"]
        _, spec = self._member(0)
        graph, advice = lbgraph.build_lb_graph(spec)
        view = model.node_view(graph, spec.sigma, advice[spec.sigma], k)
        randomness = model.SharedRandomness(derive_int(self.seed, 3, 0))
        tracemalloc.start()
        try:
            agm.agm_encode(view, randomness, k, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def layer_extras(self, tracer) -> dict[str, float]:
        return {"agm.encode_first_peak_mb": self.encode_first_peak_mb()}


class LbReduce(Workload):
    """Three-party simulation of a protocol on random valid overlap instances."""

    name = "lb-reduce"

    def __init__(
        self,
        seed: int,
        protocol: str = "toy2",
        m: int = 96,
        s: int = 48,
        k: int = 2,
        trials: int = 4,
    ):
        super().__init__(seed, protocol=protocol, m=m, s=s, k=k, trials=trials)

    def setup(self, tracer) -> None:
        p = self.params
        n = reduction.reduction_size(p["m"])
        self.protocol = protocols.make_protocol(p["protocol"], n, p["k"])
        self.traced = None if tracer is None else tracing.traced_protocol(tracer, self.protocol)
        ctx = reduction.build_context(
            self.protocol if tracer is None else self.traced,
            p["m"],
            p["s"],
            p["k"],
            derive_int(self.seed, 0),
            trials=p["trials"],
        )
        previous = getattr(self, "ctx", None)
        if previous is not None and previous.to_json() != ctx.to_json():
            self.setup_failures.append("context_determinism")
        self.ctx = ctx
        self.w_count = len(ctx.a_side | ctx.b_side)

    def instance(self, i: int) -> overlap.OverlapInstance:
        """A valid instance; its answer is yes on even ops and no on odd ones."""
        m, s = self.params["m"], self.params["s"]
        rng = derive(self.seed, 1, i)
        order = [int(v) + 1 for v in rng.permutation(m)]
        sigma, only_x, only_y = order[0], order[1:s], order[s : 2 * s - 1]
        x_bits = {j: int(b) for j, b in zip(only_x, rng.integers(0, 2, size=s - 1))}
        y_bits = {j: int(b) for j, b in zip(only_y, rng.integers(0, 2, size=s - 1))}
        x_bits[sigma] = i % 2
        y_bits[sigma] = 1 - i % 2
        return overlap.OverlapInstance.make(
            overlap.vector_on(m, x_bits), overlap.vector_on(m, y_bits), m, s
        )

    def op(self, i: int, tracer) -> tuple[list[str], int]:
        protocol = self.protocol if tracer is None else self.traced
        ctx = self.ctx
        instance = self.instance(i)
        _, assembled = reduction.simulate(instance, ctx, protocol)
        faithful = reduction.verify_fidelity(instance, ctx, protocol)
        graph, _ = reduction.build_compatible_graph(instance, ctx)
        truth = mincut.is_k_edge_connected(graph, ctx.k)
        msgs_a = reduction.alice_messages(instance.x, ctx, protocol)
        msgs_b = reduction.bob_messages(instance.y, ctx, protocol)
        bits = reduction.alice_bob_bits(msgs_a, msgs_b)

        failures = []
        if not faithful:
            failures.append("fidelity")
        if truth != overlap.answer(instance):
            failures.append("semantic_correspondence")
        if bits != self.w_count * protocol.max_bits:
            failures.append("communication_accounting")
        return failures, max(len(b) for _, b in assembled)

    def layer_extras(self, tracer) -> dict[str, float]:
        p = self.params
        v_count = len(lbgraph.layout(self.ctx.n)[0])
        pinned = [r["counts"].get("setfam.pinned", 0.0) for r in tracer.roots("setup")]
        return {
            "setfam.pinned_ratio": sum(pinned) / len(pinned) / (v_count * p["trials"]),
            "setfam.pigeonhole_floor": len(self.ctx.family.members) / 2 ** (3 * self.protocol.max_bits),
        }


class OverlapSweep(Workload):
    """Exhaustive sweep of the drop-one-bit protocol; one op per Alice support."""

    name = "overlap-sweep"

    def __init__(self, seed: int, m: int = 9, s: int = 4):
        super().__init__(seed, m=m, s=s)
        self.min_ops = math.comb(m, s)  # one op per Alice support: a run completes a sweep
        self.per_support = s * math.comb(m - s, s - 1) * 2**s * 2 ** (s - 1)
        self.sweep_counts: list[int] = []

    def setup(self, tracer) -> None:
        p = self.params
        self.protocol = overlap.make_overlap_protocol("appb", p["m"], p["s"])

    def charlie(self, instance, msg_a, msg_b) -> bool:
        """Charlie's decode, from the two supports read off the instance, as overlap-enum runs it."""
        return self.protocol.charlie_decode(instance.x.support, instance.y.support, msg_a, msg_b)

    def op(self, i: int, tracer) -> tuple[list[str], int]:
        m, s = self.params["m"], self.params["s"]
        j = i % self.min_ops
        if j == 0:
            self.instances = overlap.enumerate_valid_instances(m, s)
            self.swept = 0
        step, decode = self.instances.__next__, self.charlie
        if tracer is not None:
            step = tracing.fold(tracer, "overlap.enumerate", step)
            decode = tracing.fold(tracer, "overlap.decode", decode)
        encode_a, encode_b, answer = self.protocol.alice_encode, self.protocol.bob_encode, overlap.answer
        failures = set()
        longest = 0
        for count in range(self.per_support):
            try:
                instance = step()
            except StopIteration:
                failures.add("instance_count")
                break
            msg_a = encode_a(instance.x)
            msg_b = encode_b(instance.y)
            if len(msg_a) > longest or len(msg_b) > longest:
                longest = max(len(msg_a), len(msg_b))
            if decode(instance, msg_a, msg_b) != answer(instance):
                failures.add("decode_matches_answer")
        else:
            count = self.per_support
        self.swept += count
        if longest > self.protocol.max_bits:
            failures.add("message_budget")
        if j == self.min_ops - 1:
            if next(self.instances, None) is not None:
                failures.add("instance_count")
            self.sweep_counts.append(self.swept)
        return sorted(failures), longest

    def layer_extras(self, tracer) -> dict[str, float]:
        return {"overlap.instances": float(self.sweep_counts[0]) if self.sweep_counts else 0.0}


WORKLOADS = {w.name: w for w in (AgmHard, LbReduce, OverlapSweep)}
