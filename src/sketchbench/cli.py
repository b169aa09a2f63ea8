"""Batch experiment driver.

Every pipeline is a subcommand producing a self-describing JSON report:
parameters, seed, pass/fail counts per asserted invariant, artifact paths,
and git-style content hashes of any input files.  Subcommands that sample
are deterministic under a fixed --seed (default 0); kconn, overlap-enum and
overlap-attack sample nothing, take no --seed and report "seed": null.  The
eight subcommands are
gen-lb, verify-lb, kconn, agm-run, choose-partition,
overlap-enum, overlap-attack and verify-fidelity; overlap-enum and
verify-fidelity sweep every valid (m, s) instance, or check one with --instance.
The CLI reads two input formats: graph files (``model.save_graph``'s text,
for kconn and agm-run --graph) and Overlap instance files
(``OverlapInstance.to_json``, for --instance).  The .spec.json,
.partition.json and .context.json side files that --out adds are write-only
reports; nothing reads them back.
Exit codes: 0 all invariants passed, 1 invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import agm as agm_mod
from .lbgraph import (
    Condition,
    build_lb_graph,
    condition_of,
    layout,
    random_spec,
    sigma_neighborhood_sweep,
    verify_dichotomy,
)
from .mincut import check_k, crossing_value, global_min_cut, is_k_edge_connected
from .model import Decision, MultiGraph, SharedRandomness, execute, load_graph, save_graph
from .overlap import (
    OVERLAP_PROTOCOLS,
    InvalidInstance,
    OverlapInstance,
    TernaryVector,
    answer,
    attack,
    enumerate_valid_instances,
    make_overlap_protocol,
)
from .protocols import PROTOCOLS, make_protocol, protocol_name
from .reduction import build_context, check_instance, reduction_size
from .setfam import choose_partition, neighborhood_family


@dataclass
class RunReport:
    command: str
    parameters: dict
    seed: Optional[int]
    outcomes: dict = field(default_factory=dict)  # name -> {"pass": int, "fail": int}
    results: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    input_hashes: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def record(self, invariant: str, ok: bool) -> None:
        entry = self.outcomes.setdefault(invariant, {"pass": 0, "fail": 0})
        entry["pass" if ok else "fail"] += 1

    def artifact(self, out: str, suffix: str, text: str) -> None:
        """Write ``text`` and a newline to ``<stem of out><suffix>`` and list that file."""
        path = Path(out).with_suffix("").as_posix() + suffix
        Path(path).write_text(text + "\n", encoding="utf-8")
        self.artifacts.append(path)

    @property
    def failed(self) -> bool:
        return any(entry["fail"] for entry in self.outcomes.values())

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "wall_time_s": round(self.wall_time_s, 3)}, indent=2, sort_keys=True)


def blob_hash(path) -> str:
    """Git-style blob hash of a file's content."""
    data = Path(path).read_bytes()
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def binomial_allowance(n: int, p: float, confidence: float) -> int:
    """Smallest x with P[Binomial(n, p) <= x] >= confidence."""
    acc = 0.0
    for x in range(n + 1):
        acc += math.comb(n, x) * p**x * (1 - p) ** (n - x)
        if acc >= confidence:
            return x
    return n


def _check_count(count: int) -> None:
    """Raise ValueError unless a sampled sweep of ``count`` inputs checks at least one."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")


def _random_multigraph(rng: np.random.Generator, n: int, max_mult: int = 3) -> MultiGraph:
    g = MultiGraph(n)
    for _ in range(int(rng.integers(max(1, n // 2), 2 * n + 1))):
        u = int(rng.integers(1, n + 1))
        v = int(rng.integers(1, n + 1))
        if u != v:
            g.add_edge(u, v, int(rng.integers(1, max_mult + 1)))
    if g.edge_slot_count() == 0:
        g.add_edge(1, 2, 1)
    return g


# ---------------------------------------------------------------- subcommands


def cmd_gen_lb(args, report: RunReport) -> None:
    condition = Condition(args.condition) if args.condition else None
    spec = random_spec(args.n, args.k, args.seed, condition=condition)
    graph, _ = build_lb_graph(spec)
    report.record("dichotomy", verify_dichotomy(spec))
    if args.out:
        report.artifact(args.out, ".spec.json", spec.to_json())
        graph_path = Path(args.out).with_suffix("").as_posix() + ".graph.txt"
        save_graph(graph, graph_path)
        report.artifacts.append(graph_path)
    report.results["condition"] = condition_of(spec).value
    report.results["nodes"] = graph.n
    report.results["edge_slots"] = graph.edge_slot_count()


def cmd_verify_lb(args, report: RunReport) -> None:
    if args.sweep == "exhaustive":
        base = random_spec(args.n, args.k, args.seed)
        for spec in sigma_neighborhood_sweep(base):
            report.record("dichotomy", verify_dichotomy(spec))
    else:
        _check_count(args.count)
        for i in range(args.count):
            spec = random_spec(args.n, args.k, args.seed + i)
            report.record("dichotomy", verify_dichotomy(spec))


def cmd_kconn(args, report: RunReport) -> None:
    check_k(args.k)
    graph = load_graph(args.graph)
    report.input_hashes[str(args.graph)] = blob_hash(args.graph)
    cut = global_min_cut(graph)
    report.record("cut_certificate", crossing_value(graph, cut.side) == cut.value)
    report.results["min_cut"] = cut.value
    report.results["side"] = sorted(cut.side)
    report.results["k"] = args.k
    report.results["k_edge_connected"] = cut.value >= args.k


def cmd_agm_run(args, report: RunReport) -> None:
    rng = np.random.default_rng(args.seed)
    delta = args.delta
    if args.graph:
        graphs = [(load_graph(args.graph), args.k)]
        report.input_hashes[str(args.graph)] = blob_hash(args.graph)
    else:
        _check_count(args.count)
        graphs = []
        for _ in range(args.count):
            n = int(rng.integers(4, args.max_n + 1))
            k = int(rng.integers(1, args.k + 1))
            graphs.append((_random_multigraph(rng, n), k))
    agree = 0
    for graph, k in graphs:
        proto = agm_mod.make_agm_protocol(graph.n, k, delta)
        transcript = execute(
            proto, graph, randomness=SharedRandomness(int(rng.integers(0, 2**31)))
        )
        report.record("sketch_budget", all(len(b) == proto.max_bits for _, b in transcript.messages))
        truth = is_k_edge_connected(graph, k)
        got = transcript.decision is Decision.CONNECTED
        agree += got == truth
    report.results["agreement"] = agree
    report.results["total"] = len(graphs)
    if args.graph:
        report.record("oracle_agreement", agree == 1)
    else:
        allowed_failures = binomial_allowance(len(graphs), delta, 0.99)
        report.record("oracle_agreement_band", len(graphs) - agree <= allowed_failures)
        report.results["allowed_failures"] = allowed_failures


def cmd_choose_partition(args, report: RunReport) -> None:
    protocol = make_protocol(args.protocol, args.n, args.k)
    family = neighborhood_family(layout(args.n)[1], args.k, args.family_size, args.seed)
    ctx = choose_partition(protocol, family, args.n, args.k, args.trials, args.seed)
    report.results["good_nodes"] = len(ctx.good)
    report.results["A"] = sorted(ctx.a_side)
    report.results["B"] = sorted(ctx.b_side)
    if args.out:
        report.artifact(args.out, ".partition.json", ctx.to_json())


def _instances(args, report: RunReport):
    """The --instance file as the only instance, else every valid (m, s) instance."""
    if args.instance is None:
        return enumerate_valid_instances(args.m, args.s)
    instance = OverlapInstance.from_json(Path(args.instance).read_text("utf-8"))
    report.input_hashes[str(args.instance)] = blob_hash(args.instance)
    m, s = instance.x.length, len(instance.x.support)
    if (m, s) != (args.m, args.s):
        raise InvalidInstance("parameters", f"instance has m={m}, s={s}, not {args.m}, {args.s}")
    return [instance]


def _run_overlap(protocol, instance):
    """Both parties encode, then Charlie decodes: (Alice's message, Bob's, verdict)."""
    msg_a = protocol.alice_encode(instance.x)
    msg_b = protocol.bob_encode(instance.y)
    return msg_a, msg_b, protocol.charlie_decode(instance.x.support, instance.y.support, msg_a, msg_b)


def cmd_overlap_enum(args, report: RunReport) -> None:
    protocol = make_overlap_protocol(args.protocol, args.m, args.s)
    for instance in _instances(args, report):
        msg_a, msg_b, decoded = _run_overlap(protocol, instance)
        truth = answer(instance)
        report.record(
            "message_budget",
            len(msg_a) <= protocol.max_bits and len(msg_b) <= protocol.max_bits,
        )
        report.record("decode_matches_answer", decoded == truth)
    if args.instance:
        report.results["sigma"] = instance.sigma
        report.results["truth"] = "yes" if truth else "no"
        report.results["decoded"] = "yes" if decoded else "no"


def cmd_overlap_attack(args, report: RunReport) -> None:
    protocol = make_overlap_protocol(args.protocol, args.m, args.s)
    counterexample = attack(protocol, args.m, args.s)
    if counterexample is None:
        report.results["counterexample"] = None
    else:
        for x_str, y_str in counterexample.wrong:
            inst = OverlapInstance.make(
                TernaryVector.from_string(x_str),
                TernaryVector.from_string(y_str),
                args.m,
                args.s,
            )
            _, _, replay = _run_overlap(protocol, inst)
            report.record("replay_soundness", replay != answer(inst))
        report.results["counterexample"] = {
            "sigma": counterexample.sigma,
            "suppX": list(counterexample.supp_x),
            "suppY": list(counterexample.supp_y),
            "X": counterexample.x.to_string(),
            "X_hat": counterexample.x_hat.to_string(),
            "Y": counterexample.y.to_string(),
            "Y_hat": counterexample.y_hat.to_string(),
            "wrong": [list(pair) for pair in counterexample.wrong],
        }


def _reduction_checks(instance, ctx, protocol, report: RunReport) -> bool:
    """Run the three parties once, check the run; return the referee's verdict."""
    run = check_instance(instance, ctx, protocol)
    report.record("fidelity", not run.mismatches)
    report.record(
        "semantic_correspondence",
        is_k_edge_connected(run.graph, ctx.k) == answer(instance),
    )
    return run.verdict


def cmd_verify_fidelity(args, report: RunReport) -> None:
    protocol = make_protocol(args.protocol, reduction_size(args.m), args.k)
    instances = _instances(args, report)
    ctx = build_context(protocol, args.m, args.s, args.k, args.seed, trials=args.trials)
    for instance in instances:
        verdict = _reduction_checks(instance, ctx, protocol, report)
    if args.instance:
        report.results["answer"] = "yes" if verdict else "no"
        report.results["truth"] = "yes" if answer(instance) else "no"
    report.results["good_ids"] = list(ctx.good_ids)
    if args.out:
        report.artifact(args.out, ".context.json", ctx.to_json())


# ------------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchbench",
        description="Deterministic experiment driver for the sketching toolkit.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sketch_protocols = f"{', '.join(PROTOCOLS)} or trunc:<bits>, bits at most 8(32 + 16n)"

    def common(p, seeded=True):
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        else:
            p.set_defaults(seed=None)
        p.add_argument("--out", type=str, default=None, help="write the JSON report here")

    p = sub.add_parser("gen-lb", help="generate one member of the hard graph family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--condition", choices=["C0", "C1"], default=None)
    common(p)
    p.set_defaults(func=cmd_gen_lb)

    p = sub.add_parser("verify-lb", help="sweep the connectivity dichotomy against the oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sweep", choices=["exhaustive", "random"], default="random")
    p.add_argument("--count", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_verify_lb)

    p = sub.add_parser("kconn", help="exact k-edge connectivity of a graph file")
    p.add_argument("--graph", type=str, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, seeded=False)
    p.set_defaults(func=cmd_kconn)

    p = sub.add_parser("agm-run", help="run the randomized sketch against the oracle")
    p.add_argument("--graph", type=str, default=None)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-n", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_agm_run)

    p = sub.add_parser("choose-partition", help="extract indistinguishable pairs for a protocol")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--protocol", type=protocol_name, required=True, help=sketch_protocols)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--family-size", type=int, default=None, help="default: the complete family")
    common(p)
    p.set_defaults(func=cmd_choose_partition)

    p = sub.add_parser("overlap-enum", help="exhaustive correctness sweep of a protocol")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--protocol", choices=OVERLAP_PROTOCOLS, default="appb")
    p.add_argument("--instance", type=str, default=None, help="check only this instance file")
    common(p, seeded=False)
    p.set_defaults(func=cmd_overlap_enum)

    p = sub.add_parser("overlap-attack", help="hunt for a protocol counterexample")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--protocol", choices=OVERLAP_PROTOCOLS, default="appb")
    common(p, seeded=False)
    p.set_defaults(func=cmd_overlap_attack)

    p = sub.add_parser("verify-fidelity", help="sweep the simulation against honest execution")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--protocol", type=protocol_name, default="toy2", help=sketch_protocols)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--instance", type=str, default=None, help="check only this instance file")
    common(p)
    p.set_defaults(func=cmd_verify_fidelity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"func", "out", "subcommand"} and value is not None
    }
    report = RunReport(command=args.subcommand, parameters=parameters, seed=args.seed)
    start = time.perf_counter()
    try:
        args.func(args, report)
    except Exception as exc:  # invariant machinery failed outright
        report.results["error"] = f"{type(exc).__name__}: {exc}"
        report.record("completed", False)
    else:
        report.record("completed", True)
    report.wall_time_s = time.perf_counter() - start

    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
