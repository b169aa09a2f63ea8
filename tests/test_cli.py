import argparse
import json
from collections import Counter
from dataclasses import replace

import pytest

import sketchbench.cli as cli
import sketchbench.reduction as reduction
import sketchbench.setfam as setfam
from sketchbench.model import Bits, EncodingOverflow, MultiGraph
from sketchbench.overlap import enumerate_valid_instances
from sketchbench.protocols import make_protocol


def run(capsys, *argv):
    """Run one subcommand; return (exit code, parsed JSON report)."""
    code = cli.main([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out)


def assert_clean(code, report):
    assert code == 0
    assert report["outcomes"]["completed"] == {"pass": 1, "fail": 0}
    assert not any(entry["fail"] for entry in report["outcomes"].values())


def passes(report, invariant):
    assert report["outcomes"][invariant]["fail"] == 0
    return report["outcomes"][invariant]["pass"]


def test_gen_lb_feeds_kconn(tmp_path, capsys):
    code, report = run(capsys, "gen-lb", "--n", 36, "--k", 2, "--condition", "C1", "--out", tmp_path / "g")
    assert_clean(code, report)
    spec_path, graph_path = report["artifacts"]
    assert spec_path.endswith("g.spec.json") and graph_path.endswith("g.graph.txt")
    assert report["results"]["condition"] == "C1"
    assert report["results"]["nodes"] == 36

    code, report = run(capsys, "kconn", "--graph", graph_path, "--k", 2)
    assert_clean(code, report)
    assert passes(report, "cut_certificate") == 1
    assert report["results"]["k_edge_connected"] is True
    assert list(report["input_hashes"]) == [graph_path]
    assert report["seed"] is None and "seed" not in report["parameters"]

    code, report = run(capsys, "agm-run", "--graph", graph_path, "--k", 2)
    assert_clean(code, report)
    assert passes(report, "oracle_agreement") == 1


def test_kconn_on_a_long_cycle(tmp_path, capsys):
    # A cycle gives the maximum-adjacency phases one pair per phase, 2,047 of
    # them here; the heavy-edge pass contracts it whole instead.
    graph_path = tmp_path / "cycle.graph.txt"
    cli.save_graph(MultiGraph(2048, [(i, i % 2048 + 1, 1) for i in range(1, 2049)]), graph_path)
    code, report = run(capsys, "kconn", "--graph", graph_path, "--k", 2)
    assert_clean(code, report)
    assert passes(report, "cut_certificate") == 1
    assert report["results"]["min_cut"] == 2
    assert report["results"]["k_edge_connected"] is True


def test_kconn_on_a_million_nodes_with_one_edge(tmp_path, capsys):
    # The header alone sets n: the cut is node 1's component, found over the
    # one edge, with no per-node work.
    graph_path = tmp_path / "sparse.graph.txt"
    graph_path.write_text("n 1000000\n1 2 1\n", encoding="utf-8")
    code, report = run(capsys, "kconn", "--graph", graph_path, "--k", 1)
    assert_clean(code, report)
    assert passes(report, "cut_certificate") == 1
    assert report["results"]["min_cut"] == 0 and report["results"]["side"] == [1, 2]
    assert report["results"]["k_edge_connected"] is False


@pytest.mark.parametrize("k", [0, -1])
def test_kconn_refuses_k_below_1(tmp_path, capsys, monkeypatch, k):
    # Every graph is 0-edge connected, so such a k asks nothing; kconn refuses
    # it as is_k_edge_connected does, before any cut is computed.
    graph_path = tmp_path / "g.graph.txt"
    cli.save_graph(MultiGraph(3, [(1, 2, 1), (2, 3, 1)]), graph_path)
    monkeypatch.setattr(cli, "global_min_cut", None)
    code, report = run(capsys, "kconn", "--graph", graph_path, "--k", k)
    assert code == 1
    assert report["outcomes"] == {"completed": {"pass": 0, "fail": 1}}
    assert report["results"] == {"error": f"ValueError: k must be positive, got {k}"}


@pytest.mark.parametrize(
    "argv, count",
    [
        (("agm-run", "--count", 0), 0),
        (("agm-run", "--count", -3), -3),
        (("verify-lb", "--n", 36, "--k", 2, "--count", 0), 0),
    ],
    ids=["agm-run-0", "agm-run-minus-3", "verify-lb-0"],
)
def test_sampled_sweeps_refuse_count_below_1(capsys, monkeypatch, argv, count):
    # A sweep of no graphs would pass after checking nothing; it is refused
    # before any graph is built.
    monkeypatch.setattr(cli, "_random_multigraph", None)
    monkeypatch.setattr(cli, "random_spec", None)
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["outcomes"] == {"completed": {"pass": 0, "fail": 1}}
    assert report["results"] == {"error": f"ValueError: count must be at least 1, got {count}"}


@pytest.mark.parametrize("sweep, expect", [("random", 3), ("exhaustive", 20)])
def test_verify_lb(capsys, sweep, expect):
    code, report = run(capsys, "verify-lb", "--n", 36, "--k", 2, "--sweep", sweep, "--count", 3)
    assert_clean(code, report)
    assert passes(report, "dichotomy") == expect


def test_agm_run_random_graphs(capsys):
    code, report = run(capsys, "agm-run", "--count", 4, "--max-n", 10, "--k", 2)
    assert_clean(code, report)
    assert passes(report, "sketch_budget") == 4
    assert report["results"]["total"] == 4


def test_choose_partition(tmp_path, capsys):
    code, report = run(
        capsys, "choose-partition", "--n", 36, "--k", 2, "--protocol", "toy2", "--trials", 2,
        "--out", tmp_path / "p",
    )
    assert_clean(code, report)
    assert report["results"]["good_nodes"] > 0
    assert set(report["outcomes"]) == {"completed"}
    (context_path,) = report["artifacts"]
    assert context_path.endswith("p.partition.json")


def test_choose_partition_reports_broken_record(capsys, monkeypatch):
    # choose_partition re-verifies the records it returns; a corrupted sigma
    # message makes the run fail with the named error.
    honest = setfam.message_partitions

    def corrupted(*args):
        sigma, role_a, role_b = honest(*args)
        # Flip each sigma message's first bit.
        flipped = tuple(Bits(bytes([b.data[0] ^ 0x80]) + b.data[1:], len(b)) for b in sigma.alphabet)
        return sigma._replace(alphabet=flipped), role_a, role_b

    monkeypatch.setattr(setfam, "message_partitions", corrupted)
    code, report = run(capsys, "choose-partition", "--n", 36, "--k", 2, "--protocol", "const", "--trials", 1)
    assert code == 1
    assert report["outcomes"]["completed"] == {"pass": 0, "fail": 1}
    assert report["results"]["error"].startswith("BrokenPairRecord")


def test_choose_partition_family_rule(tmp_path, capsys):
    code, report = run(
        capsys, "choose-partition", "--n", 36, "--k", 2, "--protocol", "toy2", "--trials", 2,
        "--family-size", 5, "--out", tmp_path / "p",
    )
    assert_clean(code, report)
    (context_path,) = report["artifacts"]
    assert len(json.loads(open(context_path, encoding="utf-8").read())["family"]["members"]) == 5

    code, report = run(capsys, "choose-partition", "--n", 36, "--k", 2, "--protocol", "toy2", "--family-size", 0)
    assert code == 1
    assert report["results"]["error"] == "ValueError: size 0 outside 1..20, the d-subsets of W"

    # |W| = 32, so the complete family has C(32, 5) = 201,376 members: refused, not replaced.
    code, report = run(capsys, "choose-partition", "--n", 1024, "--k", 3, "--protocol", "toy2")
    assert code == 1
    assert report["results"]["error"].startswith("ValueError") and "--family-size" in report["results"]["error"]


def test_choose_partition_refuses_truncation_past_full_information(capsys):
    # At n=36 the full-information budget is 8 * (32 + 16 * 36) = 4,864 bits.
    code, report = run(capsys, "choose-partition", "--n", 36, "--k", 2, "--protocol", "trunc:200000000")
    assert code == 1
    assert report["outcomes"]["completed"] == {"pass": 0, "fail": 1}
    assert report["results"]["error"] == (
        "ValueError: protocol: trunc:200000000 is longer than the full-information budget, 4864 bits at n=36"
    )


def write_instance(path, instance):
    path.write_text(instance.to_json(), encoding="utf-8")
    return path


def test_overlap_enum_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"m": 5, "s": 3, "X": "01*1*", "Y": "**001"}), encoding="utf-8")
    code, report = run(capsys, "overlap-enum", "--m", 5, "--s", 3, "--instance", path)
    assert_clean(code, report)
    assert report["results"] == {"sigma": 4, "truth": "no", "decoded": "no"}
    assert passes(report, "message_budget") == passes(report, "decode_matches_answer") == 1
    assert list(report["input_hashes"]) == [str(path)]


def test_overlap_enum(capsys):
    code, report = run(capsys, "overlap-enum", "--m", 5, "--s", 3)
    assert_clean(code, report)
    assert passes(report, "decode_matches_answer") == 960
    assert passes(report, "message_budget") == 960


def test_overlap_attack(capsys):
    code, report = run(capsys, "overlap-attack", "--m", 5, "--s", 3, "--protocol", "trunc")
    assert_clean(code, report)
    assert passes(report, "replay_soundness") >= 1
    assert report["results"]["counterexample"] is not None

    code, report = run(capsys, "overlap-attack", "--m", 5, "--s", 3)
    assert_clean(code, report)
    assert report["results"]["counterexample"] is None
    assert report["seed"] is None


def test_verify_fidelity_instance(tmp_path, capsys):
    path = write_instance(tmp_path / "first.json", next(enumerate_valid_instances(9, 4)))
    code, report = run(
        capsys, "verify-fidelity", "--m", 9, "--s", 4, "--k", 2, "--instance", path,
        "--out", tmp_path / "r",
    )
    assert_clean(code, report)
    assert report["results"] == {"answer": "no", "truth": "yes", "good_ids": list(range(1, 10))}
    assert set(report["outcomes"]) == {"completed", "fidelity", "semantic_correspondence"}
    for invariant in ("fidelity", "semantic_correspondence"):
        assert passes(report, invariant) == 1
    (context_path,) = report["artifacts"]
    assert context_path.endswith("r.context.json")


def test_verify_fidelity_instance_reports_unfaithful_simulation(tmp_path, capsys, monkeypatch):
    honest = reduction.charlie_messages

    def flipped_hub(*args):
        (hub, bits), *rest = honest(*args)
        return [(hub, Bits(bytes([bits.data[0] ^ 0x80]) + bits.data[1:], len(bits))), *rest]  # first bit

    monkeypatch.setattr(reduction, "charlie_messages", flipped_hub)
    path = write_instance(tmp_path / "first.json", next(enumerate_valid_instances(9, 4)))
    code, report = run(capsys, "verify-fidelity", "--m", 9, "--s", 4, "--k", 2, "--instance", path)
    assert code == 1
    assert report["outcomes"]["fidelity"] == {"pass": 0, "fail": 1}
    assert passes(report, "semantic_correspondence") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("overlap-enum", "--m", 5, "--s", 3),
        ("verify-fidelity", "--m", 9, "--s", 4, "--k", 2),
    ],
)
def test_instance_must_fit_m_and_s(tmp_path, capsys, argv):
    # A valid instance of another size: m=7, s=4 fits neither (5, 3) nor (9, 4).
    path = write_instance(tmp_path / "m7.json", next(enumerate_valid_instances(7, 4)))
    code, report = run(capsys, *argv, "--instance", path)
    assert code == 1
    assert report["outcomes"]["completed"] == {"pass": 0, "fail": 1}
    assert report["results"]["error"].startswith("InvalidInstance: [parameters]")


def test_verify_fidelity(capsys):
    code, report = run(capsys, "verify-fidelity", "--m", 6, "--s", 2, "--k", 2)
    assert_clean(code, report)
    assert set(report["outcomes"]) == {"completed", "fidelity", "semantic_correspondence"}
    for invariant in ("fidelity", "semantic_correspondence"):
        assert passes(report, invariant) == 960
    assert list(report["results"]) == ["good_ids"]


def test_threads_option_is_gone(capsys):
    assert cli.main(["agm-run", "--count", "1", "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("overlap-enum", "--m", 5, "--s", 3, "--protocol", "bogus"),
        ("choose-partition", "--n", 36, "--k", 2, "--protocol", "nope"),
        ("choose-partition", "--n", 36, "--k", 2, "--protocol", "trunc:x"),
        ("overlap-solve", "--instance", "inst.json"),
        ("reduce", "--m", 9, "--s", 4, "--k", 2),
        ("kconn", "--graph", "g.txt", "--k", 2, "--seed", 1),
        ("overlap-enum", "--m", 5, "--s", 3, "--seed", 1),
        ("overlap-attack", "--m", 5, "--s", 3, "--seed", 1),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().out == ""


def test_parser_settable_values():
    # Every option of every subcommand counts; a new flag needs this edit.
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    settable = [
        action
        for parser in subparsers.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert len(subparsers.choices) == 8
    assert len(settable) == 45


def test_reduction_checks_run_each_party_once(monkeypatch):
    # Counted wherever the name is looked up, so a second route through
    # reduction.simulate or verify_fidelity would show up as a second call.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("alice_messages", "bob_messages", "charlie_messages", "build_compatible_graph", "execute")
    for module in (cli, reduction):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    protocol = make_protocol("toy2", reduction.reduction_size(6), 2)
    ctx = reduction.build_context(protocol, 6, 2, 2, seed=0, trials=32)
    instance = next(enumerate_valid_instances(6, 2))
    report = cli.RunReport(command="verify-fidelity", parameters={}, seed=0)
    verdict = cli._reduction_checks(instance, ctx, protocol, report)

    assert calls == Counter({name: 1 for name in names})
    assert not report.failed and len(report.outcomes) == 2
    assert verdict == reduction.simulate(instance, ctx, protocol)[0]


def test_reduction_checks_refuse_an_over_budget_message():
    # The assembled messages are checked against max_bits before any outcome
    # is recorded, so an over-budget run stops with none recorded.
    protocol = make_protocol("toy2", reduction.reduction_size(6), 2)
    ctx = reduction.build_context(protocol, 6, 2, 2, seed=0, trials=32)
    instance = next(enumerate_valid_instances(6, 2))
    long = replace(protocol, encode=lambda view, rand: Bits.from_str("000"))
    report = cli.RunReport(command="verify-fidelity", parameters={}, seed=0)
    with pytest.raises(EncodingOverflow, match="budget 2"):
        cli._reduction_checks(instance, ctx, long, report)
    assert report.outcomes == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("overlap-enum", "--m", 5, "--s", 4),
        ("overlap-attack", "--m", 5, "--s", 4),
        ("verify-fidelity", "--m", 6, "--s", 0, "--k", 2),
    ],
)
def test_infeasible_sweeps_exit_1(capsys, argv):
    # No two supports meet in exactly one index: a sweep that ran would pass
    # after checking nothing, and the attack would report no counterexample.
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["outcomes"] == {"completed": {"pass": 0, "fail": 1}}
    assert report["results"]["error"].startswith("InvalidInstance: [parameters]")


def test_report_artifact_writes_stem_and_suffix(tmp_path):
    report = cli.RunReport(command="x", parameters={}, seed=None)
    report.artifact(str(tmp_path / "run.json"), ".side.json", "{}")
    path = tmp_path / "run.side.json"
    assert report.artifacts == [path.as_posix()]
    assert path.read_bytes() == b"{}\n"
