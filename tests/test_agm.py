import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import sketchbench.agm as agm
from sketchbench.agm import (
    DecodeError,
    SketchConfig,
    agm_decide_kconn,
    agm_encode,
    budget_bits,
    make_agm_protocol,
)
from sketchbench.cli import binomial_allowance
from sketchbench.lbgraph import Condition, build_lb_graph, random_spec
from sketchbench.mincut import global_min_cut, is_k_edge_connected
from sketchbench.model import Bits, Decision, MultiGraph, NodeView, SharedRandomness, execute, node_view

SEEDS = SharedRandomness(99)


def test_isolated_node_all_zero():
    g = MultiGraph(8, [(1, 2, 1), (2, 3, 2)])
    cells = agm.node_sketch(node_view(g, 5, None, 1), SEEDS, 1, 0.1)
    assert not cells.any()


def test_encode_deterministic():
    g = MultiGraph(8, [(1, 2, 1), (2, 3, 2)])
    view = node_view(g, 2, None, 1)
    assert agm_encode(view, SEEDS, 1, 0.1) == agm_encode(view, SEEDS, 1, 0.1)
    other = SharedRandomness(100)
    assert agm_encode(view, SEEDS, 1, 0.1) != agm_encode(view, other, 1, 0.1)


def test_linearity():
    g_both = MultiGraph(8, [(1, 2, 1), (2, 3, 2)])
    g_one = MultiGraph(8, [(1, 2, 1)])
    g_two = MultiGraph(8, [(2, 3, 2)])
    s_one = agm.node_sketch(node_view(g_one, 2, None, 1), SEEDS, 1, 0.1)
    s_two = agm.node_sketch(node_view(g_two, 2, None, 1), SEEDS, 1, 0.1)
    s_both = agm.node_sketch(node_view(g_both, 2, None, 1), SEEDS, 1, 0.1)
    assert np.array_equal((s_one + s_two) % agm.PRIME, s_both)


def test_budget_exact_and_scaling():
    g = MultiGraph(8, [(1, 2, 1)])
    bits = agm_encode(node_view(g, 1, None, 1), SEEDS, 1, 0.1)
    assert len(bits) == budget_bits(8, 1, 0.1)
    # stays within a fixed multiple of k * log^3 n across the supported range
    for n in (16, 256, 4096, 32768):
        for k in (1, 4, 16):
            assert budget_bits(n, k, 0.05) <= 2000 * k * math.log2(n) ** 3
    with pytest.raises(ValueError):
        budget_bits(65536, 1, 0.05)


def test_node_count_limited_by_field():
    # The largest slot n(n-1) must stay below PRIME: 46,341 is the last n.
    assert agm.slot_of(46340, 46341, 46341) < agm.PRIME <= agm.slot_of(46341, 46342, 46342)
    assert SketchConfig.make(46341, 1, 0.1).n == 46341
    for build in (SketchConfig.make, budget_bits, make_agm_protocol):
        with pytest.raises(ValueError, match="field"):
            build(46342, 1, 0.1)


def test_forest_count_limited_by_exact_sums():
    # A decoder component sums up to (k-1)(n-1) earlier forest edges in
    # float64; 2^22 of them is the last exact count.
    assert SketchConfig.make(4097, 1025, 0.1).stacks == 1025
    with pytest.raises(ValueError, match=r"\(k-1\)\(n-1\) = 4198400 exceeds 2\^22"):
        SketchConfig.make(4097, 1026, 0.1)


def test_largest_slot_roundtrips():
    n = 46341
    view = NodeView(id=n - 1, neighbors=((n, 1),), advice=None, n=n, k=1)
    cells = agm.node_sketch(view, SEEDS, 1, 0.1)
    _, base = agm._config_tables(SEEDS, SketchConfig.make(n, 1, 0.1))
    slot = agm.slot_of(n - 1, n, n)
    assert agm.extract_edge(cells[0, 0], base, n) == slot
    assert agm.pair_of_slot(slot, n) == (n - 1, n)


def _extract_edge_reference(cells, base, n):
    # Per-triple scan over Python ints with the Fermat inverse.
    for cnt_u, ids_u, fp_u in cells.reshape(-1, 3):
        cnt, ids, fp = int(cnt_u), int(ids_u), int(fp_u)
        if cnt == 0:
            continue
        slot = ids * pow(cnt, agm.PRIME - 2, agm.PRIME) % agm.PRIME
        if not 1 <= slot <= n * n or agm.pair_of_slot(slot, n) is None:
            continue
        if cnt * pow(base, slot, agm.PRIME) % agm.PRIME == fp:
            return slot
    return None


def test_extract_edge_matches_reference_scan():
    n, k, delta = 64, 2, 0.1
    cfg = SketchConfig.make(n, k, delta)
    _, base = agm._config_tables(SEEDS, cfg)
    graph, advice = build_lb_graph(random_spec(n, k, 7, condition=Condition.C1))
    sketches = [agm.node_sketch(node_view(graph, v, advice.get(v), k), SEEDS, k, delta) for v in range(1, n + 1)]
    rng = np.random.default_rng(3)
    slices = [s[0, r] for s in sketches for r in range(cfg.rounds)]
    for _ in range(100):  # component sketches, mostly more than 1-sparse
        side = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
        total = sum(sketches[v] for v in side) % agm.PRIME
        slices.append(total[1, int(rng.integers(cfg.rounds))])
    shape = (cfg.reps, cfg.levels, 3)
    slices.append(np.zeros(shape, dtype=np.uint64))
    for _ in range(100):  # random field elements
        slices.append(rng.integers(0, agm.PRIME, size=shape, dtype=np.uint64))
    # Triples whose id sum decodes to a valid slot, with a wrong fingerprint.
    forged = rng.integers(0, agm.PRIME, size=shape, dtype=np.uint64)
    forged[..., 0] = 2
    forged[..., 1] = 2 * agm.slot_of(3, 9, n)
    slices.append(forged)
    found = 0
    for cells in slices:
        expect = _extract_edge_reference(cells, base, n)
        assert agm.extract_edge(cells, base, n) == expect
        found += expect is not None
    assert 0 < found < len(slices)


def test_pair_recovery_roundtrip():
    n = 16
    for u in (1, 3, 7):
        for v in (9, 12, 16):
            slot = agm.slot_of(u, v, n)
            assert agm.pair_of_slot(slot, n) == (u, v)
    assert agm.pair_of_slot(agm.slot_of(2, 3, 16) - 1, 16) != (2, 3)


def test_sampler_attempt_success_rate():
    # Monte Carlo estimate of one-attempt boundary recovery vs the configured bound.
    rng = np.random.default_rng(5)
    n, k, delta = 32, 1, 0.05
    seeds = SharedRandomness(123)
    cfg = SketchConfig.make(n, k, delta)
    _, base = agm._config_tables(seeds, cfg)
    g = MultiGraph(n)
    for _ in range(80):
        u, v = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if u != v:
            g.add_edge(u, v, 1)
    sketches = {
        u: agm.node_sketch(node_view(g, u, None, k), seeds, k, delta)
        for u in range(1, n + 1)
    }
    succ = trials = 0
    for t in range(1000):
        size = int(rng.integers(1, n))
        side = set(int(x) for x in rng.choice(np.arange(1, n + 1), size=size, replace=False))
        if not any((u in side) != (v in side) for u, v, _ in g.edges()):
            continue
        total = sum(sketches[u][0] for u in side) % agm.PRIME
        slot = agm.extract_edge(total[t % cfg.rounds], base, n)
        trials += 1
        if slot is not None:
            u, v = agm.pair_of_slot(slot, n)
            if ((u in side) != (v in side)) and g.multiplicity(u, v) > 0:
                succ += 1
    assert trials > 900
    assert succ / trials >= 1 - agm.SAMPLER_ATTEMPT_FAILURE


def test_path_connected():
    g = MultiGraph(6, [(i, i + 1, 1) for i in range(1, 6)])
    t = execute(make_agm_protocol(6, 1, 0.05), g, randomness=SharedRandomness(7))
    assert t.decision is Decision.CONNECTED


def test_two_triangles_disconnected():
    g = MultiGraph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1)])
    t = execute(make_agm_protocol(6, 1, 0.05), g, randomness=SharedRandomness(7))
    assert t.decision is Decision.NOT_CONNECTED


def test_parallel_edges_counted():
    # Two nodes joined by three parallel edges are 3- but not 4-edge connected.
    g = MultiGraph(2, [(1, 2, 3)])
    t3 = execute(make_agm_protocol(2, 3, 0.05), g, randomness=SharedRandomness(1)).decision
    t4 = execute(make_agm_protocol(2, 4, 0.05), g, randomness=SharedRandomness(1)).decision
    assert t3 is Decision.CONNECTED
    assert t4 is Decision.NOT_CONNECTED


def test_decode_rejects_malformed():
    with pytest.raises(DecodeError):
        agm_decide_kconn([(1, "01")], SEEDS, 2, 1, 0.1)
    g = MultiGraph(3, [(1, 2, 1), (2, 3, 1)])
    t = execute(make_agm_protocol(3, 1, 0.1), g, randomness=SEEDS)
    msgs = list(t.messages)
    msgs[0] = (msgs[0][0], Bits.from_str(str(msgs[0][1])[:-1]))
    with pytest.raises(DecodeError):
        agm_decide_kconn(msgs, SEEDS, 3, 1, 0.1)


@pytest.mark.parametrize(
    "bad",
    [
        lambda bits: "é" + "0" * (bits - 1),
        lambda bits: None,
        lambda bits: 3,
        lambda bits: b"0",
        lambda bits: "0" * bits,
        lambda bits: Bits(bytes(bits // 8 - 1), bits),
        lambda bits: Bits(bytearray(bits // 8), bits),
    ],
    ids=["non-ascii", "none", "int", "bytes", "text", "short-data", "bytearray"],
)
def test_decode_rejects_message_that_is_not_a_bit_string(bad):
    # Each is refused for its type or its byte count; a str of the right
    # length is refused as well as one with a non-bit character.
    n, k, delta = 16, 2, 0.1
    cfg = SketchConfig.make(n, k, delta)
    g = MultiGraph(n, [(i, i + 1, 1) for i in range(1, n)])
    msgs = list(execute(make_agm_protocol(n, k, delta), g, randomness=SEEDS).messages)
    msgs[3] = (4, bad(cfg.bits))
    with pytest.raises(DecodeError):
        agm_decide_kconn(msgs, SEEDS, n, k, delta)


def test_decode_rejects_cell_outside_field():
    # The third cell, and the last cell of the last round of the last stack:
    # the path's peel ends within the first rounds of each stack and never
    # reads that round, yet the message is refused.  Each word is a cell of
    # at least PRIME, down to PRIME itself; PRIME - 1 is accepted.
    n, k, delta = 3, 2, 0.1
    g = MultiGraph(n, [(1, 2, 2), (2, 3, 2)])
    t = execute(make_agm_protocol(n, k, delta), g, randomness=SEEDS)
    assert t.decision is Decision.CONNECTED
    node, bits = t.messages[1]

    def with_cell(at, word):
        msgs = list(t.messages)
        msgs[1] = (node, Bits(bits.data[:at] + word + bits.data[at + 4 :], len(bits)))
        return msgs

    last = len(bits.data) - 4
    for at in (8, last):
        for word in (b"\xff\xff\xff\xff", b"\x80\x00\x00\x00", agm.PRIME.to_bytes(4, "big")):
            with pytest.raises(DecodeError, match="node 2's message holds a cell outside the field"):
                agm_decide_kconn(with_cell(at, word), SEEDS, n, k, delta)
    assert agm_decide_kconn(with_cell(last, (agm.PRIME - 1).to_bytes(4, "big")), SEEDS, n, k, delta) is t.decision


def _splitmix64(key: int, slot: int) -> int:
    mask = (1 << 64) - 1
    z = (key + slot * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _sketch_cells_reference(keys, base, levels, incident):
    # Python-integer loop over configs, levels and incident slots, with the
    # hash written out and the level rule as a shift and compare.
    expect = np.zeros((len(keys), levels, 3), dtype=np.uint64)
    for c, key in enumerate(int(x) for x in keys):
        for level in range(levels):
            cell = [0, 0, 0]
            for slot, signed in incident:
                if level and _splitmix64(key, slot) >> (64 - level):
                    continue
                cell[0] += signed
                cell[1] += signed * slot
                cell[2] += signed * pow(base, slot, agm.PRIME)
            expect[c, level] = [x % agm.PRIME for x in cell]
    return expect


def test_sketch_cells_match_loop_reference():
    # Multiplicities up to 10^6 exercise the reduction mod PRIME ahead of the
    # float64 sums.
    n, k, delta = 300, 1, 0.25
    rng = np.random.default_rng(8)
    node = 150
    g = MultiGraph(n)
    for v in rng.choice([v for v in range(1, n + 1) if v != node], size=60, replace=False):
        g.add_edge(node, int(v), int(rng.integers(1, 10**6)))
    view = node_view(g, node, None, k)
    cfg = SketchConfig.make(n, k, delta)
    keys, base = agm._config_tables(SEEDS, cfg)
    expect = _sketch_cells_reference(keys, base, cfg.levels, agm._incidence(view))
    got = agm.node_sketch(view, SEEDS, k, delta)
    assert np.array_equal(got, expect.reshape(got.shape))


def _wide_node(rng, n):
    # 140 neighbours on both sides of node 150: +mult below, -mult above.
    g = MultiGraph(n)
    for v in rng.choice([v for v in range(1, n + 1) if v != 150], size=140, replace=False):
        g.add_edge(150, int(v), int(rng.integers(1, 10**6)))
    return agm._incidence(node_view(g, 150, None, 1))


def _boundary(rng, n):
    # A component boundary: 130 distinct pairs with signed multiplicities,
    # some of them beyond +-PRIME.
    pairs = set()
    while len(pairs) < 130:
        u, v = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        pairs.add((u, v))
    signs = rng.choice([-1, 1], size=len(pairs))
    mults = rng.integers(1, 10**6, size=len(pairs)) + rng.choice([0, 3 * agm.PRIME], size=len(pairs))
    return [(agm.slot_of(u, v, n), int(s * m)) for (u, v), s, m in zip(sorted(pairs), signs, mults)]


@pytest.mark.parametrize("make", [_wide_node, _boundary, lambda rng, n: []], ids=["wide-node", "boundary", "empty"])
def test_sketch_cells_match_loop_reference_on_wide_and_signed_input(make):
    n, k, delta = 300, 1, 0.25
    cfg = SketchConfig.make(n, k, delta)
    keys, base = agm._config_tables(SEEDS, cfg)
    incident = make(np.random.default_rng(9), n)
    assert len(incident) in (0, 130, 140)
    got = agm._sketch_cells(keys, base, n, cfg.levels, incident)
    assert np.array_equal(got, _sketch_cells_reference(keys, base, cfg.levels, incident))


def test_level_sums_match_loop_reference_per_owner():
    # Three owners: mixed signs and a shared slot, none at all, and
    # multiplicities of 0 mod PRIME next to ones beyond it.
    _assert_level_sums_match_loop_reference_per_owner()


def test_level_sums_match_loop_reference_a_few_rows_per_product(monkeypatch):
    # A decoder round at n >= 410 has more (owner, config) rows than one
    # product takes; here 5 rows per product split every owner's configs.
    monkeypatch.setattr(agm, "_ROWS_PER_PRODUCT", 5)
    _assert_level_sums_match_loop_reference_per_owner()


def _assert_level_sums_match_loop_reference_per_owner():
    n, k, delta = 300, 1, 0.25
    cfg = SketchConfig.make(n, k, delta)
    keys, base = agm._config_tables(SEEDS, cfg)
    rng = np.random.default_rng(10)
    shared = agm.slot_of(3, 250, n)
    by_owner = [
        _boundary(rng, n)[:60] + [(shared, -7)],
        [],
        [(agm.slot_of(1, 2, n), 2 * agm.PRIME), (shared, 7), (agm.slot_of(5, 9, n), -agm.PRIME - 1)]
        + _wide_node(rng, n)[:40],
    ]
    updates = [(owner, slot, mult) for owner, incident in enumerate(by_owner) for slot, mult in incident]
    owner, slots, mults = zip(*updates)
    got = agm._level_sums(
        keys, base, n, cfg.levels, np.array(slots, dtype=np.uint64),
        np.array([m % agm.PRIME for m in mults], dtype=np.uint64), np.array(owner), len(by_owner),
    )
    assert got.shape == (3, len(keys), cfg.levels, 3)
    for incident, cells in zip(by_owner, got):
        assert np.array_equal(cells, _sketch_cells_reference(keys, base, cfg.levels, incident))
    assert not got[1].any()


@pytest.mark.parametrize("n", [2, 256, 1024, 46341])
def test_power_tables_match_pow(n):
    _, base = agm._config_tables(SEEDS, SketchConfig.make(n, 1, 0.1))
    for b in (base, 2, agm.PRIME - 1):
        slots = np.array([1, n * (n - 1)], dtype=np.uint64)
        assert agm._powers(b, n, slots).tolist() == [pow(b, 1, agm.PRIME), pow(b, n * (n - 1), agm.PRIME)]


@pytest.mark.parametrize("levels", [4, 18, 34])
def test_depth_matches_shift_compare_rule(levels):
    # Level l keeps a hash whose top l bits are zero; the depth is the deepest
    # level that keeps it.
    hashes = [0, (1 << 64) - 1]
    for level in range(1, levels):
        hashes += [1 << (64 - level), (1 << (64 - level)) - 1]
    got = agm._depths(np.array(hashes, dtype=np.uint64), levels).tolist()
    expect = [max(level for level in range(levels) if level == 0 or h >> (64 - level) == 0) for h in hashes]
    assert got == expect
    assert got[:2] == [levels - 1, 0]


def test_transcripts_match_golden():
    # SHA-256 of hard-family transcripts at n=64, k=3 near the k threshold,
    # taken before the node sketch moved to per-slot depths.  Any change to
    # hashing, sampling, cell layout or packing moves it.
    n, k, delta = 64, 3, 0.05
    protocol = make_agm_protocol(n, k, delta)
    digest = hashlib.sha256()
    for i in range(6):
        condition = Condition.C1 if i % 2 else Condition.C0
        graph, advice = build_lb_graph(random_spec(n, k, 100 + i, condition=condition))
        transcript = execute(protocol, graph, advice, SharedRandomness(200 + i))
        for node, bits in transcript.messages:
            digest.update(f"{node}:{len(bits)}:".encode() + bits.data)
        digest.update(transcript.decision.value.encode())
    assert digest.hexdigest() == "de3610fdf35cd03e9352f06b67de0a941b26fecdbdcfacf346a71be2c88d0aae"


def _encode_all(graph, advice, seeds, k, delta):
    return [
        (v, agm_encode(node_view(graph, v, (advice or {}).get(v), k), seeds, k, delta))
        for v in range(1, graph.n + 1)
    ]


def test_forest_subtraction_matches_from_scratch(monkeypatch):
    # Every component sketch the peeler reads equals the sketch of that
    # component's boundary in G less the edges claimed by earlier forests,
    # rebuilt from scratch with the round's config keys.
    n, k, delta = 64, 3, 0.05
    graph, advice = build_lb_graph(random_spec(n, k, 3, condition=Condition.C1))
    seeds = SharedRandomness(5)
    msgs = _encode_all(graph, advice, seeds, k, delta)
    forests, reads = [], []
    peel, sketch = agm._peel_forest, agm._component_sketches

    def peel_spy(*args):
        forests.append(peel(*args))
        return forests[-1]

    def sketch_spy(cells, keys, base, component, earlier):
        out = sketch(cells, keys, base, component, earlier)
        reads.append((len(forests), component.copy(), out))
        return out

    monkeypatch.setattr(agm, "_peel_forest", peel_spy)
    monkeypatch.setattr(agm, "_component_sketches", sketch_spy)
    assert agm_decide_kconn(msgs, seeds, n, k, delta) is Decision.CONNECTED
    cfg = SketchConfig.make(n, k, delta)
    keys, base = agm._config_tables(seeds, cfg)
    rounds = [0] * cfg.stacks
    for stack, component, sketches in reads:
        config = (stack * cfg.rounds + rounds[stack]) * cfg.reps
        rounds[stack] += 1
        remaining = {agm.slot_of(u, v, n): mult for u, v, mult in graph.edges()}
        for slot in (slot for forest in forests[:stack] for slot in forest):
            remaining[slot] = remaining.get(slot, 0) - 1
        assert len(sketches) == component.max() + 1
        for label, got in enumerate(sketches):
            side = set((np.flatnonzero(component == label) + 1).tolist())
            boundary = []
            for slot, mult in remaining.items():
                u, v = agm.pair_of_slot(slot, n)
                if (u in side) != (v in side):
                    boundary.append((slot, mult if u in side else -mult))
            expect = agm._sketch_cells(keys[config : config + cfg.reps], base, n, cfg.levels, boundary)
            assert np.array_equal(got, expect), (stack, rounds[stack] - 1, label)
    assert len(forests) == k and len(forests[-1]) == n - 1
    assert min(rounds) > 1  # every stack merged over several rounds


def test_decoder_memory_stays_below_half_the_transcript():
    # The decoder reads the cells in the message bytes, one round at a time:
    # it holds no second copy of the transcript (8.3 MB at n=256, k=3).
    n, k, delta = 256, 3, 0.05
    graph, advice = build_lb_graph(random_spec(n, k, 1, condition=Condition.C1))
    seeds = SharedRandomness(1)
    msgs = _encode_all(graph, advice, seeds, k, delta)
    transcript = sum(len(bits.data) for _, bits in msgs)
    tracemalloc.start()
    try:
        decision = agm_decide_kconn(msgs, seeds, n, k, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decision is Decision.CONNECTED
    assert peak < transcript / 2, f"peak {peak / 2**20:.2f} MB, transcript {transcript / 2**20:.2f} MB"


def _boruvka_reference(cfg, base, sketches, n):
    # The peeler before per-round component sums: whole (rounds, reps,
    # levels, 3) sketches per component, added on every merge, and the
    # per-triple reference scan per root.
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp = {node: sketches[node - 1] for node in range(1, n + 1)}
    forest = []
    for rnd in range(cfg.rounds):
        roots = sorted({find(x) for x in range(1, n + 1)})
        if len(roots) == 1:
            break
        proposals = []
        for root in roots:
            slot = _extract_edge_reference(comp[root][rnd], base, n)
            if slot is not None:
                proposals.append(slot)
        for slot in sorted(set(proposals)):
            u, v = agm.pair_of_slot(slot, n)
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            parent[rv] = ru
            comp[ru] = (comp[ru] + comp[rv]) % agm.PRIME
            forest.append(slot)
    return forest


def _certificate_reference(messages, seeds, n, k, delta):
    # Slot -> multiplicity of the union certificate, with each forest
    # subtracted from the later stacks of its endpoints, node by node.
    cfg = SketchConfig.make(n, k, delta)
    keys, base = agm._config_tables(seeds, cfg)
    shape = (cfg.stacks, cfg.rounds, cfg.reps, cfg.levels, 3)
    cells = np.array([np.frombuffer(bits.data, dtype=">u4").reshape(shape) for _, bits in sorted(messages)], np.uint64)
    per_stack = cfg.rounds * cfg.reps
    used = {}
    for stack in range(cfg.stacks):
        forest = _boruvka_reference(cfg, base, cells[:, stack], n)
        for slot in forest:
            used[slot] = used.get(slot, 0) + 1
        later = keys[(stack + 1) * per_stack :]
        if not forest or not len(later):
            continue
        # Level l keeps a slot when the top l bits of its hash are zero;
        # level 0 keeps every slot.
        hashes = agm._slot_hashes(later, np.array(forest, dtype=np.uint64))[:, None, :]
        top_bits = [np.zeros_like(hashes)] + [hashes >> np.uint64(64 - level) for level in range(1, cfg.levels)]
        kept = np.concatenate(top_bits, axis=1) == 0
        terms = np.array([[1, slot, pow(base, slot, agm.PRIME)] for slot in forest], dtype=np.uint64)
        rest = cells[:, stack + 1 :]
        for f, slot in enumerate(forest):
            update = (kept[:, :, f, None] * terms[f]).reshape(rest.shape[1:])
            u, v = agm.pair_of_slot(slot, n)
            rest[u - 1] += agm.PRIME - update
            rest[v - 1] += update
        rest %= agm.PRIME
    return used


def _assert_peels_like_reference(monkeypatch, graph, advice, k, delta, seed):
    n = graph.n
    seeds = SharedRandomness(seed)
    msgs = _encode_all(graph, advice, seeds, k, delta)
    cuts = []
    monkeypatch.setattr(agm, "global_min_cut", lambda g: cuts.append(sorted(g.edges())) or global_min_cut(g))
    decision = agm_decide_kconn(msgs, seeds, n, k, delta)
    used = _certificate_reference(msgs, seeds, n, k, delta)
    expect = sorted((*agm.pair_of_slot(slot, n), count) for slot, count in used.items())
    assert cuts == ([expect] if used else [])
    certificate = MultiGraph(n, expect)
    connected = bool(used) and global_min_cut(certificate).value >= k
    assert decision is (Decision.CONNECTED if connected else Decision.NOT_CONNECTED)


def _random_multigraph(rng, n, kind):
    g = MultiGraph(n)
    if kind == "edgeless":
        return g
    half = n // 2
    for _ in range(int(rng.integers(n, 3 * n + 1))):
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if u == v or (kind == "disconnected" and (u <= half) != (v <= half)):
            continue
        g.add_edge(u, v, int(rng.integers(1, 4)) if kind == "parallel" else 1)
    return g


def test_peeling_matches_reference_on_random_multigraphs(monkeypatch):
    # Same certificate edge multiset and decision as the whole-sketch
    # Boruvka with node-level subtraction, over graphs of every shape.
    rng = np.random.default_rng(17)
    kinds = ("edgeless", "disconnected", "parallel", "simple")
    for i in range(64):
        n = 2 + i % 3 if i < 8 else int(rng.integers(2, 49))
        k = int(rng.integers(1, 5))
        delta = (0.05, 0.1, 0.25)[i % 3]
        graph = _random_multigraph(rng, n, kinds[i % 4])
        _assert_peels_like_reference(monkeypatch, graph, None, k, delta, 300 + i)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("condition", [Condition.C0, Condition.C1])
def test_peeling_matches_reference_on_hard_family(monkeypatch, n, condition):
    graph, advice = build_lb_graph(random_spec(n, 3, 11, condition=condition))
    _assert_peels_like_reference(monkeypatch, graph, advice, 3, 0.05, 12)


@pytest.mark.parametrize("seed", [1, 4])
def test_stack_stops_at_first_all_zero_round(monkeypatch, seed):
    # On a C0 member G less the first forests is disconnected, so a later
    # stack runs out of boundary edges with rounds to spare.  That stack ends
    # at its first all-zero round, and the certificate is still the one that
    # the every-round Boruvka reference peels.
    n, k, delta = 64, 3, 0.05
    graph, advice = build_lb_graph(random_spec(n, k, seed, condition=Condition.C0))
    peel, sketch, stacks = agm._peel_forest, agm._component_sketches, []

    def peel_spy(*args):
        stacks.append([])
        return peel(*args)

    def sketch_spy(*args):
        out = sketch(*args)
        stacks[-1].append(bool(out.any()))
        return out

    monkeypatch.setattr(agm, "_peel_forest", peel_spy)
    monkeypatch.setattr(agm, "_component_sketches", sketch_spy)
    _assert_peels_like_reference(monkeypatch, graph, advice, k, delta, seed)
    rounds = SketchConfig.make(n, k, delta).rounds
    stopped = [nonzero for nonzero in stacks if not all(nonzero)]
    assert len(stacks) == k and stopped
    for nonzero in stopped:  # the first all-zero round is the stack's last, with rounds left
        assert nonzero.index(False) == len(nonzero) - 1 < rounds - 1


def test_nonzero_round_without_an_edge_runs_the_next_round(monkeypatch):
    # A round whose sketches are nonzero but yield no edge does not end the
    # stack: the next round runs over the same components.
    n, delta = 64, 0.05
    graph, advice = build_lb_graph(random_spec(n, 3, 1, condition=Condition.C1))
    seeds = SharedRandomness(1)
    msgs = _encode_all(graph, advice, seeds, 1, delta)
    extract, reads = agm._extract_edges, []

    def blank_first(sketches, base, n):
        reads.append(len(sketches))
        if len(reads) == 1:
            assert sketches.any()
            return np.zeros(len(sketches), dtype=np.uint64)
        return extract(sketches, base, n)

    monkeypatch.setattr(agm, "_extract_edges", blank_first)
    assert agm_decide_kconn(msgs, seeds, n, 1, delta) is Decision.CONNECTED  # the one forest spans
    assert reads[:2] == [n, n]  # round 1 still sees every node alone


@pytest.mark.parametrize("n,k", [(64, 2), (64, 3), (100, 4)])
def test_hard_family_agreement(n, k):
    # Members of the hard family sit at the k threshold: sigma's neighbourhood
    # alone decides whether the min cut reaches k.  Wrong decisions against the
    # oracle stay within the binomial allowance at delta.
    delta, ops = 0.05, 16
    protocol = make_agm_protocol(n, k, delta)
    wrong = 0
    for i in range(ops):
        condition = Condition.C1 if i % 2 else Condition.C0
        graph, advice = build_lb_graph(random_spec(n, k, 1000 + i, condition=condition))
        truth = is_k_edge_connected(graph, k)
        assert truth == (condition is Condition.C1)
        decision = execute(protocol, graph, advice, SharedRandomness(2000 + i)).decision
        wrong += (decision is Decision.CONNECTED) != truth
    assert wrong <= binomial_allowance(ops, delta, 0.99)


def test_single_node_decides_connected():
    g = MultiGraph(1)
    t = execute(make_agm_protocol(1, 1, 0.1), g, randomness=SEEDS)
    assert t.decision is Decision.CONNECTED
