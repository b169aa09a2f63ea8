"""Time the layers of the unique-overlap sweep, ``overlap-enum``'s pipeline, and of the exhaustive attack.

    python3 scripts/overlap_layer.py [--out BENCH_overlap.json] [--baseline OTHER_CHECKOUT/src]

The ``sweep`` group holds one row: the ``appb`` protocol over every valid
instance at (m, s) = (9, 4), 645,120 of them, in ``enumerate_valid_instances``
order.  Each instance is encoded on both sides, decoded by Charlie from the
two supports and checked against ``answer``, as the ``overlap-sweep``
benchmark does.  The layers are summed over the sweep:

- ``enumerate_ms``: the generator's ``next()``, one per instance;
- ``appb_encode_ms``: ``overlap.appb_encode``, which both encoders reach
  through the module's globals, two calls per instance;
- ``charlie_decode_ms``: the protocol's decoder, one call per instance;
- ``answer_ms``: ``overlap.answer``, one call per instance.

Each time includes its wrapper's own per-call cost, the same in both
versions.  Every call must give the same ``sweep_sha256``, the SHA-256 of one
line ``"<X> <Y> <sigma>"`` per instance (the lines ``test_enumeration_golden``
hashes), and the same count of instances and of ``misdecodes``.

The ``attack`` group holds one row per protocol, ``appb`` and ``trunc``, and
(m, s) in (9, 4) and (11, 6): ``attack_ms`` is the whole ``overlap.attack``
call and ``appb_encode_ms`` its encodes, inside it.  Every call must return
the same ``counterexample`` or None: its shared index, the two supports, the
vectors x, x_hat, y and y_hat as strings, the two messages and the wrong
(X, Y) combinations.  ``layer_record`` describes the repeats, ranges and
report.
"""

import hashlib
import json
from time import perf_counter

import layer_record  # first: it pins the thread pools and puts src/ and bench/ on sys.path

REPEATS = 4
SWEEP = (9, 4)
ATTACKS = tuple((name, m, s) for m, s in ((9, 4), (11, 6)) for name in ("appb", "trunc"))

#: Layer name -> (module attribute, function) that the layer's time is summed over.
SWEEP_LAYERS = {"appb_encode_ms": ("overlap", "appb_encode"), "answer_ms": ("overlap", "answer")}
ATTACK_LAYERS = {"appb_encode_ms": ("overlap", "appb_encode")}

#: Every (module, attribute) the record times or calls, checked in each version before the first call.
NEEDS = (
    *SWEEP_LAYERS.values(),
    ("overlap", "attack"),
    ("overlap", "enumerate_valid_instances"),
    ("overlap", "make_overlap_protocol"),
)


def measure_sweep(case: tuple, versions: dict) -> dict:
    """The row of one (m, s) sweep of ``appb``: its layer spreads per version, digest and counts."""
    m, s = case

    def sweep(version, package):
        overlap = package.overlap
        totals = dict.fromkeys((*SWEEP_LAYERS, "enumerate_ms", "charlie_decode_ms"), 0.0)
        protocol = overlap.make_overlap_protocol("appb", m, s)
        decode = layer_record.timed(protocol.charlie_decode, totals, "charlie_decode_ms")
        digest, count, misdecodes = hashlib.sha256(), 0, 0
        with layer_record.timed_layers(package, SWEEP_LAYERS, totals):
            step = layer_record.timed(overlap.enumerate_valid_instances(m, s).__next__, totals, "enumerate_ms")
            encode_a, encode_b, answer = protocol.alice_encode, protocol.bob_encode, overlap.answer
            for instance in iter(step, None):
                x, y = instance.x, instance.y
                decoded = decode(x.support, y.support, encode_a(x), encode_b(y))
                misdecodes += decoded != answer(instance)
                count += 1
                digest.update(f"{x.to_string()} {y.to_string()} {instance.sigma}\n".encode())
        return {layer: seconds * 1e3 for layer, seconds in totals.items()}, (digest.hexdigest(), count, misdecodes)

    spreads, (digest, count, misdecodes) = layer_record.measure(versions, sweep, REPEATS)
    return {
        "protocol": "appb",
        "m": m,
        "s": s,
        "instances": count,
        "sweep_sha256": digest,
        "misdecodes": misdecodes,
        **spreads,
    }


def measure_attack(case: tuple, versions: dict) -> dict:
    """The row of one (protocol, m, s) attack: its layer spreads per version and its counterexample."""
    name, m, s = case

    def hunt(version, package):
        totals = dict.fromkeys(ATTACK_LAYERS, 0.0)
        protocol = package.overlap.make_overlap_protocol(name, m, s)
        with layer_record.timed_layers(package, ATTACK_LAYERS, totals):
            start = perf_counter()
            cex = package.overlap.attack(protocol, m, s)
            totals["attack_ms"] = perf_counter() - start
        found = None
        if cex is not None:
            found = json.dumps(
                {
                    "sigma": cex.sigma,
                    "supp_x": cex.supp_x,
                    "supp_y": cex.supp_y,
                    "x_xhat_y_yhat": [v.to_string() for v in (cex.x, cex.x_hat, cex.y, cex.y_hat)],
                    "msg_a": cex.msg_a,
                    "msg_b": cex.msg_b,
                    "wrong": cex.wrong,
                }
            )
        return {layer: seconds * 1e3 for layer, seconds in totals.items()}, found

    spreads, found = layer_record.measure(versions, hunt, REPEATS)
    return {
        "protocol": name,
        "m": m,
        "s": s,
        "counterexample": None if found is None else json.loads(found),
        **spreads,
    }


def record(versions: dict) -> tuple[dict, dict]:
    measure_sweep((6, 3), versions)  # warm-up: imports, first allocations
    rows = {
        "sweep": [measure_sweep(SWEEP, versions)],
        "attack": [measure_attack(case, versions) for case in ATTACKS],
    }
    return {"repeats": REPEATS}, rows


if __name__ == "__main__":
    layer_record.main(__doc__, "BENCH_overlap.json", ("overlap",), NEEDS, record)
