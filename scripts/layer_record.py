"""The harness of the layer records, ``scripts/agm_layer.py``, ``scripts/lb_layer.py``, ``scripts/mincut_layer.py``
and ``scripts/overlap_layer.py``.

    python3 scripts/<record>.py [--out BENCH_<record>.json] [--baseline OTHER_CHECKOUT/src]

Importing this module pins the numpy thread pools to one thread and puts
``src/`` and ``bench/`` next to this directory on ``sys.path``.  A record
keeps only its inputs, the call it times and the value that call returns.

Versions.  ``current`` is this checkout's ``sketchbench`` package, and
``baseline`` (with ``--baseline``) another checkout's.  ``load_checkout``
loads each one whole under a name of its own, so each version's modules
import their own siblings and neither is the copy ``import sketchbench`` binds.

Alternation.  On each input graph, each repeat calls every version once, in
reversed order on odd repeats, so that both see the same machine state.  The
number of repeats must be even, so that each version goes first equally
often.  A call returns its layer times in ms and a value (a transcript
digest, a certified cut value, a context digest) that every call on that
graph must share, else the record stops.  ``timed_layers`` times a layer by
wrapping the library function it names, which the timed call reaches
through its module's globals.

Ranges.  Each graph row holds, per version and layer, [minimum, median,
maximum] in ms over the repeats.  Each group gets ``median_ms``, the median
of its graphs' medians, and ``range_ms``, the smallest minimum and largest
maximum: two versions whose ranges overlap are not told apart by their
medians alone.

Requirements.  Each record names every (module, attribute) it calls or
times; ``main`` checks them in every loaded version before the first call,
and stops naming each one a version lacks, rather than minutes into a run.

Provenance.  ``source_sha256`` names each version by the SHA-256 of the
modules the record times; ``platform`` and the process's ``peak_rss_mb`` say
where the numbers were taken.
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


def load_checkout(src: Path, version: str):
    """The ``sketchbench`` package under ``src``, with every submodule, as ``sketchbench_<version>``."""
    init = src / "sketchbench" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        f"sketchbench_{version}", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    for path in sorted(init.parent.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{spec.name}.{path.stem}")
    return package


def require(versions: dict, needs) -> None:
    """Stop, naming each one, if a version lacks a (module, attribute) pair of ``needs``."""
    missing = [
        f"{name} {module}.{attr}"
        for name, package in versions.items()
        for module, attr in needs
        if not hasattr(getattr(package, module, None), attr)
    ]
    if missing:
        raise SystemExit(f"the record calls what a version lacks: {', '.join(missing)}")


def measure(versions: dict, call, repeats: int) -> tuple[dict, object]:
    """Each version's {layer: [min, median, max]} over ``repeats`` alternated calls, and their one value.

    ``call(name, package)`` runs one version once and returns its {layer: ms}
    and the value that every call must share.  An odd ``repeats`` would let
    one version go first once more than the other: ValueError.
    """
    if repeats < 2 or repeats % 2:
        raise ValueError(f"repeats must be even and at least 2, so each version goes first as often; got {repeats}")
    samples = {name: [] for name in versions}
    values = set()
    for r in range(repeats):
        for name in sorted(versions, reverse=r % 2 == 1):
            times, value = call(name, versions[name])
            samples[name].append(times)
            values.add(value)
    if len(values) != 1:
        raise SystemExit(f"the calls disagree: {sorted(values)}")
    spreads = {
        name: {layer: spread([run[layer] for run in runs]) for layer in runs[0]} for name, runs in samples.items()
    }
    return spreads, values.pop()


def timed(fn, totals: dict, layer: str):
    """``fn``, with the time of each call added to ``totals[layer]``, in seconds."""

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[layer] += perf_counter() - start

    return wrapper


@contextmanager
def timed_layers(package, layers: dict, totals: dict):
    """Wrap, by ``timed``, the function ``layers[layer]`` = (module, attribute) of each layer in ``totals``."""
    saved = []
    for layer in totals.keys() & layers.keys():
        module_name, attr = layers[layer]
        module = getattr(package, module_name)
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, timed(getattr(module, attr), totals, layer))
    try:
        yield
    finally:
        for module, attr, inner in reversed(saved):
            setattr(module, attr, inner)


def spread(values: list) -> list:
    """[minimum, median, maximum] of ``values``, rounded to the microsecond."""
    return [round(value, 3) for value in (min(values), statistics.median(values), max(values))]


def main(doc: str, out_name: str, modules: tuple, needs: tuple, record) -> None:
    """Parse ``--out`` and ``--baseline``, load the versions, and write ``record(versions)`` as a report.

    ``needs`` lists every (module, attribute) that ``record`` calls or times;
    ``require`` checks them first.  ``record`` returns the report's leading
    fields (seed, repeats, ...) and the graph rows by group.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / out_name)
    parser.add_argument("--baseline", type=Path, help="another checkout's src/ to time alongside")
    args = parser.parse_args()

    versions = {"current": load_checkout(ROOT / "src", "current")}
    if args.baseline is not None:
        versions["baseline"] = load_checkout(args.baseline, "baseline")
    require(versions, needs)
    header, graphs = record(versions)
    report = {
        **header,
        "source_sha256": {
            name: {
                module: hashlib.sha256(Path(getattr(package, module).__file__).read_bytes()).hexdigest()
                for module in modules
            }
            for name, package in versions.items()
        },
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "graphs": graphs,
        "median_ms": {
            group: {
                name: {
                    layer: round(statistics.median(row[name][layer][1] for row in rows), 3) for layer in rows[0][name]
                }
                for name in versions
            }
            for group, rows in graphs.items()
        },
        "range_ms": {
            group: {
                name: {
                    layer: [min(row[name][layer][0] for row in rows), max(row[name][layer][2] for row in rows)]
                    for layer in rows[0][name]
                }
                for name in versions
            }
            for group, rows in graphs.items()
        },
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for group, by_version in report["median_ms"].items():
        for name, medians in by_version.items():
            spans = report["range_ms"][group][name]
            cells = [
                f"{layer[:-3]} {ms:.2f} [{spans[layer][0]:.2f}-{spans[layer][1]:.2f}]" for layer, ms in medians.items()
            ]
            print(f"{group:12s} {name:8s} " + "  ".join(cells))
