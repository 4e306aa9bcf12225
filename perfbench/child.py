"""One cold operation in a fresh interpreter (run by ``run.py``).

Usage: ``python3 perfbench/child.py '<json request>'``.  The request
names a mode and its inputs; the last line of standard output is a JSON
reply.  A fresh process has empty JIT, image and artifact caches, which
is what a ``sensmart exp`` or ``sensmart fleet`` user waits for.

Modes:

* ``ping`` -- import the sweep and fleet code and report the import time;
* ``sweep`` -- compute Figure 7 and Figure 8 points cold, then again
  warm in the same process, and return the figure rows;
* ``fleet`` -- run one flood scenario on two shards.

With ``"trace": true`` the child records layer spans (see
``layers.py``) and returns its self times.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _sweep(request, census) -> dict:
    from repro.experiments import fig7, fig8
    from layers import add_counts, kernel_counts
    counts: dict = {}
    points = []
    for nodes, cap7, cap8 in request["points"]:
        entry = {"point": [nodes, cap7, cap8]}
        for phase in ("cold", "warm"):
            t0 = time.perf_counter()
            p7 = fig7.compute_point(nodes, cap7)
            t1 = time.perf_counter()
            add_counts(counts, kernel_counts(census.take()))
            t2 = time.perf_counter()
            p8 = fig8.compute_point(nodes, cap8)
            t3 = time.perf_counter()
            add_counts(counts, kernel_counts(census.take()))
            entry[phase] = {
                "fig7_s": t1 - t0, "fig8_s": t3 - t2,
                "fig7_row": fig7.Fig7Result(points=[p7]).rows[0],
                "fig8_row": fig8.Fig8Result(points=[p8]).rows[0]}
        points.append(entry)
    return {"points": points, "counts": counts}


def _fleet(request, census, recorder) -> dict:
    from repro.fleet import FleetSim
    from gen import FLEET_SHARDS, fleet_spec
    from layers import WORKDIR_ENV, collect_shards
    from workloads import fleet_fields
    spec = fleet_spec(request["params"])
    t0 = time.perf_counter()
    result = FleetSim(spec, shards=FLEET_SHARDS).run()
    wall = time.perf_counter() - t0
    census.take()
    reply = {"result": fleet_fields(result), "run_s": wall}
    if recorder is not None:
        reply["shards"] = collect_shards(Path(os.environ[WORKDIR_ENV]))
    return reply


def main(argv) -> int:
    request = json.loads(argv[1])
    from layers import Census, Recorder, install_census, install_spans
    census = Census()
    recorder = Recorder() if request.get("trace") else None
    if recorder is not None:
        # The imports below are part of what this process waits for.
        import_span = recorder.enter("python.import")
    import repro.experiments.fig7  # noqa: F401
    import repro.experiments.fig8  # noqa: F401
    import repro.fleet  # noqa: F401
    install_census(census)
    if recorder is not None:
        install_spans(recorder, census)
        recorder.leave(import_span)
    imported = time.perf_counter()
    mode = request["mode"]
    reply = {"import_s": imported - STARTED}
    if mode == "sweep":
        reply.update(_sweep(request, census))
    elif mode == "fleet":
        reply.update(_fleet(request, census, recorder))
    elif mode != "ping":
        raise SystemExit(f"unknown mode {mode!r}")
    reply["traced_wall_s"] = time.perf_counter() - STARTED
    if recorder is not None:
        reply["spans"] = recorder.snapshot()
    reply["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
