"""Self-test of the benchmark (not part of the repository's test suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests

Each benchmark run happens in a subprocess, because a run wraps the
program's entry points for the life of its process.  The whole file
takes about two minutes on a 2-core host.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in LISTED["workloads"])
SEED = 987654  # not one the benchmark was tuned on


def bench(*args, code=None):
    """Run the benchmark (or *code* that calls ``run.main``) and return
    the record and result lines."""
    if code is None:
        cmd = [sys.executable, str(BENCH / "run.py"), *args]
    else:
        cmd = [sys.executable, "-c", code, *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_seed_changes_inputs():
    assert gen.paper_points(1, 16) != gen.paper_points(2, 16)
    assert gen.steady_image(1) != gen.steady_image(2)
    assert gen.fleet_params(1) != gen.fleet_params(2)
    assert gen.serve_bundle(1, 0) != gen.serve_bundle(2, 0)
    # ... and the same seed gives the same inputs.
    assert gen.steady_image(3) == gen.steady_image(3)
    assert gen.serve_bundle(3, 5) == gen.serve_bundle(3, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_new_seed_passes_every_check(workload):
    record, result = bench("--workload", workload, "--seed", str(SEED),
                           "--seconds", "2", "--trace", "0")
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert result["attempted"] >= run.ROUNDS
    assert set(result["metrics"]) == {m["name"]
                                      for m in LISTED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ("paper_sweep", "steady_node"))
def test_traced_run_covers_the_wall_time(workload):
    record, result = bench("--workload", workload, "--seed", str(SEED),
                           "--seconds", "8", "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"], record["errors"]
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["trace.overhead"] > 0
    assert set(metrics) == {m["name"] for m in LISTED["per_layer"]}
    if workload == "steady_node":
        assert metrics["jit.traces_compiled"] == 0
    else:
        shares = {k: v for k, v in metrics.items() if k.endswith("_pct")}
        assert max(shares, key=shares.get) == "jit.pycompile_pct"


def patched(workload, method, body):
    """Code that runs the benchmark with one workload method replaced."""
    cls = workloads.WORKLOADS[workload].__name__
    return ("import sys; sys.path[:0] = ['perfbench', 'src']; "
            "import run, workloads; "
            f"workloads.{cls}.{method} = lambda self, *a: {body}; "
            "sys.exit(run.main(sys.argv[1:]))")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrong_reference_fails_operations(workload):
    code = patched(workload, "reference", "'wrong'")
    record, result = bench("--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", "0", code=code)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "the fleet digest is not shard-invariant: on this seed node n005's "
    "undrained RX queue ends in another order on 2 shards than on 1"))
def test_fleet_flood_two_shards_match_one_shard():
    # fleet_flood is left out of BENCHMARK.json until this passes.
    record, result = bench("--workload", "fleet_flood", "--seed",
                           "322537218", "--seconds", "1", "--trace", "0")
    assert result["correct"], record["errors"]


def test_raising_operation_is_a_failed_operation():
    code = patched("steady_node", "op", "1 / 0")
    record, result = bench("--workload", "steady_node", "--seed", "5",
                           "--seconds", "1", "--trace", "0", code=code)
    assert not result["correct"]
    # Set-ups pass; every timed operation fails.
    assert result["failed"] == result["attempted"] - run.ROUNDS
    assert "ZeroDivisionError" in record["errors"][0]


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_node",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
