"""Regenerate ``paper_reference.json``: the expected Figure 7/8 rows for
every sweep point ``paper_sweep`` can draw.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Each row is what ``Fig7Result.rows`` / ``Fig8Result.rows`` print for
one ``compute_point(tree_nodes, cap)`` call.  Rerun this only when the
paper outputs are meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gen import PAPER_CAPS, PAPER_SIZES  # noqa: E402


def rows_for(nodes: int) -> dict:
    from repro.experiments import fig7, fig8
    rows = {}
    for cap in PAPER_CAPS:
        rows[f"fig7:{nodes}:{cap}"] = fig7.Fig7Result(
            points=[fig7.compute_point(nodes, cap)]).rows[0]
        rows[f"fig8:{nodes}:{cap}"] = fig8.Fig8Result(
            points=[fig8.compute_point(nodes, cap)]).rows[0]
    return rows


def main() -> int:
    rows: dict = {}
    context = multiprocessing.get_context("spawn")
    # Two workers: the benchmark is sized for a 2-core host.
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        for part in pool.map(rows_for, PAPER_SIZES):
            rows.update(part)
    out = HERE / "paper_reference.json"
    lines = [f"  {json.dumps(key)}: {json.dumps(rows[key])}"
             for key in sorted(rows)]
    out.write_text('{"rows": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
