"""Regenerate the committed output digests in ``expected/``.

Only for a declared model change: the digests are the output-identity
gate, so regenerating them accepts whatever the program now computes.
Run from the repository root::

    python3 perfbench/regen_expected.py

Cold workloads record every simulated field of each cell's
measurement; service-mixed records the service row of every warm-grid
cell and of every cell in the never-seen ``mini`` pool.
"""

from __future__ import annotations

import json
import os
import sys

import run
import benchlib


def write(workload: str, digests: dict) -> None:
    benchlib.EXPECTED_DIR.mkdir(exist_ok=True)
    path = benchlib.EXPECTED_DIR / f"{workload}.json"
    path.write_text(
        json.dumps({"workload": workload, "digests": dict(sorted(digests.items()))},
                   indent=0)
        + "\n"
    )
    print(f"{path}: {len(digests)} cells")


def service_digests(base) -> dict:
    os.environ["REPRO_CACHE_DIR"] = str(base / "profiles")
    sys.path.insert(0, str(run.SRC))
    from repro import api
    from repro.core.engine import MeasurementEngine

    engine = MeasurementEngine(jobs=1, cache_dir=base / "measurements")
    specs = [benchlib.warm_grid()] + [
        benchlib.spec_json([w], [r], [s], [t], size="mini")
        for w, r, s, t in benchlib.mini_pool()
    ]
    digests = {}
    for raw in specs:
        for row in api.run(api.SweepSpec.from_json(raw), engine=engine, strict=True):
            label = benchlib.cell_label(
                row["workload"], row["runtime"], row["strategy"], row["isa"],
                row["threads"], raw["size"], raw["iterations"],
            )
            digests[label] = benchlib.digest(row)
    return digests


def main() -> int:
    scratch = run.Scratch()
    try:
        for workload in ("scaling-cold", "profile-cold"):
            report = run.cold_child(scratch, "round", workload, seed=0)
            errors = [c["error"] for c in report["cells"] if c["error"]]
            if errors:
                raise SystemExit(f"{workload}: {errors[0]}")
            write(workload, {c["label"]: c["digest"] for c in report["cells"]})
        write("service-mixed", service_digests(scratch.fresh()))
    finally:
        scratch.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
