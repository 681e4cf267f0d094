"""Reference digests of direct simulation, and the digest itself.

Every result the benchmark gets back is checked against the digest of
``run_experiment`` on the same config.  The digests live beside the
benchmark in ``reference_digests.json``; regenerate them (about two
minutes on two cores) with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_digests.json"


def digest(result) -> str:
    """Hash of every simulated value a result carries.

    Covers the execution time, NVM media reads and writes, per-device
    energy, the telemetry events and the mitigation counters.  Floats
    enter through ``repr``, which round-trips exactly, so any drift in
    any digit changes the digest.
    """
    payload = {
        "execution_time": repr(float(result.execution_time)),
        "nvm_reads": int(result.nvm_reads),
        "nvm_writes": int(result.nvm_writes),
        "energy": {name: repr(float(report.total_joules))
                   for name, report in result.telemetry.energy.items()},
        "events": {k: repr(float(v)) for k, v in result.events.items()},
        "mitigation": {k: repr(float(v))
                       for k, v in result.mitigation.items()},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, str]:
    return json.loads(path.read_text())["digests"]


def check(result, error: str | None, reference: dict[str, str],
          key: str) -> str | None:
    """Why this outcome counts as failed, or ``None`` when it is correct."""
    if error is not None:
        return error
    if result is None:
        return "no result"
    if not result.verified:
        return "result not verified"
    expected = reference.get(key)
    if expected is None:
        return f"no reference digest for {key}"
    if digest(result) != expected:
        return f"digest mismatch for {key}"
    return None


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.core.experiment import run_experiment

    import plan

    started = time.perf_counter()
    configs = plan.reference_space()
    digests = {}
    for number, config in enumerate(configs, 1):
        result = run_experiment(config)
        if not result.verified:
            print(f"{plan.point_key(config)} is not verified", file=sys.stderr)
            return 1
        digests[plan.point_key(config)] = digest(result)
        if number % 100 == 0:
            print(f"{number}/{len(configs)} points", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(
        {"generator": "direct run_experiment", "points": len(digests),
         "digests": dict(sorted(digests.items()))},
        indent=0, sort_keys=True,
    ) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE_PATH} in "
          f"{time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
