"""Smoke test of the benchmark harness: ``python -m pytest bench/tests``.

Not collected by tier-1 (its ``testpaths`` is ``tests``).  Runs
``bench/run.py --quick --trace`` once and checks that every workload and
every metric ``BENCHMARK.json`` names is printed with its unit.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in {w["name"] for w in SPEC["workloads"]}:
            try:
                printed[(parts[0], parts[1])] = (float(parts[2]), parts[3])
            except ValueError:
                continue
    names = set()
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert workload["why"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            names.add(metric["name"])
            key = (workload["name"], metric["name"])
            assert key in printed, f"{key} not printed"
            assert printed[key][1] == metric["unit"], key
        assert printed[(workload["name"], "fail_share")] == (0.0, "ratio")
    assert len(names) == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    for metric in SPEC["end_to_end"]:
        for workload in SPEC["workloads"]:
            assert printed[(workload["name"], metric["name"])][0] > 0.0
