"""Recompute fusionkit's certificates and compare them with the values pinned here.

    python tools/certify.py

A change to fusionkit must not change what its sweeps certify.  This script
recomputes each certificate from the checkout's ``src`` and prints one JSON
object with the values it found, the pinned ones, and the keys that differ:

- ``all_digest``, ``all_checks``, ``all_checked``: the report of
  ``fusionkit verify --suite all`` at the bounds in ``ALL_ARGS``, run as a
  fresh process.  The digest is the md5 of ``json.dumps(report,
  sort_keys=True)`` with ``wall_time_s`` dropped, the one field that varies
  from run to run.
- ``classical_sweep_checked``: the summed ``checked`` of
  ``classical_lr_checks(7)`` and ``classical_involution_checks(7)``.
- ``level_sweep_checked``: the summed ``checked`` of
  ``fusion_involution_checks(5, 4, 10)``.
- ``report_current``: ``reports/gepner_witten_n2.md`` equals what its script
  writes, regenerated the way the acceptance test regenerates it.

The exit status is 0 when every value equals its pin and 1 otherwise.
Standard library only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALL_ARGS = ["--n-max", "4", "--k-max", "3", "--size-max", "8", "--jobs", "2"]
PINNED = {
    "all_digest": "95a59447b0e3e47959092145c10ced4b",
    "all_checks": 22,
    "all_checked": 139169,
    "classical_sweep_checked": 26945,
    "level_sweep_checked": 62639,
    "report_current": True,
}


def digest(report: dict) -> str:
    """The md5 of a verify report without its ``wall_time_s``."""
    kept = {key: value for key, value in report.items() if key != "wall_time_s"}
    return hashlib.md5(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def _all_report() -> dict:
    # verify exits 1 when a check fails, and still prints its report
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from fusionkit.cli import main; sys.exit(main())",
         "verify", "--suite", "all", *ALL_ARGS],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def _report_current() -> bool:
    script = os.path.join(ROOT, "reports", "gepner_witten_n2.py")
    spec = importlib.util.spec_from_file_location("gepner_witten_n2", script)
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    with open(os.path.join(ROOT, "reports", "gepner_witten_n2.md")) as f:
        return writer.report_markdown(6, 10) == f.read()


def certificates() -> dict:
    from fusionkit import verify

    report = _all_report()
    classical = verify.classical_lr_checks(7) + verify.classical_involution_checks(7, jobs=2)
    return {
        "all_digest": digest(report),
        "all_checks": len(report["checks"]),
        "all_checked": sum(check["checked"] for check in report["checks"]),
        "classical_sweep_checked": sum(check.checked for check in classical),
        "level_sweep_checked": sum(
            check.checked for check in verify.fusion_involution_checks(5, 4, 10, jobs=2)
        ),
        "report_current": _report_current(),
    }


def main() -> int:
    sys.path.insert(0, SRC)
    found = certificates()
    differ = [key for key, value in PINNED.items() if found[key] != value]
    print(json.dumps({"found": found, "pinned": PINNED, "differ": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
