"""Rewrite ``tests/pinned_results.json`` from the current tree.

Usage (from the repository root)::

    PYTHONPATH=src python tools/pin_results.py

Runs every configuration in ``tests/test_pinned_results.py::CASES`` and
stores its digest.  Run it only for a change that is meant to move
simulation results, or to pin new cases, and say in that change why; a
change that should keep results bit-identical must pass the pinned test
with the file untouched.  Before writing, it compares against the
committed file and prints the cases added, changed, unchanged and
dropped, so pinning new cases visibly leaves the old ones alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_pinned_results import CASES, PINNED_FILE, digest  # noqa: E402


def main() -> None:
    old = json.loads(PINNED_FILE.read_text()) if PINNED_FILE.exists() else {}
    pinned = {case: digest(case) for case in sorted(CASES)}
    report = {
        "added": [c for c in pinned if c not in old],
        "changed": [c for c in pinned if c in old and old[c] != pinned[c]],
        "unchanged": [c for c in pinned if old.get(c) == pinned[c]],
        "dropped": sorted(c for c in old if c not in pinned),
    }
    for kind, cases in report.items():
        print(f"{kind}: {len(cases)}")
        if kind != "unchanged":
            for case in cases:
                print(f"  {case}")
    PINNED_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} case(s) in {PINNED_FILE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
