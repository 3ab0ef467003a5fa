"""Rewrite ``tests/pinned_results.json`` from the current tree.

Usage (from the repository root)::

    PYTHONPATH=src python tools/pin_results.py

Runs every configuration in ``tests/test_pinned_results.py::CASES`` and
stores its digest.  Run it only for a change that is meant to move
simulation results, and say in that change why they moved; a change
that should keep results bit-identical must pass the pinned test with
the file untouched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_pinned_results import CASES, PINNED_FILE, digest  # noqa: E402


def main() -> None:
    pinned = {case: digest(case) for case in sorted(CASES)}
    PINNED_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} case(s) in {PINNED_FILE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
