"""Persisting experiment results as JSON.

The CLI's ``run --json out.json`` writes every experiment's structured
rows plus metadata, so sweeps can be archived and post-processed (e.g.
plotted) without re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.base import ExperimentResult


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable form of one experiment result."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_reference": result.paper_reference,
        "rows": plain(result.rows),
        "extras": plain(result.extras),
    }


def save_results(results: list[ExperimentResult], path: str | Path) -> None:
    """Write results to ``path`` as a JSON document."""
    payload = {
        "format": "repro-results v1",
        "results": [result_to_dict(result) for result in results],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_results(path: str | Path) -> list[dict]:
    """Read a results file back as plain dictionaries."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "repro-results v1":
        raise ValueError(f"{path} is not a repro-results v1 file")
    return payload["results"]


def plain(value):
    """Coerce tuples/sets and other JSON-hostile values to plain types."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
