"""Shape checks: does the measurement agree with the paper?

Since a Python re-simulation cannot match the authors' testbed's
absolute numbers, agreement is defined over *shapes*:

* who wins (is STFM the fairest scheduler?),
* pairwise orderings (for each pair of schedulers the paper quotes,
  does the measurement order them the same way?),
* trends (does FR-FCFS unfairness fall with more banks, rise with
  bigger row buffers, while STFM stays flat?).

Each experiment declares its shapes as named predicates over its rows
(:class:`repro.experiments.base.Experiment`); the helpers here are what
those predicates return.  Every result has ``holds`` and a signed
``margin`` in the shape's own relative units: at least 0 when the shape
holds, at most 0 when it fails, and farther from 0 the clearer the
verdict.  So a caller can count and rank verdicts without reading text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """Whether a shape holds, and by how much."""

    holds: bool
    margin: float


@dataclass(frozen=True)
class Trend(Verdict):
    """A trend verdict, with the direction the values actually took."""

    direction: str


@dataclass(frozen=True)
class OrderingCheck:
    """Result of the pairwise-ordering comparison.

    Reads as a verdict: it holds when no compared pair disagrees.  Its
    margin is the smallest signed relative gap over the compared pairs
    (``|a - b| / max(a, b)`` of the measured values, negative for a pair
    ordered against the paper): the closest agreeing pair when all
    agree, the worst disagreeing pair otherwise, 0 with no pair compared.
    """

    agreements: int
    comparisons: int
    disagreements: tuple[tuple[str, str], ...] = ()
    margin: float = 0.0

    @property
    def score(self) -> float:
        if not self.comparisons:
            return 1.0
        return self.agreements / self.comparisons

    @property
    def holds(self) -> bool:
        return not self.disagreements

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.agreements}/{self.comparisons} pairwise orderings"


def ordering_agreement(
    paper: dict[str, float | None],
    measured: dict[str, float],
    tolerance: float = 0.03,
) -> OrderingCheck:
    """Compare pairwise orderings between paper and measured values.

    Pairs whose paper values differ by less than ``tolerance`` (relative)
    are treated as ties and skipped — the paper's own bars are not
    meaningfully ordered there.  Pairs the measurement ties exactly are
    skipped too: they order neither way, so they cannot agree.
    """
    keys = [
        k for k, v in paper.items() if v is not None and k in measured
    ]
    gaps = []
    disagreements = []
    for a, b in itertools.combinations(keys, 2):
        paper_a, paper_b = paper[a], paper[b]
        if abs(paper_a - paper_b) <= tolerance * max(paper_a, paper_b):
            continue
        if measured[a] == measured[b]:
            continue
        gap = abs(measured[a] - measured[b]) / max(measured[a], measured[b])
        if (paper_a > paper_b) == (measured[a] > measured[b]):
            gaps.append(gap)
        else:
            gaps.append(-gap)
            disagreements.append((a, b))
    return OrderingCheck(
        len(gaps) - len(disagreements),
        len(gaps),
        tuple(disagreements),
        min(gaps, default=0.0),
    )


def below(value: float, bound: float, strict: bool = True) -> Verdict:
    """Whether ``value`` is below ``bound``; the margin is ``1 - value/bound``."""
    holds = value < bound if strict else value <= bound
    return Verdict(holds, 1.0 - value / bound)


def lowest(measured: dict[str, float], key: str) -> Verdict:
    """Whether ``key`` has the lowest value; a tie counts as lowest."""
    if key not in measured:
        raise KeyError(f"{key!r} missing from measurement")
    others = [v for k, v in measured.items() if k != key]
    return below(measured[key], min(others), strict=False)


def trend_direction(values: list[float], tolerance: float = 0.02) -> str:
    """Classify a sequence as 'increasing', 'decreasing', 'flat' or
    'mixed' (ignoring wiggles below ``tolerance`` relative change)."""
    if len(values) < 2:
        return "flat"
    ups = downs = 0
    for earlier, later in zip(values, values[1:]):
        if later > earlier * (1 + tolerance):
            ups += 1
        elif later < earlier * (1 - tolerance):
            downs += 1
    if ups and not downs:
        return "increasing"
    if downs and not ups:
        return "decreasing"
    if not ups and not downs:
        return "flat"
    return "mixed"


def trend(values: list[float], expected: str, tolerance: float = 0.02) -> Trend:
    """Whether ``values`` move in the ``expected`` direction
    ('increasing' or 'decreasing').

    The margin is the tighter of the two conditions, in relative change
    per step: the largest step in the expected direction must exceed
    ``tolerance``, and no step may go against it by more than that.
    """
    sign = 1.0 if expected == "increasing" else -1.0
    steps = [
        sign * (later / earlier - 1.0)
        for earlier, later in zip(values, values[1:])
    ]
    margin = min(max(steps, default=0.0) - tolerance,
                 min(steps, default=0.0) + tolerance)
    direction = trend_direction(values, tolerance)
    return Trend(direction == expected, margin, direction)
