"""Factory for the paper's five scheduling policies and the follow-on
literature's extension zoo (PAR-BS, BLISS, MISE-STFM, STAGED)."""

from __future__ import annotations

import inspect
from typing import Callable

from repro.schedulers.base import SchedulingPolicy
from repro.schedulers.bliss import BlissPolicy
from repro.schedulers.fcfs import FcfsPolicy
from repro.schedulers.frfcfs import FrFcfsPolicy
from repro.schedulers.frfcfs_cap import FrFcfsCapPolicy
from repro.schedulers.nfq import NfqPolicy
from repro.schedulers.parbs import ParBsPolicy
from repro.schedulers.staged import StagedPolicy


# Each factory names the options it reads as keyword parameters, so
# make_policy can reject the rest (a misspelt option would otherwise run
# with the default while still changing the job's cache digest).


def _make_frfcfs(num_threads: int) -> SchedulingPolicy:
    return FrFcfsPolicy()


def _make_fcfs(num_threads: int) -> SchedulingPolicy:
    return FcfsPolicy()


def _make_frfcfs_cap(num_threads: int, cap: int = 4) -> SchedulingPolicy:
    return FrFcfsCapPolicy(cap=cap)


def _make_nfq(num_threads: int, shares=None) -> SchedulingPolicy:
    return NfqPolicy(num_threads, shares=shares)


def _make_parbs(num_threads: int, marking_cap: int = 5) -> SchedulingPolicy:
    return ParBsPolicy(num_threads, marking_cap=marking_cap)


def _make_stfm(
    num_threads: int,
    alpha: float = 1.10,
    gamma: float = 1.0,
    interval_length: int = 1 << 24,
    weights=None,
    interference_basis: str = "waiting",
) -> SchedulingPolicy:
    from repro.core.stfm import StfmPolicy

    return StfmPolicy(
        num_threads,
        alpha=alpha,
        gamma=gamma,
        interval_length=interval_length,
        weights=weights,
        interference_basis=interference_basis,
    )


def _make_bliss(
    num_threads: int, threshold: int = 4, clearing_interval: int = 10_000
) -> SchedulingPolicy:
    return BlissPolicy(
        num_threads, threshold=threshold, clearing_interval=clearing_interval
    )


def _make_mise_stfm(
    num_threads: int,
    alpha: float = 1.10,
    epoch_length: int = 2_000,
    weights=None,
) -> SchedulingPolicy:
    from repro.core.mise import MiseStfmPolicy

    return MiseStfmPolicy(
        num_threads, alpha=alpha, epoch_length=epoch_length, weights=weights
    )


def _make_staged(
    num_threads: int,
    streaming_threads=None,
    epoch_length: int = 2_000,
    spill_factor: float = 2.0,
    min_epoch_requests: int = 32,
) -> SchedulingPolicy:
    return StagedPolicy(
        num_threads,
        streaming_threads=streaming_threads,
        epoch_length=epoch_length,
        spill_factor=spill_factor,
        min_epoch_requests=min_epoch_requests,
    )


_FACTORIES: dict[str, Callable[..., SchedulingPolicy]] = {
    "fr-fcfs": _make_frfcfs,
    "fcfs": _make_fcfs,
    "fr-fcfs+cap": _make_frfcfs_cap,
    "nfq": _make_nfq,
    "stfm": _make_stfm,
    # Extensions from the follow-on literature (see DESIGN.md §3.17):
    # the batch scheduler that succeeded STFM (ISCA 2008), the
    # blacklisting scheduler (ICCD 2014), STFM's fairness rule on MISE
    # service-rate slowdowns (HPCA 2013), and staged scheduling for
    # heterogeneous CPU+GPU traffic (ISCA 2012).
    "par-bs": _make_parbs,
    "bliss": _make_bliss,
    "mise-stfm": _make_mise_stfm,
    "staged": _make_staged,
}

#: Canonical display names, in the order the paper's figures use.  The
#: extension schedulers are additionally available via
#: :func:`make_policy` but excluded from paper-figure sweeps.
PAPER_ORDER = ["fr-fcfs", "fcfs", "fr-fcfs+cap", "nfq", "stfm"]

#: Extension schedulers from the follow-on literature, in chronological
#: order of publication.
EXTENSION_ORDER = ["par-bs", "bliss", "mise-stfm", "staged"]


def available_policies(include_extensions: bool = False) -> list[str]:
    """Names accepted by :func:`make_policy`, in the paper's order."""
    names = list(PAPER_ORDER)
    if include_extensions:
        names.extend(EXTENSION_ORDER)
    return names


def make_policy(name: str, num_threads: int, **kwargs) -> SchedulingPolicy:
    """Instantiate a scheduling policy by name.

    Args:
        name: One of ``fr-fcfs``, ``fcfs``, ``fr-fcfs+cap``, ``nfq``,
            ``stfm``, or an extension — ``par-bs``, ``bliss``,
            ``mise-stfm``, ``staged`` (case-insensitive).
        num_threads: Threads sharing the memory system (needed by the
            thread-aware policies).
        **kwargs: Policy-specific options — ``cap`` for FR-FCFS+Cap;
            ``shares`` for NFQ; ``alpha``, ``gamma``, ``interval_length``,
            ``weights`` and ``interference_basis`` for STFM;
            ``marking_cap`` for PAR-BS; ``threshold`` and
            ``clearing_interval`` for BLISS; ``alpha``, ``epoch_length``
            and ``weights`` for MISE-STFM; ``streaming_threads``,
            ``epoch_length``, ``spill_factor`` and ``min_epoch_requests``
            for STAGED.

    Raises:
        ValueError: for an unknown policy, an option the policy does not
            take, or an option value the policy rejects.
    """
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: "
            f"{', '.join(PAPER_ORDER + EXTENSION_ORDER)}"
        ) from None
    accepted = list(inspect.signature(factory).parameters)[1:]
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ValueError(
            f"policy {name!r} does not take {', '.join(unknown)}; "
            f"its options are: {', '.join(accepted) or 'none'}"
        )
    return factory(num_threads, **kwargs)
