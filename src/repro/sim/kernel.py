"""Simulation-kernel selection (event-driven vs. naive per-cycle).

There is one simulation loop, ``CmpSystem.run``, in two bit-identical
modes:

* ``event`` (default) — the controller caches per-bank candidate
  lists between state changes and builds the issue-time scan only for
  the entries a policy reads, and a core stalled on its own reads
  sleeps until one of them is scheduled or returns (see DESIGN.md
  §3.14).
* ``naive`` — the same loop with eager candidate scans and every core
  stepped on every tick, kept as a differential-testing oracle.

Both make one controller decision every DRAM cycle.

Selection uses the ``STFM_SIM_KERNEL`` environment variable, read once
per system when its memory controller is built, following the same
pattern as ``STFM_SIM_SANITIZE`` / ``STFM_SIM_FAULTS``: the toggle is
inherited by engine worker processes and never perturbs result cache
keys (results are identical either way, so cross-kernel cache sharing is
sound by construction).
"""

from __future__ import annotations

import os

KERNEL_ENV = "STFM_SIM_KERNEL"

#: Known kernel names.
KERNELS = ("event", "naive")


def kernel_name() -> str:
    """The selected simulation kernel ('event' unless overridden).

    Read at every call (not cached at import) so tests and the CLI can
    flip ``STFM_SIM_KERNEL`` at runtime.
    """
    value = os.environ.get(KERNEL_ENV, "").strip().lower()
    if not value:
        return "event"
    if value not in KERNELS:
        raise ValueError(
            f"{KERNEL_ENV}={value!r} is not a known kernel "
            f"(choose from: {', '.join(KERNELS)})"
        )
    return value


def event_kernel_enabled() -> bool:
    """True when the event-driven fast path should be used."""
    return kernel_name() == "event"
