"""Engine options and their context plumbing.

The experiment registry's entry points (``run(scale)``) construct their
own runners, so the CLI cannot hand each of them an engine directly.
Instead it installs :class:`EngineOptions` for the duration of the run
via :func:`engine_options`, and :func:`repro.experiments.common.make_runner`
picks up :func:`current_options` when building runners.

The installed stack is a :class:`contextvars.ContextVar`, so it is
*context-local*: concurrent consumers — the simulation service's worker
threads, or asyncio tasks — each see only the options they installed
themselves, never a sibling's.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.store import ResultStore


@dataclass(frozen=True)
class EngineOptions:
    """How runners should execute and cache their simulation jobs.

    Attributes:
        jobs: Worker processes (1 = serial in-process execution).
        store: Where results persist: a location string (a directory,
            ``sqlite:`` path or ``http://`` proxy URL) or an
            already-constructed :class:`ResultStore`; None disables
            persistence.  Passing the instance lets several runners
            share one store object, and with it its hit/miss counters:
            this is how the simulation service observes cross-client
            dedup.
        timeout: Per-job wall-clock limit in seconds (parallel only).
        retries: Extra attempts after a worker crash or timeout.
    """

    jobs: int = 1
    store: "ResultStore | str | None" = None
    timeout: "float | None" = None
    retries: int = 1


_STACK: contextvars.ContextVar[tuple[EngineOptions, ...]] = contextvars.ContextVar(
    "repro_engine_options", default=(EngineOptions(),)
)


def current_options() -> EngineOptions:
    """The options installed by the innermost :func:`engine_options`."""
    return _STACK.get()[-1]


@contextmanager
def engine_options(options: "EngineOptions | None" = None, **overrides):
    """Install engine options for the dynamic extent of a with-block."""
    base = options if options is not None else current_options()
    if overrides:
        base = replace(base, **overrides)
    token = _STACK.set(_STACK.get() + (base,))
    try:
        yield base
    finally:
        _STACK.reset(token)


def default_cache_dir() -> str:
    """Where ``stfm-sim run`` persists results unless told otherwise."""
    override = os.environ.get("STFM_SIM_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "stfm-sim")
