"""DRAM memory controller: request buffering and two-level scheduling.

Mirrors the paper's controller organization (Sections 2.2-2.3): a request
buffer with per-bank queues, read/write data buffers, and a DRAM access
scheduler that, each DRAM cycle, picks per-bank best commands and then a
channel winner, according to a pluggable scheduling policy.
"""

from repro.controller.controller import MemoryController
from repro.controller.queues import ChannelQueues, RequestQueues
from repro.controller.request import MemoryRequest

__all__ = [
    "ChannelQueues",
    "MemoryController",
    "MemoryRequest",
    "RequestQueues",
]
