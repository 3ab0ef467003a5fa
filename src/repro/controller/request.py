"""Memory request representation.

A request corresponds to one cache-line transfer (an L2 miss or a
writeback) and carries the state the paper's request buffer holds per
entry: address, type, thread id, age, readiness and completion status
(Section 2.2), plus the bookkeeping flags our simulator uses to classify
the row-buffer outcome at service time.
"""

from __future__ import annotations

from repro.dram.address import DecodedAddress
from repro.dram.bank import ROW_CLOSED, ROW_CONFLICT, ROW_HIT, RowBufferOutcome


class MemoryRequest:
    """One outstanding DRAM request.

    Attributes:
        thread_id: Id of the issuing thread/core (the per-request
            ``Thread-ID`` register of the paper's Table 1).
        address: Byte address of the cache line.
        coords: Decoded (channel, bank, row, column).
        is_write: Writeback (True) or demand read (False).
        arrival: CPU cycle the request entered the request buffer; the
            age used by the oldest-first rules.
        completed_at: CPU cycle the data transfer (plus fixed overhead)
            finishes; None while unserviced.  Cores compare against this
            to decide when a load stall ends.
        got_activate / got_precharge: Whether an ACTIVATE / PRECHARGE was
            issued on this request's behalf, used to classify its service
            as row-hit / row-closed / row-conflict.
        seq: Per-controller admission sequence number, assigned by
            ``MemoryController.submit``.  Policies that need request
            identity (PAR-BS batch marking) key on this — unlike
            ``id()``, it is deterministic and never reused.
        channel / bank / row: The decoded coordinates hoisted into flat
            attributes.  The controller's candidate scan reads them every
            DRAM cycle for every queued request; the flat copies avoid a
            ``coords`` attribute hop on the hottest loads in the
            simulator.
    """

    __slots__ = (
        "thread_id",
        "address",
        "coords",
        "is_write",
        "arrival",
        "completed_at",
        "got_activate",
        "got_precharge",
        "seq",
        "channel",
        "bank",
        "row",
    )

    def __init__(
        self,
        thread_id: int,
        address: int,
        coords: DecodedAddress,
        is_write: bool,
        arrival: int,
        seq: int | None = None,
    ) -> None:
        self.thread_id = thread_id
        self.address = address
        self.coords = coords
        self.is_write = is_write
        self.arrival = arrival
        self.seq = seq
        self.completed_at: int | None = None
        self.got_activate = False
        self.got_precharge = False
        self.channel = coords.channel
        self.bank = coords.bank
        self.row = coords.row

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def service_outcome(self) -> RowBufferOutcome:
        """Row-buffer outcome of this request's service.

        Only meaningful after the column command has been issued.
        """
        if self.got_precharge:
            return ROW_CONFLICT
        if self.got_activate:
            return ROW_CLOSED
        return ROW_HIT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"MemoryRequest({kind}, thread={self.thread_id}, "
            f"ch={self.coords.channel}, bank={self.coords.bank}, "
            f"row={self.coords.row}, arrival={self.arrival})"
        )
