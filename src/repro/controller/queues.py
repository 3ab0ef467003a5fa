"""Request buffering: per-bank read queues and per-channel write buffers.

Besides the queues themselves, this module maintains the incremental
counters STFM's slowdown estimation reads every DRAM cycle and at every
issued command:

* ``waiting_banks[thread]`` — the number of banks (across all
  channels) in which the thread has at least one waiting *read* request;
  this is the paper's ``BankWaitingParallelism`` register (Table 1).
* ``waiting[thread][global_bank]`` — the thread's reads queued for a
  bank: the receivers of the bank-interference update (Section 3.2.2).
* per channel, ``thread_reads[thread]`` and ``row_hit_reads[thread]`` —
  the thread's queued reads on the channel, and those of them that hit
  their bank's open row: the receivers of the bus-interference update
  in write-drain and read mode.  The queues do not know which rows are
  open, so the controller reports it: ``enqueue_read`` is told whether
  the read hits, and ``count_row_hits`` recounts a bank's queue when
  its row opens or closes.

Only reads are counted because only reads stall the core and therefore
contribute to memory stall time; writebacks drain from a separate buffer
and never appear on a core's critical path.
"""

from __future__ import annotations

from repro.controller.request import MemoryRequest


class ChannelQueues:
    """Read/write queues of one channel.

    Args:
        num_banks: Banks on the channel (one read queue each).
        read_capacity: Request-buffer entries for reads (128 baseline).
        write_capacity: Write data-buffer entries (32 baseline).
        num_threads: Threads whose reads are counted.
    """

    __slots__ = (
        "bank_queues",
        "write_queue",
        "read_capacity",
        "write_capacity",
        "read_count",
        "thread_reads",
        "row_hit_reads",
    )

    def __init__(
        self,
        num_banks: int,
        read_capacity: int,
        write_capacity: int,
        num_threads: int,
    ):
        self.bank_queues: list[list[MemoryRequest]] = [[] for _ in range(num_banks)]
        self.write_queue: list[MemoryRequest] = []
        self.read_capacity = read_capacity
        self.write_capacity = write_capacity
        self.read_count = 0
        # Per thread: queued reads, and queued reads hitting their
        # bank's open row (kept by RequestQueues).
        self.thread_reads = [0] * num_threads
        self.row_hit_reads = [0] * num_threads

    @property
    def write_count(self) -> int:
        return len(self.write_queue)

    def reads_full(self) -> bool:
        return self.read_count >= self.read_capacity

    def writes_full(self) -> bool:
        return len(self.write_queue) >= self.write_capacity


class RequestQueues:
    """All channel queues plus the thread-level waiting-bank counters."""

    def __init__(
        self,
        num_channels: int,
        num_banks: int,
        num_threads: int,
        read_capacity: int = 128,
        write_capacity: int = 32,
    ) -> None:
        self.num_channels = num_channels
        self.num_banks = num_banks
        self.num_threads = num_threads
        self.channels = [
            ChannelQueues(num_banks, read_capacity, write_capacity, num_threads)
            for _ in range(num_channels)
        ]
        # waiting[thread][global_bank] -> number of waiting reads.
        total_banks = num_channels * num_banks
        self.waiting = [[0] * total_banks for _ in range(num_threads)]
        self.waiting_banks = [0] * num_threads
        # Total queued reads per thread (any channel), for the "has at
        # least one ready request" test of STFM's unfairness computation
        # (read in place by STFM's per-cycle decision; never rebound).
        self.queued_read_counts = [0] * num_threads

    def global_bank(self, channel: int, bank: int) -> int:
        return channel * self.num_banks + bank

    def enqueue_read(
        self, request: MemoryRequest, hits_open_row: bool = False
    ) -> bool:
        """Queue a demand read; returns False if the buffer is full.

        ``hits_open_row`` says whether the read's row is open in its bank.
        """
        coords = request.coords
        queues = self.channels[coords.channel]
        if queues.reads_full():
            return False
        queues.bank_queues[coords.bank].append(request)
        queues.read_count += 1
        thread = request.thread_id
        queues.thread_reads[thread] += 1
        if hits_open_row:
            queues.row_hit_reads[thread] += 1
        gbank = self.global_bank(coords.channel, coords.bank)
        counts = self.waiting[thread]
        if counts[gbank] == 0:
            self.waiting_banks[thread] += 1
        counts[gbank] += 1
        self.queued_read_counts[thread] += 1
        return True

    def enqueue_write(self, request: MemoryRequest) -> bool:
        """Queue a writeback; returns False if the write buffer is full."""
        queues = self.channels[request.coords.channel]
        if queues.writes_full():
            return False
        queues.write_queue.append(request)
        return True

    def remove_read(self, request: MemoryRequest) -> None:
        """Remove a read at service time (its column command issued, so
        it hits its bank's open row)."""
        coords = request.coords
        queues = self.channels[coords.channel]
        queues.bank_queues[coords.bank].remove(request)
        queues.read_count -= 1
        thread = request.thread_id
        queues.thread_reads[thread] -= 1
        queues.row_hit_reads[thread] -= 1
        gbank = self.global_bank(coords.channel, coords.bank)
        counts = self.waiting[thread]
        counts[gbank] -= 1
        if counts[gbank] == 0:
            self.waiting_banks[thread] -= 1
        self.queued_read_counts[thread] -= 1

    def remove_write(self, request: MemoryRequest) -> None:
        self.channels[request.coords.channel].write_queue.remove(request)

    def count_row_hits(
        self, channel: int, bank: int, row: int, delta: int
    ) -> None:
        """The reads queued for ``row`` in a bank start (``delta=1``, an
        ACTIVATE opened it) or stop (``delta=-1``, a PRECHARGE or refresh
        is about to close it) hitting the open row."""
        queues = self.channels[channel]
        hits = queues.row_hit_reads
        for request in queues.bank_queues[bank]:
            if request.row == row:
                hits[request.thread_id] += delta

    def threads_with_reads(self) -> list[int]:
        """Threads that currently have at least one queued read."""
        return [t for t in range(self.num_threads) if self.queued_read_counts[t]]

    def total_reads(self) -> int:
        return sum(queues.read_count for queues in self.channels)

    def total_writes(self) -> int:
        return sum(queues.write_count for queues in self.channels)
