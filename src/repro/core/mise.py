"""MISE-STFM: STFM's fairness rule on request-service-rate slowdowns.

Subramanian et al. ("MISE: Providing Performance Predictability and
Improving Fairness in Shared Main Memory Systems", HPCA 2013) estimate
an application's slowdown without STFM's interference accounting: memory
slowdown is the ratio of the *alone* request service rate to the
*shared* request service rate, and the alone rate can be **measured**
rather than modelled — periodically give each application the highest
priority in the controller for one epoch; while it has priority, it
barely experiences interference, so its service rate during its
sampling epochs approximates the alone rate.

This module plugs that estimation scheme into the same fairness rule
STFM applies on top of its register model (:mod:`repro.core.stfm`): if
the ratio of the maximum to the minimum weighted slowdown exceeds
``alpha``, prioritize the most-slowed-down thread; otherwise schedule
FR-FCFS for throughput.  The split mirrors the seam between
:class:`~repro.core.stfm.StfmPolicy` and its
:class:`~repro.core.estimator.InterferenceEstimator`: the policy owns
the decision rule, a :class:`ServiceRateEstimator` owns the slowdown
numbers.

Divergences from the MISE paper, scaled to this simulator's synthetic
trace budgets (documented in DESIGN.md §3.17):

* epochs default to 2000 DRAM cycles (the paper samples in 10000-cycle
  epochs inside 5M-cycle intervals; our runs are orders of magnitude
  shorter);
* rates are cumulative averages over all epochs observed so far rather
  than interval-reset, so estimates stabilize quickly at small budgets;
* the fairness decision is recomputed at epoch boundaries (service
  rates only change there), not every DRAM cycle as in STFM.
"""

from __future__ import annotations

from repro.core.registers import SLOWDOWN_CAP, check_alpha, check_weight
from repro.dram.commands import CommandCandidate
from repro.schedulers.base import CLASS_RANK, SchedulingPolicy


class ServiceRateEstimator:
    """Per-thread request-service-rate accounting (the MISE estimator).

    One thread at a time is *sampled* (given highest priority); its
    service counts during sampled epochs feed the alone-rate estimate,
    every thread's counts during unsampled epochs feed the shared-rate
    estimates.  All state is integers updated at request completions
    and epoch boundaries.
    """

    def __init__(self, num_threads: int) -> None:
        self.num_threads = num_threads
        self.sampled_thread = 0
        self._epoch_served = [0] * num_threads
        self._alone_served = [0] * num_threads
        self._alone_epochs = [0] * num_threads
        self._shared_served = [0] * num_threads
        self._shared_epochs = [0] * num_threads
        self.epochs_completed = 0

    def on_request_completed(self, thread_id: int) -> None:
        self._epoch_served[thread_id] += 1

    def end_epoch(self) -> None:
        """Fold the finished epoch's counts in and rotate the sample."""
        sampled = self.sampled_thread
        for thread in range(self.num_threads):
            served = self._epoch_served[thread]
            if thread == sampled:
                self._alone_served[thread] += served
                self._alone_epochs[thread] += 1
            else:
                self._shared_served[thread] += served
                self._shared_epochs[thread] += 1
            self._epoch_served[thread] = 0
        self.epochs_completed += 1
        self.sampled_thread = (sampled + 1) % self.num_threads

    def alone_rate(self, thread_id: int) -> float:
        epochs = self._alone_epochs[thread_id]
        return self._alone_served[thread_id] / epochs if epochs else 0.0

    def shared_rate(self, thread_id: int) -> float:
        epochs = self._shared_epochs[thread_id]
        return self._shared_served[thread_id] / epochs if epochs else 0.0

    def slowdown(self, thread_id: int) -> float:
        """``S = alone_rate / shared_rate``, saturated like STFM's.

        A thread with no alone-rate measurement yet (or one that was
        never slowed: alone rate zero) reports slowdown 1 — the same
        convention as :meth:`repro.core.registers.StfmRegisters.slowdown`
        for threads with no stall time.
        """
        alone = self.alone_rate(thread_id)
        if alone <= 0.0 or not self._shared_epochs[thread_id]:
            return 1.0
        shared = self.shared_rate(thread_id)
        if shared <= alone / SLOWDOWN_CAP:
            return SLOWDOWN_CAP
        ratio = alone / shared
        return ratio if ratio > 1.0 else 1.0


class MiseStfmPolicy(SchedulingPolicy):
    """STFM's fairness rule driven by MISE slowdown estimation."""

    name = "MISE-STFM"

    def __init__(
        self,
        num_threads: int,
        alpha: float = 1.10,
        epoch_length: int = 2_000,
        weights: list[float] | None = None,
    ) -> None:
        """Create the policy.

        Args:
            num_threads: Threads sharing the memory system.
            alpha: Maximum tolerable unfairness (STFM's threshold).
            epoch_length: Sampling-epoch length in DRAM cycles.
            weights: Per-thread weights; higher weight means the thread
                tolerates less slowdown (STFM's Section 3.3 semantics).
        """
        super().__init__()
        check_alpha(alpha)
        if epoch_length < 1:
            raise ValueError("epoch_length must be at least 1")
        if weights is None:
            weights = [1.0] * num_threads
        if len(weights) != num_threads:
            raise ValueError("need one weight per thread")
        for weight in weights:
            check_weight(weight)
        self.num_threads = num_threads
        self.alpha = alpha
        self.epoch_length = epoch_length
        self.weights = list(weights)
        self.estimator = ServiceRateEstimator(num_threads)
        self._epoch_tick = 0
        # Decision state, recomputed at epoch boundaries.
        self.fairness_mode = False
        self.max_slowdown_thread: int | None = None
        self.last_unfairness = 1.0
        # Diagnostics.
        self.fairness_cycles = 0
        self.total_cycles = 0
        self._rank_classes()

    # -- system-software interface (STFM Section 3.3) ---------------------
    def set_alpha(self, alpha: float) -> None:
        self.alpha = check_alpha(alpha)

    def set_thread_weight(self, thread_id: int, weight: float) -> None:
        self.weights[thread_id] = check_weight(weight)

    # -- per-cycle timer ---------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        self._epoch_tick += 1
        if self._epoch_tick >= self.epoch_length:
            self._epoch_tick = 0
            self._end_epoch()
        self.total_cycles += 1
        if self.fairness_mode:
            self.fairness_cycles += 1

    def _end_epoch(self) -> None:
        self.estimator.end_epoch()
        self._decide()
        self._rank_classes()

    def _rank_classes(self) -> None:
        """Rebuild ``class_of`` from the sample and the decision, which
        change only at epoch boundaries: the sampled thread two classes
        up, the favoured thread one."""
        sampled = self.estimator.sampled_thread
        favored = self.max_slowdown_thread if self.fairness_mode else None
        self.class_of = [
            ((2 if thread == sampled else 0) + (1 if thread == favored else 0))
            * CLASS_RANK
            for thread in range(self.num_threads)
        ]

    def _decide(self) -> None:
        """STFM's fairness decision over the MISE slowdown estimates."""
        assert self.controller is not None
        active = self.controller.queues.threads_with_reads()
        if len(active) < 2:
            self.fairness_mode = False
            self.max_slowdown_thread = active[0] if active else None
            self.last_unfairness = 1.0
            return
        slowdowns = [(self.weighted_slowdown(t), t) for t in active]
        s_max, t_max = max(slowdowns)
        s_min, _ = min(slowdowns)
        self.last_unfairness = s_max / max(s_min, 1e-9)
        self.fairness_mode = self.last_unfairness > self.alpha
        self.max_slowdown_thread = t_max

    def weighted_slowdown(self, thread_id: int) -> float:
        """Weight-scaled slowdown ``S' = 1 + (S - 1) * Weight``."""
        raw = self.estimator.slowdown(thread_id)
        return 1.0 + (raw - 1.0) * self.weights[thread_id]

    def slowdown_of(self, thread_id: int) -> float:
        """Current raw slowdown estimate of a thread (diagnostics)."""
        return self.estimator.slowdown(thread_id)

    # -- prioritization ----------------------------------------------------
    def priority_key(self, candidate: CommandCandidate, now: int):
        """Sampled thread first (the measurement mechanism), then the
        fairness rule's favored thread, then FR-FCFS order."""
        thread = candidate.thread_id
        favored = (
            1
            if self.fairness_mode and thread == self.max_slowdown_thread
            else 0
        )
        return (
            1 if thread == self.estimator.sampled_thread else 0,
            favored,
            1 if candidate.is_column else 0,
            -candidate.arrival,
        )

    # -- event hooks -------------------------------------------------------
    def on_request_completed(self, request, now: int) -> None:
        self.estimator.on_request_completed(request.thread_id)

    @property
    def fairness_rule_fraction(self) -> float:
        """Fraction of DRAM cycles spent under the fairness rule."""
        if not self.total_cycles:
            return 0.0
        return self.fairness_cycles / self.total_cycles
