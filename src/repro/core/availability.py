"""Availability analysis under adverse conditions.

Derives service-availability metrics from the campaign datasets: the
paper reads outages off the five-month ping series (Sec. 3.2 connects
loss events to the 15 s reallocation slots), and the disruption
scenarios of :mod:`repro.disrupt` make those events reproducible. The
analysis answers three questions:

* **When was the service down?** Outage-episode detection over the
  pooled anchor ping series: an instant where (nearly) every anchor
  loses its probe is an outage, consecutive outage instants form an
  episode, and the first healthy probe afterwards dates the recovery.
* **How available was it?** Per-scenario availability percentage
  (fraction of probes answered) plus a tally of the structured
  :class:`~repro.apps.outcome.MeasurementOutcome` statuses every
  hardened measurement app reports.
* **Were losses slot-aligned?** Loss bursts recorded by the bulk
  transfers are attributed to 15 s reallocation-slot boundaries when
  they start within a small tolerance of one — the paper's signature
  evidence that the scheduler, not the medium, drops the packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.datasets import BulkSample, CampaignDatasets, PingDataset

#: Reallocation-slot length used for loss-burst attribution; mirrors
#: ``repro.leo.scheduling.SLOT_DURATION``.
SLOT_DURATION_S = 15.0

#: A probe instant counts as an outage when at least this fraction of
#: anchors lost their probe (random per-anchor loss never correlates
#: across anchors; a disruption does).
DEFAULT_LOSS_THRESHOLD = 0.9

#: Loss bursts starting within this many seconds of a slot boundary
#: are attributed to the reallocation.
DEFAULT_SLOT_TOLERANCE_S = 1.0


@dataclass(frozen=True)
class OutageEpisode:
    """One contiguous loss-of-service interval on the ping series."""

    #: First probe instant with correlated loss.
    start_t: float
    #: Last probe instant with correlated loss.
    end_t: float
    #: First healthy probe after the episode (NaN: never recovered
    #: inside the campaign).
    recovery_t: float
    #: Probes lost across all anchors during the episode.
    probes_lost: int

    @property
    def duration_s(self) -> float:
        """Observed outage span (last lost minus first lost probe)."""
        return self.end_t - self.start_t

    @property
    def recovered(self) -> bool:
        """Whether service came back before the campaign ended."""
        return not math.isnan(self.recovery_t)

    @property
    def time_to_recovery_s(self) -> float:
        """Outage start to first healthy probe (NaN if unrecovered)."""
        if not self.recovered:
            return math.nan
        return self.recovery_t - self.start_t


@dataclass
class AvailabilityReport:
    """Everything the availability analysis extracts for one run."""

    scenario: str
    total_probes: int
    lost_probes: int
    episodes: list[OutageEpisode] = field(default_factory=list)
    #: MeasurementOutcome status -> count, across every dataset.
    outcome_counts: dict[str, int] = field(default_factory=dict)
    #: Loss bursts from the bulk transfers and how many of them start
    #: at a reallocation-slot boundary.
    total_bursts: int = 0
    slot_aligned_bursts: int = 0

    @property
    def availability_pct(self) -> float:
        """Fraction of ping probes answered, percent."""
        if self.total_probes == 0:
            return 100.0
        return 100.0 * (1.0 - self.lost_probes / self.total_probes)

    @property
    def slot_aligned_fraction(self) -> float:
        """Fraction of loss bursts starting on a slot boundary."""
        if self.total_bursts == 0:
            return 0.0
        return self.slot_aligned_bursts / self.total_bursts


def _pooled_loss(pings: PingDataset
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, lost, total) per unique probe instant, anchor-pooled.

    Probes with a non-finite timestamp are dropped from the pooling:
    they have no place on the campaign clock, and letting them through
    used to poison episode boundaries (``end_t``/``duration_s`` of
    NaN) and the adjacent-instant spacing that derives ``max_gap_s``.
    """
    counts: dict[float, list[int]] = {}
    for times, rtts in pings.series.values():
        lost_mask = np.isnan(rtts)
        finite = np.isfinite(times)
        for t, lost in zip(times[finite].tolist(),
                           lost_mask[finite].tolist()):
            entry = counts.setdefault(t, [0, 0])
            entry[0] += int(lost)
            entry[1] += 1
    ordered = sorted(counts)
    lost = np.array([counts[t][0] for t in ordered], dtype=float)
    total = np.array([counts[t][1] for t in ordered], dtype=float)
    return np.array(ordered), lost, total


def _episodes_from_pooled(times: np.ndarray, lost: np.ndarray,
                          total: np.ndarray,
                          loss_threshold: float,
                          min_probes_lost: int,
                          max_gap_s: float | None
                          ) -> list[OutageEpisode]:
    """Episode detection over pooled per-instant loss counts.

    Shared by the batch :func:`detect_outage_episodes` and the
    streaming :class:`AvailabilityAccumulator`, which is what makes
    the two paths identical by construction.
    """
    if times.size == 0:
        return []
    down = (total > 0) & (lost / np.maximum(total, 1.0)
                          >= loss_threshold)
    if max_gap_s is None:
        # Largest spacing between adjacent probe instants == one ping
        # round; instants one round apart still coalesce.
        spacing = np.diff(times)
        max_gap_s = float(spacing.max()) + 1.0 if spacing.size else 1.0

    episodes: list[OutageEpisode] = []
    down_idx = np.flatnonzero(down)
    if down_idx.size == 0:
        return []
    run_start = down_idx[0]
    prev = down_idx[0]
    runs: list[tuple[int, int]] = []
    for idx in down_idx[1:]:
        if times[idx] - times[prev] > max_gap_s:
            runs.append((run_start, prev))
            run_start = idx
        prev = idx
    runs.append((run_start, prev))

    for first, last in runs:
        probes_lost = int(lost[first:last + 1].sum())
        if probes_lost < min_probes_lost:
            continue
        healthy_after = np.flatnonzero(~down[last + 1:])
        recovery_t = (float(times[last + 1 + healthy_after[0]])
                      if healthy_after.size else math.nan)
        episodes.append(OutageEpisode(
            start_t=float(times[first]), end_t=float(times[last]),
            recovery_t=recovery_t, probes_lost=probes_lost))
    return episodes


def detect_outage_episodes(pings: PingDataset,
                           loss_threshold: float =
                           DEFAULT_LOSS_THRESHOLD,
                           min_probes_lost: int = 2,
                           max_gap_s: float | None = None
                           ) -> list[OutageEpisode]:
    """Find contiguous correlated-loss intervals in the ping series.

    A probe instant is *down* when at least ``loss_threshold`` of the
    anchors lost their probe there. Down instants separated by no more
    than ``max_gap_s`` belong to one episode (the default spans one
    ping round, so an outage covering consecutive rounds coalesces
    while rounds separated by healthy ones split). Episodes losing
    fewer than ``min_probes_lost`` probes are discarded as
    uncorrelated background loss.
    """
    times, lost, total = _pooled_loss(pings)
    return _episodes_from_pooled(times, lost, total, loss_threshold,
                                 min_probes_lost, max_gap_s)


class AvailabilityAccumulator:
    """Incremental, mergeable availability detection.

    The streaming counterpart of :func:`analyze_availability`: ping
    chunks feed loss counts per probe instant as they are produced,
    partial accumulators merge in any order, and :meth:`report`
    reproduces the batch analysis exactly (episode detection runs the
    same :func:`_episodes_from_pooled` over the same pooled counts).

    Memory is O(unique probe instants) — the campaign clock, not the
    sample count: a 30-day campaign probing every 5 minutes from any
    number of anchors pools into ~26k instants regardless of how many
    probes each anchor sent. The pooled counts live in flat sorted
    numpy arrays (~24 bytes per instant); incoming chunks park in a
    pending list and fold in once they outgrow the resident set, so
    compaction cost stays amortised O(n log n) over the campaign.
    """

    #: Pending instants tolerated before an eager compaction; below
    #: this the merge sort costs more than the duplicates it removes.
    COMPACT_PENDING_INSTANTS = 4096

    def __init__(self) -> None:
        self._times = np.empty(0, dtype=float)
        self._lost = np.empty(0, dtype=np.int64)
        self._total = np.empty(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray,
                                  np.ndarray]] = []
        self._pending_instants = 0
        self.lost_probes = 0
        self.total_probes = 0
        self.outcome_counts: dict[str, int] = {}
        self.total_bursts = 0
        self.slot_aligned_bursts = 0

    def add_probes(self, times, rtts) -> None:
        """Fold one chunk of a ping series (NaN RTT == lost probe)."""
        times = np.asarray(times, dtype=float)
        rtts = np.asarray(rtts, dtype=float)
        lost_mask = np.isnan(rtts)
        self.total_probes += int(times.size)
        self.lost_probes += int(lost_mask.sum())
        finite = np.isfinite(times)
        times, lost_mask = times[finite], lost_mask[finite]
        if times.size == 0:
            return
        uniq, inverse = np.unique(times, return_inverse=True)
        lost_sums = np.bincount(inverse, weights=lost_mask.astype(float),
                                minlength=uniq.size)
        totals = np.bincount(inverse, minlength=uniq.size)
        self._push(uniq, lost_sums.astype(np.int64),
                   totals.astype(np.int64))

    def _push(self, times: np.ndarray, lost: np.ndarray,
              total: np.ndarray) -> None:
        self._pending.append((times, lost, total))
        self._pending_instants += int(times.size)
        if self._pending_instants >= max(self.COMPACT_PENDING_INSTANTS,
                                         self._times.size):
            self._compact()

    def _compact(self) -> None:
        if not self._pending:
            return
        times = np.concatenate(
            [self._times] + [p[0] for p in self._pending])
        lost = np.concatenate(
            [self._lost] + [p[1] for p in self._pending])
        total = np.concatenate(
            [self._total] + [p[2] for p in self._pending])
        uniq, inverse = np.unique(times, return_inverse=True)
        pooled_lost = np.zeros(uniq.size, dtype=np.int64)
        pooled_total = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(pooled_lost, inverse, lost)
        np.add.at(pooled_total, inverse, total)
        self._times, self._lost, self._total = (uniq, pooled_lost,
                                                pooled_total)
        self._pending = []
        self._pending_instants = 0

    def add_outcome(self, status: str, count: int = 1) -> None:
        self.outcome_counts[status] = (self.outcome_counts.get(status, 0)
                                       + count)

    def add_burst_times(self, times,
                        slot_duration_s: float = SLOT_DURATION_S,
                        tolerance_s: float = DEFAULT_SLOT_TOLERANCE_S
                        ) -> None:
        """Fold bulk loss-burst start times for slot attribution."""
        for t in times:
            self.total_bursts += 1
            offset = t % slot_duration_s
            if min(offset, slot_duration_s - offset) <= tolerance_s:
                self.slot_aligned_bursts += 1

    def merge(self, other: "AvailabilityAccumulator") -> None:
        other._compact()
        if other._times.size:
            self._push(other._times, other._lost, other._total)
        self.lost_probes += other.lost_probes
        self.total_probes += other.total_probes
        for status, count in other.outcome_counts.items():
            self.add_outcome(status, count)
        self.total_bursts += other.total_bursts
        self.slot_aligned_bursts += other.slot_aligned_bursts

    @property
    def resident_instants(self) -> int:
        self._compact()
        return int(self._times.size)

    def episodes(self,
                 loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
                 min_probes_lost: int = 2,
                 max_gap_s: float | None = None) -> list[OutageEpisode]:
        self._compact()
        return _episodes_from_pooled(self._times,
                                     self._lost.astype(float),
                                     self._total.astype(float),
                                     loss_threshold,
                                     min_probes_lost, max_gap_s)

    def report(self, scenario: str = "clear_sky",
               loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
               min_probes_lost: int = 2) -> AvailabilityReport:
        return AvailabilityReport(
            scenario=scenario,
            total_probes=self.total_probes,
            lost_probes=self.lost_probes,
            episodes=self.episodes(loss_threshold=loss_threshold,
                                   min_probes_lost=min_probes_lost),
            outcome_counts=dict(self.outcome_counts),
            total_bursts=self.total_bursts,
            slot_aligned_bursts=self.slot_aligned_bursts)


#: Outage episodes starting within this many seconds after a
#: handover boundary are attributed to the handover (one 15 s slot
#: plus probe-spacing slack: the first lost probe lands somewhere
#: inside the slot the handover opened).
DEFAULT_HANDOVER_TOLERANCE_S = 16.0

#: Attribution classes, most-specific first: an episode overlapping
#: an obstruction window is the obstruction's even if a handover
#: boundary sits nearby (the handover is itself obstruction-forced).
EPISODE_CAUSES = ("obstruction", "weather", "handover", "unknown")


def _overlaps(start: float, end: float,
              windows) -> bool:
    return any(start < w_end and end > w_start
               for w_start, w_end in windows)


def attribute_episodes(episodes: list[OutageEpisode],
                       handover_times=(),
                       obstruction_windows=(),
                       disruption_windows=(),
                       handover_tolerance_s: float =
                       DEFAULT_HANDOVER_TOLERANCE_S) -> list[str]:
    """One cause from :data:`EPISODE_CAUSES` per episode, in order.

    Deterministic priority — obstruction, then weather (disruption
    windows), then handover proximity, then unknown — so every
    episode gets exactly one cause and the per-cause counts always
    sum to ``len(episodes)``; that conservation is what lets a
    mobility report reconcile against the pooled availability totals.

    ``handover_times`` are boundary instants (floats);
    ``obstruction_windows`` / ``disruption_windows`` are
    ``(start_s, end_s)`` pairs on the campaign clock.
    """
    causes: list[str] = []
    for episode in episodes:
        end = max(episode.end_t, episode.start_t)
        if _overlaps(episode.start_t, end, obstruction_windows):
            causes.append("obstruction")
        elif _overlaps(episode.start_t, end, disruption_windows):
            causes.append("weather")
        elif any(0.0 <= episode.start_t - t <= handover_tolerance_s
                 for t in handover_times):
            causes.append("handover")
        else:
            causes.append("unknown")
    return causes


@dataclass
class MobilityReport:
    """Handover-episode analysis of one (possibly moving) campaign.

    Wraps the scenario's :class:`AvailabilityReport` with the
    geometry-side view: how often the serving path changed inside the
    analysis window, broken down by change kind, and which cause each
    pooled outage episode is attributed to. ``episode_causes`` is
    parallel to ``availability.episodes`` — the conservation law
    ``sum(cause_counts.values()) == len(availability.episodes)``
    holds by construction.
    """

    trajectory: str
    obstruction: str
    window_s: float
    #: Change-kind -> boundary count inside the window (a boundary
    #: carrying several kinds counts once per kind).
    handover_kind_counts: dict[str, int]
    #: Total path-change boundaries inside the window.
    handover_count: int
    availability: AvailabilityReport
    #: Cause per pooled outage episode (EPISODE_CAUSES member).
    episode_causes: list[str] = field(default_factory=list)

    @property
    def churn_per_hour(self) -> float:
        """Path-change boundaries per hour of analysis window."""
        if self.window_s <= 0:
            return 0.0
        return self.handover_count * 3600.0 / self.window_s

    @property
    def cause_counts(self) -> dict[str, int]:
        """Episode count per attribution cause (all causes listed)."""
        counts = {cause: 0 for cause in EPISODE_CAUSES}
        for cause in self.episode_causes:
            counts[cause] += 1
        return counts

    @property
    def mean_time_to_recovery_s(self) -> float:
        """Mean recovery time over recovered episodes (NaN if none)."""
        recovered = [e.time_to_recovery_s
                     for e in self.availability.episodes
                     if e.recovered]
        if not recovered:
            return math.nan
        return sum(recovered) / len(recovered)


def analyze_mobility(availability: AvailabilityReport,
                     handover_events,
                     window_s: float,
                     trajectory: str = "stationary",
                     obstruction: str = "none",
                     obstruction_windows=(),
                     disruption_windows=(),
                     handover_tolerance_s: float =
                     DEFAULT_HANDOVER_TOLERANCE_S) -> MobilityReport:
    """Handover/outage attribution on top of an availability report.

    ``handover_events`` come from
    :meth:`~repro.leo.fleet.FleetScheduler.handover_events`
    scanned over the analysis window (``window_s`` long, starting at
    campaign t=0).
    """
    kind_counts: dict[str, int] = {}
    for event in handover_events:
        for kind in event.kinds:
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
    causes = attribute_episodes(
        availability.episodes,
        handover_times=[event.t for event in handover_events],
        obstruction_windows=obstruction_windows,
        disruption_windows=disruption_windows,
        handover_tolerance_s=handover_tolerance_s)
    return MobilityReport(
        trajectory=trajectory,
        obstruction=obstruction,
        window_s=window_s,
        handover_kind_counts=kind_counts,
        handover_count=len(handover_events),
        availability=availability,
        episode_causes=causes)


def slot_aligned_bursts(bulk: list[BulkSample],
                        slot_duration_s: float = SLOT_DURATION_S,
                        tolerance_s: float = DEFAULT_SLOT_TOLERANCE_S
                        ) -> tuple[int, int]:
    """(aligned, total) loss-burst counts over the bulk transfers.

    A burst is attributed to a reallocation slot when the arrival of
    the packet preceding the gap falls within ``tolerance_s`` of a
    multiple of ``slot_duration_s`` on the campaign clock.
    """
    aligned = 0
    total = 0
    for sample in bulk:
        for t in sample.result.loss_event_times_s:
            total += 1
            offset = t % slot_duration_s
            if min(offset, slot_duration_s - offset) <= tolerance_s:
                aligned += 1
    return aligned, total


def outcome_tally(data: CampaignDatasets) -> dict[str, int]:
    """Status -> count over every MeasurementOutcome in the datasets."""
    counts: dict[str, int] = {}

    def add(outcome) -> None:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1

    for outcome in data.pings.outcomes.values():
        add(outcome)
    for sample in data.speedtests:
        add(sample.outcome)
    for sample in data.bulk:
        add(sample.outcome)
    for sample in data.messages:
        add(sample.outcome)
    for sample in data.visits:
        add(sample.outcome)
    return counts


def analyze_availability(data: CampaignDatasets,
                         scenario: str = "clear_sky",
                         loss_threshold: float =
                         DEFAULT_LOSS_THRESHOLD,
                         min_probes_lost: int = 2,
                         slot_tolerance_s: float =
                         DEFAULT_SLOT_TOLERANCE_S
                         ) -> AvailabilityReport:
    """Full availability analysis of one campaign's datasets."""
    lost = sum(int(np.isnan(rtts).sum())
               for _, rtts in data.pings.series.values())
    total = sum(int(rtts.size)
                for _, rtts in data.pings.series.values())
    aligned, bursts = slot_aligned_bursts(
        data.bulk, tolerance_s=slot_tolerance_s)
    return AvailabilityReport(
        scenario=scenario, total_probes=total, lost_probes=lost,
        episodes=detect_outage_episodes(
            data.pings, loss_threshold=loss_threshold,
            min_probes_lost=min_probes_lost),
        outcome_counts=outcome_tally(data),
        total_bursts=bursts, slot_aligned_bursts=aligned)
