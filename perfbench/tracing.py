"""Span tracer for the benchmark's traced runs.

The traced run wraps calls into each layer of the program from the
benchmark's own code: a hook table (:data:`HOOKS`) names every
boundary by dotted path, :class:`Tracer` resolves it, and a wrapper
times each call. Three kinds of boundary exist:

* ``span`` -- coarse calls (work units, app runs, analysis, render,
  sink folds, journal reads). Each call is recorded as a span with
  name, layer, start, end and parent.
* ``unit`` -- a work unit's ``run``/``run_atoms``: a span named
  after the unit's label, so time can be summed per measurement kind.
* ``acc`` -- per-packet or per-probe calls (transport handlers,
  ``jitter``, ``snapshot``, disruption lookups). Each call only adds
  to a count and a total time, so memory stays bounded.

All kinds push one frame on a single stack. A frame's self time is
its duration minus the time its child frames cover, and it is charged
to the frame's layer; whatever the root frame does outside every
layer boundary is charged to ``harness``. The self times of all
layers therefore partition the root's duration exactly.

A boundary that no longer exists is recorded in
:attr:`Tracer.missing` instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Layer of the benchmark's own code (the root frame and the glue
#: between boundaries).
HARNESS = "harness"

#: (dotted path, layer, kind). ``module:attr.attr`` names a function
#: or method; the tracer rebinds every from-import alias of a
#: module-level function too (see :data:`ALIAS_MODULES`).
HOOKS: tuple[tuple[str, str, str], ...] = (
    # -- netsim: the event engine and the queues/pipes it drives.
    ("repro.netsim.engine:Simulator.run", "netsim", "span"),
    ("repro.netsim.loss:TimedGilbertElliottLoss.is_lost", "netsim",
     "acc"),
    # -- transport: per-packet receive and timer handlers.
    ("repro.transport.tcp.connection:TcpConnection._on_packet",
     "transport", "acc"),
    ("repro.transport.tcp.connection:TcpConnection._pump",
     "transport", "acc"),
    ("repro.transport.tcp.connection:TcpConnection._check_rto",
     "transport", "acc"),
    ("repro.transport.tcp.connection:TcpConnection._delayed_ack",
     "transport", "acc"),
    ("repro.transport.quic.connection:QuicConnection._on_datagram",
     "transport", "acc"),
    ("repro.transport.quic.connection:QuicConnection._pump",
     "transport", "acc"),
    ("repro.transport.quic.connection:QuicConnection._check_pto",
     "transport", "acc"),
    ("repro.transport.quic.connection:QuicConnection._ack_timer_fired",
     "transport", "acc"),
    # -- apps: measurement applications.
    ("repro.apps.speedtest:run_speedtest", "apps", "span"),
    ("repro.apps.bulk:run_bulk_transfer", "apps", "span"),
    ("repro.apps.messages:run_messages_workload", "apps", "span"),
    ("repro.apps.web.browser:BrowserEngine.visit", "apps", "acc"),
    ("repro.apps.web.corpus:build_corpus", "apps", "span"),
    # -- geo: GEO access construction and the PEP's relay path.
    ("repro.geo.satcom:GeoSatComAccess.__init__", "geo", "span"),
    ("repro.geo.satcom:GeoPathModel.one_way_delay", "geo", "acc"),
    ("repro.geo.pep:PepBox.receive", "geo", "acc"),
    # -- leo: access construction, path model, scheduling, fleet.
    ("repro.leo.access:StarlinkAccess.__init__", "leo", "span"),
    ("repro.leo.access:StarlinkPathModel.idle_rtt", "leo", "acc"),
    ("repro.leo.access:StarlinkPathModel.one_way_delay", "leo", "acc"),
    ("repro.leo.access:StarlinkPathModel.pop_location", "leo", "acc"),
    ("repro.leo.access:StarlinkPathModel.jitter", "leo", "acc"),
    ("repro.leo.scheduling:SatelliteScheduler.snapshot", "leo", "acc"),
    ("repro.leo.fleet:FleetScheduler.capacity_share", "leo", "acc"),
    ("repro.leo.fleet:FleetTerminalView.snapshot", "leo", "acc"),
    ("repro.leo.scheduling:SatelliteScheduler.handover_events", "leo",
     "span"),
    # -- disrupt: schedule lookups and scenario application.
    ("repro.disrupt.schedule:DisruptionSchedule.blackout_at",
     "disrupt", "acc"),
    ("repro.disrupt.schedule:DisruptionSchedule.extra_loss_prob",
     "disrupt", "acc"),
    ("repro.disrupt.schedule:DisruptionSchedule.capacity_factor",
     "disrupt", "acc"),
    ("repro.disrupt.apply:apply_to_access", "disrupt", "span"),
    # -- core: streaming sinks, analysis, rendering.
    ("repro.core.datasets:PingAnchorSink.add_chunk", "core", "acc"),
    ("repro.core.datasets:PingAnchorSink.merge", "core", "span"),
    ("repro.core.datasets:StreamingPingDataset.add_sink", "core",
     "span"),
    ("repro.core.datasets:StreamingPingDataset.availability_report",
     "core", "span"),
    ("repro.core.datasets:CampaignDatasets.table1_rows", "core", "span"),
    ("repro.core.rtt:figure1_rtt_boxplots", "core", "span"),
    ("repro.core.rtt:figure2_timeseries", "core", "span"),
    ("repro.core.rtt:figure3_loaded_rtt", "core", "span"),
    ("repro.core.loss_events:table2_loss_ratios", "core", "span"),
    ("repro.core.throughput:figure5_throughput", "core", "span"),
    ("repro.core.browsing:figure6_browsing", "core", "span"),
    ("repro.core.availability:analyze_availability", "core", "span"),
    ("repro.errant.model:fit_profiles", "core", "span"),
    ("repro.core.reporting:render_table1", "core", "span"),
    ("repro.core.reporting:render_figure1", "core", "span"),
    ("repro.core.reporting:render_figure2", "core", "span"),
    ("repro.core.reporting:render_figure3", "core", "span"),
    ("repro.core.reporting:render_table2", "core", "span"),
    ("repro.core.reporting:render_figure4", "core", "span"),
    ("repro.core.reporting:render_figure5", "core", "span"),
    ("repro.core.reporting:render_figure6", "core", "span"),
    ("repro.core.reporting:render_availability", "core", "span"),
    ("repro.core.reporting:render_fleet", "core", "span"),
    ("repro.errant.export:to_json", "core", "span"),
    # -- exec: the executor, work units and the journal.
    ("repro.exec.runner:execute_units", "exec", "span"),
    ("repro.exec.journal:Journal.load", "exec", "span"),
    ("repro.exec.journal:Journal.store", "exec", "span"),
    ("repro.exec.units:PingSeriesUnit.run_atoms", "exec", "unit"),
    ("repro.exec.units:StreamingPingUnit.run_atoms", "exec", "unit"),
    ("repro.exec.units:SpeedtestUnit.run_atoms", "exec", "unit"),
    ("repro.exec.units:BulkUnit.run_atoms", "exec", "unit"),
    ("repro.exec.units:MessagesUnit.run", "exec", "unit"),
    ("repro.exec.units:WebRoundUnit.run_atoms", "exec", "unit"),
    ("repro.exec.units:FleetTerminalUnit.run_atoms", "exec", "unit"),
)

#: Layer whose outermost frames run under ``tracemalloc``; the
#: largest traced peak of those frames lands in :attr:`Tracer.peak_kb`.
MEMORY_LAYER = "core"

#: Modules (by name prefix) whose from-import aliases of a hooked
#: function are rebound: the program's package and the benchmark's
#: workload definitions, which call the program.
ALIAS_MODULES = ("repro", "workloads")

#: Boundaries whose instances the traced run keeps, so that their
#: counters (``stats``, ``drops``, cache hits) can be summed at the
#: end: (dotted path of the class, registry name).
REGISTRIES: tuple[tuple[str, str], ...] = (
    ("repro.netsim.engine:Simulator", "simulators"),
    ("repro.netsim.link:Pipe", "pipes"),
    ("repro.netsim.queues:DropTailQueue", "queues"),
    ("repro.transport.tcp.connection:TcpConnection", "tcp"),
    ("repro.transport.quic.connection:QuicConnection", "quic"),
    ("repro.leo.constellation:Constellation", "constellations"),
    ("repro.leo.fleet:FleetScheduler", "fleets"),
)


@dataclass
class Span:
    """One coarse boundary crossing."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class _Frame:
    layer: str
    start: float
    child: float = 0.0
    span: int = -1
    #: Whether this frame started ``tracemalloc`` (and stops it).
    memory: bool = False


def resolve(path: str):
    """``(owner, attr name, object)`` for a dotted hook path, or None
    when the module, class or attribute no longer exists."""
    module_name, _, dotted = path.partition(":")
    attrs = dotted.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for name in attrs[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    target = owner.__dict__.get(attrs[-1]) if isinstance(owner, type) \
        else getattr(owner, attrs[-1], None)
    if target is None:
        return None
    return owner, attrs[-1], target


@dataclass
class Tracer:
    """Spans, accumulators and per-layer self time of one traced run."""

    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    instances: dict[str, list] = field(default_factory=dict)
    peak_kb: float = 0.0
    _stack: list[_Frame] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    # -- frames ------------------------------------------------------

    def enter(self, name: str, layer: str, record: bool) -> None:
        now = self.clock()
        span = -1
        if record:
            parent = self._stack[-1].span if self._stack else -1
            span = len(self.spans)
            self.spans.append(Span(name, layer, now, parent=parent))
        memory = layer == MEMORY_LAYER and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        self._stack.append(_Frame(layer, now, span=span, memory=memory))

    def exit(self, name: str) -> None:
        now = self.clock()
        frame = self._stack.pop()
        if frame.memory:
            self.peak_kb = max(self.peak_kb,
                               tracemalloc.get_traced_memory()[1] / 1024.0)
            tracemalloc.stop()
        duration = now - frame.start
        self.self_s[frame.layer] = (self.self_s.get(frame.layer, 0.0)
                                    + duration - frame.child)
        self.counts[name] = self.counts.get(name, 0) + 1
        self.totals[name] = self.totals.get(name, 0.0) + duration
        if frame.span >= 0:
            self.spans[frame.span].end = now
        if self._stack:
            self._stack[-1].child += duration

    @contextmanager
    def root(self):
        """The root frame (layer ``harness``) around the traced body."""
        self.enter("body", HARNESS, True)
        try:
            yield self
        finally:
            self.exit("body")

    # -- hooks -------------------------------------------------------

    def _wrap(self, func, name: str, layer: str, kind: str):
        enter, exit_ = self.enter, self.exit
        record = kind != "acc"

        if kind == "unit":
            def traced(unit, *args, **kwargs):
                label = f"unit:{unit.label}"
                enter(label, layer, True)
                try:
                    return func(unit, *args, **kwargs)
                finally:
                    exit_(label)
        else:
            def traced(*args, **kwargs):
                enter(name, layer, record)
                try:
                    return func(*args, **kwargs)
                finally:
                    exit_(name)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _register(self, cls: type, registry: str) -> None:
        bucket = self.instances.setdefault(registry, [])
        hook = "__post_init__" if "__post_init__" in cls.__dict__ \
            else "__init__"
        original = cls.__dict__[hook]

        def registering(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.append(obj)

        self.patch(cls, hook, registering)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install_registries(self) -> None:
        """Start keeping instances of the counter-bearing classes
        (before set-up, so set-up's own instances are kept too)."""
        for path, registry in REGISTRIES:
            found = resolve(path)
            if found is None or not isinstance(found[2], type):
                self.missing.append(path)
                continue
            self._register(found[2], registry)

    def install(self, hooks=HOOKS) -> None:
        """Wrap every resolvable boundary; record the missing ones."""
        for path, layer, kind in hooks:
            found = resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr, target = found
            name = path.partition(":")[2]
            wrapped = self._wrap(target, name, layer, kind)
            self.patch(owner, attr, wrapped)
            if not isinstance(owner, type):
                self._rebind_aliases(target, wrapped)

    def _rebind_aliases(self, target, wrapped) -> None:
        """Point ``from module import func`` copies at the wrapper."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith(ALIAS_MODULES) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self.patch(module, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------

    def root_duration(self) -> float:
        """Duration of the root frame(s): the traced wall time."""
        roots = [s for s in self.spans if s.parent < 0]
        return sum(s.end - s.start for s in roots)

    def inclusive_s(self, prefix: str | tuple[str, ...]) -> float:
        """Total duration of outermost spans whose name starts with
        ``prefix`` (or one of several; nested matches count once)."""
        total = 0.0
        for span in self.spans:
            if not span.name.startswith(prefix):
                continue
            parent = span.parent
            nested = False
            while parent >= 0:
                if self.spans[parent].name.startswith(prefix):
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                total += span.end - span.start
        return total
