"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from stats import (  # noqa: E402
    DigestMismatch,
    check_digests,
    percentile,
    quartile_spread,
    tail,
)
from tracing import HARNESS, Tracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_times_partition_the_root_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.root():
        clock.tick(1.0)                       # harness
        tracer.enter("app", "apps", True)
        clock.tick(2.0)                       # apps
        tracer.enter("engine", "netsim", True)
        clock.tick(3.0)                       # netsim
        for _ in range(4):                    # per-packet accumulator
            tracer.enter("handler", "transport", False)
            clock.tick(0.25)
            tracer.exit("handler")
        clock.tick(0.5)                       # netsim
        tracer.exit("engine")
        clock.tick(1.5)                       # apps
        tracer.exit("app")
        tracer.enter("fold", "core", True)
        clock.tick(0.75)
        tracer.exit("fold")
    assert tracer.root_duration() == pytest.approx(9.75)
    assert tracer.self_s == pytest.approx({
        HARNESS: 1.0, "apps": 3.5, "netsim": 3.5, "transport": 1.0,
        "core": 0.75})
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.root_duration())
    # Accumulators keep counts, not spans; spans keep their parent.
    assert tracer.counts["handler"] == 4
    assert [s.name for s in tracer.spans] == ["body", "app", "engine",
                                              "fold"]
    assert tracer.spans[2].parent == 1
    assert tracer.inclusive_s(("app", "engine")) == pytest.approx(8.0)


def test_missing_boundary_is_reported_not_raised():
    tracer = Tracer()
    tracer.install(hooks=(("json:no_such_function", "core", "span"),
                          ("no_such_module_xyz:f", "core", "span"),
                          ("json:JSONDecoder.no_such_method", "core",
                           "acc")))
    tracer.uninstall()
    assert len(tracer.missing) == 3


def test_install_wraps_and_uninstall_restores():
    import json as module
    original = module.dumps
    tracer = Tracer()
    tracer.install(hooks=(("json:dumps", "core", "span"),))
    assert module.dumps is not original
    with tracer.root():
        assert module.dumps([1]) == "[1]"
    tracer.uninstall()
    assert module.dumps is original
    assert tracer.counts["dumps"] == 1


class CappedModel:
    """A path model whose jitter cache is cleared when full, like the
    program's (capacity 3 here)."""

    def __init__(self):
        self._jitter_cache = {}

    def jitter(self, frame):
        if frame not in self._jitter_cache:
            if len(self._jitter_cache) >= 3:
                self._jitter_cache.clear()
            self._jitter_cache[frame] = 0.0
        return self._jitter_cache[frame]


def test_jitter_watch_counts_working_set_and_clears(monkeypatch):
    import worker
    monkeypatch.setattr(worker, "JITTER", f"{__name__}:CappedModel.jitter")
    original = CappedModel.__dict__["jitter"]
    watch = worker.JitterCacheWatch()
    tracer = Tracer()
    watch.install(tracer)
    first, second = CappedModel(), CappedModel()
    try:
        for frame in (0, 1, 1, 2, 3, 4, 0, 1):
            first.jitter(frame)
        second.jitter(9)
    finally:
        tracer.uninstall()
    assert watch.working_set() == 5
    assert watch.clears == 2
    assert tracer.missing == []
    assert CappedModel.__dict__["jitter"] is original


def test_speed_sampler_samples_while_work_runs():
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    window = sampler.window(0)
    assert window["n"] >= 3
    assert window["spent_s"] == pytest.approx(
        window["n"] * window["mean_s"])
    with pytest.raises(RuntimeError):
        sampler.window(sampler.mark())


def test_reference_seconds_scale_with_host_speed():
    nominal = speed.NOMINAL_CHUNK_S
    assert speed.reference_s(10.0, nominal) == pytest.approx(10.0)
    # A host running at half speed doubles both the measured time and
    # the chunk time: the reference time is unchanged.
    assert speed.reference_s(20.0, 2 * nominal) == pytest.approx(10.0)


def test_percentile_matches_linear_interpolation():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5
    assert percentile(range(101), 90) == 90


def test_tail_needs_ten_samples_beyond_the_percentile():
    # 20 samples: p75 leaves 5 beyond, p50 (the median) is not a tail
    # percentile -> no tail.
    assert tail(range(20))["percentile"] is None
    # 40 samples: p75 leaves 10 beyond; p90 only 4.
    forty = tail(range(40))
    assert forty["percentile"] == 75.0 and forty["n"] == 40
    # 1000 samples: p99 leaves 10 beyond; p99.9 only 1.
    assert tail(range(1000))["percentile"] == 99.0
    assert tail([])["n"] == 0


def test_quartile_spread():
    assert quartile_spread([10.0]) == 0.0
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([9.0, 10.0, 11.0, 10.0]) > 0.0


def test_digest_check_fails_on_a_perturbed_digest():
    digest = "ab" * 32
    assert check_digests({"rep 1": digest, "rep 2": digest}) == digest
    perturbed = ("cd" + digest[2:])
    with pytest.raises(DigestMismatch, match="rep 2"):
        check_digests({"rep 1": digest, "rep 2": perturbed})
    with pytest.raises(DigestMismatch):
        check_digests({})


def test_metric_names_are_legal():
    legal = re.compile(r"[A-Za-z0-9_.-]{1,64}")
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert legal.fullmatch(name), name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_no_program_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "packet_path", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_paired_epochs_mirror_inside_the_window():
    pytest.importorskip("repro")
    from workloads import paired_epochs
    down, up = paired_epochs(100.0, 500.0)
    assert 100.0 < down < up < 500.0
    assert down + up == pytest.approx(600.0)
