"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import math
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.experiments.runner import SCHEMES, ScenarioRun  # noqa: E402
from repro.experiments.scenarios import two_app_msp  # noqa: E402
from repro.noc.router import Router  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def pick():
        clock.advance(1.0)

    def send_flit():
        clock.advance(2.0)
        picked()

    def do_sa():
        clock.advance(4.0)
        sent()
        clock.advance(0.5)

    picked = tracer.timed(pick, "policy.pick_s", "Policy.sa_out_pick")
    sent = tracer.timed(send_flit, "noc.send_flit_s", "Network.send_flit")
    do_sa_traced = tracer.timed(do_sa, "noc.do_sa_self_s", "Router.do_sa")
    do_sa_traced()
    do_sa_traced()
    clock.advance(5.0)  # time outside every span
    tracer.frame_s = clock.now

    assert tracer.self_s == {
        "noc.do_sa_self_s": 9.0, "noc.send_flit_s": 4.0, "policy.pick_s": 2.0,
    }
    assert tracer.covered_s == 15.0
    assert tracer.other_s() == 5.0
    assert sum(tracer.self_s.values()) + tracer.other_s() == tracer.frame_s
    assert tracer.calls["Router.do_sa"] == 2
    assert tracer.bucket_calls["policy.pick_s"] == 2


def test_span_that_raises_is_still_accounted():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(3.0)
        raise ValueError("cell failed")

    def build():
        clock.advance(1.0)
        tracer.timed(boom, "routing.s", "Routing.rank_ports")()

    with pytest.raises(ValueError):
        tracer.timed(build, "setup.build_s", "setup")()
    assert tracer.self_s == {"routing.s": 3.0, "setup.build_s": 1.0}
    assert tracer.covered_s == 4.0


def test_install_restores_every_patch():
    original = Router.__dict__["do_sa"]
    tracer = Tracer().install()
    try:
        assert Router.__dict__["do_sa"] is not original
        assert Router.__dict__["do_sa"].__wrapped__ is original
    finally:
        tracer.restore()
    assert Router.__dict__["do_sa"] is original


def test_tracing_leaves_simulation_identical():
    grid = [
        (SCHEMES["RAIR_VA+SA"], two_app_msp(1.0).spec),
        (SCHEMES["RO_RR"], two_app_msp(0.2).spec),
    ]
    plain = wl.run_serial_grid(grid, seed=3, window=(30, 60))
    tracer = Tracer().install()
    try:
        traced = wl.run_serial_grid(grid, seed=3, window=(30, 60), tracer=tracer)
    finally:
        tracer.restore()
    assert [o.digest for o in traced.outcomes] == [o.digest for o in plain.outcomes]
    assert wl.ledger(traced.outcomes) == wl.ledger(plain.outcomes)
    assert tracer.calls["Network.send_flit"] == wl.ledger(plain.outcomes)["noc.flit_hops"]
    assert abs(sum(tracer.self_s.values()) - tracer.covered_s) < 1e-6


def test_engine_formulas():
    assert wl.engine_overhead_s(wall_s=10.0, compute_s=16.0, jobs=2) == 2.0
    assert wl.parallel_efficiency(wall_s=10.0, compute_s=16.0, jobs=2) == 0.8
    # serial: overhead is everything outside the cells, efficiency its share
    assert wl.engine_overhead_s(wall_s=5.0, compute_s=4.0, jobs=1) == 1.0
    assert wl.parallel_efficiency(wall_s=5.0, compute_s=4.0, jobs=1) == 0.8


def _run(apl0: float) -> ScenarioRun:
    return ScenarioRun(
        scheme="RO_RR", scenario="two_app_p100", window=(100, 500), drained=True,
        undrained_packets=0, apl=apl0, per_app_apl={0: apl0, 1: 31.25},
        end_cycle=612, packets_measured=900,
    )


def test_perturbed_apl_is_a_failed_operation(tmp_path):
    good = wl.CellOutcome.from_run(_run(24.5))
    bad = wl.CellOutcome.from_run(_run(math.nextafter(24.5, 25.0)))
    assert wl.cell_problems([good, bad], [good.digest, good.digest]) == [
        None, f"digest {bad.digest} != expected {good.digest}",
    ]

    bench = run.Bench("parsec_flood", 42, tmp_path, import_s=0.0)
    bench.expected = {"cells": [good.digest, good.digest], "ledger": {}}
    bench.check(wl.GridRun(1.0, 0.1, 0.5, [good, bad]), "pass 1")
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "digest" in bench.problems[0]


def test_abort_and_undrained_cells_fail_without_a_reference():
    aborted = _run(24.5)
    aborted.abort = "watchdog"
    undrained = _run(24.5)
    undrained.drained, undrained.undrained_packets = False, 3
    outcomes = [wl.CellOutcome.from_run(r) for r in (aborted, undrained, _run(24.5))]
    assert wl.cell_problems(outcomes) == ["aborted: watchdog", "undrained: 3 packets", None]


def test_ledger_mismatch_is_flagged(tmp_path):
    bench = run.Bench("parsec_flood", 42, tmp_path, import_s=0.0)
    bench.expected = {"cells": [], "ledger": {"noc.flit_hops": 10, "noc.sim_cycles": 5}}
    bench.check_ledger({"noc.flit_hops": 10, "noc.sim_cycles": 5}, "pass 1")
    assert bench.problems == []
    bench.check_ledger({"noc.flit_hops": 11, "noc.sim_cycles": 5}, "pass 2")
    assert len(bench.problems) == 1 and "LEDGER noc.flit_hops" in bench.problems[0]


def test_result_line_follows_the_declared_metrics():
    declared = [{"name": "wall_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}]
    line = run.result_line({"setup_s": 1.5, "wall_s": 2.25}, declared, True, 3, 0)
    assert line == (
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
        '{"wall_s": {"value": 2.25, "unit": "s"}, "setup_s": {"value": 1.5, "unit": "s"}}}'
    )
    with pytest.raises(RuntimeError):
        run.result_line({"wall_s": 2.25}, declared, True, 3, 0)


def test_declared_metrics_match_what_the_benchmark_computes():
    spec = run._spec()
    names = {m["name"] for m in spec["per_layer"]}
    bench = run.Bench.__new__(run.Bench)
    bench.wl, bench.import_s, bench.jobs = wl, 1.0, 1
    empty = wl.GridRun(1.0, 0.1, 0.5, [wl.CellOutcome("x", compute_s=0.5)])
    spans = {"self_s": {}, "calls": {}, "bucket_calls": {}, "frame_s": 1.0, "covered_s": 0.0}
    counts = {"noc.flit_hops": 1, "noc.sim_cycles": 1, "traffic.packets_injected": 1}
    metrics = bench.layer_metrics(empty, empty, spans, spans, 0, 0, counts)
    assert set(metrics) == names
