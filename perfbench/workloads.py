"""The benchmark's workloads: their cell grids, how each runs, and its checks.

``parsec_flood`` runs the Fig. 17 grid serially in this process, building
each cell exactly as :func:`repro.experiments.runner.run_scenario` does but
with the build and the measurement timed apart. ``sweep_jobs2`` goes through the engine the
figure CLIs use (:func:`repro.experiments.parallel.run_cells_detailed`)
with two pool workers, a fresh result cache, obs on and guard ``sample``,
then re-runs the same cells from the warm cache.

Every cell is one operation. It fails when it raises, aborts, does not
drain, or its output digest differs from the expected one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import repro
from repro.experiments import fig17_parsec
from repro.experiments.parallel import Cell, run_cells_detailed
from repro.experiments.runner import SCHEMES, Effort, ScenarioRun
from repro.experiments.scenarios import (
    four_app_dpa,
    parsec_quadrants,
    six_app,
    two_app_msp,
)
from repro.noc.guard import GuardConfig
from repro.obs import ObsConfig

from spans import GrantCounter

#: (warmup, measure) cycles per cell of the serial grid: short enough for
#: several whole grids per run, long enough that the network is busy.
SERIAL_WINDOW = (100, 400)
#: cycles per cell of the paper's protocol (10K warmup + 100K measure)
PAPER_CELL_CYCLES = 110_000
SWEEP_JOBS = 2
SWEEP_SCHEMES = ("RO_RR", "RO_Rank", "RA_RAIR", "RA_DBAR")


@dataclass
class CellOutcome:
    """What one cell produced, reduced to what the checks compare."""

    label: str
    digest: str | None = None
    #: why the cell failed on its own terms (raised / aborted / undrained)
    error: str | None = None
    #: host seconds inside ``Simulator.run_measurement``
    compute_s: float = 0.0
    end_cycle: int = 0
    #: exact counts, known for cells simulated in this process
    flit_hops: int | None = None
    packets_injected: int | None = None
    va_grants: int = 0
    dpa_flips: int = 0
    obs_samples: int = 0
    obs_events: int = 0

    @classmethod
    def from_run(cls, run: ScenarioRun, **counts) -> "CellOutcome":
        error = None
        if run.abort is not None:
            error = f"aborted: {run.abort}"
        elif not run.drained:
            error = f"undrained: {run.undrained_packets} packets"
        metrics = run.metrics
        return cls(
            label=f"{run.scheme}/{run.scenario}",
            digest=run_digest(run),
            error=error,
            compute_s=metrics.wall_time_s if metrics else 0.0,
            end_cycle=run.end_cycle,
            obs_samples=metrics.obs_samples if metrics else 0,
            obs_events=metrics.obs_events if metrics else 0,
            **counts,
        )


def run_digest(run: ScenarioRun) -> str:
    """Digest of a cell's output: per-app APL, packets measured, end cycle."""
    payload = [
        run.scheme,
        run.scenario,
        [[app, repr(apl)] for app, apl in sorted(run.per_app_apl.items())],
        run.packets_measured,
        run.end_cycle,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def cell_problems(outcomes, expected=None) -> list[str | None]:
    """Per cell, why it counts as failed (``None`` when it passed).

    ``expected`` is the list of reference digests for these cells, or
    ``None`` when there is no reference to hold them to.
    """
    problems = []
    for i, out in enumerate(outcomes):
        if out.error is not None:
            problems.append(out.error)
        elif expected is not None and out.digest != expected[i]:
            problems.append(f"digest {out.digest} != expected {expected[i]}")
        else:
            problems.append(None)
    return problems


def ledger(outcomes) -> dict:
    """Exact-count ledger; a speed-only change never moves these."""
    out = {"noc.sim_cycles": sum(o.end_cycle for o in outcomes)}
    if all(o.flit_hops is not None for o in outcomes):
        out["noc.flit_hops"] = sum(o.flit_hops for o in outcomes)
        out["traffic.packets_injected"] = sum(o.packets_injected for o in outcomes)
    return out


def engine_overhead_s(wall_s: float, compute_s: float, jobs: int) -> float:
    """Wall time not explained by cell compute spread over ``jobs`` workers."""
    return wall_s - compute_s / jobs


def parallel_efficiency(wall_s: float, compute_s: float, jobs: int) -> float:
    """Share of the ``jobs`` workers' wall time spent computing cells."""
    return compute_s / (jobs * wall_s)


def full_projection_s(wall_s: float, sim_cycles: int, cells: int) -> float:
    """Wall seconds the grid would take at the paper's 10K+100K windows."""
    return wall_s / sim_cycles * PAPER_CELL_CYCLES * cells


# -- serial grid -------------------------------------------------------------------


def parsec_grid() -> list:
    """Fig. 17: PARSEC quadrants clean and flooded, times the four schemes."""
    clean = parsec_quadrants(adversarial=False)
    attacked = parsec_quadrants(adversarial=True)
    return [
        (SCHEMES[key], scenario.spec)
        for key in fig17_parsec.FIG17_SCHEMES
        for scenario in (clean, attacked)
    ]


@dataclass
class GridRun:
    """One pass over a workload's cells."""

    wall_s: float
    #: host seconds before the first simulated cycle, import excluded: the
    #: per-cell builds, plus the worker-pool start for the sweep
    setup_s: float
    first_result_s: float
    outcomes: list[CellOutcome]
    #: sweep only: the warm-cache re-run and what the cold run left behind
    warm_s: float = 0.0
    warm_outcomes: list[CellOutcome] = field(default_factory=list)
    cache_entry_bytes: float = 0.0
    obs_bytes: int = 0

    @property
    def compute_s(self) -> float:
        return sum(o.compute_s for o in self.outcomes)


def build_cell(scheme, spec, seed: int, trace=None):
    """What ``run_scenario`` does before the first cycle: ``(scenario, sim, net)``."""
    scenario = spec.build()
    sim, net = repro.build_simulation(
        scenario.config,
        region_map=scenario.region_map,
        scheme=scheme.policy,
        routing=scheme.routing,
        policy_kwargs=dict(scheme.policy_kwargs),
        trace=trace,
    )
    for source in scenario.traffic_factory(seed):
        sim.add_traffic(source)
    return scenario, sim, net


def run_serial_grid(grid, seed: int, window=SERIAL_WINDOW, tracer=None) -> GridRun:
    """Run every cell in this process; ``tracer`` spans the build of each."""
    warmup, measure = window
    build = build_cell if tracer is None else tracer.timed(build_cell, "setup.build_s", "setup")
    clock = time.perf_counter
    outcomes = []
    build_s = 0.0
    first = None
    start = clock()
    for scheme, spec in grid:
        t0 = clock()
        try:
            counter = GrantCounter() if tracer is not None else None
            scenario, sim, net = build(scheme, spec, seed, counter)
            build_s += clock() - t0
            res = sim.run_measurement(warmup=warmup, measure=measure)
            stats = net.stats
            run = ScenarioRun(
                scheme=scheme.key,
                scenario=scenario.name,
                window=res.window,
                drained=res.drained,
                undrained_packets=res.undrained_packets,
                apl=stats.apl(window=res.window),
                per_app_apl=stats.per_app_apl(window=res.window),
                end_cycle=res.end_cycle,
                packets_measured=stats.packet_count(window=res.window),
                abort=res.abort,
                metrics=res.metrics,
            )
            outcomes.append(CellOutcome.from_run(
                run,
                flit_hops=net.flits_moved,
                packets_injected=net.packets_ejected + net.packets_in_flight,
                va_grants=counter.grants if counter else 0,
                dpa_flips=counter.flips if counter else 0,
            ))
        except Exception as exc:  # a failed cell is a counted failure, not a crash
            outcomes.append(CellOutcome(
                label=f"{scheme.key}/{spec.builder}",
                error=f"raised {type(exc).__name__}: {exc}",
            ))
        if first is None:
            first = clock() - start
    return GridRun(clock() - start, build_s, first, outcomes)


# -- the engine sweep ----------------------------------------------------------------


def sweep_cells(seed: int) -> list:
    """Short cells from the families the serial grid skips, one seed.

    The slowest family (six applications) goes first, so the two workers
    do not finish on a long tail cell each.
    """
    families = (six_app("ur"), four_app_dpa("a"), four_app_dpa("b"), two_app_msp(1.0))
    return [
        Cell.for_scenario(SCHEMES[key], scenario, Effort.SMOKE, seed)
        for scenario in families
        for key in SWEEP_SCHEMES
    ]


def sweep_setup_s(cells) -> float:
    """What the sweep pays before its first cycle: cell builds plus pool start.

    The workers build each cell out of sight, so the same builds are timed
    here in the parent; the pool start is timed by starting a pool of the
    sweep's size and round-tripping one call per worker.
    """
    clock = time.perf_counter
    t0 = clock()
    for cell in cells:
        build_cell(cell.scheme, cell.spec, cell.seed)
    with ProcessPoolExecutor(max_workers=SWEEP_JOBS) as pool:
        for fut in [pool.submit(os.getpid) for _ in range(SWEEP_JOBS)]:
            fut.result()
    return clock() - t0


def _sweep_outcomes(results) -> list[CellOutcome]:
    out = []
    for res in results:
        if res.ok:
            out.append(CellOutcome.from_run(res.run))
        else:
            out.append(CellOutcome(
                label=res.cell.describe(), error=f"failed: {res.failure.summary()}"
            ))
    return out


def _dir_bytes(root: pathlib.Path, pattern: str) -> list[int]:
    return [p.stat().st_size for p in root.glob(pattern) if p.is_file()]


def run_sweep(cells, workdir: pathlib.Path, setup_s: float = 0.0) -> GridRun:
    """Cold sweep into a fresh cache, then the warm re-run of the same cells.

    The warm re-run's cells are extra outcomes: each must come back from
    the cache with the cold run's digest.
    """
    clock = time.perf_counter
    cache_dir = workdir / "cache"
    obs = ObsConfig(dir=str(workdir / "obs"))
    guard = GuardConfig(mode="sample", dir=str(workdir / "guard"))
    first = []

    def on_result(_res) -> None:
        if not first:
            first.append(clock() - start)

    start = clock()
    cold, _ = run_cells_detailed(
        cells, jobs=SWEEP_JOBS, cache=str(cache_dir), obs=obs, guard=guard,
        on_result=on_result,
    )
    cold_s = clock() - start
    t1 = clock()
    warm, _ = run_cells_detailed(
        cells, jobs=SWEEP_JOBS, cache=str(cache_dir), obs=obs, guard=guard
    )
    warm_s = clock() - t1
    outcomes = _sweep_outcomes(cold)
    warm_outcomes = _sweep_outcomes(warm)
    for res, cold_out, warm_out in zip(warm, outcomes, warm_outcomes):
        if warm_out.error is None and not res.cache_hit:
            warm_out.error = "warm re-run missed the cache"
        elif warm_out.error is None and warm_out.digest != cold_out.digest:
            warm_out.error = f"warm digest {warm_out.digest} != cold {cold_out.digest}"
    entries = _dir_bytes(cache_dir, "??/*.json")
    return GridRun(
        wall_s=cold_s + warm_s,
        setup_s=setup_s,
        first_result_s=first[0] if first else cold_s,
        outcomes=outcomes,
        warm_s=warm_s,
        warm_outcomes=warm_outcomes,
        cache_entry_bytes=sum(entries) / len(entries) if entries else 0.0,
        obs_bytes=sum(_dir_bytes(workdir / "obs", "*")),
    )
