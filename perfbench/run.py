#!/usr/bin/env python3
"""Repo benchmark: figure-sweep wall time, set-up time and memory.

Run from the repository root::

    python3 perfbench/run.py --workload parsec_flood --seed 42 --seconds 55 --trace 0
    python3 perfbench/run.py --workload parsec_flood --seed 42 --seconds 55 --trace 1

``--trace 0`` repeats the workload's whole cell grid for about
``--seconds`` seconds and reports the end-to-end metrics of
``BENCHMARK.json``: the fastest pass's wall time, and median set-up
times. ``--trace 1`` runs the
grid once untraced and once with every layer boundary wrapped (see
``spans.py``) and reports the per-layer metrics. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record`` re-records ``reference.json`` (per-cell output digests and
the exact-count ledger) for the given seeds; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("parsec_flood", "sweep_jobs2")
DEFAULT_SEED = 42
#: what the workloads import; timed in this process and in fresh ones
IMPORT_STMT = (
    "import repro, repro.experiments.parallel, repro.experiments.runner, "
    "repro.experiments.scenarios"
)
#: passes a timed run makes even when they overrun ``--seconds``, so the
#: reported figures never rest on one or two passes
MIN_PASSES = 3
#: slack when checking that span self times sum to the covered time
RECONCILE_TOL_S = 1e-3


def import_probe_s() -> float:
    """``IMPORT_STMT`` timed inside a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"{IMPORT_STMT}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def max_rss_kb(who: int) -> int:
    """Peak resident set size in KiB (``RUSAGE_SELF`` or ``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss


class Bench:
    """One benchmark invocation: a workload, a seed, a scratch directory."""

    def __init__(self, workload: str, seed: int, workdir: pathlib.Path, import_s: float):
        import workloads as wl  # imports the program, so only after main() found it

        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.workdir = workdir / f"{workload}-s{seed}"
        self.import_s = import_s
        self.serial = workload != "sweep_jobs2"
        self.grid = wl.parsec_grid() if self.serial else wl.sweep_cells(seed)
        self.jobs = 1 if self.serial else wl.SWEEP_JOBS
        self.passes = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected = _reference().get(workload, {}).get(str(seed))

    # -- one pass ---------------------------------------------------------------
    def one_pass(self, tracer=None):
        """One whole grid; ``tracer`` installed means a traced pass."""
        wl = self.wl
        self.passes += 1
        # Every pass starts from a collected heap, so no pass pays for the
        # garbage of the one before it.
        gc.collect()
        if self.serial:
            return wl.run_serial_grid(self.grid, self.seed, tracer=tracer)
        workdir = self.workdir / f"pass{self.passes}"
        setup_s = wl.sweep_setup_s(self.grid) if tracer is None else 0.0
        try:
            if tracer is not None:
                from repro.experiments import parallel

                dump_dir = self.workdir / f"spans{self.passes}"
                dump_dir.mkdir(parents=True)
                tracer.frame(parallel, "_execute", str(dump_dir))
            run = wl.run_sweep(self.grid, workdir, setup_s=setup_s)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return run

    def check(self, run, name: str) -> None:
        """Count the pass's cells as operations and record each failure."""
        expected = self.expected["cells"] if self.expected else None
        outcomes = run.outcomes + run.warm_outcomes
        if expected is not None and run.warm_outcomes:
            expected = expected + expected
        for out, problem in zip(outcomes, self.wl.cell_problems(outcomes, expected)):
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.problems.append(f"{name}: {out.label}: {problem}")

    def check_ledger(self, counts: dict, name: str) -> None:
        """Flag counts that differ from the reference: the model changed."""
        if self.expected is None:
            return
        for key, value in counts.items():
            want = self.expected["ledger"].get(key)
            if want is not None and want != value:
                self.problems.append(
                    f"{name}: LEDGER {key}={value} != reference {want} "
                    "(the simulated model changed, not its speed)"
                )

    def digests(self, run) -> list[str | None]:
        return [o.digest for o in run.outcomes]

    def report_cells(self, run, counts: dict, wall_s: float) -> None:
        wl = self.wl
        digests = self.digests(run)
        combined = hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]
        source = "reference" if self.expected else "no reference for this seed"
        print(f"digests: combined={combined} ({source})")
        if self.expected is None:
            for out in run.outcomes:
                print(f"  {out.label}: {out.digest}")
        print(f"ledger: {json.dumps(counts, sort_keys=True)}")
        cycles = counts["noc.sim_cycles"]
        if cycles:
            proj = wl.full_projection_s(wall_s, cycles, len(run.outcomes))
            print(
                f"projection (not gated): full protocol, {wl.PAPER_CELL_CYCLES} "
                f"cycles per cell -> {proj:.0f} s = {proj / 3600:.2f} h for this grid"
            )

    # -- modes --------------------------------------------------------------------
    def timed(self, seconds: float) -> dict:
        """Repeat the grid for about ``seconds``; end-to-end metrics.

        ``wall_s`` is the fastest pass. On a shared 2-vCPU VM the same
        work was measured to slow by up to 2x for stretches of seconds to
        a minute, in CPU time as much as in wall time, so a run's median
        pass moves with the stretches it happens to hit. The fastest pass
        is the grid's cost with the least interference, which is what a
        code change moves. ``setup_s`` is the median of many short import
        and build timings.
        """
        wl = self.wl
        clock = time.perf_counter
        runs, imports = [], [self.import_s]
        begin = clock()
        while True:
            run = self.one_pass()
            runs.append(run)
            if len(runs) == 1:
                # Only pool workers have ended so far; the import probes
                # below are children too, and would blur the reading.
                worker_kb = 0 if self.serial else max_rss_kb(resource.RUSAGE_CHILDREN)
            # One import probe per pass: spread over the run, the probes
            # see the same machine drift the passes do.
            imports.append(import_probe_s())
            name = f"pass {len(runs)}"
            self.check(run, name)
            counts = wl.ledger(run.outcomes)
            self.check_ledger(counts, name)
            if len(runs) > 1 and counts != wl.ledger(runs[0].outcomes):
                self.problems.append(f"{name}: ledger differs from pass 1")
            if self.expected is None and len(runs) > 1:
                if self.digests(run) != self.digests(runs[0]):
                    self.problems.append(f"{name}: digests differ from pass 1")
            # Stop once a further pass, probe included, would end more than
            # half a pass past ``seconds``: the run ends within half a pass
            # of its budget, on either side.
            spent = clock() - begin
            if len(runs) >= MIN_PASSES and spent + spent / len(runs) / 2 > seconds:
                break
        # This process plus every worker at the largest worker's peak: an
        # upper bound, since forked workers share pages with the parent.
        rss_mb = (max_rss_kb(resource.RUSAGE_SELF) + self.jobs * worker_kb) / 1024.0
        walls = [r.wall_s for r in runs]
        setups = [r.setup_s for r in runs]
        print(f"samples: passes={len(runs)} import_probes={len(imports)}")
        print(f"  wall_s: {_fmt(walls)}")
        print(f"  setup_s (excluding import): {_fmt(setups)}")
        print(f"  import_s: {_fmt(imports)}")
        wall_s = min(walls)
        self.report_cells(runs[0], wl.ledger(runs[0].outcomes), wall_s)
        return {
            "wall_s": wall_s,
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }

    def traced(self) -> dict:
        """One untraced and one traced pass; per-layer metrics."""
        from spans import Tracer, merge_dumps

        wl = self.wl
        plain = self.one_pass()
        self.check(plain, "untraced pass")
        tracer = Tracer().install()
        try:
            traced = self.one_pass(tracer)
        finally:
            tracer.restore()
        self.check(traced, "traced pass")
        if self.digests(traced) != self.digests(plain):
            self.problems.append("traced pass: digests differ from the untraced pass")
        if self.serial:
            tracer.frame_s = traced.wall_s
            spans, parent = tracer.totals(), tracer.totals()
            grants = sum(o.va_grants for o in traced.outcomes)
            flips = sum(o.dpa_flips for o in traced.outcomes)
        else:
            dump_dir = self.workdir / f"spans{self.passes}"
            spans, parent = merge_dumps(str(dump_dir)), tracer.totals()
            shutil.rmtree(dump_dir)
            grants = spans["calls"].get("TeeTrace.va_grant", 0)
            flips = spans["calls"].get("TeeTrace.dpa_flip", 0)
        calls = spans["calls"]
        counts = wl.ledger(traced.outcomes)
        traced_counts = {
            "noc.flit_hops": calls.get("Network.send_flit", 0),
            "traffic.packets_injected": calls.get("Network.inject", 0),
        }
        for key, value in traced_counts.items():
            if key in counts and counts[key] != value:
                self.problems.append(f"traced pass: {key} {counts[key]} != {value} spans")
        counts.update(traced_counts)
        if wl.ledger(plain.outcomes)["noc.sim_cycles"] != counts["noc.sim_cycles"]:
            self.problems.append("traced pass: sim cycles differ from the untraced pass")
        self.check_ledger(counts, "traced pass")
        self.recorded = {"cells": self.digests(traced), "ledger": counts}
        self.reconcile(spans)
        self.report_cells(traced, counts, plain.wall_s)
        return self.layer_metrics(plain, traced, spans, parent, grants, flips, counts)

    def reconcile(self, spans: dict) -> None:
        """Self times must add up to the covered time; print the balance."""
        total_self = sum(spans["self_s"].values())
        other = spans["frame_s"] - spans["covered_s"]
        print(
            f"reconcile: frame={spans['frame_s']:.4f}s = sum(self)={total_self:.4f}s "
            f"+ other={other:.4f}s (covered={spans['covered_s']:.4f}s)"
        )
        if abs(total_self - spans["covered_s"]) > RECONCILE_TOL_S or other < -RECONCILE_TOL_S:
            self.problems.append("traced pass: span self times do not reconcile")

    def layer_metrics(self, plain, traced, spans, parent, grants, flips, counts) -> dict:
        wl = self.wl
        self_s = spans["self_s"]
        calls = spans["calls"]
        bucket_calls = spans["bucket_calls"]
        va_calls = calls.get("Router.do_va", 0)
        sa_calls = calls.get("Router.do_sa", 0)
        outcomes = plain.outcomes

        def per_call_ms(totals: dict, bucket: str) -> float:
            n = totals["bucket_calls"].get(bucket, 0)
            return 1000.0 * totals["self_s"].get(bucket, 0.0) / n if n else 0.0

        return {
            "noc.flit_hops_per_s": counts["noc.flit_hops"] / plain.compute_s,
            "noc.do_sa_self_s": self_s.get("noc.do_sa_self_s", 0.0),
            "noc.do_va_self_s": self_s.get("noc.do_va_self_s", 0.0),
            "noc.send_flit_s": self_s.get("noc.send_flit_s", 0.0),
            "noc.deliver_events_s": self_s.get("noc.deliver_events_s", 0.0),
            "noc.place_injections_s": self_s.get("noc.place_injections_s", 0.0),
            "noc.step_other_s": spans["frame_s"] - spans["covered_s"],
            "noc.do_va_calls": va_calls,
            "noc.do_sa_calls": sa_calls,
            "noc.flits_per_sa_call": (
                calls.get("Network.send_flit", 0) / sa_calls if sa_calls else 0.0
            ),
            "noc.va_grants_per_va_call": grants / va_calls if va_calls else 0.0,
            "noc.flit_hops": counts["noc.flit_hops"],
            "noc.sim_cycles": counts["noc.sim_cycles"],
            "policy.pick_s": self_s.get("policy.pick_s", 0.0),
            "policy.pick_calls": bucket_calls.get("policy.pick_s", 0),
            "policy.end_router_cycle_s": self_s.get("policy.end_router_cycle_s", 0.0),
            "policy.end_network_cycle_s": self_s.get("policy.end_network_cycle_s", 0.0),
            "policy.dpa_flips": flips,
            "routing.s": self_s.get("routing.s", 0.0),
            "routing.calls": bucket_calls.get("routing.s", 0),
            "traffic.tick_s": self_s.get("traffic.tick_s", 0.0),
            "traffic.packets_injected": counts["traffic.packets_injected"],
            "setup.import_s": self.import_s,
            "setup.build_s": self_s.get("setup.build_s", 0.0),
            "engine.compute_s": plain.compute_s,
            "engine.overhead_s": wl.engine_overhead_s(plain.wall_s, plain.compute_s, self.jobs),
            "engine.parallel_efficiency": wl.parallel_efficiency(
                plain.wall_s, plain.compute_s, self.jobs
            ),
            "engine.first_result_s": plain.first_result_s,
            "cache.get_ms": per_call_ms(parent, "cache.get_s"),
            "cache.put_ms": per_call_ms(spans, "cache.put_s"),
            "cache.entry_bytes": plain.cache_entry_bytes,
            "cache.warm_rerun_s": plain.warm_s,
            "obs.bytes": plain.obs_bytes,
            "obs.samples": sum(o.obs_samples for o in outcomes),
            "obs.events": sum(o.obs_events for o in outcomes),
            "obs.overhead_s": self_s.get("obs.overhead_s", 0.0),
            "guard.overhead_s": self_s.get("guard.overhead_s", 0.0),
            "trace.overhead_s": traced.wall_s - plain.wall_s,
        }


def _fmt(values) -> str:
    return (
        f"median={statistics.median(values):.4f} min={min(values):.4f} "
        f"max={max(values):.4f} n={len(values)}"
    )


def _reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(metrics: dict, declared: list[dict], correct: bool, attempted: int,
                failed: int) -> str:
    """The final JSON line, metrics in ``BENCHMARK.json`` order and units."""
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json"
        )
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


def record(seeds, workloads, import_s: float, workdir: pathlib.Path) -> int:
    """Re-record reference digests and ledgers from traced runs."""
    ref = _reference()
    for workload in workloads:
        for seed in seeds:
            bench = Bench(workload, seed, workdir, import_s)
            bench.expected = None
            bench.traced()
            if bench.problems:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            ref.setdefault(workload, {})[str(seed)] = bench.recorded
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"recorded {workload} seed {seed}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS, default="parsec_flood")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED",
                        help="re-record reference.json for these seeds")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        exec(IMPORT_STMT, {})
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    spec = _spec()

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            return record(args.record, WORKLOADS, import_s, workdir)
        bench = Bench(args.workload, args.seed, workdir, import_s)
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"cells={len(bench.grid)} trace={args.trace}")
        if args.trace:
            metrics = bench.traced()
            declared = spec["per_layer"]
        else:
            metrics = bench.timed(args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in bench.problems:
        print(f"FAILED {problem}")
    correct = not bench.problems
    print(result_line(metrics, declared, correct, bench.attempted, bench.failed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
