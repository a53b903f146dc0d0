"""Report helpers: effort parsing, fault-policy flags, and the small
formatting/exit utilities shared by the figure CLIs.

Graceful degradation contract (every figure CLI follows it): a cell that
fails after retries renders as a ``FAILED(<ErrorType>)`` table entry, the
partial table still prints, and the process exits with
:data:`EXIT_CELL_FAILURE` (3) — distinct from argparse's 2 and from a
crash's traceback — so calling scripts can tell "the figure is partially
missing" apart from "the tool is broken".
"""

from __future__ import annotations

import argparse
import os

from repro.experiments.parallel import CellResult, FaultPolicy
from repro.experiments.runner import Effort
from repro.noc.topology import TOPOLOGY_KINDS

__all__ = [
    "EXIT_CELL_FAILURE",
    "pct",
    "add_common_args",
    "common_from_args",
    "effort_argparser",
    "parse_effort",
    "policy_from_args",
    "obs_from_args",
    "guard_from_args",
    "config_for_topology",
    "failed_label",
    "finish",
    "write_text_atomic",
]

#: process exit code when one or more cells failed but the (partial)
#: figure was still rendered
EXIT_CELL_FAILURE = 3


def pct(x: float) -> str:
    """Format a fraction as a signed percentage ('-12.8%' = 12.8% reduction)."""
    return f"{x * 100:+.1f}%"


def parse_effort(name: str) -> Effort:
    """Map a CLI string to an :class:`Effort`."""
    try:
        return Effort[name.upper()]
    except KeyError:
        raise SystemExit(
            f"unknown effort {name!r}; choose from "
            f"{[e.name.lower() for e in Effort]}"
        ) from None


def add_common_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Install the flag block shared by every figure CLI and ``run_all``.

    One definition for ``--effort/--seed/--jobs/--cache/--max-attempts/
    --timeout/--cycle-budget/--obs/--obs-sample-period/--topology/--guard/
    --version`` — the nine figure CLIs, ``run_all``, and the
    sweep/steady-state tools all hang off this helper, so a new
    execution-policy flag lands everywhere by being added here once.
    Consume the parsed namespace with :func:`common_from_args`.
    """
    from repro._version import version_blurb

    parser.add_argument(
        "--effort",
        default="medium",
        help="window scale: smoke, fast, medium (default), full (paper-size)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent cells (default 1 = serial; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory; already-computed cells are reused and "
        "interrupted sweeps resume from their journal",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempts per cell for transient failures (default 3)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell, enforced by killing wedged "
        "workers (jobs>1 only)",
    )
    parser.add_argument(
        "--cycle-budget",
        type=int,
        default=None,
        metavar="CYCLES",
        help="cooperative simulated-cycle budget per cell (works at any "
        "job count; a budget-hit drain reports abort=deadline)",
    )
    parser.add_argument(
        "--obs",
        default=None,
        metavar="DIR",
        help="record observability streams (per-class latency percentiles, "
        "DPA timelines, link utilization) as one JSONL file per cell in "
        "DIR; inspect with 'python -m repro.obs.report'",
    )
    parser.add_argument(
        "--topology",
        default="mesh",
        choices=TOPOLOGY_KINDS,
        help="fabric to run on: mesh (default, the paper's 8x8), torus, or "
        "ring; wrap fabrics get dateline escape VCs sized automatically",
    )
    parser.add_argument(
        "--obs-sample-period",
        type=int,
        default=64,
        metavar="CYCLES",
        help="cycles between observability samples (default 64; "
        "requires --obs)",
    )
    parser.add_argument(
        "--guard",
        default="off",
        choices=("off", "sample", "strict"),
        help="runtime invariant guard: 'sample' checks conservation "
        "invariants periodically, 'strict' checks often with a deeper "
        "crash blackbox; either classifies stalls as "
        "deadlock/livelock/starvation with forensics (default off — "
        "zero overhead, bit-identical results either way)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=version_blurb(),
        help="print repro version and git revision, then exit",
    )
    return parser


def effort_argparser(description: str) -> argparse.ArgumentParser:
    """Argument parser shared by every figure CLI."""
    return add_common_args(argparse.ArgumentParser(description=description))


def policy_from_args(args: argparse.Namespace) -> FaultPolicy:
    """Build the :class:`FaultPolicy` the shared CLI flags describe."""
    return FaultPolicy(
        max_attempts=getattr(args, "max_attempts", 3),
        wall_timeout_s=getattr(args, "timeout", None),
        cycle_budget=getattr(args, "cycle_budget", None),
    )


def obs_from_args(args: argparse.Namespace):
    """Build the :class:`repro.obs.ObsConfig` the shared CLI flags describe.

    Returns ``None`` when ``--obs`` was not given (the overhead-free
    default). Imported lazily so CLIs without the flag never load the
    obs package.
    """
    obs_dir = getattr(args, "obs", None)
    if obs_dir is None:
        return None
    from repro.obs.collector import ObsConfig

    return ObsConfig(dir=obs_dir, sample_period=getattr(args, "obs_sample_period", 64))


def guard_from_args(args: argparse.Namespace):
    """Build the :class:`repro.noc.guard.GuardConfig` ``--guard`` describes.

    Returns ``None`` when the guard is off (the overhead-free default).
    Blackboxes land next to the obs streams when ``--obs`` was given,
    otherwise they stay in memory on the raised error. Imported lazily,
    mirroring :func:`obs_from_args`.
    """
    mode = getattr(args, "guard", "off")
    if mode in (None, "off"):
        return None
    from repro.noc.guard import GuardConfig

    return GuardConfig(mode=mode, dir=getattr(args, "obs", None))


def common_from_args(args: argparse.Namespace) -> dict:
    """The shared run() keyword arguments described by the common flags.

    Every figure CLI's ``main`` is now the one-liner
    ``run(effort=parse_effort(args.effort), seed=args.seed,
    **common_from_args(args))`` — the execution-policy plumbing (jobs,
    cache, fault policy, obs, guard, topology) is assembled here so the
    nine CLIs cannot drift apart.
    """
    return {
        "jobs": getattr(args, "jobs", 1),
        "cache": getattr(args, "cache", None),
        "policy": policy_from_args(args),
        "obs": obs_from_args(args),
        "guard": guard_from_args(args),
        "topology": getattr(args, "topology", "mesh"),
    }


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash or kill mid-write leaves either the previous file or the new
    one, never a truncated hybrid — the same contract the obs exporters
    give their JSONL streams. ``path`` is a ``str`` or ``Path``.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def config_for_topology(topology: str | None, **kwargs):
    """The :class:`~repro.noc.config.NocConfig` a ``--topology`` choice needs.

    Returns ``None`` for the default mesh so scenario builders keep using
    their stock configs — mesh runs stay bit-identical to the pre-topology
    CLIs (same cache keys, same goldens). Non-mesh fabrics get a config
    from :meth:`NocConfig.for_topology` with ``kwargs`` forwarded (e.g.
    ``num_vnets=2`` for the PARSEC scenario).
    """
    if topology in (None, "mesh"):
        return None
    from repro.noc.config import NocConfig

    return NocConfig.for_topology(topology, **kwargs)


def failed_label(result: CellResult) -> str:
    """Table-cell rendering of a failed cell: ``FAILED(ErrorType)``."""
    assert result.failure is not None
    return f"FAILED({result.failure.error_type})"


def finish(result, report=None) -> int:
    """Print a figure result and return the CLI exit code.

    ``result`` is a :class:`~repro.experiments.runner.FigureResult`;
    ``report`` the :class:`~repro.experiments.parallel.ExecutionReport`
    that produced it (optional — ``result.metrics['failures']`` is used
    when absent). Failed cells have already been rendered into the rows
    by the caller; this decides the exit code and prints the failure
    summary lines so they cannot be missed below a long table.
    """
    print(result.format_table())
    failures = (
        report.failures if report is not None else result.metrics.get("failures", 0)
    )
    if failures:
        print(
            f"WARNING: {failures} cell(s) failed after retries; "
            "table above is partial (FAILED entries)."
        )
        return EXIT_CELL_FAILURE
    return 0
