"""E-F15 — Figure 15: APL reduction under different global traffic patterns.

The Fig. 13 six-app scenario with its 20% inter-region component drawn
from each of the paper's synthetic patterns: uniform random (UR),
transpose (TP), bit complement (BC), hotspot (HS). Reported value is the
average APL reduction vs RO_RR per scheme and pattern.

Paper shape: RA_RAIR reduces APL across *all* patterns (average −13.4%),
demonstrating that RAIR places no implicit restriction on the global
traffic pattern; the baseline orderings of Fig. 14 persist per pattern.
"""

from __future__ import annotations

from repro.experiments.parallel import Cell, FaultPolicy, run_cells_detailed
from repro.experiments.report import (
    common_from_args,
    config_for_topology,
    effort_argparser,
    failed_label,
    finish,
    parse_effort,
)
from repro.experiments.runner import SCHEMES, Effort, FigureResult
from repro.experiments.scenarios import six_app

__all__ = ["run", "main", "PATTERNS"]

PATTERNS = ("ur", "tp", "bc", "hs")
FIG15_SCHEMES = ("RA_DBAR", "RO_Rank", "RA_RAIR")


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    patterns=PATTERNS,
    schemes=FIG15_SCHEMES,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """One row per (pattern, scheme) with the average APL reduction vs RO_RR.

    Failed cells render as ``FAILED(...)`` rows instead of aborting.
    ``topology`` selects the fabric (mesh/torus/ring); patterns a fabric
    cannot express (e.g. transpose on a ring) render as FAILED rows.
    """
    config = config_for_topology(topology)
    cells = [
        Cell.for_scenario(
            SCHEMES[key],
            six_app(global_pattern=pattern, config=config),
            effort,
            seed,
        )
        for pattern in patterns
        for key in ("RO_RR",) + tuple(schemes)
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    it = iter(results)
    rows = []
    for pattern in patterns:
        base_res = next(it)
        for key in schemes:
            cell_res = next(it)
            if not cell_res.ok:
                label = failed_label(cell_res)
            elif not base_res.ok:
                label = f"FAILED(baseline {base_res.failure.error_type})"
            else:
                base, res = base_res.run, cell_res.run
                apps = sorted(base.per_app_apl)
                reds = [res.reduction_vs(base, app=app) for app in apps]
                rows.append(
                    {
                        "pattern": pattern.upper(),
                        "scheme": key,
                        "red_avg": sum(reds) / len(reds),
                        "drained": res.drained,
                    }
                )
                continue
            rows.append(
                {
                    "pattern": pattern.upper(),
                    "scheme": key,
                    "red_avg": label,
                    "drained": "",
                }
            )
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Figure 15",
        title="Average APL reduction vs RO_RR per global traffic pattern",
        columns=["pattern", "scheme", "red_avg", "drained"],
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "expected shape: RA_RAIR positive for every pattern and best "
            "on average",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig15_patterns [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
