"""E-F14 — Figure 14: six concurrent applications, uniform-random global
traffic.

Fig. 13 scenario: six regions, loads 10-30% of saturation for Apps 0/2/3/4
and 90% for Apps 1/5; per-app traffic 75% intra-region UR, 20% inter-region
UR, 5% corner-MC. Compared schemes: RO_RR (baseline), RO_Rank, RA_DBAR,
RA_RAIR.

Paper shape: RA_RAIR best on average (−10.1% vs RO_RR), then RO_Rank
(−5.8%), then RA_DBAR (−3.4%); RAIR's gain concentrates on the low/medium
load applications while costing the high-load apps little.
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

__all__ = ["run", "main", "FIG14_SCHEMES"]

FIG14_SCHEMES = ("RA_DBAR", "RO_Rank", "RA_RAIR")


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    schemes=FIG14_SCHEMES,
    global_pattern: str = "ur",
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """Run the six-app comparison; rows carry per-app APL reduction vs RO_RR.

    Failed cells render as ``FAILED(...)`` rows instead of aborting.
    ``topology`` selects the fabric (mesh/torus/ring).
    """
    scenario = six_app(
        global_pattern=global_pattern, config=config_for_topology(topology)
    )
    cells = [
        Cell.for_scenario(SCHEMES[key], scenario, effort, seed)
        for key in ("RO_RR",) + tuple(schemes)
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    base_res, scheme_results = results[0], results[1:]
    apps = sorted(base_res.run.per_app_apl) if base_res.ok else list(range(6))
    red_cols = [f"red_app{a}" for a in apps]
    rows = []
    for key, cell_res in zip(schemes, scheme_results):
        if not cell_res.ok:
            label = failed_label(cell_res)
        elif not base_res.ok:
            label = f"FAILED(baseline {base_res.failure.error_type})"
        else:
            base, res = base_res.run, cell_res.run
            reductions = {
                f"red_app{app}": res.reduction_vs(base, app=app) for app in apps
            }
            avg = sum(reductions.values()) / len(reductions)
            rows.append(
                {"scheme": key, **reductions, "red_avg": avg, "drained": res.drained}
            )
            continue
        rows.append(
            {
                "scheme": key,
                **{c: label for c in red_cols},
                "red_avg": label,
                "drained": "",
            }
        )
    columns = ["scheme"] + red_cols + ["red_avg", "drained"]
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Figure 14",
        title=(
            f"APL reduction vs RO_RR, six-app scenario, global pattern "
            f"{global_pattern.upper()}"
        ),
        columns=columns,
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "expected shape: RA_RAIR > RO_Rank > RA_DBAR on red_avg",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig14_sixapp [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
