"""E-F12 — Figure 12: impact of dynamic priority adaptation.

Two contrasting four-application scenarios (Fig. 11):

* (a) three low-load apps send 30% of their traffic into the high-load
  app's region — static *foreign-high* priority should win;
* (b) the high-load app sends 30% of its traffic into the low-load apps'
  regions — static *native-high* priority should win.

Compared schemes: RO_RR, RAIR_NativeH, RAIR_ForeignH, RAIR_DPA. The paper
reports APL *reduction vs RO_RR* per application; DPA should match (or
slightly beat) the better static variant in each scenario (paper:
−12.8% / −12.2% average).
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
from repro.experiments.scenarios import four_app_dpa

__all__ = ["run", "main", "FIG12_SCHEMES"]

FIG12_SCHEMES = ("RAIR_NativeH", "RAIR_ForeignH", "RAIR_DPA")


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    variants=("a", "b"),
    schemes=FIG12_SCHEMES,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """Run both Fig. 12 scenarios; rows carry per-app reduction vs RO_RR.

    A failed cell renders as ``FAILED(...)``; a failed *baseline* marks
    every dependent reduction row ``FAILED(baseline ...)``.
    ``topology`` selects the fabric (mesh/torus/ring).
    """
    config = config_for_topology(topology)
    cells = [
        Cell.for_scenario(
            SCHEMES[key], four_app_dpa(variant, config=config), effort, seed
        )
        for variant in variants
        for key in ("RO_RR",) + tuple(schemes)
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    it = iter(results)
    rows = []
    red_cols = [f"red_app{i}" for i in range(4)]
    for variant in variants:
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
                reductions = {
                    f"red_app{app}": res.reduction_vs(base, app=app) for app in apps
                }
                avg = sum(reductions.values()) / len(reductions)
                rows.append(
                    {
                        "scenario": variant,
                        "scheme": key,
                        **reductions,
                        "red_avg": avg,
                        "drained": res.drained,
                    }
                )
                continue
            rows.append(
                {
                    "scenario": variant,
                    "scheme": key,
                    **{c: label for c in red_cols},
                    "red_avg": label,
                    "drained": "",
                }
            )
    columns = ["scenario", "scheme"] + [f"red_app{i}" for i in range(4)] + [
        "red_avg",
        "drained",
    ]
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Figure 12",
        title="APL reduction vs RO_RR (positive = better) per app",
        columns=columns,
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "expected shape: ForeignH wins (a), NativeH wins (b), DPA ~ best "
            "of both in each scenario",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig12_dpa [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
