"""E-A1 — ablation: DPA hysteresis width (paper Section IV.C).

The paper observes that hysteresis deltas between 0.1 and 0.3 "typically
render better performance with the best case achieved at around 0.2".
This ablation sweeps delta over the six-application scenario and reports
the average APL reduction vs RO_RR; delta=0 (no hysteresis) is included to
show the cost of reacting to every transient VC-occupancy flip.
"""

from __future__ import annotations

from repro.core.dpa import DpaConfig
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

__all__ = ["run", "main", "DELTAS"]

DELTAS = (0.0, 0.1, 0.2, 0.3, 0.4)


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    deltas=DELTAS,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """One row per hysteresis delta (failed cells render as FAILED rows)."""
    scenario = six_app(config=config_for_topology(topology))
    cells = [Cell.for_scenario(SCHEMES["RO_RR"], scenario, effort, seed)] + [
        Cell.for_scenario(
            SCHEMES["RA_RAIR"],
            scenario,
            effort,
            seed,
            policy_overrides={"dpa": DpaConfig(delta=delta)},
        )
        for delta in deltas
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    base_res, delta_results = results[0], results[1:]
    rows = []
    for delta, cell_res in zip(deltas, delta_results):
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
                    "delta": delta,
                    "red_avg": sum(reds) / len(reds),
                    "apl": res.apl,
                    "drained": res.drained,
                }
            )
            continue
        rows.append({"delta": delta, "red_avg": label, "apl": label, "drained": ""})
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Ablation A1",
        title="DPA hysteresis delta sweep (six-app scenario, reduction vs RO_RR)",
        columns=["delta", "red_avg", "apl", "drained"],
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "paper: delta in 0.1-0.3 best, ~0.2 optimal",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.ablation_hysteresis [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
