"""E-A3 — ablation: RAIR across deadlock-free routing algorithms.

Section IV.D claims RAIR composes with "virtually any deadlock avoidance
or recovery routing algorithm"; the paper demonstrates two (local-adaptive
and DBAR, Fig. 10). This ablation extends the demonstration to the full
routing zoo in :mod:`repro.routing` — deterministic XY, the two turn
models (West-First, Odd-Even), Duato local-adaptive, and DBAR — on the
two-application scenario at p=100% inter-region, reporting RAIR's App0
gain and App1 cost over RO_RR *under the same routing*.
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
from repro.experiments.runner import Effort, FigureResult, Scheme
from repro.experiments.scenarios import two_app_msp

__all__ = ["run", "main", "ROUTINGS"]

ROUTINGS = ("xy", "west_first", "odd_even", "local", "dbar")


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    routings=ROUTINGS,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """One row per routing algorithm; reductions are RAIR vs RO_RR.

    Failed cells render as ``FAILED(...)`` rows instead of aborting;
    in particular the turn models (west_first, odd_even) are mesh-only
    and render as ``FAILED(ConfigError)`` on torus/ring fabrics.
    """
    scenario = two_app_msp(1.0, config=config_for_topology(topology))
    cells = [
        Cell.for_scenario(Scheme(f"{prefix}_{routing}", policy_name, routing),
                          scenario, effort, seed)
        for routing in routings
        for prefix, policy_name in (("RO_RR", "rr"), ("RAIR", "rair"))
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    it = iter(results)
    value_cols = ("apl_app0_rr", "apl_app0_rair", "red_app0", "red_app1")
    rows = []
    for routing in routings:
        base_res = next(it)
        rair_res = next(it)
        failed = next((r for r in (base_res, rair_res) if not r.ok), None)
        if failed is not None:
            label = failed_label(failed)
            rows.append(
                {"routing": routing, **{c: label for c in value_cols},
                 "drained": ""}
            )
            continue
        base, rair = base_res.run, rair_res.run
        rows.append(
            {
                "routing": routing,
                "apl_app0_rr": base.per_app_apl[0],
                "apl_app0_rair": rair.per_app_apl[0],
                "red_app0": rair.reduction_vs(base, app=0),
                "red_app1": rair.reduction_vs(base, app=1),
                "drained": base.drained and rair.drained,
            }
        )
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Ablation A3",
        title="RAIR gain under different deadlock-free routing algorithms "
        "(two-app scenario, p=100%)",
        columns=[
            "routing",
            "apl_app0_rr",
            "apl_app0_rair",
            "red_app0",
            "red_app1",
            "drained",
        ],
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "expected shape: red_app0 positive for every routing (Section "
            "IV.D routing-independence claim)",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.ablation_routing [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
