"""E-F9 — Figure 9: impact of multi-stage prioritization.

Two applications (Fig. 8 layout); the inter-region share ``p`` of the
low-load application is swept from 0% to 100%. Compared schemes:

* ``RO_RR`` — region-oblivious round-robin,
* ``RAIR_VA`` — MSP rules at the VA stage only,
* ``RAIR_VA+SA`` — full MSP (VA and SA stages).

Paper shape to reproduce: all APLs grow with ``p``; RAIR variants cut
App0's APL sharply (paper: −18.9% at p=100% for VA+SA) at almost no cost
to App1 (<+3%); VA+SA beats VA across the sweep.
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
from repro.experiments.scenarios import two_app_msp

__all__ = ["run", "main", "P_VALUES", "FIG9_SCHEMES"]

P_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG9_SCHEMES = ("RO_RR", "RAIR_VA", "RAIR_VA+SA")


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    p_values=P_VALUES,
    schemes=FIG9_SCHEMES,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """Run the Fig. 9 sweep; one row per (p, scheme).

    A cell that fails after retries renders as a ``FAILED(...)`` row
    instead of aborting the sweep (``metrics["failures"]`` counts them).
    ``topology`` selects the fabric (mesh/torus/ring).
    """
    config = config_for_topology(topology)
    cells = [
        Cell.for_scenario(SCHEMES[key], two_app_msp(p, config=config), effort, seed)
        for p in p_values
        for key in schemes
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    it = iter(results)
    rows = []
    for p in p_values:
        for key in schemes:
            cell_res = next(it)
            if cell_res.ok:
                res = cell_res.run
                rows.append(
                    {
                        "p_inter": f"{p:.0%}",
                        "scheme": key,
                        "apl_app0": res.per_app_apl.get(0, float("nan")),
                        "apl_app1": res.per_app_apl.get(1, float("nan")),
                        "drained": res.drained,
                    }
                )
            else:
                label = failed_label(cell_res)
                rows.append(
                    {
                        "p_inter": f"{p:.0%}",
                        "scheme": key,
                        "apl_app0": label,
                        "apl_app1": label,
                        "drained": "",
                    }
                )
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Figure 9",
        title="APL of App0 (low, p% inter-region) and App1 (high, intra) per scheme",
        columns=["p_inter", "scheme", "apl_app0", "apl_app1", "drained"],
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure} "
            f"(paper: 10000/100000)",
            "expected shape: RAIR_VA+SA < RAIR_VA < RO_RR on apl_app0; "
            "apl_app1 penalty small",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig09_msp [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
