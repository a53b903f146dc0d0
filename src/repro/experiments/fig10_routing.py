"""E-F10 — Figure 10: RAIR with different adaptive routing algorithms.

Same two-application scenario as Fig. 9, comparing:

* ``RO_RR_Local``  — round-robin + local-adaptive (Duato) routing,
* ``RAIR_Local``   — RAIR + local-adaptive routing,
* ``RO_RR_DBAR``   — round-robin + DBAR routing,
* ``RAIR_DBAR``    — RAIR + DBAR routing.

Paper shape: RAIR_DBAR gives the lowest App0 APL (paper: −24.8% vs
RO_RR_Local at p=100%) and recovers App1's slowdown (−3.3%, i.e. App1 under
RAIR_DBAR is no worse than under RO_RR_Local); RAIR contributes more of the
gain than DBAR alone (RAIR_DBAR improves App0 by ~12.8% over RO_RR_DBAR).
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

__all__ = ["run", "main", "FIG10_SCHEMES"]

FIG10_SCHEMES = ("RO_RR_Local", "RAIR_Local", "RO_RR_DBAR", "RAIR_DBAR")
P_VALUES = (0.0, 0.5, 1.0)


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    p_values=P_VALUES,
    schemes=FIG10_SCHEMES,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """Run the Fig. 10 comparison; one row per (p, scheme).

    Failed cells render as ``FAILED(...)`` rows instead of aborting.
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
        figure="Figure 10",
        title="APL per routing algorithm (two-app scenario)",
        columns=["p_inter", "scheme", "apl_app0", "apl_app1", "drained"],
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "expected shape: RAIR_DBAR best on apl_app0; RAIR_* << RO_RR_* ; "
            "DBAR routing also helps App1",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig10_routing [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
