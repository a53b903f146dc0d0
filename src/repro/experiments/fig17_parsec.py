"""E-F17 — Figure 17: protecting applications from adversarial traffic.

Four PARSEC-like applications run in quadrants (Fig. 16). For each scheme
the scenario runs twice — without and with a uniform chip-wide adversarial
flood at 0.4 flits/cycle/node — and the reported value is each
application's APL *slowdown* (APL_with / APL_without).

Paper shape (average slowdowns): RO_RR 1.92 > RA_DBAR 1.75 > RO_Rank 1.47
> RA_RAIR 1.18. RAIR wins because the flood is foreign traffic to every
region, so DPA demotes it everywhere; STC ranks it last but batching still
lets its older packets through; round-robin treats it as a peer.
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
from repro.experiments.scenarios import PARSEC_APP_ORDER, parsec_quadrants

__all__ = ["run", "main", "FIG17_SCHEMES"]

FIG17_SCHEMES = ("RO_RR", "RA_DBAR", "RO_Rank", "RA_RAIR")


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    schemes=FIG17_SCHEMES,
    adversarial_rate: float | None = None,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """One row per scheme with per-app and average slowdowns.

    ``adversarial_rate=None`` uses the calibrated equivalent of the
    paper's 0.4 flits/cycle/node (same fraction of saturation; see
    ``scenarios.ADVERSARIAL_PRESSURE``). A slowdown needs both the clean
    and the attacked run; if either cell failed, the scheme's row renders
    as ``FAILED(...)`` and the other rows still print. ``topology``
    selects the fabric (mesh/torus/ring).
    """
    config = config_for_topology(topology, num_vnets=2)
    clean = parsec_quadrants(adversarial=False, config=config)
    attacked = parsec_quadrants(
        adversarial=True, adversarial_rate=adversarial_rate, config=config
    )
    adversarial_rate = attacked.meta["adversarial_rate"]
    cells = [
        Cell.for_scenario(SCHEMES[key], scenario, effort, seed)
        for key in schemes
        for scenario in (clean, attacked)
    ]
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    it = iter(results)
    slow_cols = [f"slow_{name[:6]}" for name in PARSEC_APP_ORDER]
    rows = []
    for key in schemes:
        base_res = next(it)
        adv_res = next(it)
        failed = next((r for r in (base_res, adv_res) if not r.ok), None)
        if failed is not None:
            label = failed_label(failed)
            rows.append(
                {
                    "scheme": key,
                    **{c: label for c in slow_cols},
                    "slow_avg": label,
                    "drained": "",
                }
            )
            continue
        base, adv = base_res.run, adv_res.run
        slowdowns = {}
        for app, name in enumerate(PARSEC_APP_ORDER):
            b = base.per_app_apl.get(app)
            a = adv.per_app_apl.get(app)
            slowdowns[f"slow_{name[:6]}"] = (
                a / b if (a and b) else float("nan")
            )
        avg = sum(slowdowns.values()) / len(slowdowns)
        rows.append(
            {
                "scheme": key,
                **slowdowns,
                "slow_avg": avg,
                "drained": base.drained and adv.drained,
            }
        )
    columns = ["scheme"] + slow_cols + ["slow_avg", "drained"]
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Figure 17",
        title=(
            f"APL slowdown under {adversarial_rate:g} flits/cycle/node "
            "adversarial flood (PARSEC-like apps)"
        ),
        columns=columns,
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "expected shape: slow_avg RO_RR > RA_DBAR > RO_Rank > RA_RAIR",
            "PARSEC traces are synthesized (DESIGN.md substitution #2)",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.fig17_parsec [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
