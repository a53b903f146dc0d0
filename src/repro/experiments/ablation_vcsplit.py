"""E-A2 — ablation: regional vs global VC split (paper Section VI).

The paper argues a roughly even split between regional and global VCs
supports generic traffic best: skewing towards regional VCs starves
foreign traffic's acceleration, skewing towards global VCs delays native
traffic's priority acquisition. This ablation runs the six-application
scenario with 1:3, 2:2 and 3:1 (global:regional) splits of the four VCs
per virtual network.
"""

from __future__ import annotations

from dataclasses import replace

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
from repro.noc.config import NocConfig, VcClass

__all__ = ["run", "main", "SPLITS"]

G = VcClass.GLOBAL
R = VcClass.REGIONAL

#: (label, vc_classes) — index 0 is always the escape VC of its vnet.
SPLITS = (
    ("1G:3R", (G, R, R, R)),
    ("2G:2R", (G, G, R, R)),
    ("3G:1R", (G, G, G, R)),
)


def run(
    effort: Effort = Effort.MEDIUM,
    seed: int = 42,
    splits=SPLITS,
    jobs: int = 1,
    cache=None,
    policy: FaultPolicy | None = None,
    obs=None,
    guard=None,
    topology: str = "mesh",
) -> FigureResult:
    """One row per VC split; reductions are vs RO_RR on the same config.

    Failed cells render as ``FAILED(...)`` rows instead of aborting.
    ``topology`` selects the fabric (mesh/torus/ring).
    """
    base_cfg = config_for_topology(topology) or NocConfig()
    cells = []
    for label, classes in splits:
        cfg = replace(base_cfg, vc_classes=classes)
        scenario = six_app(config=cfg)
        cells.append(Cell.for_scenario(SCHEMES["RO_RR"], scenario, effort, seed))
        cells.append(Cell.for_scenario(SCHEMES["RA_RAIR"], scenario, effort, seed))
    results, report = run_cells_detailed(
        cells, jobs=jobs, cache=cache, policy=policy, obs=obs, guard=guard
    )
    it = iter(results)
    rows = []
    for label, classes in splits:
        base_res = next(it)
        cell_res = next(it)
        failed = next((r for r in (base_res, cell_res) if not r.ok), None)
        if failed is not None:
            label_text = failed_label(failed)
            rows.append(
                {"split": label, "red_avg": label_text, "apl": label_text,
                 "drained": ""}
            )
            continue
        base, res = base_res.run, cell_res.run
        apps = sorted(base.per_app_apl)
        reds = [res.reduction_vs(base, app=app) for app in apps]
        rows.append(
            {
                "split": label,
                "red_avg": sum(reds) / len(reds),
                "apl": res.apl,
                "drained": res.drained,
            }
        )
    return FigureResult(
        metrics=report.to_metrics(),
        figure="Ablation A2",
        title="Global:regional VC split (six-app scenario, reduction vs RO_RR)",
        columns=["split", "red_avg", "apl", "drained"],
        rows=rows,
        notes=[
            f"windows: warmup={effort.warmup}, measure={effort.measure}",
            "paper (Section VI): roughly even split recommended for generic traffic",
        ],
    )


def main(argv=None) -> int:
    """CLI: python -m repro.experiments.ablation_vcsplit [--effort fast]"""
    args = effort_argparser(__doc__).parse_args(argv)
    result = run(
        effort=parse_effort(args.effort),
        seed=args.seed,
        **common_from_args(args),
    )
    return finish(result)


if __name__ == "__main__":
    raise SystemExit(main())
