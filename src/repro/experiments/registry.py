"""Experiment registry: id -> runner."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.common.errors import ConfigurationError
from repro.experiments import (
    cluster_faults,
    cluster_rebalance,
    cluster_scaling,
    cluster_serve,
    fig1_hrc,
    fig2_solver,
    fig3_cliff,
    fig4_talus,
    fig6_cliffhanger,
    fig7_savings,
    fig8_timeline,
    fig9_convergence,
    sensitivity,
    serve_chaos,
    table1_slab_misses,
    table2_lsm,
    table3_cross_app,
    table4_combined,
    table5_eviction,
    table6_latency,
    table7_throughput,
)
from repro.experiments.common import ExperimentResult

Runner = Callable[..., ExperimentResult]

REGISTRY: Dict[str, Runner] = {
    "fig1": fig1_hrc.run,
    "fig2": fig2_solver.run,
    "fig3": fig3_cliff.run,
    "fig4": fig4_talus.run,
    "fig6": fig6_cliffhanger.run,
    "fig7": fig7_savings.run,
    "fig8": fig8_timeline.run,
    "fig9": fig9_convergence.run,
    "tab1": table1_slab_misses.run,
    "tab2": table2_lsm.run,
    "tab3": table3_cross_app.run,
    "tab4": table4_combined.run,
    "tab5": table5_eviction.run,
    "tab6": table6_latency.run,
    "tab7": table7_throughput.run,
    "sensitivity": sensitivity.run,
    "cluster_scaling": cluster_scaling.run,
    "cluster_rebalance": cluster_rebalance.run,
    "cluster_faults": cluster_faults.run,
    "cluster_serve": cluster_serve.run,
    "serve_chaos": serve_chaos.run,
}


def get_runner(experiment_id: str) -> Runner:
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(sorted(REGISTRY))}"
        ) from None


def list_experiments() -> List[str]:
    return sorted(REGISTRY)
