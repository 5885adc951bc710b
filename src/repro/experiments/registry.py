"""Registry mapping experiment ids to their ``run`` callables.

Used by the benchmark harness, the examples, and the command line to
enumerate every reproduced figure/table without importing each module by
hand::

    from repro.experiments import registry
    result = registry.run_experiment("fig2")
    print(result.format_table())
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments import (
    appendix_analysis,
    appendix_coordl,
    failures,
    fig1_pipeline,
    fig2_fetch_stalls,
    fig3_cache_sweep,
    fig4_cpu_sweep,
    fig5_dali_prep,
    fig6_prep_stalls,
    fig8_minio_toy,
    fig9a_single_server,
    fig9b_distributed,
    fig9d_hp_search,
    fig9e_hp_multigpu,
    fig10_accuracy,
    fig11_io_pattern,
    fig16_whatif,
    tab3_tfrecord,
    tab5_predictor,
    tab6_cache_miss,
    tab7_hp_cached,
)
from repro.experiments.base import ExperimentResult

_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_pipeline.run,
    "fig2": fig2_fetch_stalls.run,
    "fig3": fig3_cache_sweep.run,
    "fig4": fig4_cpu_sweep.run,
    "fig5": fig5_dali_prep.run,
    "fig6": fig6_prep_stalls.run,
    "tab3": tab3_tfrecord.run,
    "fig8": fig8_minio_toy.run,
    "fig9a": fig9a_single_server.run,
    "fig9b": fig9b_distributed.run,
    "fig9d": fig9d_hp_search.run,
    "fig9e": fig9e_hp_multigpu.run,
    "fig10": fig10_accuracy.run,
    "fig11": fig11_io_pattern.run,
    "tab5": tab5_predictor.run,
    "fig16": fig16_whatif.run,
    "tab6": tab6_cache_miss.run,
    "tab7": tab7_hp_cached.run,
    "fig12": appendix_analysis.run_fig12,
    "fig13": appendix_analysis.run_fig13,
    "fig14": appendix_analysis.run_fig14,
    "fig17": appendix_coordl.run_fig17,
    "fig18": appendix_coordl.run_fig18,
    "fig19_20": appendix_coordl.run_fig19_20,
    "fig21": appendix_coordl.run_fig21,
    "fig22": appendix_coordl.run_fig22,
    "fig23": appendix_coordl.run_fig23,
    "fig_crash": failures.run_crash,
    "fig_elastic": failures.run_elastic,
    "fig_straggler": failures.run_straggler,
    "fig_multitenant": failures.run_multitenant,
}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in registration order."""
    return list(_REGISTRY)


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up an experiment's ``run`` callable by id."""
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(experiment_ids())
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None


def experiment_kwargs(experiment_id: str, **settings: Any
                      ) -> Tuple[Dict[str, Any], List[str]]:
    """Split run settings into what an experiment takes and what it does not.

    ``settings`` are the knobs a caller may thread into any experiment
    (``scale``, ``store``, and ``pool``: the command's one executor);
    ``None`` means unset.  Returns the keyword arguments for
    :func:`run_experiment` — the set settings the experiment's ``run``
    callable takes — and the names of the set settings it does not take,
    in argument order.  Toy experiments like ``fig8`` take no ``scale``;
    experiments without a sweep grid take no ``store`` or ``pool``.
    """
    parameters = inspect.signature(get_experiment(experiment_id)).parameters
    kwargs: Dict[str, Any] = {}
    ignored: List[str] = []
    for name, value in settings.items():
        if value is None:
            continue
        if name in parameters:
            kwargs[name] = value
        else:
            ignored.append(name)
    return kwargs, ignored


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id, forwarding keyword overrides."""
    return get_experiment(experiment_id)(**kwargs)
