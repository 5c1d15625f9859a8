"""Declarative design-space exploration over heterogeneous chips.

The :mod:`repro.dse` subsystem generalises the paper's six hand-coded
scenarios into a production exploration pipeline:

* :mod:`~repro.dse.dsl` -- a declarative scenario DSL (JSON-loadable
  dataclasses) covering budget overrides, alpha/f sweeps, provider
  regimes, and multi-U-core chips; the paper's scenarios ship as
  builtins, bit-identical to :mod:`repro.itrs.scenarios`.
* :mod:`~repro.dse.providers` -- pluggable performance/constraint
  regimes (Table 1 baseline, Ginosar sqrt(m), Yavits
  temperature-limited Amdahl) behind one interface.
* :mod:`~repro.dse.engine` -- config-space expansion and evaluation:
  one batched r-sweep (:func:`repro.perf.batch.optimize_batch`) per
  ``(chip, f)`` group, bit-identical to the scalar optimizer per
  config, under one ``dse.evaluate`` span per group.
* :mod:`~repro.dse.front` -- the dominance-pruned
  (speedup, area, power) Pareto front, canonically ordered and
  shard-mergeable.
* :mod:`~repro.dse.halving` -- successive halving with equivalence
  classes and sound bound-based pruning: the exhaustive front at a
  fraction of the full evaluations.
"""

from .dsl import (
    BEST_SUBSTRATE,
    BUILTIN_SCENARIOS,
    SUBSTRATES,
    ChipSpec,
    DSEScenario,
    SegmentSpec,
    builtin_scenario,
    builtin_scenario_names,
    list_scenario_files,
    load_scenario_file,
    scenario_summary,
)
from .engine import (
    DSEConfig,
    evaluate_config,
    exhaustive_sweep,
    expand_configs,
    resolve_chip,
)
from .front import (
    DSEPoint,
    dominates,
    front_payload,
    merge_fronts,
    pareto_front,
    points_from_payload,
)
from .halving import HalvingResult, successive_halving
from .providers import (
    PROVIDERS,
    DSEProvider,
    get_provider,
    provider_names,
)

__all__ = [
    # dsl
    "BEST_SUBSTRATE",
    "BUILTIN_SCENARIOS",
    "SUBSTRATES",
    "ChipSpec",
    "DSEScenario",
    "SegmentSpec",
    "builtin_scenario",
    "builtin_scenario_names",
    "list_scenario_files",
    "load_scenario_file",
    "scenario_summary",
    # engine
    "DSEConfig",
    "evaluate_config",
    "exhaustive_sweep",
    "expand_configs",
    "resolve_chip",
    # front
    "DSEPoint",
    "dominates",
    "front_payload",
    "merge_fronts",
    "pareto_front",
    "points_from_payload",
    # halving
    "HalvingResult",
    "successive_halving",
    # providers
    "PROVIDERS",
    "DSEProvider",
    "get_provider",
    "provider_names",
]
