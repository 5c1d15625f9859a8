"""Argument checks shared by every entry point of the batched r-sweep."""

import pytest

from repro.core.chip import SymmetricCMP
from repro.errors import ModelError
from repro.perf.batch import (
    effective_n_batch,
    optimize_batch,
    optimize_prefix_batch,
    sweep_designs_batch,
)

ENTRY_POINTS = {
    "optimize_batch": lambda chip, budget, r_max: optimize_batch(
        chip, 0.9, [budget], r_max
    ),
    "sweep_designs_batch": lambda chip, budget, r_max: (
        sweep_designs_batch(chip, 0.9, budget, r_max)
    ),
    "effective_n_batch": lambda chip, budget, r_max: effective_n_batch(
        chip, [budget], r_max
    ),
    # Every requested r_max is checked, not only the largest one.
    "optimize_prefix_batch": lambda chip, budget, r_max: (
        optimize_prefix_batch(chip, 0.9, [budget], [r_max, 16])
    ),
}


@pytest.mark.parametrize("r_max", (0, -3))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_r_max_below_one_is_rejected(entry, r_max, basic_budget):
    with pytest.raises(ModelError, match="r_max"):
        ENTRY_POINTS[entry](SymmetricCMP(), basic_budget, r_max)
