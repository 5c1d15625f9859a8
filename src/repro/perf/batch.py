"""NumPy-vectorized r-sweep: the batched evaluation engine.

The scalar optimizer (:mod:`repro.core.optimizer`) resolves one
(chip, budget, f) cell at a time, evaluating each candidate ``r`` in a
Python loop.  A figure campaign evaluates thousands of such cells, and
almost all of the work is embarrassingly data-parallel: the Table 1
bounds and the speedup formulas are closed-form arithmetic over
``(budget, r)`` pairs.  This module evaluates the *whole grid* --
every candidate ``r`` for every budget (typically every node of a
roadmap) -- as float64 array operations in one shot.

Bit-for-bit parity with the scalar reference is a hard requirement
(the differential tests assert full ``DesignPoint`` equality), so the
kernels are written to perform the *same* IEEE-754 double operations
in the *same* order as the scalar formulas:

* additions, subtractions, multiplications, divisions and ``sqrt`` are
  correctly rounded, so the NumPy and scalar results are identical;
* ``r ** exponent`` terms are precomputed with scalar Python ``pow``
  (one call per distinct ``(r, exponent)`` pair) and broadcast,
  eliminating any libm-vs-SIMD discrepancy;
* ``perf_seq(r)`` is evaluated through the chip's own (possibly
  custom) law, once per candidate ``r``, then broadcast.

Models without a registered vector kernel fall back to elementwise
evaluation through ``chip.speedup`` -- slower, but every
:class:`~repro.core.chip.ChipModel` subclass works out of the box.

The heterogeneous kernels read the U-core's ``mu`` and ``phi`` either
as the chip's own scalars, which broadcast over every budget row, or
as per-row ``(budgets, 1)`` columns passed to :func:`optimize_batch`.
Both run the same expressions, so row ``i`` of a per-row call is
bit-identical to a one-budget call on a chip built with ``mu[i]`` and
``phi[i]``: a Monte-Carlo batch of perturbed U-cores is one call.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.amdahl import check_fraction
from ..core.chip import ChipModel
from ..core.constraints import BoundSet, Budget
from ..core.optimizer import (
    DEFAULT_R_MAX,
    DesignPoint,
    feasible_r_values,
)
from ..core.power import pollack_perf
from ..errors import ModelError
from ..obs.profiling import profile_block

__all__ = [
    "sweep_designs_batch",
    "optimize_batch",
    "optimize_prefix_batch",
    "effective_n_batch",
    "PREFIX_CHANNELS",
]

#: Chip models whose fabric is one U-core type described by (mu, phi).
_UCORE_MODELS = ("heterogeneous", "heterogeneous-assisted")

#: The arrays :func:`optimize_prefix_batch` returns, in channel order.
PREFIX_CHANNELS = (
    "speedup", "r", "n", "n_area", "n_power", "n_bandwidth", "feasible",
)


def _pow_matrix(
    r_vals: Sequence[float],
    alphas: Sequence[float],
    exponent_of,
) -> np.ndarray:
    """``r ** exponent_of(alpha)`` as a (budgets, r) matrix.

    Computed with scalar Python ``pow`` so every entry is bitwise
    identical to the scalar path's ``r ** e``; distinct
    ``(r, exponent)`` pairs are evaluated once.
    """
    cache: Dict[Tuple[float, float], float] = {}
    out = np.empty((len(alphas), len(r_vals)))
    for i, alpha in enumerate(alphas):
        e = exponent_of(alpha)
        for j, r in enumerate(r_vals):
            key = (r, e)
            value = cache.get(key)
            if value is None:
                value = cache[key] = r ** e
            out[i, j] = value
    return out


def _perf_law_matrix(chip: ChipModel, values: np.ndarray) -> np.ndarray:
    """Apply the chip's sequential-performance law elementwise.

    Pollack's law is ``sqrt`` (correctly rounded, so ``np.sqrt`` is
    bitwise identical to ``math.sqrt``); any other law is evaluated
    through the scalar callable.
    """
    if getattr(chip, "_perf_seq", None) is pollack_perf:
        return np.sqrt(values)
    flat = np.array([chip.perf_seq(float(v)) for v in values.ravel()])
    return flat.reshape(values.shape)


def _row_column(values: Sequence[float], rows: int, name: str):
    """One positive value per budget row, as a ``(rows, 1)`` column."""
    col = np.asarray(values, dtype=float).reshape(-1, 1)
    if col.shape[0] != rows:
        raise ModelError(f"{name} has {col.shape[0]} rows for {rows} budgets")
    if not np.all(col > 0):
        raise ModelError(f"every {name} must be positive")
    return col


def _ucore_params(chip: ChipModel, rows: int, mu=None, phi=None):
    """The U-core ``(mu, phi)`` the heterogeneous kernels read.

    Without overrides these are the chip's own scalars; an override is
    one value per budget row, returned as a ``(rows, 1)`` column.
    Chips without a U-core get ``(None, None)``.
    """
    overridden = mu is not None or phi is not None
    if chip.model_id not in _UCORE_MODELS:
        if overridden:
            raise ModelError(
                f"per-row mu/phi need a U-core chip, got {chip.model_id!r}"
            )
        return None, None
    ucore = chip.ucore
    if not overridden:
        return ucore.mu, ucore.phi
    return (
        ucore.mu if mu is None else _row_column(mu, rows, "mu"),
        ucore.phi if phi is None else _row_column(phi, rows, "phi"),
    )


def _grid_bounds(
    chip: ChipModel,
    budgets: Sequence[Budget],
    r_vals: Sequence[float],
    r: np.ndarray,
    sqrt_r: np.ndarray,
    mu,
    phi,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table 1 parallel-phase bounds over the (budget, r) grid.

    Returns ``(n_area, n_power, n_bandwidth)``, each of shape
    ``(len(budgets), len(r_vals))``.  Each branch mirrors the exact
    expression (and operation order) of the corresponding
    ``ChipModel.bound_*`` scalar method.  U-core models read ``mu``
    and ``phi`` from :func:`_ucore_params`.
    """
    area = np.array([b.area for b in budgets])[:, None]
    power = np.array([b.power for b in budgets])[:, None]
    bandwidth = np.array([b.bandwidth for b in budgets])[:, None]
    alphas = [b.alpha for b in budgets]
    shape = (len(budgets), len(r_vals))

    n_area = np.broadcast_to(area, shape).copy()
    model = chip.model_id

    if model == "symmetric":
        # n <= P / r^(alpha/2 - 1);  n <= B * sqrt(r)
        pow_term = _pow_matrix(r_vals, alphas, lambda a: a / 2.0 - 1.0)
        n_power = power / pow_term
        n_bandwidth = bandwidth * sqrt_r
    elif model == "asymmetric-offload":
        # n <= P + r;  n <= B + r  (inf + r stays inf)
        n_power = power + r
        n_bandwidth = bandwidth + r
    elif model == "asymmetric":
        # n <= P - r^(alpha/2) + r;  n <= B - sqrt(r) + r
        seqp = _pow_matrix(r_vals, alphas, lambda a: a / 2.0)
        n_power = power - seqp + r
        n_bandwidth = bandwidth - sqrt_r + r
    elif model == "dynamic":
        n_power = np.broadcast_to(power, shape).copy()
        n_bandwidth = np.broadcast_to(bandwidth, shape).copy()
    elif model == "heterogeneous":
        # n <= P / phi + r;  n <= B / mu + r
        n_power = power / phi + r
        n_bandwidth = bandwidth / mu + r
    elif model == "heterogeneous-assisted":
        # headroom-gated: the fast core's own draw comes off the top.
        seqp = _pow_matrix(r_vals, alphas, lambda a: a / 2.0)
        p_head = power - seqp
        b_head = bandwidth - sqrt_r
        r_grid = np.broadcast_to(r, shape)
        n_power = np.where(
            p_head <= 0, r_grid, p_head / phi + r
        )
        n_bandwidth = np.where(
            b_head <= 0, r_grid, b_head / mu + r
        )
    else:
        # Generic fallback: one scalar bounds() call per grid cell.
        n_power = np.empty(shape)
        n_bandwidth = np.empty(shape)
        for i, budget in enumerate(budgets):
            for j, rv in enumerate(r_vals):
                n_power[i, j] = chip.bound_power(budget, rv)
                n_bandwidth[i, j] = chip.bound_bandwidth(budget, rv)
        for i, budget in enumerate(budgets):
            for j, rv in enumerate(r_vals):
                n_area[i, j] = chip.bound_area(budget, rv)
    return n_area, n_power, n_bandwidth


def _grid_speedup(
    chip: ChipModel,
    f: float,
    n: np.ndarray,
    r: np.ndarray,
    ps: np.ndarray,
    mask: np.ndarray,
    mu,
) -> np.ndarray:
    """Speedup over the grid, mirroring each model's scalar formula.

    Values outside ``mask`` are mathematically meaningless (the scalar
    path never evaluates them); they are computed anyway -- the caller
    holds an ``errstate`` suppressing divide/invalid warnings -- and
    discarded.
    """
    model = chip.model_id
    if model == "symmetric":
        serial = (1.0 - f) / ps
        parallel = f / ((n / r) * ps)
        return 1.0 / (serial + parallel)
    if model == "asymmetric":
        serial = (1.0 - f) / ps
        parallel = f / (ps + (n - r))
        return 1.0 / (serial + parallel)
    if model == "asymmetric-offload":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        serial = (1.0 - f) / ps
        parallel = f / (n - r)
        return 1.0 / (serial + parallel)
    if model == "dynamic":
        serial_rate = _perf_law_matrix(chip, np.maximum(n, r))
        serial = (1.0 - f) / serial_rate
        parallel = f / n
        return 1.0 / (serial + parallel)
    if model == "heterogeneous":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        serial = (1.0 - f) / ps
        parallel = f / (mu * (n - r))
        return 1.0 / (serial + parallel)
    if model == "heterogeneous-assisted":
        if f == 0.0:
            return np.broadcast_to(ps, n.shape).copy()
        serial = (1.0 - f) / ps
        parallel = f / (mu * (n - r) + ps)
        return 1.0 / (serial + parallel)
    # Generic fallback: scalar speedup on feasible lanes only (the
    # scalar path never evaluates infeasible ones either).
    out = np.full(n.shape, -np.inf)
    for i, j in zip(*np.nonzero(mask)):
        out[i, j] = chip.speedup(f, float(n[i, j]), float(r[0, j]))
    return out


def _check_r_max(r_max: int) -> None:
    if r_max < 1:
        raise ModelError(f"r_max must be >= 1, got {r_max}")


def _sweep(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_max: int,
    mu=None,
    phi=None,
):
    """The r-sweep over the ``(budget, r = 1..r_max)`` grid.

    Every batch entry point is this grid followed by a reduction.
    Returns ``(n_area, n_power, n_bandwidth, n, mask, speedup)``, each
    of shape ``(len(budgets), r_max)``; column ``j`` is ``r = j + 1``.
    ``mask`` marks the lanes the scalar ``evaluate_design`` accepts:
    ``r <= max_serial_r``, then the fabric rules.  Speedups outside it
    are meaningless (infeasible lanes produce inf/NaN intermediates,
    whose warnings are suppressed here) and must be discarded.
    ``mu``/``phi`` optionally override the U-core per budget row.
    """
    _check_r_max(r_max)
    check_fraction(f)
    r_vals = list(range(1, r_max + 1))
    r = np.array(r_vals, dtype=float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ceilings = np.array([chip.max_serial_r(b) for b in budgets])
        mask = r <= ceilings[:, None]
        mu, phi = _ucore_params(chip, len(budgets), mu, phi)
        n_area, n_power, n_bandwidth = _grid_bounds(
            chip, budgets, r_vals, r, np.sqrt(r), mu, phi
        )
        n = np.minimum(np.minimum(n_area, n_power), n_bandwidth)
        if chip.model_id != "dynamic":
            # evaluate_design: `if n < r ... return None`
            mask &= ~(n < r)
        if f > 0.0 and chip.model_id not in ("symmetric", "dynamic"):
            # evaluate_design: offload-style machines need fabric
            # beyond r.
            mask &= ~(n <= r)
        ps = _perf_law_matrix(chip, r[0])
        speedup = _grid_speedup(chip, f, n, r, ps, mask, mu)
    return n_area, n_power, n_bandwidth, n, mask, speedup


def _make_point(
    chip: ChipModel,
    f: float,
    arrays,
    i: int,
    j: int,
) -> DesignPoint:
    """Materialise grid lane ``(i, j)`` as a scalar-identical
    DesignPoint (``r`` is the Python ``int`` ``j + 1``)."""
    n_area, n_power, n_bandwidth, n, _, speedup = arrays
    bounds = BoundSet(
        n_area=float(n_area[i, j]),
        n_power=float(n_power[i, j]),
        n_bandwidth=float(n_bandwidth[i, j]),
    )
    return DesignPoint(
        label=chip.label,
        model_id=chip.model_id,
        f=f,
        r=int(j) + 1,
        n=float(n[i, j]),
        speedup=float(speedup[i, j]),
        limiter=bounds.limiter,
        bounds=bounds,
    )


def sweep_designs_batch(
    chip: ChipModel,
    f: float,
    budget: Budget,
    r_max: int = DEFAULT_R_MAX,
) -> List[DesignPoint]:
    """Vectorized :func:`~repro.core.optimizer.sweep_designs`.

    Returns the same points, in the same (ascending r) order, with
    identical floats -- the Python loop over candidates is replaced by
    one array evaluation.
    """
    with profile_block("perf.sweep_batch", chip=chip.label):
        # Raises the scalar path's InfeasibleDesignError (naming the
        # binding serial bound) when not even r = 1 fits.
        feasible_r_values(chip, budget, r_max)
        arrays = _sweep(chip, f, [budget], r_max)
        return [
            _make_point(chip, f, arrays, 0, j)
            for j in np.flatnonzero(arrays[4][0])
        ]


def optimize_batch(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_max: int = DEFAULT_R_MAX,
    *,
    mu: Optional[Sequence[float]] = None,
    phi: Optional[Sequence[float]] = None,
) -> List[Optional[DesignPoint]]:
    """Vectorized r-sweep over many budgets at once.

    Equivalent to calling :func:`~repro.core.optimizer.optimize` once
    per budget, except the whole (budget, r) grid is evaluated as one
    set of array operations.  Budgets for which the scalar ``optimize``
    would raise :class:`~repro.errors.InfeasibleDesignError` (no
    feasible serial core, or no candidate with usable resources) yield
    ``None`` instead, so one infeasible node does not abort a roadmap.

    ``mu`` and ``phi``, one value per budget, override a U-core chip's
    parameters row by row: row ``i`` then equals ``optimize`` on the
    same chip type built with ``UCore(mu=mu[i], phi=phi[i])``.
    """
    budgets = list(budgets)
    if not budgets:
        return []
    # One phase record per call keeps the instrumentation inside the
    # benchmark's 5% budget; the grid/materialize split is measured
    # with raw counters and surfaced as span attributes only.
    with profile_block("perf.optimize_batch") as phase:
        if phase.traced:
            phase.set_attribute("chip", chip.label)
            phase.set_attribute("batch_size", len(budgets))
        t0 = perf_counter()
        arrays = _sweep(chip, f, budgets, r_max, mu, phi)
        mask = arrays[4]
        best_j = np.argmax(np.where(mask, arrays[5], -np.inf), axis=1)
        grid_s = perf_counter() - t0
        results = [
            _make_point(chip, f, arrays, i, j) if mask[i, j] else None
            for i, j in enumerate(best_j.tolist())
        ]
        if phase.traced:
            phase.set_attribute("grid_ms", round(grid_s * 1e3, 3))
            phase.set_attribute(
                "materialize_ms",
                round((perf_counter() - t0 - grid_s) * 1e3, 3),
            )
        return results


def optimize_prefix_batch(
    chip: ChipModel,
    f: float,
    budgets: Sequence[Budget],
    r_maxes: Sequence[int],
) -> Dict[str, np.ndarray]:
    """One grid evaluation answering :func:`optimize_batch` for every
    ``r_max`` in ``r_maxes`` at once, as arrays.

    The grid columns are r_max-independent: every bound, the
    feasibility mask and the speedup of candidate ``r`` are elementwise
    functions of ``(budget, r)``, and the serial-bound mask is
    ``r <= max_serial_r`` per column.  A smaller ``r_max`` therefore
    only *restricts the argmax to a prefix* of the same columns: one
    evaluation at ``max(r_maxes)``, with the columns past ``r_max``
    masked to ``-inf``, picks the same lane as a fresh
    ``optimize_batch(..., r_max)`` call, first-max-wins ties included.

    Returns one float64 array per :data:`PREFIX_CHANNELS` entry, of
    shape ``(len(budgets), len(r_maxes))`` with one column per distinct
    ``r_max`` in ascending order: the winning lane's values,
    bit-identical to the matching ``DesignPoint`` fields (NaN where no
    lane is feasible), and ``feasible`` as 1.0 or 0.0.  The tensor
    materializer fills a whole ``(node, r_max)`` plane per call.
    """
    budgets = list(budgets)
    r_maxes = sorted({int(r) for r in r_maxes})
    if not budgets or not r_maxes:
        shape = (len(budgets), len(r_maxes))
        return {channel: np.empty(shape) for channel in PREFIX_CHANNELS}
    with profile_block("perf.optimize_prefix_batch") as phase:
        if phase.traced:
            phase.set_attribute("chip", chip.label)
            phase.set_attribute("batch_size", len(budgets))
            phase.set_attribute("r_maxes", len(r_maxes))
        # _sweep checks only the largest r_max; every one must be >= 1.
        _check_r_max(r_maxes[0])
        n_area, n_power, n_bandwidth, n, mask, speedup = _sweep(
            chip, f, budgets, r_maxes[-1]
        )
        score = np.where(mask, speedup, -np.inf)
        r_arr = np.arange(1.0, r_maxes[-1] + 1)[None, :]
        # prefix[k, j]: column j lies inside r_maxes[k]'s prefix.
        prefix = r_arr <= np.array(r_maxes, dtype=float)[:, None]
        best_j = np.argmax(
            np.where(prefix[None, :, :], score[:, None, :], -np.inf),
            axis=2,
        )
        rows = np.arange(len(budgets))[:, None]
        feasible = mask[rows, best_j]
        r_grid = np.broadcast_to(r_arr, mask.shape)
        out = {
            channel: np.where(feasible, values[rows, best_j], np.nan)
            for channel, values in (
                ("speedup", speedup),
                ("r", r_grid),
                ("n", n),
                ("n_area", n_area),
                ("n_power", n_power),
                ("n_bandwidth", n_bandwidth),
            )
        }
        out["feasible"] = feasible.astype(np.float64)
        return out


def effective_n_batch(
    chip: ChipModel,
    budgets: Sequence[Budget],
    r_max: int = DEFAULT_R_MAX,
) -> np.ndarray:
    """``n_effective`` over the ``(budget, r = 1..r_max)`` grid.

    Entry ``[i, j]`` equals ``chip.bounds(budgets[i], j + 1)
    .n_effective``: the minimum of the same three Table 1 bounds the
    r-sweep resolves, as one array pass.  The serial bounds are not
    applied; callers mask the columns with ``chip.max_serial_r``.
    """
    _check_r_max(r_max)
    budgets = list(budgets)
    with profile_block("perf.effective_n_batch"):
        r_vals = list(range(1, r_max + 1))
        r = np.array(r_vals, dtype=float)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            mu, phi = _ucore_params(chip, len(budgets))
            n_area, n_power, n_bandwidth = _grid_bounds(
                chip, budgets, r_vals, r, np.sqrt(r), mu, phi
            )
        return np.minimum(np.minimum(n_area, n_power), n_bandwidth)
