"""Request/response schemas for the serving layer.

Requests are **frozen dataclasses**: hashable, comparable, and
therefore directly usable as LRU response-cache keys -- two requests
that differ in any field can never share a cache slot, the same
structural-invalidation property the :mod:`repro.perf.cache` layer
relies on.

Parsing is strict: unknown fields, wrong types, and out-of-domain
values all raise :class:`~repro.errors.BadRequestError` (HTTP 400)
with a message naming the offending field, so a client never gets a
silently-defaulted answer to a misspelled query.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..campaign.spec import CampaignSpec
from ..core.optimizer import DEFAULT_R_MAX, DesignPoint
from ..errors import BadRequestError, ModelError
from ..itrs.scenarios import scenario_names

__all__ = [
    "SpeedupRequest",
    "SweepRequest",
    "OptimizeRequest",
    "parse_speedup",
    "parse_sweep",
    "parse_optimize",
    "parse_job",
    "parse_dse",
    "parse_limit",
    "parse_profile_query",
    "design_point_payload",
    "request_payload",
]

#: Workloads the standard design lists cover.
VALID_WORKLOADS = ("mmm", "fft", "bs")

#: FFT problem size applied when the request omits ``fft_size``.
DEFAULT_FFT_SIZE = 1024


@dataclass(frozen=True)
class SpeedupRequest:
    """``POST /v1/speedup``: one (design, node) design point."""

    workload: str
    f: float
    design: str
    node_nm: int = 40
    scenario: str = "baseline"
    fft_size: Optional[int] = None
    r_max: int = DEFAULT_R_MAX


@dataclass(frozen=True)
class SweepRequest:
    """``POST /v1/sweep``: one design across the scenario's roadmap."""

    workload: str
    f: float
    design: str
    scenario: str = "baseline"
    fft_size: Optional[int] = None
    r_max: int = DEFAULT_R_MAX


@dataclass(frozen=True)
class OptimizeRequest:
    """``POST /v1/optimize``: best design under one node's budgets.

    ``node_nm=None`` means the scenario roadmap's final (smallest)
    node -- the paper's headline comparison point.
    """

    workload: str
    f: float
    node_nm: Optional[int] = None
    scenario: str = "baseline"
    fft_size: Optional[int] = None
    r_max: int = DEFAULT_R_MAX


def _require_mapping(body: Any) -> Mapping:
    if not isinstance(body, Mapping):
        raise BadRequestError(
            f"request body must be a JSON object, got "
            f"{type(body).__name__}"
        )
    return body


def _reject_unknown(body: Mapping, allowed: frozenset) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise BadRequestError(
            f"unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _get_str(body: Mapping, field: str, *, default: Any = None,
             required: bool = False) -> Any:
    if field not in body:
        if required:
            raise BadRequestError(f"missing required field {field!r}")
        return default
    value = body[field]
    if not isinstance(value, str):
        raise BadRequestError(
            f"field {field!r} must be a string, got "
            f"{type(value).__name__}"
        )
    return value


def _get_number(body: Mapping, field: str, *, default: Any = None,
                required: bool = False) -> Any:
    if field not in body:
        if required:
            raise BadRequestError(f"missing required field {field!r}")
        return default
    value = body[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(
            f"field {field!r} must be a number, got "
            f"{type(value).__name__}"
        )
    return value


def _get_int(body: Mapping, field: str, *, default: Any = None,
             minimum: int = 1) -> Any:
    if field not in body:
        return default
    value = body[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(
            f"field {field!r} must be an integer, got "
            f"{type(value).__name__}"
        )
    if value < minimum:
        raise BadRequestError(
            f"field {field!r} must be >= {minimum}, got {value}"
        )
    return value


def _parse_common(body: Mapping) -> Dict[str, Any]:
    """Fields shared by all three endpoints, validated."""
    workload = _get_str(body, "workload", required=True)
    if workload not in VALID_WORKLOADS:
        raise BadRequestError(
            f"unknown workload {workload!r}; "
            f"available: {list(VALID_WORKLOADS)}"
        )
    f = _get_number(body, "f", required=True)
    if not 0.0 <= f <= 1.0:
        raise BadRequestError(
            f"field 'f' must be a parallel fraction in [0, 1], got {f}"
        )
    scenario = _get_str(body, "scenario", default="baseline")
    if scenario not in scenario_names():
        raise BadRequestError(
            f"unknown scenario {scenario!r}; "
            f"available: {scenario_names()}"
        )
    fft_size = _get_int(body, "fft_size", default=None)
    if workload == "fft":
        if fft_size is None:
            fft_size = DEFAULT_FFT_SIZE
    elif fft_size is not None:
        raise BadRequestError(
            f"field 'fft_size' only applies to the fft workload, "
            f"not {workload!r}"
        )
    r_max = _get_int(body, "r_max", default=DEFAULT_R_MAX)
    return {
        "workload": workload,
        "f": float(f),
        "scenario": scenario,
        "fft_size": fft_size,
        "r_max": r_max,
    }


_SPEEDUP_FIELDS = frozenset(
    {"workload", "f", "design", "node_nm", "scenario", "fft_size",
     "r_max"}
)
_SWEEP_FIELDS = frozenset(
    {"workload", "f", "design", "scenario", "fft_size", "r_max"}
)
_OPTIMIZE_FIELDS = frozenset(
    {"workload", "f", "node_nm", "scenario", "fft_size", "r_max"}
)


def parse_speedup(body: Any) -> SpeedupRequest:
    """Validate a ``/v1/speedup`` body into a frozen request."""
    body = _require_mapping(body)
    _reject_unknown(body, _SPEEDUP_FIELDS)
    common = _parse_common(body)
    design = _get_str(body, "design", required=True)
    node_nm = _get_int(body, "node_nm", default=40)
    return SpeedupRequest(design=design, node_nm=node_nm, **common)


def parse_sweep(body: Any) -> SweepRequest:
    """Validate a ``/v1/sweep`` body into a frozen request."""
    body = _require_mapping(body)
    _reject_unknown(body, _SWEEP_FIELDS)
    common = _parse_common(body)
    design = _get_str(body, "design", required=True)
    return SweepRequest(design=design, **common)


def parse_optimize(body: Any) -> OptimizeRequest:
    """Validate a ``/v1/optimize`` body into a frozen request."""
    body = _require_mapping(body)
    _reject_unknown(body, _OPTIMIZE_FIELDS)
    common = _parse_common(body)
    node_nm = _get_int(body, "node_nm", default=None)
    return OptimizeRequest(node_nm=node_nm, **common)


def parse_job(body: Any) -> CampaignSpec:
    """Validate a ``POST /v1/jobs`` body into a campaign spec.

    The body *is* a :meth:`~repro.campaign.spec.CampaignSpec.payload`
    document -- ``{"figures": [...], "pareto": [...], "sensitivity":
    [...]}`` -- validated strictly: unknown fields, unknown figures,
    out-of-domain workloads/fractions/scenarios and oversized trial
    counts all map to HTTP 400 with the model's message.
    """
    body = _require_mapping(body)
    try:
        spec = CampaignSpec.from_payload(body)
        spec.tasks()  # expand now so bad figures/fields fail the POST
    except ModelError as exc:
        raise BadRequestError(str(exc)) from None
    return spec


_DSE_FIELDS = frozenset(
    {"scenario", "mode", "area_scale_grid", "power_scale_grid",
     "rungs", "r_max", "shards"}
)


def _get_grid(body: Mapping, field: str) -> Any:
    """A JSON number list for a budget-scale grid, or None."""
    if field not in body:
        return None
    values = body[field]
    if not isinstance(values, (list, tuple)) or not values:
        raise BadRequestError(
            f"field {field!r} must be a non-empty list of numbers"
        )
    out = []
    for value in values:
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            raise BadRequestError(
                f"field {field!r} must contain only numbers, got "
                f"{type(value).__name__}"
            )
        out.append(value)
    return tuple(out)


def parse_dse(body: Any) -> CampaignSpec:
    """Validate a ``POST /v1/dse`` body into a DSE campaign spec.

    ``scenario`` is either a builtin scenario name or an inline
    :meth:`~repro.dse.dsl.DSEScenario.payload` object; ``mode`` picks
    the search (``pareto``, the sharded exhaustive sweep, or
    ``halving``, the successive-halving search).  Validation is
    *eager*: the scenario's DSL schema, the grids, the rungs, and the
    config-space bound are all checked here, so a bad request gets a
    400 naming the offending field instead of a queued job that fails
    later.
    """
    from ..dse.dsl import DSEScenario, builtin_scenario

    body = _require_mapping(body)
    _reject_unknown(body, _DSE_FIELDS)
    raw = body.get("scenario", "baseline")
    try:
        if isinstance(raw, str):
            scenario = builtin_scenario(raw)
        elif isinstance(raw, Mapping):
            scenario = DSEScenario.from_payload(raw)
        else:
            raise BadRequestError(
                f"field 'scenario' must be a builtin scenario name "
                f"or a scenario object, got {type(raw).__name__}"
            )
    except ModelError as exc:
        raise BadRequestError(f"field 'scenario': {exc}") from None
    mode = _get_str(body, "mode", default="pareto")
    if mode not in ("pareto", "halving"):
        raise BadRequestError(
            f"field 'mode' must be 'pareto' or 'halving', got {mode!r}"
        )
    area_grid = _get_grid(body, "area_scale_grid") or (1.0,)
    power_grid = _get_grid(body, "power_scale_grid") or (1.0,)
    r_max = _get_int(body, "r_max", default=DEFAULT_R_MAX)
    scenario_json = scenario.canonical()
    try:
        if mode == "pareto":
            if "rungs" in body:
                raise BadRequestError(
                    "field 'rungs' only applies to mode 'halving'"
                )
            shards = _get_int(body, "shards", default=1)
            from ..campaign.spec import ParetoFrontTask

            tasks = tuple(
                ParetoFrontTask(
                    scenario_json=scenario_json,
                    area_scale_grid=area_grid,
                    power_scale_grid=power_grid,
                    r_max=r_max,
                    shard=shard,
                    shards=shards,
                )
                for shard in range(shards)
            )
            spec = CampaignSpec(
                name=f"dse-{scenario.name}", dse_pareto=tasks
            )
        else:
            if "shards" in body:
                raise BadRequestError(
                    "field 'shards' only applies to mode 'pareto'"
                )
            rungs = _get_grid(body, "rungs")
            from ..campaign.spec import SuccessiveHalvingTask

            kwargs = {} if rungs is None else {"rungs": rungs}
            spec = CampaignSpec(
                name=f"dse-{scenario.name}",
                dse_halving=(
                    SuccessiveHalvingTask(
                        scenario_json=scenario_json,
                        area_scale_grid=area_grid,
                        power_scale_grid=power_grid,
                        r_max=r_max,
                        **kwargs,
                    ),
                ),
            )
        spec.tasks()  # full eager validation (grids, rungs, bound)
    except ModelError as exc:
        raise BadRequestError(str(exc)) from None
    return spec


def parse_limit(query: Mapping[str, Any]) -> Optional[int]:
    """The optional ``limit`` of a parsed query string (``parse_qs``
    form); a negative limit clamps to 0."""
    text = query.get("limit", [None])[0]
    if text is None:
        return None
    try:
        return max(0, int(text))
    except ValueError:
        raise BadRequestError(
            f"limit must be an integer, got {text!r}"
        ) from None


def parse_profile_query(query: Mapping[str, Any]) -> Tuple[float, str]:
    """``(seconds, format)`` of a ``GET /v1/profile`` query.

    ``seconds`` (default 1) is the capture window, within [0, 60];
    ``format`` is ``json`` (default) or ``folded``.
    """
    text = query.get("seconds", ["1"])[0]
    try:
        seconds = float(text)
    except ValueError:
        raise BadRequestError(
            f"seconds must be a number, got {text!r}"
        ) from None
    if not 0.0 <= seconds <= 60.0:
        raise BadRequestError(
            f"seconds must be within [0, 60], got {seconds:g}"
        )
    fmt = query.get("format", ["json"])[0]
    if fmt not in ("json", "folded"):
        raise BadRequestError(
            f"format must be 'json' or 'folded', got {fmt!r}"
        )
    return seconds, fmt


def design_point_payload(point: DesignPoint) -> Dict[str, Any]:
    """A :class:`DesignPoint` as a JSON-ready dict.

    Floats are passed through untouched -- ``json`` round-trips Python
    floats exactly (``repr`` shortest-round-trip), which is what lets
    the bit-identical acceptance test compare served numbers against a
    direct :func:`repro.perf.batch.optimize_batch` call.
    """
    return {
        "label": point.label,
        "model_id": point.model_id,
        "f": point.f,
        "r": point.r,
        "n": point.n,
        "speedup": point.speedup,
        "limiter": point.limiter.value,
        "parallel_resources": point.parallel_resources,
        "bounds": {
            "n_area": point.bounds.n_area,
            "n_power": _json_number(point.bounds.n_power),
            "n_bandwidth": _json_number(point.bounds.n_bandwidth),
        },
    }


def _json_number(value: float) -> Any:
    # JSON has no Infinity; bandwidth-exempt bounds serialise as null.
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def request_payload(request: Any) -> Dict[str, Any]:
    """Echo a parsed request back to the client (canonicalised)."""
    return asdict(request)
