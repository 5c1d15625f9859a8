"""Seeded inputs: the campaign spec and the serving request corpus.

Everything here is a pure function of the seed, so one seed always
yields the same spec digest and the same request stream, and the
program under test only ever sees the generated inputs.

Serving traffic comes in three classes, each aimed at one layer:

* ``hot`` -- baseline-scenario bodies the tensor store answers (on the
  f grid, plus off-grid ``f`` for harmonic interpolation), repeated
  with Zipf popularity.  The key set is larger than the 1024-entry
  response LRU and smaller than the 4096-entry transport byte cache.
* ``warm`` -- repeated bodies in non-baseline scenarios, which the
  store cannot answer; the key set fits the LRU.
* ``cold`` -- non-baseline bodies with a fresh ``f`` every time: never
  repeated, so every one reaches the micro-batcher and the kernel.

No trace of real traffic exists for this service, so the mix is an
assumption; each constant below says what it rests on.  The byte
cache also keeps a negative entry for every body the tensors cannot
answer (warm and cold), so whether the hot set really stays resident
is not assumed: :func:`cache_residency` replays the planned traffic
through a model of each cache and the run prints the result.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

#: Capacities the key sets are sized against (shipped defaults).
LRU_CAPACITY = 1024
BYTE_CACHE_CAPACITY = 4096

CLASSES = ("hot", "warm", "cold")
#: Share of arrivals per class.  Equal shares give every class the
#: samples its p99 needs (``stats.MIN_BEYOND``) in the shortest light
#: phase; the mix itself is assumed.
CLASS_SHARES = {cls: 1.0 / len(CLASSES) for cls in CLASSES}
#: Share of requests per endpoint, the same in every class.  Assumed:
#: the point query dominates, the two range queries share the rest.
ENDPOINT_SHARES = (
    ("/v1/speedup", 0.7),
    ("/v1/sweep", 0.15),
    ("/v1/optimize", 0.15),
)

WORKLOADS = ("mmm", "fft", "bs")
NODES = (40, 32, 22, 16, 11)
#: Every scenario but the baseline, which is the one the tensor store
#: materializes.
LIVE_SCENARIOS = (
    "low-bandwidth", "high-bandwidth", "half-area", "double-power",
    "low-power", "high-alpha",
)
#: Off-grid f per (design, node) cell of the hot set: the fewest that
#: put an interpolated key in every cell.  (The count of on-grid f is
#: derived from the LRU capacity: :func:`hot_f_count`.)
HOT_OFFGRID_PER_CELL = 1
#: Warm keys: the largest power of two whose requests the response LRU
#: still answers (at least 90% of them in the cache model) while the
#: cold stream passes through it at the light rate.
WARM_KEYS = 256
#: Zipf exponent of hot and warm popularity: within the 0.64-0.83 that
#: Breslau et al. measured on web proxy traces ("Web Caching and
#: Zipf-like Distributions", INFOCOM 1999).
ZIPF_S = 0.8

#: Campaign shape: DSE budget grids and Monte-Carlo trials per task.
AREA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
POWER_GRID = (0.5, 1.0)
SENSITIVITY_TRIALS = 200


# -- campaign ----------------------------------------------------------------


def campaign_spec(seed: int):
    """Figures F6-F9, six Pareto sweeps, six seeded sensitivity
    batches, and one exhaustive plus one halving DSE task for each
    built-in scenario."""
    from repro.campaign.spec import (
        CampaignSpec, ParetoFrontTask, ParetoTask, SensitivityTask,
        SuccessiveHalvingTask,
    )
    from repro.dse.dsl import builtin_scenario, builtin_scenario_names

    rng = random.Random(f"campaign:{seed}")

    def fft_size(workload: str) -> Optional[int]:
        return 1024 if workload == "fft" else None

    pareto = tuple(
        ParetoTask(workload=w, f=0.99, node_nm=node, fft_size=fft_size(w))
        for w in WORKLOADS for node in (22, 11)
    )
    sensitivity = tuple(
        SensitivityTask(
            workload=w, f=0.99, node_nm=node, fft_size=fft_size(w),
            trials=SENSITIVITY_TRIALS, seed=rng.randrange(1, 2 ** 31),
        )
        for w in WORKLOADS for node in (22, 11)
    )
    scenarios = [
        builtin_scenario(name).canonical()
        for name in builtin_scenario_names()
    ]
    return CampaignSpec(
        name=f"perfbench-{seed}",
        figures=("F6", "F7", "F8", "F9"),
        pareto=pareto,
        sensitivity=sensitivity,
        dse_pareto=tuple(
            ParetoFrontTask(scenario_json=s, area_scale_grid=AREA_GRID,
                            power_scale_grid=POWER_GRID)
            for s in scenarios
        ),
        dse_halving=tuple(
            SuccessiveHalvingTask(scenario_json=s,
                                  area_scale_grid=AREA_GRID,
                                  power_scale_grid=POWER_GRID)
            for s in scenarios
        ),
    )


# -- serving -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    cls: str
    path: str
    body: bytes


def _designs() -> Dict[str, Tuple[str, ...]]:
    from repro.projection.designs import standard_designs

    return {
        w: tuple(
            d.short_label
            for d in standard_designs(w, 1024 if w == "fft" else None)
        )
        for w in WORKLOADS
    }


def _encode(fields: dict) -> bytes:
    return json.dumps(fields).encode("utf-8")


def _on_grid_f() -> List[float]:
    return [i / 100 for i in range(50, 100)] + [0.999]


class Corpus:
    """The seeded request corpus of one run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"corpus:{seed}")
        self.designs = _designs()
        self.hot = self._hot_keys()
        self.warm = self._warm_keys()
        self._cold_seen: set = set()
        self._zipf = {
            cls: {path: _zipf_cdf(len(keys)) for path, keys in by.items()}
            for cls, by in (("hot", self.hot), ("warm", self.warm))
        }

    # -- key sets ------------------------------------------------------------

    def _hot_keys(self) -> Dict[str, List[bytes]]:
        rng = self.rng
        grid = _on_grid_f()
        f_values = sorted(rng.sample(grid, hot_f_count(self.designs)))
        keys: Dict[str, List[bytes]] = {p: [] for p, _ in ENDPOINT_SHARES}
        for w in WORKLOADS:
            for f in f_values:
                keys["/v1/optimize"].append(
                    _encode({"workload": w, "f": f})  # the final node
                )
                keys["/v1/optimize"].extend(
                    _encode({"workload": w, "f": f, "node_nm": node})
                    for node in NODES
                )
                for d in self.designs[w]:
                    keys["/v1/sweep"].append(
                        _encode({"workload": w, "f": f, "design": d})
                    )
                    keys["/v1/speedup"].extend(
                        _encode({"workload": w, "f": f, "design": d,
                                 "node_nm": node})
                        for node in NODES
                    )
            for d in self.designs[w]:
                for node in NODES:
                    for base in rng.sample(grid[:-2], HOT_OFFGRID_PER_CELL):
                        f = round(base + rng.uniform(0.0005, 0.0095), 4)
                        keys["/v1/speedup"].append(
                            _encode({"workload": w, "f": f, "design": d,
                                     "node_nm": node})
                        )
        for path in keys:
            keys[path] = sorted(set(keys[path]))
            rng.shuffle(keys[path])
        return keys

    def _live_body(self, path: str, f: float) -> bytes:
        rng = self.rng
        w = rng.choice(WORKLOADS)
        fields = {"workload": w, "f": f,
                  "scenario": rng.choice(LIVE_SCENARIOS)}
        if path != "/v1/optimize":
            fields["design"] = rng.choice(self.designs[w])
        if path != "/v1/sweep":
            fields["node_nm"] = rng.choice(NODES)
        return _encode(fields)

    def _warm_keys(self) -> Dict[str, List[bytes]]:
        grid = _on_grid_f()
        keys: Dict[str, List[bytes]] = {}
        for path, share in ENDPOINT_SHARES:
            wanted = round(WARM_KEYS * share)
            chosen: set = set()
            while len(chosen) < wanted:
                chosen.add(self._live_body(path, self.rng.choice(grid)))
            keys[path] = sorted(chosen)
            self.rng.shuffle(keys[path])
        return keys

    def _cold_body(self, path: str) -> bytes:
        while True:
            f = round(self.rng.uniform(0.5, 0.999), 9)
            body = self._live_body(path, f)
            if body not in self._cold_seen:
                self._cold_seen.add(body)
                return body

    # -- drawing requests ----------------------------------------------------

    def _endpoint(self) -> str:
        x = self.rng.random()
        for path, share in ENDPOINT_SHARES:
            if x < share:
                return path
            x -= share
        return ENDPOINT_SHARES[-1][0]

    def draw(self, cls: str) -> Request:
        path = self._endpoint()
        if cls == "cold":
            return Request(cls, path, self._cold_body(path))
        keys = (self.hot if cls == "hot" else self.warm)[path]
        rank = bisect.bisect_left(
            self._zipf[cls][path], self.rng.random()
        )
        return Request(cls, path, keys[min(rank, len(keys) - 1)])

    def _classes(self, n: int) -> List[str]:
        counts = {c: int(n * CLASS_SHARES[c]) for c in CLASSES}
        counts["hot"] += n - sum(counts.values())
        out = [c for c in CLASSES for _ in range(counts[c])]
        self.rng.shuffle(out)
        return out

    def warmup(self) -> List[Request]:
        """Every hot and warm key once, in seeded order."""
        items = [
            Request(cls, path, body)
            for cls, by in (("hot", self.hot), ("warm", self.warm))
            for path, keys in by.items() for body in keys
        ]
        self.rng.shuffle(items)
        return items

    def schedule(self, rate: float, seconds: float
                 ) -> List[Tuple[float, Request]]:
        """Poisson arrivals at ``rate`` over ``seconds``: exactly
        ``rate * seconds`` arrivals at uniform order-statistic times
        (a Poisson process conditioned on its count), with exact class
        shares."""
        n = int(round(rate * seconds))
        times = sorted(self.rng.uniform(0.0, seconds) for _ in range(n))
        return [(t, self.draw(cls)) for t, cls in zip(times, self._classes(n))]

    def stream(self, chunk: int = 3000) -> Iterator[Request]:
        """An endless closed-loop request stream (same class shares)."""
        while True:
            for cls in self._classes(chunk):
                yield self.draw(cls)


def hot_f_count(designs: Dict[str, Sequence[str]]) -> int:
    """On-grid f values of the hot set: the fewest whose keys outnumber
    the response LRU, so the hot set cannot live in it."""
    per_f = sum(
        (1 + len(designs[w])) * (1 + len(NODES))  # optimize, sweep+speedup
        for w in WORKLOADS
    )
    return LRU_CAPACITY // per_f + 1


def cache_residency(requests: Sequence[Request], capacity: int,
                    cached: Callable[[Request], bool], skip: int = 0
                    ) -> Dict[str, object]:
    """Replay ``requests`` in order through a model LRU of ``capacity``.

    ``cached(request)`` says whether the request takes an entry (the
    byte cache keeps a negative entry for every body the tensors cannot
    answer, so there it is every request).  Returns the distinct keys
    that took an entry, the evictions, and per class the share of
    requests after the first ``skip`` (the warm-up) that found their
    entry resident: the hit share the cache can give this traffic.
    """
    lru: "OrderedDict[Tuple[str, bytes], None]" = OrderedDict()
    keys, evictions = set(), 0
    found = {cls: [0, 0] for cls in CLASSES}
    for i, req in enumerate(requests):
        if not cached(req):
            continue
        key = (req.path, req.body)
        keys.add(key)
        hit = key in lru
        if i >= skip:
            found[req.cls][0] += hit
            found[req.cls][1] += 1
        if hit:
            lru.move_to_end(key)
            continue
        lru[key] = None
        if len(lru) > capacity:
            lru.popitem(last=False)
            evictions += 1
    return {
        "capacity": capacity,
        "keys": len(keys),
        "evictions": evictions,
        "resident": {
            cls: hits / n for cls, (hits, n) in found.items() if n
        },
    }


def _zipf_cdf(n: int) -> List[float]:
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]
    total = sum(weights)
    return list(itertools.accumulate(w / total for w in weights))


def digest(items: Sequence) -> str:
    """SHA-256 over a request sequence (schedules or plain lists)."""
    h = hashlib.sha256()
    for entry in items:
        if isinstance(entry, tuple):
            t, req = entry
            h.update(repr(t).encode())
        else:
            req = entry
        h.update(req.cls.encode() + req.path.encode() + req.body)
    return h.hexdigest()


def shape(requests: Sequence[Request]) -> Dict[str, object]:
    """Traffic-shape report: class shares, unique keys, endpoint mix."""
    n = len(requests) or 1
    out: Dict[str, object] = {"requests": len(requests)}
    for cls in CLASSES:
        mine = [r for r in requests if r.cls == cls]
        out[cls] = {
            "share": len(mine) / n,
            "unique_keys": len({(r.path, r.body) for r in mine}),
        }
    out["endpoints"] = {
        path: sum(1 for r in requests if r.path == path) / n
        for path, _ in ENDPOINT_SHARES
    }
    return out
