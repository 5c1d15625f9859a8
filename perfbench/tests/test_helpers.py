"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import asyncio
import json
import os
import time
import types

import pytest

from perfbench import corpus, loadgen, serving, spans, stats


# -- seeded inputs -------------------------------------------------------------


def _corpus_digest(seed):
    c = corpus.Corpus(seed)
    return corpus.digest(c.warmup() + c.schedule(200, 2.0))


def test_same_seed_same_corpus_and_spec():
    assert _corpus_digest(7) == _corpus_digest(7)
    assert (corpus.campaign_spec(7).spec_hash()
            == corpus.campaign_spec(7).spec_hash())


def test_different_seed_different_corpus_and_spec():
    assert _corpus_digest(7) != _corpus_digest(8)
    assert (corpus.campaign_spec(7).spec_hash()
            != corpus.campaign_spec(8).spec_hash())


def test_corpus_key_sets_sit_between_the_cache_capacities():
    c = corpus.Corpus(3)
    hot = sum(len(v) for v in c.hot.values())
    warm = sum(len(v) for v in c.warm.values())
    assert corpus.LRU_CAPACITY < hot < corpus.BYTE_CACHE_CAPACITY
    assert warm < corpus.LRU_CAPACITY
    schedule = c.schedule(300, 3.0)
    assert len(schedule) == 900
    shape = corpus.shape([req for _, req in schedule])
    for cls in corpus.CLASSES:
        assert shape[cls]["share"] == pytest.approx(corpus.CLASS_SHARES[cls])
    cold = [req for _, req in schedule if req.cls == "cold"]
    assert len({req.body for req in cold}) == len(cold)


def test_hot_bodies_use_the_baseline_scenario_only():
    c = corpus.Corpus(4)
    for bodies in c.hot.values():
        for body in bodies:
            assert "scenario" not in json.loads(body)
    for bodies in c.warm.values():
        for body in bodies:
            assert json.loads(body)["scenario"] != "baseline"


def test_cache_model_is_an_lru_that_counts_hits_after_the_warm_up():
    def req(cls, key):
        return corpus.Request(cls, "/v1/speedup", key.encode())

    sequence = [req("hot", "a"), req("hot", "b"), req("cold", "x"),
                req("hot", "a"), req("cold", "y"), req("hot", "b"),
                req("hot", "a")]
    model = corpus.cache_residency(sequence, 3, lambda r: True, skip=3)
    # a b x | a hits | y evicts b | b misses, evicts x | a hits
    assert model["keys"] == 4
    assert model["evictions"] == 2
    assert model["resident"] == {"hot": pytest.approx(2 / 3), "cold": 0.0}
    hot_only = corpus.cache_residency(
        sequence, 2, lambda r: r.cls == "hot", skip=3
    )
    assert hot_only["evictions"] == 0
    assert hot_only["resident"] == {"hot": 1.0}


def test_hot_f_count_is_the_fewest_that_overflow_the_lru():
    c = corpus.Corpus(5)
    count = corpus.hot_f_count(c.designs)
    on_grid = sum(len(v) for v in c.hot.values()) - sum(
        len(c.designs[w]) * len(corpus.NODES) * corpus.HOT_OFFGRID_PER_CELL
        for w in corpus.WORKLOADS
    )
    assert on_grid > corpus.LRU_CAPACITY
    assert on_grid / count * (count - 1) <= corpus.LRU_CAPACITY


def _warm_residency(seed):
    plan = serving.Plan("serve", seed, 30)
    planned = (plan.warmup + [r for rnd in plan.light_rounds for _, r in rnd]
               + [r for _, r in plan.heavy])
    model = corpus.cache_residency(
        planned, corpus.LRU_CAPACITY, lambda r: r.cls != "hot",
        skip=len(plan.warmup),
    )
    return model["resident"]["warm"]


def test_warm_keys_is_the_largest_power_of_two_the_lru_keeps(monkeypatch):
    assert _warm_residency(1) >= 0.9
    monkeypatch.setattr(corpus, "WARM_KEYS", 2 * corpus.WARM_KEYS)
    assert _warm_residency(1) < 0.9


# -- the percentile rule -------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert stats.supports(1000, 99.0)
    assert not stats.supports(999, 99.0)
    assert stats.supports(10000, 99.9)
    assert not stats.supports(9999, 99.9)
    assert stats.supports(100, 90.0)
    assert not stats.supports(99, 90.0)
    with pytest.raises(ValueError):
        stats.tail(list(range(999)), 99.0)


def test_nearest_rank_percentile_is_an_observed_value():
    values = list(range(1, 1001))  # 1..1000
    assert stats.tail(values, 99.0) == 990
    assert stats.percentile([5.0, 1.0, 3.0], 50) == 3.0


# -- spans and self time -------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a: the union [1, 6] counts once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.5, 12.0, 0],  # runs past its parent: clipped
    ]
    assert spans.self_times(recorded) == pytest.approx(
        [10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 2.5]
    )
    table = spans.aggregate(recorded)
    assert table["root"]["self_s"] == pytest.approx(4.5)
    assert spans.layer_self(table)["a"] == pytest.approx(3.0)  # a + a.child


def test_recorder_nests_spans_and_restores_what_it_wraps():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    module = types.ModuleType("repro_fake_layer")

    def inner():
        return 1

    def outer():
        assert module.inner() == 1
        recorder.mark("fake.marker")

    module.inner = inner
    recorder.instrument(module, "inner", "fake.inner")
    recorder.wrap("fake.outer", outer)()
    recorder.restore()
    assert module.inner is inner
    done = recorder.finished()
    assert [s[0] for s in done] == ["fake.outer", "fake.inner", "fake.marker"]
    assert done[1][3] == 0 and done[2][3] == 0
    outer_self, inner_self, _ = spans.self_times(done)
    assert inner_self == 1.0
    assert outer_self == (done[0][2] - done[0][1]) - 1.0


def test_async_spans_keep_their_own_parent_chain():
    recorder = spans.SpanRecorder()

    async def leaf():
        await asyncio.sleep(0.001)

    wrapped = recorder.wrap("leaf", leaf)

    async def branch():
        await wrapped()

    async def main():
        await asyncio.gather(
            recorder.wrap("left", branch)(), recorder.wrap("right", branch)()
        )

    asyncio.run(main())
    done = recorder.finished()
    parents = {
        done[s[3]][0] for s in done if s[0] == "leaf"
    }
    assert parents == {"left", "right"}


# -- the open-loop generator ---------------------------------------------------


def test_due_time_latency_counts_an_injected_generator_stall():
    stall_s = 0.06
    schedule = [(i * 0.01, i) for i in range(10)]
    stalled = []

    def before_send(item):
        if not stalled:
            stalled.append(item)
            time.sleep(stall_s)  # blocks the generator's event loop

    async def send(index, item):
        return 200, b""

    async def main():
        return await loadgen.open_loop(
            schedule, send, connections=1, before_send=before_send
        )

    phase = asyncio.run(main())
    by_item = {r.item: r for r in phase.results}
    assert sorted(by_item) == list(range(10))
    first = by_item[0]
    stall_end = first.sent
    for offset, item in schedule[1:6]:  # due during the stall
        r = by_item[item]
        assert r.latency >= stall_end - r.due - 1e-4
        assert r.lateness == pytest.approx(r.sent - r.due)
        assert r.latency >= r.lateness
    # Latency from the send time would hide the stall entirely.
    assert by_item[1].latency > 0.04
    assert by_item[1].done - by_item[1].sent < 0.01
    assert phase.backlog_growth() == 0.0  # under a second: no samples


def test_one_cpu_pins_this_thread_and_gives_its_cpus_back():
    before = os.sched_getaffinity(0)
    server = types.SimpleNamespace(threads=lambda: [])
    with serving.one_cpu(server):
        inside = os.sched_getaffinity(0)
    assert os.sched_getaffinity(0) == before
    assert len(inside) == 1 or len(before) == 1
    assert inside <= before


# -- the response oracle comparison --------------------------------------------


def test_compare_accepts_exact_and_bounded_interpolation_only():
    live = {"request": {"f": 0.5137}, "point": {"speedup": 10.0, "r": 4}}
    exact = json.dumps(live).encode()
    assert serving.compare(exact, json.dumps(live)) is None
    off = dict(live, point={"speedup": 10.0 * (1 + 1e-12), "r": 4})
    assert serving.compare(json.dumps(off).encode(), json.dumps(live))
    interp = dict(off, interpolation={"rel_error_bound": 1e-9})
    assert serving.compare(json.dumps(interp).encode(),
                           json.dumps(live)) is None
    too_far = dict(
        live, point={"speedup": 10.0 * (1 + 1e-8), "r": 4},
        interpolation={"rel_error_bound": 1e-9},
    )
    assert serving.compare(json.dumps(too_far).encode(), json.dumps(live))


# -- the fleet leg -------------------------------------------------------------


def test_fleet_counters_read_the_merged_metrics():
    section = {
        "cache": {"hits": 3, "misses": 4},
        "batching": {"dispatches": 5, "items": 6},
        "shed": 0, "timeouts": 0,
        "tensorstore": {"hit": 7, "interp": 1, "fallback": 2},
    }
    snapshot = {
        "router": {"repro_cluster_requests_total": {
            "outcome=ok,worker=router": 4.0,
            "outcome=ok,worker=w1": 30.0,
            "outcome=retried,worker=w1": 2.0,
            "outcome=ok,worker=w2": 10.0,
            "outcome=error,worker=none": 1.0,
        }},
        "workers": {"w1": section, "w2": section},
    }
    fleet = serving.fleet_counters(snapshot)
    assert fleet["per_worker"] == {"w1": 30.0, "w2": 10.0}
    assert fleet["share_max"] == pytest.approx(0.75)
    assert fleet["retries"] == 2.0
    assert fleet["upstream_errors"] == 1.0
    assert fleet["workers"]["respcache.hits"] == 6
    assert fleet["workers"]["tensor.fallback"] == 4


def test_same_answers_compares_payloads_not_bytes():
    def result(body, answer, status=200):
        request = corpus.Request("hot", "/v1/speedup", body)
        return loadgen.Result(request, status, answer, 0.0, 0.0, 0.0)

    single = [result(b"a", b'{"x": 1, "y": 2}'), result(b"b", b'{"x": 1}')]
    fleet = [result(b"a", b'{"y":2,"x":1}'), result(b"b", b'{"x": 2}'),
             result(b"b", b"", status=503)]
    problems, failed = serving.same_answers(fleet, single)
    assert failed == 1 and len(problems) == 1
