"""Tests of the benchmark's own machinery (run with ``PYTHONPATH=src pytest perfbench``)."""

from __future__ import annotations

import asyncio
import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, workloads
from perfbench.loadgen import open_loop
from perfbench.quantiles import Percentile, TooFewSamples, percentile
from perfbench.spans import Span, SpanRecorder, coverage, self_time_by_name, self_times
from repro.models.decoder import common_prefix_length
from repro.tokenization import LogTokenizer

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def _all_inputs(seed: int):
    dataset = inputs.make_dataset(seed)
    tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
    jobs = inputs.icl_jobs(dataset, seed, 3)
    return {
        "icl": [
            (job.queries, job.selector(dataset).select(inputs.ICL_SHOTS))
            for job in jobs
        ],
        "shared": inputs.shared_inputs(dataset, tokenizer, seed, 20, 10.0, 4),
        "unique": inputs.unique_inputs(dataset, tokenizer, seed, 20, 10.0, 4),
        "sft": inputs.sft_inputs(dataset, seed, 10, 4),
    }


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            _same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    return a == b


def test_same_seed_gives_identical_inputs():
    first, second = _all_inputs(5), _all_inputs(5)
    for key in first:
        assert _same(first[key], second[key]), key


def test_different_seed_gives_different_inputs():
    first, second = _all_inputs(5), _all_inputs(6)
    for key in first:
        assert not _same(first[key], second[key]), key


def test_serving_prompts_are_shared_or_unique_as_designed():
    dataset = inputs.make_dataset(3)
    tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
    shared = inputs.shared_inputs(dataset, tokenizer, 3, 40, 10.0, 4)
    unique = inputs.unique_inputs(dataset, tokenizer, 3, 40, 10.0, 4)
    same_family = [
        common_prefix_length(a, b)
        for i, a in enumerate(shared.prompts)
        for j, b in enumerate(shared.prompts)
        if i < j and shared.families[i] == shared.families[j]
    ]
    assert min(same_family) > 200
    assert shared.head_tokens() in same_family
    overlaps = [
        common_prefix_length(a, b)
        for i, a in enumerate(unique.prompts)
        for b in unique.prompts[i + 1 :]
    ]
    # Overlaps that reach the prefix pool's 8-token reuse floor are rare.
    assert np.mean([o >= 8 for o in overlaps]) < 0.01
    lengths = [len(p) for p in unique.prompts]
    assert inputs.UNIQUE_PROMPT_MIN <= min(lengths) and max(lengths) <= inputs.UNIQUE_PROMPT_MAX


def test_shared_family_mix_is_fixed_and_only_its_order_is_seeded():
    counts = inputs.zipf_counts(216)
    assert counts.sum() == 216 and np.all(np.diff(counts) <= 0) and counts[-1] > 0
    orders = []
    for seed in (3, 4):
        dataset = inputs.make_dataset(seed)
        tokenizer = LogTokenizer.build_from_corpus(dataset.train.sentences())
        shared = inputs.shared_inputs(dataset, tokenizer, seed, 40, 10.0, 4)
        counted = np.bincount(shared.families, minlength=inputs.SHARED_FAMILIES)
        assert np.array_equal(counted, inputs.zipf_counts(40))
        orders.append(shared.families)
    assert orders[0] != orders[1]


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_percentile_reports_sample_count():
    result = percentile(list(range(100)), 90)
    assert result == Percentile(q=90, value=pytest.approx(89.1), n=100)
    assert percentile(list(range(20)), 50).n == 20


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(1000)), 99).n == 1000
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
def test_self_time_on_hand_built_tree():
    #  root [0, 10]
    #    a [1, 4]          child of root
    #      a1 [2, 3]       child of a
    #    b [5, 9]          child of root
    #      b1 [5, 7], b2 [6, 8]   overlapping children of b
    spans = [
        Span(0, "root", 0.0, 10.0, None, "main"),
        Span(1, "a", 1.0, 4.0, 0, "main"),
        Span(2, "a1", 2.0, 3.0, 1, "main"),
        Span(3, "b", 5.0, 9.0, 0, "main"),
        Span(4, "b1", 5.0, 7.0, 3, "main"),
        Span(5, "b2", 6.0, 8.0, 3, "main"),
    ]
    own = self_times(spans)
    # b's children overlap on [6, 7]: b is charged only for [8, 9].
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}
    # Without overlapping siblings, self times add up to the root's duration.
    nested = spans[:5]
    assert sum(self_times(nested).values()) == pytest.approx(10.0)
    again = Span(6, "a1", 3.5, 3.9, 1, "main")
    assert self_time_by_name(spans + [again])["a1"] == pytest.approx(1.4)
    assert coverage(spans[1:4], 0.0, 10.0) == pytest.approx(0.7)


def test_recorder_nests_wrapped_calls_and_restores():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    original = Layer.__dict__["outer"]
    recorder.wrap(Layer, "inner", "inner")
    recorder.wrap(Layer, "outer", "outer")
    with recorder.span("root"):
        assert Layer().outer() == 2
    recorder.restore()
    assert Layer.__dict__["outer"] is original
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["outer"].parent == by_name["root"].sid
    assert by_name["inner"].parent == by_name["outer"].sid
    own = self_times(recorder.spans)
    assert sum(own.values()) == pytest.approx(by_name["root"].duration)


def test_recorder_instance_wrap_is_removed():
    recorder = SpanRecorder()

    class Thing:
        def run(self):
            return 3

    thing = Thing()
    recorder.wrap(thing, "run", "run")
    assert thing.run() == 3
    recorder.restore()
    assert "run" not in vars(thing)
    assert [s.name for s in recorder.spans] == ["run"]


# ---------------------------------------------------------------------- #
# open-loop accounting
# ---------------------------------------------------------------------- #
def test_stalled_generator_charges_lateness_to_later_requests():
    now = [0.0]

    def clock():
        return now[0]

    async def sleep(delay):
        # Ready tasks run first (and may stall the clock past the target).
        target = now[0] + delay
        await asyncio.sleep(0)
        now[0] = max(now[0], target)

    async def consume(timing):
        timing.sent = clock()
        if timing.index == 0:
            now[0] += 0.5  # a blocking call stalls the whole event loop
        timing.token_times.append(clock())

    offsets = [0.0, 0.1, 0.2, 1.0]
    timings = asyncio.run(open_loop(offsets, consume, clock=clock, sleep=sleep))
    # Requests 1 and 2 were due during the stall and sent at its end; their
    # latency counts from when they were due, not from when they were sent.
    assert [round(t.lag, 9) for t in timings] == [0.0, 0.4, 0.3, 0.0]
    assert [round(t.ttft, 9) for t in timings] == [0.5, 0.4, 0.3, 0.0]


# ---------------------------------------------------------------------- #
# benchmark description
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for name, serve in workloads.SERVE.items():
        if name not in why:
            continue
        numbers = [float(x) for x in re.findall(r"\d+(?:\.\d+)?", why[name])]
        assert serve.rate in numbers, name
        assert serve.ttft_limit_s * 1e3 in numbers, name
        assert serve.gap_limit_s * 1e3 in numbers, name
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]
