"""The four benchmark workloads.

Each workload builds the program from its public entry points, warms it
up, measures it, and checks its outputs against a reference path.  The
program is driven only through ``ICLEngine.classify_batch``,
``AsyncEngine.stream`` / ``submit_batch`` and ``SFTTrainer.fit`` /
``predict``; the references are ``ICLEngine(use_cache=False)``,
``DecoderLM.generate(use_cache=False)`` and ``predict(batch_size=1)``.
All load comes from this one process: the caller thread plus, for the
serving workloads, ``AsyncEngine``'s stepping thread.

Every workload reports the same end-to-end metrics; ``README.md`` maps
each one to the workload's own quantity (queries/s, TTFT, ...).  Those
named quantities are also printed, with their units, by ``run.py``.

A traced run first times a unit of work untraced, then repeats it with
:class:`~perfbench.layers.LayerTracer` installed; the per-layer metrics
come from the second pass and the ratio of the two is the tracing
overhead.
"""

from __future__ import annotations

import asyncio
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from perfbench import inputs
from perfbench.layers import LayerTracer
from perfbench.loadgen import RequestTiming, open_loop
from perfbench.quantiles import median, percentile
from repro.icl import ICLEngine
from repro.models.config import get_config
from repro.models.decoder import DecoderLM
from repro.models.encoder import EncoderForSequenceClassification
from repro.serving import AsyncEngine, EngineConfig, PrefixCachePool
from repro.tokenization import LogTokenizer
from repro.training import SFTTrainer, TrainingConfig

clock = time.perf_counter

#: Weight seed of every model: weights are program state, not input, so
#: they stay fixed while ``--seed`` varies the inputs.
MODEL_SEED = 0
DECODER = "gpt2"
ENCODER = "distilbert-base-uncased"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed operations a run collects at least: a p90 needs ten beyond it.
MIN_TIMED = 100

# icl_batch
ICL_WARMUP_JOBS = 2
ICL_CHECK_JOBS = 2
ICL_CHECK_QUERIES = 6
ICL_POOL_ENTRIES = 8
ICL_JOB_LIMIT_S = 0.5
ICL_TRACE_JOBS = 24

# serving workloads (rates in requests/s, limits in seconds)
SERVE_MAX_ROWS = 8
SERVE_WARMUP = 16
SERVE_CHECK = 4
#: Share of ``--seconds`` the open-loop requests span at their rate.
OPEN_SHARE = 0.5
#: Turns a run takes: a share of the open-loop requests, then every
#: request again as one saturated batch.
SERVE_ROUNDS = 3
SHARED_RATE = 12.0
SHARED_TTFT_LIMIT_S = 0.2
SHARED_GAP_LIMIT_S = 0.1
#: serve_shared's pool byte budget, in family heads: about half of the
#: families stay resident.
SHARED_POOL_HEADS = 4
UNIQUE_RATE = 12.0
UNIQUE_TTFT_LIMIT_S = 0.1
UNIQUE_GAP_LIMIT_S = 0.05

# sft_train
SFT_EPOCHS = 2
SFT_SINGLES_PER_ROUND = 200
SFT_CHECK = 8
SFT_SINGLE_LIMIT_S = 0.02


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    #: Generic end-to-end metrics (untraced run).
    metrics: dict = field(default_factory=dict)
    #: (name, value, unit) of the workload's own named metrics, for the report.
    named: list = field(default_factory=list)
    #: Per-layer metrics (traced run).
    layers: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def name(self, metric: str, value: float, unit: str) -> None:
        self.named.append((metric, value, unit))

    def finish(self, setup_s: float, sla_ok_frac: float) -> None:
        """Fill the metrics every workload reports."""
        self.metrics["setup_s"] = setup_s
        self.metrics["ok_frac"] = 1.0 - self.failed / self.attempted
        self.metrics["sla_ok_frac"] = sla_ok_frac
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.named[:0] = [
            ("setup_s", setup_s, "s"),
            ("fail_frac", self.failed / self.attempted, "frac"),
            ("peak_rss_mb", self.metrics["peak_rss_mb"], "MB"),
        ]

    def latency(self, samples_s: list[float], metric: str) -> None:
        """Print the median, p90 and mean of ``samples_s``; report the mean
        as ``latency_mean_ms`` and the p90 as ``latency_p90_ms``.

        The host runs at two speeds, in spells from a fraction of a second
        to minutes.  The median then falls between two modes whenever the
        spells split a run about evenly, and jumps from run to run; the mean
        moves only in proportion to the slow share.
        """
        p50, p90 = percentile(samples_s, 50), percentile(samples_s, 90)
        mean_ms = float(np.mean(samples_s)) * 1e3
        self.metrics["latency_mean_ms"] = mean_ms
        self.metrics["latency_p90_ms"] = p90.value * 1e3
        self.name(f"{metric}_p50_ms", p50.value * 1e3, f"ms (n={p50.n})")
        self.name(f"{metric}_p90_ms", p90.value * 1e3, f"ms (n={p90.n})")
        self.name(f"{metric}_mean_ms", mean_ms, f"ms (n={p50.n})")


def _timed_setup(build: Callable[[], object], dispose: Callable[[object], None]):
    """Run ``build`` ``SETUP_REPEATS`` times; return the last result and the
    median time."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            dispose(state)
        start = clock()
        state = build()
        times.append(clock() - start)
    return state, median(times)


def _tokenizer(seed: int) -> LogTokenizer:
    return LogTokenizer.build_from_corpus(inputs.make_dataset(seed).train.sentences())


def _decoder(vocab_size: int) -> DecoderLM:
    model = DecoderLM(get_config(DECODER), vocab_size, rng=MODEL_SEED)
    model.eval()
    return model


# ====================================================================== #
# icl_batch
# ====================================================================== #
def run_icl_batch(seed: int, seconds: float, trace: bool) -> Outcome:
    dataset = inputs.make_dataset(seed)
    warm = inputs.icl_jobs(dataset, seed + 1_000_003, ICL_WARMUP_JOBS)

    def build():
        tokenizer = _tokenizer(seed)
        model = _decoder(tokenizer.vocab_size)
        pool = PrefixCachePool(model, max_entries=ICL_POOL_ENTRIES)
        engine = ICLEngine(model, tokenizer, cache_pool=pool)
        for job in warm:
            engine.classify_batch(
                job.queries, selector=job.selector(dataset), num_examples=inputs.ICL_SHOTS
            )
        return engine

    engine, setup_s = _timed_setup(build, lambda _: None)

    def run(job):
        start = clock()
        try:
            result = engine.classify_batch(
                job.queries, selector=job.selector(dataset), num_examples=inputs.ICL_SHOTS
            )
        except Exception as exc:  # a failed job counts; the run goes on
            result = exc
        return job, result, clock() - start

    out = Outcome()
    if trace:
        jobs = inputs.icl_jobs(dataset, seed, ICL_TRACE_JOBS)

        def untraced() -> float:
            start = clock()
            for job in jobs:
                run(job)
            return clock() - start

        # Untraced passes before and after the traced one; their mean is
        # the reference for the tracing overhead.
        before = untraced()
        with LayerTracer(engine=None, pool=engine.cache_pool) as tracer:
            done = [run(job) for job in jobs]
        untraced_s = (before + untraced()) / 2
        out.layers = tracer.metrics(
            untraced_s=untraced_s, queries=len(jobs) * inputs.ICL_JOB_QUERIES
        )
        tracer.write("icl_batch", seed)
    else:
        # Enough jobs for the budget at about twice the expected pace; the
        # loop stops at the budget once a p90 is supported.
        jobs = inputs.icl_jobs(dataset, seed, max(MIN_TIMED, int(seconds * 12)))
        done = []
        start = clock()
        for job in jobs:
            if clock() - start >= seconds and len(done) >= MIN_TIMED:
                break
            done.append(run(job))
        elapsed = clock() - start

    out.attempted = len(done)
    bad = _check_icl(engine, dataset, done, seed, out)
    if trace:
        return out
    within = sum(
        1 for job, _, latency in done if id(job) not in bad and latency <= ICL_JOB_LIMIT_S
    )
    # The run's total rate, which moves only in proportion to the share of
    # the run the host spent at its slower speed (see Outcome.latency).
    rate = sum(len(job.queries) for job, _, _ in done) / elapsed
    out.metrics["throughput_per_s"] = rate
    out.name("icl_queries_per_s", rate, f"1/s (jobs={len(done)})")
    out.latency([latency for _, _, latency in done], "icl_job_latency")
    out.finish(setup_s, within / len(done))
    return out


def _check_icl(engine: ICLEngine, dataset, done, seed: int, out: Outcome) -> set:
    """Every job must succeed; labels and scores of a seeded sample of jobs
    and queries must equal the uncached engine's.  Returns the failed jobs."""
    bad = set()
    for job, result, _ in done:
        if isinstance(result, Exception):
            out.fail(f"icl job raised {result!r}")
            bad.add(id(job))
    reference = ICLEngine(engine.model, engine.tokenizer, use_cache=False)
    rng = np.random.default_rng([seed, 11])
    for j in rng.choice(len(done), size=min(ICL_CHECK_JOBS, len(done)), replace=False):
        job, predictions, _ = done[j]
        if id(job) in bad:
            continue
        examples = job.selector(dataset).select(inputs.ICL_SHOTS)
        for q in rng.choice(len(job.queries), size=ICL_CHECK_QUERIES, replace=False):
            want, got = reference.classify(job.queries[q], examples), predictions[q]
            scores = [got.log_prob_normal, got.log_prob_abnormal]
            expected = [want.log_prob_normal, want.log_prob_abnormal]
            if got.label != want.label or not np.allclose(scores, expected, rtol=1e-5, atol=1e-6):
                out.fail(f"icl job {j} query {q}: {got} != uncached {want}")
                bad.add(id(job))
                break
    return bad


# ====================================================================== #
# serving workloads
# ====================================================================== #
@dataclass(frozen=True)
class ServeSpec:
    rate: float
    ttft_limit_s: float
    gap_limit_s: float
    paged: bool
    make_inputs: Callable


SERVE = {
    "serve_shared": ServeSpec(
        SHARED_RATE, SHARED_TTFT_LIMIT_S, SHARED_GAP_LIMIT_S, True,
        inputs.shared_inputs,
    ),
    "serve_unique": ServeSpec(
        UNIQUE_RATE, UNIQUE_TTFT_LIMIT_S, UNIQUE_GAP_LIMIT_S, False,
        inputs.unique_inputs,
    ),
}


def run_serve(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = SERVE[name]
    count = max(MIN_TIMED, int(round(spec.rate * seconds * OPEN_SHARE)))
    dataset = inputs.make_dataset(seed)
    data = spec.make_inputs(
        dataset, _tokenizer(seed), seed, SERVE_WARMUP + count, spec.rate, SERVE_CHECK
    )
    # The first requests warm the engine (and, on serve_shared, the pool
    # with the families' heads); the rest are measured.
    specs = data.specs()
    warm, specs = specs[:SERVE_WARMUP], specs[SERVE_WARMUP:]
    offsets = data.offsets[SERVE_WARMUP:] - data.offsets[SERVE_WARMUP]

    def build():
        model = _decoder(_tokenizer(seed).vocab_size)
        pool = None
        config = EngineConfig(max_batch_rows=SERVE_MAX_ROWS)
        if spec.paged:
            allocator = model.paged_allocator("fp32")
            head_blocks = -(-data.head_tokens() // allocator.block_size)
            layer_bytes = head_blocks * allocator.block_bytes
            budget = SHARED_POOL_HEADS * layer_bytes * model.config.num_layers
            pool = PrefixCachePool(model, max_entries=64, max_bytes=budget, kv_layout="paged")
            config = config.replace(kv_layout="paged")
        engine = AsyncEngine(model, config=config, cache_pool=pool)
        for request in engine.submit_batch(warm):
            request.result(timeout=120)
        return engine

    engine, setup_s = _timed_setup(build, lambda e: e.shutdown(drain=False, timeout=30))
    out = Outcome()
    tracer = None
    pending: list[int] = []

    def on_send(timing: RequestTiming) -> None:
        if tracer is not None:
            pending.append(engine.num_pending)

    async def consume(timing: RequestTiming) -> None:
        request = specs[timing.index]
        timing.sent = clock()
        try:
            async for token in engine.stream(
                request["prompt_ids"], request["max_new_tokens"], stop_ids=request["stop_ids"]
            ):
                timing.token_times.append(clock())
                timing.tokens.append(token)
        except Exception as exc:  # counted as a failed request
            timing.error = repr(exc)

    try:
        if trace:
            tracer = LayerTracer(engine=engine, pool=engine.cache_pool).__enter__()
            # The traced run keeps the phases apart, so that queue waits
            # of the open loop and of the saturated batch stay separate.
            timings = asyncio.run(open_loop(offsets, consume, clock=clock, on_send=on_send))
            tracer.mark_open_loop_end()
            saturated = [_saturated(engine, specs)]
            tracer.__exit__(None, None, None)
            # The same saturated batch again, untraced, from a similar pool
            # state: the pair gives the tracing overhead.
            _, untraced_s = _saturated(engine, specs)
        else:
            # Open-loop stretches and saturated batches take turns, so both
            # phases sample the whole run, and a slow spell of the host (see
            # Outcome.latency) weighs on both alike.
            timings, saturated = [], []
            for chunk in np.array_split(np.arange(len(specs)), SERVE_ROUNDS):
                part = offsets[chunk] - offsets[chunk[0]]
                timings += asyncio.run(
                    open_loop(part, consume, clock=clock, first=int(chunk[0]))
                )
                saturated.append(_saturated(engine, specs))
    finally:
        if tracer is not None:
            tracer.recorder.restore()
        engine.shutdown(drain=False, timeout=30)

    out.attempted = (1 + len(saturated)) * len(specs)
    correct = _check_serve(engine.model, specs, timings, saturated, data.check_sample, out)
    if trace:
        for t in timings:
            if t.token_times:
                tracer.recorder.record(
                    "bench.request", t.due, t.token_times[-1], thread="requests", rid=t.index
                )
        out.layers = tracer.metrics(
            untraced_s=untraced_s,
            traced_s=saturated[0][1],
            queries=2 * len(specs),
            lags=[t.lag for t in timings],
            pending=pending,
        )
        tracer.write(name, seed)
        return out

    ttfts, gaps, within = [], [], 0
    for t in timings:
        if t.index not in correct:
            continue
        ttfts.append(t.ttft)
        gaps.extend(t.gaps())
        if t.ttft <= spec.ttft_limit_s and max(t.gaps(), default=0.0) <= spec.gap_limit_s:
            within += 1
    # All batches' tokens over their total time (see Outcome.latency).
    generated = sum(
        len(r) - len(s["prompt_ids"])
        for results, _ in saturated
        for r, s in zip(results, specs)
        if not isinstance(r, Exception)
    )
    rate = generated / sum(took for _, took in saturated)
    out.metrics["throughput_per_s"] = rate
    out.latency(ttfts, "ttft")
    for q in (50, 90):
        p = percentile(gaps, q)
        out.name(f"itl_p{q}_ms", p.value * 1e3, f"ms (n={p.n})")
    out.name("sla_ok_frac", within / len(specs), "frac")
    out.name("saturated_tokens_per_s", rate, f"1/s ({len(saturated)} batches)")
    out.name("offered_rate", spec.rate, "1/s")
    out.finish(setup_s, within / len(specs))
    return out


def _saturated(engine: AsyncEngine, specs: list[dict]):
    """Submit every request in one batch and await all of them; returns the
    results and the seconds taken."""
    start = clock()
    requests = engine.submit_batch(specs)
    results = []
    for request in requests:
        try:
            results.append(request.result(timeout=120))
        except Exception as exc:  # counted by the checks
            results.append(exc)
    return results, clock() - start


def _stream_problem(timing: RequestTiming, stops, max_new) -> str | None:
    """Why a streamed request is wrong, or None: it ends on its first stop
    token or exhausts its budget."""
    tokens = timing.tokens
    if timing.error is not None:
        return timing.error
    if not tokens:
        return "no tokens"
    if any(t in stops for t in tokens[:-1]):
        return "continued past a stop token"
    if tokens[-1] not in stops and len(tokens) != max_new:
        return f"ended after {len(tokens)} tokens without stop or length"
    return None


def _check_serve(model: DecoderLM, specs, timings, saturated, sample, out: Outcome) -> set:
    """Check both phases' outputs; returns the indices of the open-loop
    requests that completed correctly.

    Every request must end with ``stop`` or ``length``; every saturated
    batch (``saturated`` holds ``(results, seconds)`` pairs) must reproduce
    the streamed tokens; on a seeded sample the tokens must equal
    ``DecoderLM.generate(use_cache=False)``.
    """
    correct = set()
    sample = {i - SERVE_WARMUP for i in sample if i >= SERVE_WARMUP}
    for t in timings:
        spec = specs[t.index]
        prompt_len = len(spec["prompt_ids"])
        problem = _stream_problem(t, spec["stop_ids"], spec["max_new_tokens"])
        if problem is None and t.index in sample:
            want = model.generate(
                spec["prompt_ids"],
                spec["max_new_tokens"],
                stop_ids=spec["stop_ids"],
                use_cache=False,
            )[prompt_len:]
            if list(want) != t.tokens:
                problem = f"tokens {t.tokens} != uncached generate {list(want)}"
        if problem is None:
            correct.add(t.index)
        else:
            out.fail(f"request {t.index}: {problem}")
        for results, _ in saturated:
            result = results[t.index]
            if isinstance(result, Exception):
                out.fail(f"saturated request {t.index} raised {result!r}")
            elif problem is None and list(result[prompt_len:]) != t.tokens:
                out.fail(f"saturated request {t.index}: output differs from the streamed one")
    return correct


# ====================================================================== #
# sft_train
# ====================================================================== #
@dataclass
class _SftRound:
    trainer: SFTTrainer
    losses: list
    predictions: np.ndarray
    singles: list
    fit_s: float
    predict_s: float
    single_s: list


def run_sft_train(seed: int, seconds: float, trace: bool) -> Outcome:
    dataset = inputs.make_dataset(seed)
    data = inputs.sft_inputs(dataset, seed, SFT_SINGLES_PER_ROUND, SFT_CHECK)
    config = TrainingConfig(epochs=SFT_EPOCHS, seed=MODEL_SEED)

    def trainer(tokenizer):
        model = EncoderForSequenceClassification(
            get_config(ENCODER), tokenizer.vocab_size, rng=MODEL_SEED
        )
        return SFTTrainer(model, tokenizer, config)

    def build():
        tokenizer = _tokenizer(seed)
        warm = trainer(tokenizer)
        warm.fit(data.train_sentences[:64], data.train_labels[:64])
        warm.predict(list(data.test_sentences))
        return tokenizer

    tokenizer, setup_s = _timed_setup(build, lambda _: None)

    def one_round() -> _SftRound:
        sft = trainer(tokenizer)
        start = clock()
        history = sft.fit(data.train_sentences, data.train_labels)
        fit_s = clock() - start
        start = clock()
        predictions = sft.predict(list(data.test_sentences))
        predict_s = clock() - start
        singles, single_s = [], []
        for sentence in data.single_sentences:
            start = clock()
            singles.append(int(sft.predict([sentence])[0]))
            single_s.append(clock() - start)
        losses = history.metric_curve("train_loss")
        return _SftRound(sft, losses, predictions, singles, fit_s, predict_s, single_s)

    out = Outcome()
    if trace:
        def untraced() -> float:
            start = clock()
            one_round()
            return clock() - start

        # Untraced rounds before and after the traced one; their mean is
        # the reference for the tracing overhead.
        before = untraced()
        with LayerTracer(engine=None, pool=None) as tracer:
            rounds = [one_round()]
        untraced_s = (before + untraced()) / 2
        out.layers = tracer.metrics(untraced_s=untraced_s, queries=len(data.test_sentences))
        tracer.write("sft_train", seed)
    else:
        # Rounds continue while the next one would mostly fit the budget.
        rounds = []
        start = clock()
        while len(rounds) * SFT_SINGLES_PER_ROUND < MIN_TIMED or (
            clock() - start + (clock() - start) / len(rounds) / 2 < seconds
        ):
            rounds.append(one_round())

    within = 0
    for r in rounds:
        out.attempted += 2 + len(r.singles)
        if not (all(math.isfinite(x) for x in r.losses) and r.losses[-1] < r.losses[0]):
            out.fail(f"train loss is not finite and falling: {r.losses}")
        sample = list(data.check_sample)
        one_by_one = r.trainer.predict([data.test_sentences[i] for i in sample], batch_size=1)
        if not np.array_equal(one_by_one, r.predictions[sample]):
            out.fail("batched predict differs from batch_size=1 predict")
        batched = r.trainer.predict(list(data.single_sentences))
        for got, want, took in zip(r.singles, batched, r.single_s):
            if got != want:
                out.fail("single-sentence predict differs from batched predict")
            elif took <= SFT_SINGLE_LIMIT_S:
                within += 1
    if trace:
        return out
    # Rates over all rounds together (see Outcome.latency).
    train_rate = len(rounds) * len(data.train_sentences) * SFT_EPOCHS / sum(
        r.fit_s for r in rounds
    )
    predict_rate = len(rounds) * len(data.test_sentences) / sum(r.predict_s for r in rounds)
    out.metrics["throughput_per_s"] = train_rate
    out.name("train_samples_per_s", train_rate, f"1/s (rounds={len(rounds)})")
    out.name("sft_predict_per_s", predict_rate, "1/s")
    single_s = [s for r in rounds for s in r.single_s]
    out.latency(single_s, "sft_single_predict")
    out.finish(setup_s, within / len(single_s))
    return out


WORKLOADS = {
    "icl_batch": run_icl_batch,
    "serve_shared": lambda seed, seconds, trace: run_serve("serve_shared", seed, seconds, trace),
    "serve_unique": lambda seed, seconds, trace: run_serve("serve_unique", seed, seconds, trace),
    "sft_train": run_sft_train,
}
