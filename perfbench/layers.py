"""Per-layer metrics of the traced run.

:class:`LayerTracer` wraps the public functions at each layer boundary of
the program with a :class:`~perfbench.spans.SpanRecorder` while it is
entered, and turns the recorded spans and counters into the per-layer
metrics named in ``BENCHMARK.json``.  Layers are named after their
modules.  A layer a workload bypasses reports 0 (its counters never move).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np

from perfbench.quantiles import TooFewSamples, percentile
from perfbench.spans import SpanRecorder, coverage, self_time_by_name, self_times
from repro.icl.prompts import PromptTemplate
from repro.models.decoder import DecodeBatch, DecoderLM
from repro.models.encoder import EncoderForSequenceClassification
from repro.nn.attention import MultiHeadAttention
from repro.nn.paged import BlockAllocator
from repro.serving import AsyncEngine, ContinuousBatchingEngine, PrefixCachePool
from repro.tensor import Tensor
from repro.tokenization import LogTokenizer
from repro.training import AdamW, LinearWarmupSchedule, SFTTrainer
from repro.training import trainer as trainer_module

#: Where the traced run writes its spans, relative to the working directory.
SPAN_DIR = Path(".perfbench_out")

def _forward_name(model, input_ids, *args, **kwargs) -> str:
    return "decoder.prefill" if np.shape(input_ids)[1] > 1 else "decoder.decode"


def _encoder_name(model, *args, **kwargs) -> str:
    return "train.forward" if model.training else "sft.forward"


def _p(samples, q) -> float:
    """Percentile for a per-layer metric; 0 when the layer had too few calls."""
    try:
        return percentile(samples, q).value
    except TooFewSamples:
        return 0.0


class LayerTracer:
    """Installs span wrappers on enter, removes them on exit."""

    def __init__(self, engine: AsyncEngine | None, pool: PrefixCachePool | None) -> None:
        self.recorder = SpanRecorder()
        self.engine = engine
        self.pool = pool
        self._pool_before = None
        self._engine_before = None
        self._open_loop_queued = None

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "LayerTracer":
        rec = self.recorder
        counts = rec.counts

        def forwarded(result, model, input_ids, *args, **kwargs):
            rows, width = np.shape(input_ids)
            counts["decoder.tokens"] += rows * width
            if width > 1:
                counts["decoder.prefill_tokens"] += rows * width

        def checked_out(result, pool, prompt_ids):
            counts["pool.checkout_tokens"] += len(np.ravel(prompt_ids))
            counts["pool.reused_tokens"] += int(result[1])

        def encoded(result, tokenizer, texts, *args, **kwargs):
            counts["encoder.tokens"] += int(np.size(result[0]))

        rec.wrap(DecoderLM, "forward_incremental", _forward_name, after=forwarded)
        rec.wrap(DecodeBatch, "step", "decoder.step")
        rec.wrap(MultiHeadAttention, "forward", "attention.forward")
        rec.wrap(BlockAllocator, "gather_batch", "paged.gather_batch")
        rec.count_calls(BlockAllocator, "ensure_exclusive", "paged.ensure_exclusive")
        rec.wrap(PrefixCachePool, "checkout", "pool.checkout", after=checked_out)
        rec.wrap(PrefixCachePool, "checkin", "pool.checkin")
        rec.count_calls(Tensor, "__init__", "tensor.objects")
        rec.wrap(Tensor, "backward", "tensor.backward")
        rec.wrap(LogTokenizer, "encode_causal", "tokenization.encode")
        rec.wrap(LogTokenizer, "encode_batch_classification", "tokenization.encode", after=encoded)
        rec.wrap(PromptTemplate, "build", "icl.prompt_build")
        rec.wrap(EncoderForSequenceClassification, "__call__", _encoder_name)
        rec.wrap(SFTTrainer, "fit", "train.fit")
        rec.wrap(SFTTrainer, "predict", "sft.predict")
        rec.wrap(AdamW, "step", "train.optim")
        rec.wrap(LinearWarmupSchedule, "step", "train.optim")
        rec.wrap(trainer_module, "clip_grad_norm", "train.optim")
        rec.wrap(AsyncEngine, "submit", "aio.submit")
        rec.wrap(AsyncEngine, "submit_batch", "aio.submit")
        rec.wrap(ContinuousBatchingEngine, "step", "engine.step")
        if self.engine is not None:
            # The stepping thread parks on this condition when it has no
            # work; the wrapper makes parked time visible next to steps.
            rec.wrap(self.engine._work, "wait", "engine.park")
            stats = self.engine.stats
            self._engine_before = (stats.steps, stats.row_steps, len(stats.queue_seconds))
        if self.pool is not None:
            s = self.pool.stats
            self._pool_before = (s.hits, s.misses, s.evictions)
        self._root = rec.span("bench.run")
        self._root.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._root.__exit__(*exc)
        self.recorder.restore()

    def mark_open_loop_end(self) -> None:
        """Close the open-loop phase: queue waits after this point come from
        the saturated phase, whose queue is built on purpose."""
        self._open_loop_queued = len(self.engine.stats.queue_seconds)

    # ------------------------------------------------------------------ #
    def metrics(
        self,
        *,
        untraced_s: float,
        queries: int,
        traced_s: float | None = None,
        lags: list[float] = (),
        pending: list[int] = (),
    ) -> dict[str, float]:
        """Per-layer metrics over the traced window.

        ``untraced_s`` and ``traced_s`` time the same work without and with
        tracing (``traced_s`` defaults to the whole traced window);
        ``queries`` counts the queries or requests the window served;
        ``lags`` and ``pending`` are the open-loop generator's lateness and
        the engine's pending count, one per arrival.
        """
        rec = self.recorder
        spans = rec.spans
        counts = rec.counts
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def durations(name):
            return [s.duration for s in by_name.get(name, ())]

        def total(name):
            return float(sum(durations(name)))

        own = self_times(spans)
        own_by_name = self_time_by_name(spans)
        root = by_name["bench.run"][0]
        wall = root.duration
        main = threading.main_thread().name
        on_main = [s for s in spans if s.thread == main]
        m: dict[str, float] = {}

        # bench
        m["bench.sched_lag_p90_ms"] = _p(lags, 90) * 1e3 if lags else 0.0
        m["bench.requests_sent"] = float(len(lags))
        # serving.aio
        m["aio.submit_us_p50"] = _p(durations("aio.submit"), 50) * 1e6
        m["aio.pending_p90"] = _p(pending, 90) if pending else 0.0
        # serving.engine
        steps = durations("engine.step")
        m["engine.step_ms_p50"] = _p(steps, 50) * 1e3
        m["engine.step_ms_p90"] = _p(steps, 90) * 1e3
        m["engine.busy_frac"] = sum(steps) / wall
        parks = [s for s in spans if s.name in ("engine.step", "engine.park")]
        m["engine.stepper_coverage"] = coverage(parks, root.start, root.end) if parks else 0.0
        if self.engine is not None:
            st = self.engine.stats
            steps0, rows0, queued0 = self._engine_before
            m["engine.steps"] = float(st.steps - steps0)
            m["engine.rows_per_step_mean"] = (st.row_steps - rows0) / max(st.steps - steps0, 1)
            waits = st.queue_seconds[queued0 : self._open_loop_queued]
            m["engine.queue_wait_ms_p90"] = _p(waits, 90) * 1e3
        else:
            m["engine.steps"] = m["engine.rows_per_step_mean"] = 0.0
            m["engine.queue_wait_ms_p90"] = 0.0
        # models.decoder
        prefill_tokens = counts["decoder.prefill_tokens"]
        m["decoder.prefill_tokens"] = float(prefill_tokens)
        m["decoder.prefill_us_per_token"] = (
            total("decoder.prefill") / prefill_tokens * 1e6 if prefill_tokens else 0.0
        )
        m["decoder.decode_ms_p50"] = _p(durations("decoder.decode"), 50) * 1e3
        m["decoder.step_self_ms_p50"] = (
            _p([own[s.sid] for s in by_name.get("decoder.step", ())], 50) * 1e3
        )
        m["decoder.prefill_tokens_per_query"] = prefill_tokens / max(queries, 1)
        # nn.attention
        forward = sum(
            total(n) for n in ("decoder.prefill", "decoder.decode", "train.forward", "sft.forward")
        )
        m["attention.self_ms_share"] = (
            own_by_name.get("attention.forward", 0.0) / forward if forward else 0.0
        )
        # nn.paged
        m["paged.gather_batch_ms_total"] = total("paged.gather_batch") * 1e3
        m["paged.gather_batch_calls"] = float(len(durations("paged.gather_batch")))
        m["paged.ensure_exclusive_calls"] = float(counts["paged.ensure_exclusive"])
        allocator = None
        if self.engine is not None and self.engine.config.kv_layout == "paged":
            allocator = self.engine.model.paged_allocator(self.engine.config.kv_dtype)
        m["paged.peak_kv_bytes"] = float(allocator.peak_bytes_in_use) if allocator else 0.0
        m["paged.blocks_in_use_end"] = (
            float(allocator.bytes_in_use // allocator.block_bytes) if allocator else 0.0
        )
        # serving.pool
        if self.pool is not None:
            s = self.pool.stats
            hits0, misses0, evictions0 = self._pool_before
            hits, misses = s.hits - hits0, s.misses - misses0
            m["pool.hit_rate"] = hits / max(hits + misses, 1)
            m["pool.evictions"] = float(s.evictions - evictions0)
        else:
            m["pool.hit_rate"] = m["pool.evictions"] = 0.0
        m["pool.reused_token_frac"] = counts["pool.reused_tokens"] / max(
            counts["pool.checkout_tokens"], 1
        )
        m["pool.checkout_us_p50"] = _p(durations("pool.checkout"), 50) * 1e6
        m["pool.checkin_us_p50"] = _p(durations("pool.checkin"), 50) * 1e6
        # tensor
        tokens = counts["decoder.tokens"] + counts["encoder.tokens"]
        m["tensor.objects_per_token"] = counts["tensor.objects"] / max(tokens, 1)
        optimiser_steps = len(by_name.get("train.forward", ()))
        m["tensor.backward_ms_per_step"] = (
            total("tensor.backward") / optimiser_steps * 1e3 if optimiser_steps else 0.0
        )
        # tokenization / icl
        m["tokenization.encode_ms_share"] = own_by_name.get("tokenization.encode", 0.0) / wall
        m["icl.prompt_build_ms_share"] = own_by_name.get("icl.prompt_build", 0.0) / wall
        # training
        per_step = 1e3 / optimiser_steps if optimiser_steps else 0.0
        m["train.forward_ms_per_step"] = total("train.forward") * per_step
        m["train.backward_ms_per_step"] = m["tensor.backward_ms_per_step"]
        m["train.optim_ms_per_step"] = total("train.optim") * per_step
        fits = {s.sid for s in by_name.get("train.fit", ())}
        fit_encode = sum(
            s.duration for s in by_name.get("tokenization.encode", ()) if s.parent in fits
        )
        m["train.encode_ms_share"] = fit_encode / total("train.fit") if fits else 0.0
        # trace
        traced = wall if traced_s is None else traced_s
        m["trace.overhead_frac"] = traced / untraced_s - 1.0
        m["trace.self_time_coverage"] = sum(own[s.sid] for s in on_main) / wall
        m["trace.spans"] = float(len(spans))
        return m

    def write(self, workload: str, seed: int) -> Path:
        path = SPAN_DIR / f"spans-{workload}-seed{seed}-pid{os.getpid()}.tsv"
        self.recorder.write(path)
        return path
