"""Seeded workload inputs.

Everything a workload feeds the program is made here from ``--seed``: the
FlowBench dataset, the ICL jobs, the serving prompts and arrival schedules,
and the stop sets.  The same seed gives the same inputs; the program under
test sees only what these functions return.  Workload shape constants live
here too, so the benchmark description and the tests read one source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.flowbench import generate_dataset
from repro.icl import FewShotSelector, PromptTemplate
from repro.models.decoder import common_prefix_length
from repro.tokenization import LogTokenizer

DATASET = "1000genome"
DATASET_TRACES = 4

# icl_batch: closed loop of classify_batch jobs, one example set per job.
ICL_JOB_QUERIES = 32
ICL_SHOTS = 8

# serve_shared: CoT explanation requests over Zipf-popular few-shot families.
SHARED_FAMILIES = 8
SHARED_SHOTS = 8
#: Popularity skew.  About four requests in five find their family's head
#: pooled, so the TTFT median lies inside the hit mode and the p90 inside the
#: miss mode; a milder skew put the median on the gap between the two and
#: it jumped from run to run.
SHARED_ZIPF_S = 2.0
SHARED_MAX_NEW = 16

# serve_unique: short unshared prompts, longer data-dependent outputs.
UNIQUE_PROMPT_MIN = 16
UNIQUE_PROMPT_MAX = 64
UNIQUE_MAX_NEW = 64

#: Share of the vocabulary in each serving request's seeded stop set.  Every
#: request draws its own set, so output lengths depend on the tokens a
#: request happens to generate, while their spread over a run stays the
#: same from seed to seed.
STOP_FRACTION = 1 / 12


def make_dataset(seed: int):
    """The seed's FlowBench dataset.  A draw whose training split lacks a
    class (every trace normal, about one seed in 90) is replaced by the
    seed's next draw: mixed few-shot example sets need both."""
    for attempt in itertools.count():
        dataset = generate_dataset(
            DATASET, num_traces=DATASET_TRACES, seed=_rng(seed, 100 + attempt)
        )
        if dataset.train.num_normal() and dataset.train.num_anomalous():
            return dataset


def query_pool(dataset) -> list:
    """Held-out job records the ICL and serving queries are drawn from."""
    return list(dataset.test) + list(dataset.validation)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class IclJob:
    """One ``classify_batch`` call: its queries and its example-set seed."""

    queries: tuple
    example_seed: int

    def selector(self, dataset) -> FewShotSelector:
        """A fresh selector that draws this job's example set."""
        return FewShotSelector(list(dataset.train), seed=self.example_seed)


def icl_jobs(dataset, seed: int, count: int) -> list[IclJob]:
    rng = _rng(seed, 1)
    pool = query_pool(dataset)
    jobs = []
    for _ in range(count):
        picks = rng.choice(len(pool), size=ICL_JOB_QUERIES, replace=False)
        jobs.append(
            IclJob(tuple(pool[i] for i in picks), int(rng.integers(1 << 31)))
        )
    return jobs


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeInputs:
    """Prompts, token budgets and arrival offsets of one serving workload."""

    prompts: tuple
    max_new_tokens: int
    stop_sets: tuple
    offsets: np.ndarray
    #: Indices of the requests whose tokens are checked against the
    #: uncached reference decoder.
    check_sample: tuple
    #: Family of every request (serve_shared), else empty.
    families: tuple = ()

    def specs(self) -> list[dict]:
        """``AsyncEngine.submit_batch`` specs for every request."""
        return [
            {
                "prompt_ids": p,
                "max_new_tokens": self.max_new_tokens,
                "stop_ids": set(stops),
            }
            for p, stops in zip(self.prompts, self.stop_sets)
        ]

    def head_tokens(self) -> int:
        """Median token length of the family heads (serve_shared): the
        longest prefix two prompts of one family share."""
        members: dict[int, list] = {}
        for prompt, family in zip(self.prompts, self.families):
            members.setdefault(family, []).append(prompt)
        shared = [
            common_prefix_length(group[0], group[1])
            for group in members.values()
            if len(group) > 1
        ]
        return int(np.median(shared))


def stop_sets(rng: np.random.Generator, vocab_size: int, count: int) -> tuple:
    size = max(int(vocab_size * STOP_FRACTION), 1)
    return tuple(
        frozenset(int(t) for t in rng.choice(vocab_size, size=size, replace=False))
        for _ in range(count)
    )


def _schedule(rng, rate, count, check):
    """Poisson arrival offsets, and the seeded sample of requests to check."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    sample = tuple(int(i) for i in sorted(rng.choice(count, size=check, replace=False)))
    return offsets, sample


def zipf_counts(count: int) -> np.ndarray:
    """Requests per family: Zipf shares of ``count``, rounded by largest
    remainder.  Fixed counts in a seeded order keep the family mix, and so
    the pool hit rate, alike from seed to seed."""
    weights = 1.0 / np.arange(1, SHARED_FAMILIES + 1) ** SHARED_ZIPF_S
    shares = weights / weights.sum() * count
    counts = np.floor(shares).astype(int)
    counts[np.argsort(counts - shares)[: count - counts.sum()]] += 1
    return counts


def shared_inputs(
    dataset, tokenizer: LogTokenizer, seed: int, count: int, rate: float, check: int
) -> ServeInputs:
    """serve_shared: a family's few-shot head plus a unique query tail."""
    rng = _rng(seed, 2)
    template = PromptTemplate(include_task_description=False, chain_of_thought=True)
    train = list(dataset.train)
    heads = [
        FewShotSelector(train, seed=int(rng.integers(1 << 31))).select(SHARED_SHOTS)
        for _ in range(SHARED_FAMILIES)
    ]
    families = rng.permutation(np.repeat(np.arange(SHARED_FAMILIES), zipf_counts(count)))
    pool = query_pool(dataset)
    queries = rng.choice(len(pool), size=count)
    prompts = tuple(
        tokenizer.encode_causal(template.build(pool[q], heads[f]))
        for f, q in zip(families, queries)
    )
    stops = stop_sets(rng, tokenizer.vocab_size, count)
    offsets, sample = _schedule(rng, rate, count, check)
    return ServeInputs(
        prompts, SHARED_MAX_NEW, stops, offsets, sample, tuple(int(f) for f in families)
    )


def unique_inputs(
    dataset, tokenizer: LogTokenizer, seed: int, count: int, rate: float, check: int
) -> ServeInputs:
    """serve_unique: windows cut at random token offsets of the job log, so
    no two prompts share more than a few leading tokens."""
    rng = _rng(seed, 3)
    stream = tokenizer.encode_causal(" ".join(dataset.train.sentences()), add_bos=False)
    bos = tokenizer.vocab.bos_id
    prompts = []
    for _ in range(count):
        length = int(rng.integers(UNIQUE_PROMPT_MIN, UNIQUE_PROMPT_MAX + 1))
        start = int(rng.integers(0, len(stream) - length))
        prompts.append(np.concatenate([[bos], stream[start : start + length - 1]]))
    stops = stop_sets(rng, tokenizer.vocab_size, count)
    offsets, sample = _schedule(rng, rate, count, check)
    return ServeInputs(tuple(prompts), UNIQUE_MAX_NEW, stops, offsets, sample)


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SftInputs:
    train_sentences: tuple
    train_labels: np.ndarray
    test_sentences: tuple
    #: Sentences classified one call at a time (the online-detection path).
    single_sentences: tuple
    #: Indices of test sentences re-predicted at batch size 1.
    check_sample: tuple


def sft_inputs(dataset, seed: int, singles: int, check: int) -> SftInputs:
    rng = _rng(seed, 4)
    test = dataset.test.sentences()
    picks = rng.choice(len(test), size=singles)
    sample = rng.choice(len(test), size=check, replace=False)
    return SftInputs(
        tuple(dataset.train.sentences()),
        dataset.train.labels(),
        tuple(test),
        tuple(test[i] for i in picks),
        tuple(int(i) for i in sorted(sample)),
    )
