"""Debiasing of SFT models via data augmentation (paper Section IV-D, Fig. 9).

The probe: feed the model an *empty* sentence — with no information about the
job the ideal detector should assign ≈0.5 probability to each class.  Raw
pre-trained (and sometimes fine-tuned) models are biased toward one class.
The mitigation: augment the training data with empty sentences carrying both
labels in equal numbers, forcing the model's prior toward 50/50.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.training.trainer import SFTTrainer
from repro.utils.rng import new_rng

__all__ = ["BiasProbeResult", "bias_probe", "augment_with_empty_sentences"]

EMPTY_SENTENCE = " "


@dataclass(frozen=True)
class BiasProbeResult:
    """Outcome of probing a model with the empty sentence over several runs."""

    model_name: str
    normal_probability: float
    abnormal_probability: float
    normal_std: float
    abnormal_std: float
    runs: int

    @property
    def bias_gap(self) -> float:
        """Absolute gap between the two class probabilities (0 = unbiased)."""
        return abs(self.normal_probability - self.abnormal_probability)


def bias_probe(
    trainer: SFTTrainer,
    runs: int = 10,
    model_name: str = "",
    rng: np.random.Generator | int | None = None,
) -> BiasProbeResult:
    """Probe a (possibly fine-tuned) model with the empty sentence.

    The paper performs 10 independent runs; since inference is deterministic
    given the weights, run-to-run variation is introduced the same way it
    arises in practice — through dropout kept active (model in train mode).
    """
    rng = new_rng(rng)
    was_training = trainer.model.training
    trainer.model.train()  # keep dropout active so runs differ
    try:
        probabilities = []
        ids, mask = trainer.tokenizer.encode_batch_classification(
            [EMPTY_SENTENCE], max_length=trainer.config.max_length
        )
        for _ in range(runs):
            from repro.tensor import functional as F

            # Grad mode stays on: dropout only draws masks in a
            # grad-enabled forward (``no_grad`` marks inference).  The
            # recorded graph is simply dropped.
            logits = trainer.model(ids, mask)
            probabilities.append(F.softmax(logits, axis=-1).data[0])
        probs = np.stack(probabilities)
    finally:
        trainer.model.train(was_training)
    return BiasProbeResult(
        model_name=model_name or trainer.model.config.name,
        normal_probability=float(probs[:, 0].mean()),
        abnormal_probability=float(probs[:, 1].mean()),
        normal_std=float(probs[:, 0].std()),
        abnormal_std=float(probs[:, 1].std()),
        runs=runs,
    )


def augment_with_empty_sentences(
    sentences: Sequence[str],
    labels: Sequence[int] | np.ndarray,
    *,
    fraction: float = 0.05,
    rng: np.random.Generator | int | None = None,
) -> tuple[list[str], np.ndarray]:
    """Insert empty sentences with balanced labels into the training data.

    ``fraction`` controls how many empty examples are added relative to the
    original training-set size (half labeled normal, half anomalous), which
    "artificially increases the size of training data by inserting both
    labels into the empty input sentence".
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    rng = new_rng(rng)
    labels = np.asarray(labels, dtype=np.int64)
    n_extra = max(int(round(len(sentences) * fraction)), 2)
    n_extra += n_extra % 2  # keep it even so both labels appear equally often
    extra_sentences = [EMPTY_SENTENCE] * n_extra
    extra_labels = np.array([0, 1] * (n_extra // 2), dtype=np.int64)

    all_sentences = list(sentences) + extra_sentences
    all_labels = np.concatenate([labels, extra_labels])
    order = rng.permutation(len(all_sentences))
    return [all_sentences[i] for i in order], all_labels[order]
