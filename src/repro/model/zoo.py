"""Model zoo: trained LLM/SSM pairs with on-disk weight caching.

The paper's model pairs (OPT-175B with OPT-125M, LLaMA-7B with LLaMA-68M)
align because they were pre-trained on the same corpus.  The zoo reproduces
that recipe end-to-end at toy scale: train a 'large' model on a Markov
corpus, then KL-distill genuinely smaller students toward it.  Weights are
cached as ``.npz`` checkpoints so examples and benchmarks pay the training
cost once.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field, fields, is_dataclass
from typing import List, Optional, Tuple

from repro.model.config import ModelConfig
from repro.model.parameters import ParameterStore
from repro.model.trainer import Trainer, TrainingConfig
from repro.model.transformer import TransformerLM
from repro.workloads.corpus import MarkovCorpus

#: Version tag baked into every cache key and checkpoint filename.  Bump it
#: whenever the key scheme, the spec's field semantics, or the trained
#: weight layout changes: old checkpoints then simply stop matching any
#: lookup path instead of being loaded into a mismatched recipe.
ZOO_SCHEMA_VERSION = 2

#: Spec fields that determine each role's trained weights.  The LLM never
#: sees the student's architecture or distillation length, so specs that
#: differ only in SSM fields share one teacher checkpoint: the LLM is
#: trained once for all of them.
_ROLE_FIELDS = {
    "llm": ("corpus_branching", "corpus_seed", "llm_config", "llm_steps",
            "seed", "vocab_size"),
}


def _canonical_value(value) -> str:
    """A stable textual form for cache-key digests.

    ``repr`` is explicitly avoided: dataclass reprs follow declaration
    order (silently re-keying on field reorder) and float repr depends on
    the shortest-roundtrip algorithm.  Dataclasses render as sorted
    ``field=value`` pairs, floats as 17-significant-digit decimals.
    """
    if is_dataclass(value) and not isinstance(value, type):
        inner = ",".join(
            f"{name}={_canonical_value(getattr(value, name))}"
            for name in sorted(f.name for f in fields(value))
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical_value(v) for v in value) + "]"
    return repr(value)


@dataclass(frozen=True)
class ZooSpec:
    """Recipe for one trained LLM + distilled SSM pair.

    Attributes:
        vocab_size: Shared vocabulary size.
        llm_config: Architecture of the large model.
        ssm_config: Architecture of the small model (same vocab).
        corpus_branching: Markov corpus branching factor (lower = more
            predictable text = higher acceptance rates).
        corpus_seed: Corpus seed.
        llm_steps: LLM pre-training steps.
        distill_steps: SSM distillation steps.
        seed: Weight-init seed.
    """

    vocab_size: int = 64
    llm_config: ModelConfig = field(default_factory=lambda: ModelConfig(
        vocab_size=64, d_model=48, n_layers=3, n_heads=4, max_seq_len=128,
        name="zoo-llm",
    ))
    ssm_config: ModelConfig = field(default_factory=lambda: ModelConfig(
        vocab_size=64, d_model=16, n_layers=1, n_heads=2, max_seq_len=128,
        name="zoo-ssm",
    ))
    corpus_branching: int = 4
    corpus_seed: int = 99
    llm_steps: int = 300
    distill_steps: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.llm_config.vocab_size != self.vocab_size:
            raise ValueError("llm_config vocab must match spec vocab")
        if self.ssm_config.vocab_size != self.vocab_size:
            raise ValueError("ssm_config vocab must match spec vocab")

    def cache_key(self, role: Optional[str] = None) -> str:
        """Deterministic key for the on-disk checkpoint.

        Digests an explicit sorted ``field=value`` listing (plus
        :data:`ZOO_SCHEMA_VERSION`) rather than ``repr(self)``, so the key
        cannot shift with dataclass field order or float repr, and a field
        rename changes the key instead of silently aliasing.  With a
        ``role`` in :data:`_ROLE_FIELDS`, only the fields that determine
        that role's weights contribute — every student distilled from the
        same recipe shares its teacher's ``"llm"`` key.
        """
        names = _ROLE_FIELDS.get(role) or sorted(
            f.name for f in fields(self)
        )
        parts = [f"schema={ZOO_SCHEMA_VERSION}", f"role={role or 'pair'}"]
        parts.extend(
            f"{name}={_canonical_value(getattr(self, name))}"
            for name in names
        )
        digest = hashlib.blake2b("|".join(parts).encode(), digest_size=8)
        return digest.hexdigest()


class ModelZoo:
    """Builds and caches trained model pairs.

    Args:
        cache_dir: Directory for ``.npz`` checkpoints (created on demand);
            ``None`` disables disk caching (always retrains).
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir

    def corpus(self, spec: ZooSpec) -> MarkovCorpus:
        """The spec's training corpus."""
        return MarkovCorpus(
            vocab_size=spec.vocab_size,
            branching=spec.corpus_branching,
            seed=spec.corpus_seed,
        )

    def trained_pair(self, spec: ZooSpec) -> Tuple[TransformerLM,
                                                   TransformerLM]:
        """A trained LLM and a distilled SSM for ``spec`` (cached)."""
        llm = self._load_or_train_llm(spec)
        ssm = self._load_or_distill_ssm(spec, llm)
        return llm, ssm

    # -- internals -------------------------------------------------------------------

    def _checkpoint_path(self, spec: ZooSpec, role: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        # The filename embeds the schema version twice over (the prefix and
        # the key digest), so checkpoints written under a stale schema never
        # match a lookup — they are ignored on load and left on disk rather
        # than deserialized into a mismatched recipe.
        return os.path.join(
            self.cache_dir,
            f"zoo-v{ZOO_SCHEMA_VERSION}-{spec.cache_key(role)}-{role}.npz",
        )

    def _load_or_train_llm(self, spec: ZooSpec) -> TransformerLM:
        path = self._checkpoint_path(spec, "llm")
        cached = _load_checkpoint(path, spec.llm_config)
        if cached is not None:
            return cached
        model = TransformerLM(spec.llm_config, seed=spec.seed)
        corpus = self.corpus(spec)
        trainer = Trainer(
            model,
            TrainingConfig(max_steps=spec.llm_steps, learning_rate=3e-3),
        )
        trainer.train_lm(corpus.sample_many(48, 40))
        self._save(model, path)
        return model

    def _load_or_distill_ssm(self, spec: ZooSpec,
                             llm: TransformerLM) -> TransformerLM:
        path = self._checkpoint_path(spec, "ssm")
        cached = _load_checkpoint(path, spec.ssm_config)
        if cached is not None:
            return cached
        model = TransformerLM(spec.ssm_config, seed=spec.seed + 1)
        corpus = self.corpus(spec)
        trainer = Trainer(
            model,
            TrainingConfig(max_steps=spec.distill_steps, learning_rate=3e-3),
        )
        trainer.distill(llm, corpus.sample_many(48, 40))
        self._save(model, path)
        return model

    def _save(self, model: TransformerLM, path: Optional[str]) -> None:
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Write under a temporary name, then rename: a run killed mid-write
        # leaves no truncated checkpoint under the real name.
        staging = f"{path}.{os.getpid()}.tmp.npz"
        try:
            model.params.save(staging)
            os.replace(staging, path)
        finally:
            if os.path.exists(staging):
                os.remove(staging)


def _load_checkpoint(path: Optional[str],
                     config: ModelConfig) -> Optional[TransformerLM]:
    """The model stored at ``path``, or ``None`` to (re)train it: caching
    is off, the file is absent, or it is damaged."""
    if path is None:
        return None
    try:
        params = ParameterStore.load(path)
    except (zipfile.BadZipFile, ValueError, OSError):
        return None  # absent (FileNotFoundError is an OSError) or damaged
    return TransformerLM(config, params=params)
