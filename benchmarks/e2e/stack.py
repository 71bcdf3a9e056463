"""The system under test, and the only file here that imports ``repro``.

Everything the benchmark needs from the program is built in this module
from names exported by ``repro.serving``, ``repro.engine``,
``repro.speculate`` and ``repro.model``; the drivers, the tracer and the
metrics never import the program themselves.  A refactor that breaks one of
those names is preceded by a ``benchmark`` issue that ports this file, so
the numbers before and after it are measured by the same benchmark.

The system is fixed, not a knob: a zoo-trained d128x4 LLM with a distilled
d32x1 SSM, the paper's default expansion, block-sparse fused verification
over a shared KV arena, packed speculation, eight batch slots.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zipfile
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import repro.engine.batched as _batched
import repro.engine.pipeline as _pipeline
import repro.model.attention as _attention
import repro.model.perf as _perf
import repro.model.sampling as _sampling
import repro.model.transformer as _transformer
import repro.speculate.expansion as _expansion
import repro.speculate.packed as _packed
import repro.verify.decode as _decode
import repro.verify.stochastic as _stochastic
from repro.engine import (
    DecodePipeline,
    FusedBackend,
    GenerationConfig,
    IncrementalBackend,
    TreeFitter,
)
from repro.model import BatchArena, ModelConfig, SamplingConfig, TransformerLM
from repro.model.zoo import ModelZoo, ZooSpec
from repro.serving import (
    AdmissionError,
    GatewayConfig,
    IncrementalSession,
    RequestManager,
    ServingGateway,
    SpeculativeSession,
    TenantConfig,
)
from repro.speculate import ExpansionConfig, Speculator
from repro.speculate.packed import PackedSpeculator

from benchmarks.e2e.trace import TracePoint



CACHE_DIR = Path(__file__).resolve().parent / ".cache"

VOCAB = 256
MAX_SEQ_LEN = 320
MAX_BATCH = 8

#: One recipe, one zoo seed: the workload seed never reaches the models.
SPEC = ZooSpec(
    vocab_size=VOCAB,
    llm_config=ModelConfig(vocab_size=VOCAB, d_model=128, n_layers=4,
                           n_heads=4, max_seq_len=MAX_SEQ_LEN,
                           name="e2e-llm"),
    ssm_config=ModelConfig(vocab_size=VOCAB, d_model=32, n_layers=1,
                           n_heads=2, max_seq_len=MAX_SEQ_LEN,
                           name="e2e-ssm"),
    llm_steps=300,
    distill_steps=300,
    seed=0,
)

#: Verification randomness of the stochastic workload.  Fixed, so two runs
#: with one workload seed print the same digest.
VERIFY_SEED = 0

#: Tenants of the gateway workload, name to weighted-round-robin share.  The
#: queue bound is far above anything the fixed rate builds, so a refusal is
#: a real overload and not a tuning artefact.
TENANTS = {"alpha": 2, "beta": 1}
TENANT_QUEUE_BOUND = 256


# -- models ------------------------------------------------------------------------


def _train_into_cache() -> float:
    """Train the pair into a private directory, then move it into place, so
    a killed run never leaves a truncated checkpoint behind."""
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    (CACHE_DIR / ".gitignore").write_text("*\n")
    staging = CACHE_DIR / f"staging-{os.getpid()}"
    start = time.perf_counter()
    try:
        ModelZoo(cache_dir=str(staging)).trained_pair(SPEC)
        train_s = time.perf_counter() - start
        (staging / "train_s.json").write_text(json.dumps(train_s))
        for path in staging.iterdir():
            os.replace(path, CACHE_DIR / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return train_s


def load_models() -> Tuple[TransformerLM, TransformerLM]:
    """The cached pair.  Raises ``FileNotFoundError`` on a cold cache."""
    if not (CACHE_DIR / "train_s.json").exists():
        raise FileNotFoundError(CACHE_DIR / "train_s.json")
    return ModelZoo(cache_dir=str(CACHE_DIR)).trained_pair(SPEC)


def ensure_models() -> float:
    """Train the pair if the cache is cold or damaged; returns the seconds
    the training took when it last ran (``model.zoo.train_s``)."""
    try:
        load_models()
    except (FileNotFoundError, zipfile.BadZipFile, ValueError, OSError):
        return _train_into_cache()
    return float(json.loads((CACHE_DIR / "train_s.json").read_text()))


def prompt_sampler() -> Callable[[int, np.random.Generator], List[int]]:
    """``(length, rng) -> prompt`` over the corpus the pair was trained on,
    so the SSM's guesses are accepted at a realistic rate."""
    corpus = ModelZoo().corpus(SPEC)
    return lambda length, rng: [int(t) for t in corpus.sample(length, rng)]


# -- serving stacks ----------------------------------------------------------------


#: Decoding mode by ``stochastic``.
_SAMPLING = {
    False: SamplingConfig(greedy=True),
    True: SamplingConfig(greedy=False, temperature=1.0),
}


def generation_config(max_new_tokens: int, stochastic: bool,
                      seed: int) -> GenerationConfig:
    """One request's bounds.  ``stop_on_eos`` is off so that every request
    commits exactly ``max_new_tokens`` tokens and runs are comparable."""
    return GenerationConfig(max_new_tokens=max_new_tokens,
                            sampling=_SAMPLING[stochastic],
                            stop_on_eos=False, seed=seed)


class Stack:
    """One freshly built serving stack.

    ``mode`` is ``"spec"`` (SpecInfer: speculative sessions verified by one
    fused block-sparse pass per tick) or ``"incr"`` (Algorithm 1: per-request
    incremental sessions on the same LLM, no SSM and no tree).
    """

    def __init__(self, mode: str, stochastic: bool = False):
        if mode not in ("spec", "incr"):
            raise ValueError(f"unknown mode {mode!r}")
        self.llm, self.ssm = load_models()
        self.arena = BatchArena(self.llm.config, max_requests=MAX_BATCH)
        llm, ssm, arena = self.llm, self.ssm, self.arena
        expansion = ExpansionConfig.paper_default()

        if mode == "spec":
            def factory(request):
                return SpeculativeSession(
                    request, llm,
                    lambda: Speculator([ssm], expansion),
                    cache_factory=arena.new_sequence,
                )
            backend = FusedBackend(
                llm, sampling=_SAMPLING[stochastic],
                rng=np.random.default_rng(VERIFY_SEED), mode="block")
        else:
            def factory(request):
                return IncrementalSession(
                    request, llm, cache_factory=arena.new_sequence)
            backend = None
        self.manager = RequestManager(
            factory, max_batch_size=MAX_BATCH, backend=backend)

    def gateway(self) -> ServingGateway:
        """The asyncio front door over this stack's manager."""
        tenants = {
            name: TenantConfig(name=name, weight=weight,
                               max_queue_depth=TENANT_QUEUE_BOUND)
            for name, weight in TENANTS.items()
        }
        return ServingGateway(
            self.manager, GatewayConfig(tenants=tenants, auto_tenants=False))


# -- where the tracer looks ---------------------------------------------------------


def trace_points(stack: Stack) -> List[TracePoint]:
    """The public functions of each layer that the traced pass brackets,
    with the span name each gets (see ``metrics.per_layer`` for how span
    names become layer metrics).  Model methods are split by instance into
    ``model.llm.*`` and ``model.ssm.*``."""
    llm = stack.llm

    def model(method: str):
        of_llm, of_ssm = f"model.llm.{method}", f"model.ssm.{method}"
        return lambda self, *_: of_llm if self is llm else of_ssm

    def rows(counts, name, args, kwargs, result):
        counts[name + ".rows"] += len(args[1])

    def verified(counts, name, args, kwargs, results):
        trees = args[2]
        counts["verify.trees"] += len(trees)
        counts["verify.tokens_scored"] += sum(len(tree) for tree in trees)
        counts["verify.tokens_accepted"] += sum(
            len(result.accepted_tokens) for result in results)

    def subset(counts, name, args, kwargs, result):
        only = kwargs.get("only", args[1] if len(args) > 1 else None)
        if only is not None:
            counts["manager.step.subset"] += 1

    points = [
        # Session construction is where a prompt is prefilled into the LLM
        # and the SSM: the cost of admitting a request.
        TracePoint(stack.manager, "session_factory", "manager.session"),
        TracePoint(RequestManager, "submit", "manager.submit"),
        TracePoint(RequestManager, "admit", "manager.admit"),
        TracePoint(RequestManager, "step", "manager.step", subset),
        TracePoint(RequestManager, "run_iteration", "manager.run_iteration"),
        TracePoint(DecodePipeline, "tick", "pipeline.tick"),
        TracePoint(DecodePipeline, "commit", "pipeline.commit"),
        TracePoint(TreeFitter, "fit", "pipeline.fit"),
        TracePoint(PackedSpeculator, "speculate_batch", "speculate.batch"),
        TracePoint(Speculator, "speculate", "speculate.one"),
        TracePoint(Speculator, "advance", "speculate.advance"),
        TracePoint(Speculator, "prefill", "speculate.prefill"),
        TracePoint(FusedBackend, "verify", "verify.fused", verified),
        TracePoint(IncrementalBackend, "verify", "verify.incremental",
                   verified),
        TracePoint(TransformerLM, "prefill", model("prefill")),
        TracePoint(TransformerLM, "decode", model("decode")),
        TracePoint(TransformerLM, "forward_masked", model("forward_masked")),
        TracePoint(TransformerLM, "forward_masked_blocks", model("forward"),
                   rows),
    ]
    # Op functions, patched where the calling module bound them.
    for module, attr, name in (
        (_transformer, "linear_forward", "op.linear"),
        (_transformer, "gelu_forward", "op.gelu"),
        (_transformer, "layernorm_forward", "op.layernorm"),
        (_transformer, "block_diagonal_attention", "op.attn"),
        (_attention, "stable_softmax", "op.softmax"),
        (_packed, "stable_softmax", "op.softmax"),
        (_expansion, "stable_softmax", "op.softmax"),
        (_sampling, "softmax", "op.softmax"),
        (_pipeline, "sample_token", "op.sample"),
        (_decode, "distribution_from_logits", "op.sample"),
        (_stochastic, "sample_from_probs", "op.sample"),
        (_packed, "top_k_tokens", "op.sample"),
        (_expansion, "top_k_tokens", "op.sample"),
        (_batched, "linearize", "op.masks"),
        (_batched, "topology_causal_mask", "op.masks"),
    ):
        points.append(TracePoint(module, attr, name))
    return points


def manager_facts(manager: RequestManager, since: int) -> dict:
    """What the manager's own iteration log says about iterations ``since``
    onwards (the warm-up request came before)."""
    log = manager.iteration_stats[since:]
    busy = [stats.batch_size for stats in log if stats.batch_size]
    return {
        "iterations": len(log),
        "batch_mean": sum(busy) / len(busy) if busy else 0.0,
        "preemptions": sum(len(stats.preempted_ids) for stats in log),
        "failed": sum(len(stats.failed_ids) for stats in log),
    }


def perf_counters():
    """``repro.model.perf.track()``: computed (not timed) operation counts."""
    return _perf.track()


# -- the output oracle -------------------------------------------------------------


def greedy_mismatch(llm: TransformerLM, prompt: Sequence[int],
                    tokens: Sequence[int]) -> Optional[int]:
    """Index of the first token that is not the LLM's greedy continuation
    of ``prompt``, or ``None`` when every token is.

    One teacher-forced pass scores all positions at once.  A position where
    it disagrees is decoded again one token at a time (Algorithm 1 with
    nothing around it) before it counts, so the verdict is the incremental
    one even where two logits tie to the last bit.
    """
    sequence = np.asarray(list(prompt) + list(tokens), dtype=np.intp)
    logits = llm.logits_for_sequence(sequence[:-1])
    predicted = np.argmax(logits[len(prompt) - 1:], axis=-1)
    wrong = np.nonzero(predicted != np.asarray(tokens))[0]
    if wrong.size == 0:
        return None
    cache = llm.new_cache()
    if len(prompt) > 1:
        llm.prefill(sequence[:len(prompt) - 1], cache)
    pending = int(prompt[-1])
    for index, token in enumerate(tokens):
        pending = int(np.argmax(llm.decode(pending, cache)))
        if pending != int(token):
            return index
    return None
