"""Shared benchmark harness: model setup, trace generation, reporting.

Every benchmark follows the same two-layer methodology (see DESIGN.md):

1. **Algorithm layer** — run the real NumPy models (LLM + coupled SSMs) on
   synthetic dataset prompts and record per-step traces: tree sizes,
   accepted tokens, SSM steps.  These numbers are *measured*, not modeled.
2. **Hardware layer** — replay the traces through the roofline cost models
   parameterized with the paper's testbed (A10 GPUs, g5.12xlarge nodes) to
   obtain per-token latencies at paper scale.

Results are printed as ASCII tables mirroring the paper's rows/series and
appended to ``benchmarks/results/`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
import zipfile
from functools import lru_cache
from typing import Dict, List, Sequence

import numpy as np

from repro.cluster.cost_model import LatencyModel
from repro.cluster.hardware import single_node_cluster, two_node_cluster
from repro.cluster.models import paper_model
from repro.cluster.offload import OffloadLatencyModel, OffloadSpec
from repro.cluster.parallel import ParallelPlan
from repro.cluster.simulator import ServingSimulator
from repro.engine.generation import GenerationConfig, GenerationResult
from repro.engine.incremental import IncrementalEngine
from repro.engine.tree_spec import SpecInferEngine
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.sampling import SamplingConfig
from repro.model.transformer import TransformerLM
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from repro.workloads.datasets import DATASET_NAMES, dataset_specs, make_dataset

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The toy substrate every benchmark shares.
BENCH_MODEL_CONFIG = ModelConfig(
    vocab_size=96,
    d_model=48,
    n_layers=3,
    n_heads=4,
    max_seq_len=160,
    name="bench-llm",
)

#: Generation length per request; the paper uses 128 but the algorithmic
#: statistics (tokens/step) converge long before that at toy scale.
BENCH_NEW_TOKENS = 24
BENCH_PROMPTS_PER_DATASET = 3

#: Training budget for the benchmark LLM.  Real LLMs have low-entropy
#: next-token distributions; an untrained random transformer does not, and
#: every acceptance-rate statistic in the paper depends on that peakedness.
#: The benchmark LLM is therefore *trained* on a Markov corpus (conditional
#: entropy ~1.2 nats, comparable to English text's per-token entropy) before
#: any measurement.  Weights are cached on disk across invocations.
BENCH_TRAIN_STEPS = 400
_WEIGHTS_CACHE = os.path.join(
    os.path.dirname(__file__), "results", "bench_llm_weights.npz"
)


@lru_cache(maxsize=1)
def bench_corpus():
    """The Markov training/prompt corpus shared by all benchmarks."""
    from repro.workloads.corpus import MarkovCorpus

    return MarkovCorpus(
        vocab_size=BENCH_MODEL_CONFIG.vocab_size,
        branching=4,
        exponent=0.8,
        seed=99,
    )


@lru_cache(maxsize=1)
def bench_llm() -> TransformerLM:
    """The shared benchmark LLM: trained on the Markov corpus, cached.

    A cache file that is missing or does not load — a truncated zip from a
    killed run, a stale layout — is retrained over, and the new file is
    written under a temporary name and moved into place, so this never
    leaves a half-written checkpoint for the next run to trip on.
    """
    from repro.model.parameters import ParameterStore
    from repro.model.trainer import Trainer, TrainingConfig

    try:
        params = ParameterStore.load(_WEIGHTS_CACHE)
        return TransformerLM(BENCH_MODEL_CONFIG, params=params)
    except (zipfile.BadZipFile, ValueError, OSError):
        pass  # absent (FileNotFoundError is an OSError) or damaged: retrain
    model = TransformerLM(BENCH_MODEL_CONFIG, seed=1234)
    corpus = bench_corpus()
    trainer = Trainer(
        model,
        TrainingConfig(max_steps=BENCH_TRAIN_STEPS, learning_rate=3e-3),
    )
    trainer.train_lm(corpus.sample_many(64, 48))
    os.makedirs(os.path.dirname(_WEIGHTS_CACHE), exist_ok=True)
    # ``np.savez`` appends ".npz" to a name that lacks it.
    staging = f"{_WEIGHTS_CACHE}.{os.getpid()}.tmp.npz"
    try:
        model.params.save(staging)
        os.replace(staging, _WEIGHTS_CACHE)
    finally:
        if os.path.exists(staging):
            os.remove(staging)
    return model


def dataset_ssm(dataset: str, seed_offset: int = 0) -> CoupledSSM:
    """The per-dataset SSM with Table 1-calibrated alignment."""
    spec = dataset_specs()[dataset]
    return CoupledSSM(
        bench_llm(),
        alignment=spec.alignment,
        seed=spec.seed + seed_offset,
        noise_scale=2.5,
        uniform_mix=2.5,
        name=f"ssm-{dataset}",
    )


def dataset_prompts(dataset: str, n: int = BENCH_PROMPTS_PER_DATASET,
                    max_len: int = 16) -> List[np.ndarray]:
    """Prompts for one synthetic dataset.

    Prompts follow the benchmark Markov chain (so the trained LLM's
    conditionals are meaningful on them) with per-dataset length profiles
    from :func:`repro.workloads.datasets.dataset_specs`.
    """
    spec = dataset_specs()[dataset]
    corpus = bench_corpus()
    rng = np.random.default_rng(spec.seed)
    prompts = []
    for _ in range(n):
        length = max(2, int(rng.normal(spec.mean_prompt_len,
                                       spec.std_prompt_len)))
        if max_len:
            length = min(length, max_len)
        prompts.append(corpus.sample(length, rng=rng))
    return prompts


def spec_engine(dataset: str, config: ExpansionConfig,
                use_naive_sampling: bool = False) -> SpecInferEngine:
    """A SpecInfer engine wired to the shared LLM and a dataset SSM."""
    return SpecInferEngine(
        bench_llm(),
        Speculator([dataset_ssm(dataset)], config),
        use_naive_sampling=use_naive_sampling,
    )


def run_traces(
    engine,
    prompts: Sequence[np.ndarray],
    greedy: bool = True,
    max_new_tokens: int = BENCH_NEW_TOKENS,
    seed: int = 0,
) -> List[GenerationResult]:
    """Generate once per prompt, returning the per-step traces."""
    sampling = (
        SamplingConfig(greedy=True) if greedy
        else SamplingConfig(temperature=1.0)
    )
    config = GenerationConfig(
        max_new_tokens=max_new_tokens,
        sampling=sampling,
        stop_on_eos=False,
        seed=seed,
    )
    return [engine.generate(list(p), config) for p in prompts]


def incremental_traces(prompts: Sequence[np.ndarray],
                       greedy: bool = True) -> List[GenerationResult]:
    """Baseline traces from plain incremental decoding."""
    return run_traces(IncrementalEngine(bench_llm()), prompts, greedy=greedy)


# -- hardware-layer helpers ----------------------------------------------------


def distributed_simulator(llm_name: str) -> ServingSimulator:
    """Simulator for the paper's distributed setups (Figure 7)."""
    if llm_name == "llama-65b":
        cluster = two_node_cluster()
        plan = ParallelPlan(tensor_parallel=4, pipeline_stages=2)
    elif llm_name == "opt-30b":
        cluster = single_node_cluster()
        plan = ParallelPlan(tensor_parallel=4)
    else:
        cluster = single_node_cluster()
        plan = ParallelPlan()
    ssm_name = "opt-125m" if llm_name.startswith("opt") else "llama-68m"
    return ServingSimulator(
        LatencyModel(paper_model(llm_name), plan, cluster),
        LatencyModel(paper_model(ssm_name), ParallelPlan(),
                     single_node_cluster()),
    )


def offload_simulator(llm_name: str) -> ServingSimulator:
    """Simulator for single-GPU offloaded serving (Figure 8)."""
    from repro.cluster.hardware import AWS_G5_NODE

    return ServingSimulator(
        OffloadLatencyModel(paper_model(llm_name), OffloadSpec(AWS_G5_NODE)),
        LatencyModel(paper_model("opt-125m"), ParallelPlan(),
                     single_node_cluster()),
    )


# -- reporting -------------------------------------------------------------------


def save_report(name: str, content: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    print()
    print(content)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(content + "\n")


def all_dataset_names() -> tuple:
    return DATASET_NAMES
