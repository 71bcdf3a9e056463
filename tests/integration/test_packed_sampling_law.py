"""Theorem 4.2 on the path the server runs: packed stochastic drafting
under fused verification emits tokens distributed as the LLM's.

``test_end_to_end.py`` compares two 400-sample estimates of the first
token's law at TV < 0.25.  This pins the same theorem harder and where it
is now load-bearing: 4,096 seeded requests, checked against the LLM's
*exact* first- and second-token laws rather than against another sample.
The first token is the one the batched prompt pass samples from the last
prompt row with the request's own RNG; the second is what the first tick
after it commits, drafted by
:class:`~repro.speculate.packed.PackedSpeculator` behind the queued prompt
(branching trees, so multi-candidate MSS, residual renormalization and
merged duplicate draws all occur).
"""

import math

import numpy as np

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import DecodePipeline, DecodeState, FusedBackend
from repro.model.coupled import CoupledSSM
from repro.model.layers import stable_softmax
from repro.model.sampling import SamplingConfig
from repro.obs import REGISTRY, reset_observability
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.speculator import Speculator
from tests.conftest import make_prompt, total_variation_distance

N_REQUESTS = 4096
BATCH = 64


def tv_bound(vocab: int, n: int, miss: float = 1e-3) -> float:
    """A TV distance an ``n``-sample empirical law stays under, except with
    probability ``miss``, when the samples do come from the law.

    ``E[TV] <= sqrt(vocab / (2 pi n))`` (each cell's absolute deviation has
    mean ``<= sqrt(2 p (1 - p) / (pi n))``; sum, Cauchy-Schwarz, halve), and
    one sample moves TV by at most ``1 / n``, so McDiarmid adds
    ``sqrt(ln(1 / miss) / (2 n))``.
    """
    return (math.sqrt(vocab / (2 * math.pi * n))
            + math.sqrt(math.log(1 / miss) / (2 * n)))


def exact_laws(llm, prompt):
    """``p(t1 | prompt)`` and ``sum_t1 p(t1) p(t2 | prompt, t1)``."""
    def next_law(sequence):
        logits = llm.logits_for_sequence(np.asarray(sequence))[-1]
        return stable_softmax(np.asarray(logits, dtype=np.float64))

    first = next_law(prompt)
    second = sum(
        first[t1] * next_law(list(prompt) + [t1])
        for t1 in range(first.shape[0])
    )
    return first, second


def test_first_and_second_token_laws_are_the_llms(llm):
    reset_observability()
    prompt = make_prompt(np.random.default_rng(5), length=3)
    sampling = SamplingConfig(temperature=1.0)
    # A poorly aligned SSM: rejections and residual sampling do real work.
    ssm = CoupledSSM(llm, alignment=0.5, seed=11, noise_scale=2.0)
    pipeline = DecodePipeline(llm, backend=FusedBackend(
        llm, sampling=sampling, rng=np.random.default_rng(17)))
    vocab = llm.config.vocab_size
    counts = np.zeros((2, vocab))
    for first_seed in range(0, N_REQUESTS, BATCH):
        states = [
            DecodeState(
                llm, prompt,
                GenerationConfig(max_new_tokens=2, sampling=sampling,
                                 stop_on_eos=False, seed=seed),
                speculator=Speculator([ssm], ExpansionConfig((2, 2))),
            )
            for seed in range(first_seed, first_seed + BATCH)
        ]
        # The prompt pass: one forward for the batch, one draw per request.
        for state, outcome in zip(states, pipeline.prefill(states)):
            assert outcome.emitted == state.tokens and not state.steps
            counts[0, state.tokens[0]] += 1
        # The first tick after it commits the second token.
        pipeline.tick(states)
        for state in states:
            assert state.finished and len(state.steps) == 1
            counts[1, state.tokens[1]] += 1

    snap = REGISTRY.snapshot()
    assert snap["repro.speculate.packed.requests"]["value"] == N_REQUESTS
    assert snap["repro.engine.ticks"]["value"] == N_REQUESTS // BATCH

    bound = tv_bound(vocab, N_REQUESTS)
    assert bound < 0.08
    for law, count in zip(exact_laws(llm, prompt), counts):
        assert total_variation_distance(law, count / N_REQUESTS) < bound
