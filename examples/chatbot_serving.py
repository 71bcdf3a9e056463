#!/usr/bin/env python
"""Chatbot serving: continuous batching over a stream of chat prompts.

Simulates the workload the paper's intro motivates — a chatbot endpoint
receiving requests over time — served by the request manager with
iteration-level (Orca-style) scheduling and SpecInfer sessions.  Requests
arrive mid-flight and join the running batch as slots free up.

Run:  python examples/chatbot_serving.py
"""

from repro import (
    CoupledSSM,
    ExpansionConfig,
    GenerationConfig,
    ModelConfig,
    Speculator,
    TransformerLM,
)
from repro.serving import RequestManager, SpeculativeSession
from repro.workloads.datasets import make_dataset


def main() -> None:
    llm = TransformerLM(
        ModelConfig(vocab_size=96, d_model=48, n_layers=3, n_heads=4,
                    max_seq_len=160, name="chat-llm"),
        seed=7,
    )

    def session_factory(request):
        # Each request gets its own speculator (it owns per-request caches).
        return SpeculativeSession(
            request,
            llm,
            lambda: Speculator(
                [CoupledSSM(llm, alignment=0.88, seed=3, noise_scale=2.0)],
                ExpansionConfig.paper_default(),
            ),
        )

    manager = RequestManager(session_factory, max_batch_size=4)
    dataset = make_dataset("CIP", vocab_size=96)

    # First wave of requests.
    for prompt in dataset.sample_prompts(4, max_len=16):
        manager.submit(prompt, GenerationConfig(max_new_tokens=24,
                                                stop_on_eos=False))
    # Run a few iterations, then a second wave arrives mid-flight.
    for _ in range(3):
        manager.run_iteration()
    for prompt in dataset.sample_prompts(4, max_len=16):
        manager.submit(prompt, GenerationConfig(max_new_tokens=24,
                                                stop_on_eos=False))
    outputs = manager.run_until_complete()

    print(f"served {len(outputs)} requests in {manager.iteration} "
          f"scheduler iterations\n")
    print(f"{'request':>7} {'arrived':>8} {'first tok':>10} {'done':>6} "
          f"{'tokens':>7} {'LLM steps':>10}")
    for output in outputs:
        print(
            f"{output.request_id:>7} "
            f"{output.arrival_iteration:>8} "
            f"{output.first_token_iteration:>10} "
            f"{output.finish_iteration:>6} "
            f"{len(output.tokens):>7} "
            f"{output.num_llm_steps:>10}"
        )
    total_tokens = sum(len(o.tokens) for o in outputs)
    total_steps = sum(o.num_llm_steps for o in outputs)
    print(
        f"\naggregate: {total_tokens} tokens in {total_steps} request-steps "
        f"({total_tokens / total_steps:.2f} tokens per LLM step; "
        # Each request's first token comes from its prompt pass.
        f"incremental decoding would need {total_tokens - len(outputs)})"
    )
    busy = [s for s in manager.iteration_stats if s.batch_size > 0]
    print(
        "mean batch occupancy: "
        f"{sum(s.batch_size for s in busy) / len(busy):.2f} / 4"
    )


if __name__ == "__main__":
    main()
