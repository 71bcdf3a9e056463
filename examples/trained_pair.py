#!/usr/bin/env python
"""SpecInfer on a genuinely trained model pair.

The other examples couple a small model to the LLM by construction
(``CoupledSSM``).  Here the pair comes from the model zoo: a toy LLM
*trained* on a corpus and an SSM *distilled* from it — the honest version
of the paper's pretrained-on-the-same-data alignment.  The script decodes
one corpus prompt with incremental decoding, sequence-based speculation
⟨1,1,1,1,1,1,1,1⟩ and the paper's static tree ⟨1,1,3,1,1,1,1,1⟩, checks
that all three emit the same tokens, and renders one speculated tree.

Run:  python examples/trained_pair.py   (trains once, ~1 minute; cached
      under examples/.zoo_cache for subsequent runs)
"""

import os

from repro import (
    ExpansionConfig,
    GenerationConfig,
    IncrementalEngine,
    SpecInferEngine,
    Speculator,
)
from repro.model.zoo import ModelZoo, ZooSpec
from repro.tree.render import render_tree, tree_stats_line

CACHE_DIR = os.path.join(os.path.dirname(__file__), ".zoo_cache")


def main() -> None:
    print("building trained LLM + distilled SSM (cached after first run)...")
    zoo = ModelZoo(cache_dir=CACHE_DIR)
    spec = ZooSpec()
    llm, ssm = zoo.trained_pair(spec)
    corpus = zoo.corpus(spec)
    prompt = list(corpus.sample(10))
    config = GenerationConfig(max_new_tokens=24, stop_on_eos=False)

    reference = IncrementalEngine(llm).generate(prompt, config)
    sequence = SpecInferEngine(
        llm, Speculator([ssm], ExpansionConfig.sequence())
    ).generate(prompt, config)
    tree_speculator = Speculator([ssm], ExpansionConfig.paper_default())
    tree = SpecInferEngine(llm, tree_speculator).generate(prompt, config)

    assert reference.tokens == sequence.tokens == tree.tokens

    print("\none token tree of the paper's shape (next step's speculation):")
    next_tree = tree_speculator.speculate(int(reference.tokens[-1]))
    print(tree_stats_line(next_tree))
    print(render_tree(next_tree))

    print(f"\n{'engine':<30} {'LLM steps':>9} {'tokens/step':>12} "
          f"{'avg tree size':>14}")
    for name, result in (
        ("incremental", reference),
        ("sequence <1,1,1,1,1,1,1,1>", sequence),
        ("tree <1,1,3,1,1,1,1,1>", tree),
    ):
        sizes = [s.tree_size for s in result.steps if s.tree_size]
        mean_size = sum(sizes) / len(sizes) if sizes else 0.0
        print(f"{name:<30} {result.num_llm_steps:>9} "
              f"{result.mean_tokens_per_step:>12.2f} {mean_size:>14.1f}")
    print("\nall three outputs identical (lossless)")


if __name__ == "__main__":
    main()
