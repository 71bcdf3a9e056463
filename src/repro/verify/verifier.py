"""Token tree verifier façade: decode, verify, compact the KV cache.

Ties together the pieces of paper section 4 into the operation the engine
calls once per speculation/verification iteration:

1. tree-parallel decode of the speculated tree (section 4.2),
2. greedy / MSS / naive verification (section 4.3),
3. KV-cache compaction: only the accepted root-to-node path's keys and
   values survive, positioned as the new verified suffix (Figure 4's
   depth-first cache update).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.attention import MaskScratch
from repro.model.kv_cache import KVCache
from repro.model.sampling import SamplingConfig
from repro.model.scratch import ScratchArena
from repro.model.transformer import TransformerLM
from repro.tree.token_tree import TokenTree
from repro.verify.decode import TreeDecodeOutput, tree_parallel_decode
from repro.verify.greedy import verify_greedy
from repro.verify.naive import verify_naive_sampling
from repro.verify.result import VerificationResult
from repro.verify.stochastic import verify_stochastic


class TokenTreeVerifier:
    """Verifies speculated token trees against an LLM.

    Args:
        model: The large language model used as verifier.
        sampling: Decoding configuration; ``sampling.greedy`` selects
            ``VerifyGreedy``, otherwise MSS (or naive sampling when
            ``use_naive_sampling=True``, for the Table 3 baseline).
        rng: Randomness for stochastic verification.
        use_naive_sampling: Swap MSS for the naive baseline.
        reuse_scratch: Reuse persistent mask/QKV/attention/logits buffers
            across iterations (allocation-free steady state).  ``False``
            runs the allocating path — bit-identical results, used by the
            scratch on/off equivalence suite.
    """

    def __init__(
        self,
        model: TransformerLM,
        sampling: Optional[SamplingConfig] = None,
        rng: Optional[np.random.Generator] = None,
        use_naive_sampling: bool = False,
        reuse_scratch: bool = True,
    ):
        self.model = model
        self.sampling = sampling or SamplingConfig(greedy=True)
        self.rng = rng or np.random.default_rng(0)
        self.use_naive_sampling = use_naive_sampling
        self.reuse_scratch = reuse_scratch
        if reuse_scratch:
            max_len = model.config.max_seq_len
            self._arena: Optional[ScratchArena] = ScratchArena()
            self._mask_scratch: Optional[MaskScratch] = MaskScratch(
                model.config.dtype, arena=self._arena, tag="tree_mask",
                bound=(0, max_len),
            )
        else:
            self._arena = None
            self._mask_scratch = None

    def _tree_mask_out(self, tree: TokenTree,
                       prefix_len: int) -> Optional[np.ndarray]:
        if self._mask_scratch is None:
            return None
        n = len(tree)
        return self._mask_scratch.take(n, prefix_len + n)

    def verify_step(
        self, tree: TokenTree, cache: KVCache
    ) -> VerificationResult:
        """Run one decode+verify iteration and compact ``cache``.

        On entry ``cache`` holds the verified prefix (the tree root's token
        is *not* yet cached).  On exit the cache additionally holds the
        accepted path — root plus accepted speculated tokens — so its length
        grows by ``len(result.accepted_nodes)``.  The bonus token is *not*
        cached; it seeds the next iteration's tree root.
        """
        result, _ = self.decode_and_verify(tree, cache)
        return result

    def decode_and_verify(
        self, tree: TokenTree, cache: KVCache
    ) -> tuple:
        """Like :meth:`verify_step` but also returns the raw decode output."""
        prefix_len = cache.length
        output = tree_parallel_decode(
            self.model, cache, tree,
            mask_out=self._tree_mask_out(tree, prefix_len),
            scratch=self._arena,
        )
        result = self._verify(output, tree)
        accepted_slots = [output.lin.slot_of[n] for n in result.accepted_nodes]
        cache.keep_rows(prefix_len, accepted_slots)
        return result, output

    def _verify(
        self, output: TreeDecodeOutput, tree: TokenTree
    ) -> VerificationResult:
        if self.sampling.greedy:
            return verify_greedy(output, tree)
        if self.use_naive_sampling:
            return verify_naive_sampling(output, tree, self.sampling, self.rng)
        return verify_stochastic(output, tree, self.sampling, self.rng)
