"""Decoder-only transformer language model (NumPy, from scratch).

Provides the three entry points SpecInfer needs (paper sections 2 and 4):

* :meth:`TransformerLM.prefill` -- process a prompt in one pass, populating
  the KV cache (the "compute activations for all prompt tokens in a single
  step" of incremental decoding, Alg. 1),
* :meth:`TransformerLM.decode` -- one autoregressive step with cache,
* :meth:`TransformerLM.forward_masked` -- the general primitive: score a
  batch of new tokens at *explicit positions* under an *arbitrary additive
  mask* over (cached + new) keys.  Tree-parallel decoding (section 4.2) is
  this primitive fed with the topology-aware causal mask.

A differentiable pass (:meth:`forward_train` / :meth:`backward`) supports the
distillation and boost-tuning paths of the learning-based speculator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import sanitizer
from repro.model.attention import (
    MaskScratch,
    block_diagonal_attention,
    causal_mask,
    cross_mask,
    mha_backward,
    mha_forward,
    split_heads,
)
from repro.model.config import ModelConfig
from repro.model.kv_cache import KVCache
from repro.model.layers import (
    embedding_backward,
    gelu_backward,
    gelu_forward,
    layernorm_backward,
    layernorm_forward,
    linear_backward,
    linear_forward,
    merge_grad,
    stable_softmax,
)
from repro.model.parameters import ParameterStore
from repro.model.rope import rope_rotate
from repro.model.scratch import ScratchArena
from repro.sanitizer import tensor_contract

#: Rows per causal block of a prompt pass (:meth:`TransformerLM.prefill_batch`).
#: Attention of a block costs ``rows × keys so far``, so a 224-row prompt in
#: blocks of 32 scores 57% of its square; shorter prompts are one block.
PROMPT_BLOCK_ROWS = 32


class TransformerLM:
    """A GPT-style decoder-only language model.

    Pre-LayerNorm residual blocks, learned absolute position embeddings,
    tied nothing (separate ``lm_head``), GELU MLP.
    """

    def __init__(self, config: ModelConfig, params: Optional[ParameterStore] = None,
                 seed: int = 0):
        self.config = config
        self.params = params if params is not None else ParameterStore.initialize(
            config, seed=seed
        )
        # Reusable all-zero mask for incremental decode steps (a single new
        # token sees the whole prefix, so the mask is always zeros); sliced
        # per step and per request instead of allocated.
        self._decode_mask = np.zeros((1, config.max_seq_len),
                                     dtype=config.dtype)

    # -- convenience ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.config.name

    def new_cache(self, capacity: int = 0) -> KVCache:
        """Allocate a fresh KV cache sized for this model."""
        return KVCache(self.config, capacity=capacity)

    def num_parameters(self) -> int:
        return self.params.num_parameters()

    # -- inference -------------------------------------------------------------

    @tensor_contract(tokens={"ndim": 1}, positions={"ndim": 1},
                     mask={"ndim": 2})
    def forward_masked(
        self,
        tokens: np.ndarray,
        positions: np.ndarray,
        mask: np.ndarray,
        cache: KVCache,
        scratch: Optional[ScratchArena] = None,
    ) -> np.ndarray:
        """Score ``tokens`` under ``mask``, appending their KVs to ``cache``.

        This is the generic decoding primitive.  The mask has shape
        ``(n_new, prior + n_new)`` where ``prior`` is the cache length on
        entry; entry ``[j, k]`` is ``0`` if new token ``j`` may attend to
        (cached or new) token ``k`` and ``-inf`` otherwise.

        Args:
            tokens: ``(n_new,)`` token ids.
            positions: ``(n_new,)`` absolute positions for position embeddings
                (tree tokens use ``prefix_len + depth``).
            mask: ``(n_new, prior + n_new)`` additive attention mask.
            cache: KV cache; mutated (new keys/values appended).
            scratch: Optional staging-buffer arena (see
                :meth:`forward_masked_blocks`).

        Returns:
            ``(n_new, vocab)`` logits, one row per new token.
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        n_new = tokens.shape[0]
        prior = cache.length
        if mask.shape != (n_new, prior + n_new):
            raise ValueError(
                f"mask shape {mask.shape} != expected {(n_new, prior + n_new)}"
            )
        return self.forward_masked_blocks(
            tokens, positions, [mask], [cache], priors=[prior],
            scratch=scratch,
        )

    @tensor_contract(tokens={"ndim": 1}, positions={"ndim": 1})
    def forward_masked_blocks(
        self,
        tokens: np.ndarray,
        positions: np.ndarray,
        masks: Sequence[np.ndarray],
        caches: Sequence,
        priors: Optional[Sequence[int]] = None,
        scratch: Optional[ScratchArena] = None,
    ) -> np.ndarray:
        """Block-sparse fused decode over several requests at once.

        The batched-verification attention matrix is block-diagonal: request
        ``i``'s new tokens may attend to its own cached prefix and its own
        new tokens, and to nothing of any other request.  This primitive
        exploits that structure directly:

        * embeddings, the packed QKV projection, the output projection, the
          MLP and the LM head run **batched** over all ``Σnᵢ`` new tokens
          (one GEMM each per layer, regardless of batch size);
        * attention runs **per request block** against that request's own
          keys/values (zero-copy cache views) under its own
          ``(nᵢ, priorᵢ + nᵢ)`` mask — the dense ``(Σnᵢ, Σkᵢ)`` score
          matrix, whose cross-request blocks are all ``-inf``, is never
          materialized, and neither is a concatenated K/V tensor.

        Score-FLOP complexity drops from ``O((Σnᵢ)·(Σkᵢ))`` to
        ``O(Σ nᵢ·kᵢ)`` — per-request cost stays flat as the batch grows.

        Args:
            tokens: ``(Σnᵢ,)`` new token ids, request blocks contiguous in
                batch order.
            positions: ``(Σnᵢ,)`` absolute positions, same layout.
            masks: Per-request additive masks of shape
                ``(nᵢ, priorᵢ + nᵢ)``; defines the block layout.
            caches: Matching per-request KV caches (contiguous, arena or
                paged); each receives its own new keys/values.  One cache
                may back several consecutive blocks (the causal blocks of
                a long prompt): each block appends after, and attends to,
                what the blocks before it appended in the same layer.
            priors: Optional precomputed ``cache.length`` per request, so
                the per-step batch layout is computed once by the caller
                instead of re-derived here.  Required when a cache backs
                several blocks: a later block's prior counts the rows of
                the blocks before it.
            scratch: Optional :class:`ScratchArena` providing persistent
                staging buffers for the packed QKV projection, the
                block-sparse attention output and the LM-head logits.  The
                out-of-place and ``out=`` paths run the identical GEMM /
                elementwise sequence, so logits are bit-identical; only the
                allocation behaviour changes.  Callers that pass an arena
                own its lifecycle: the returned logits alias arena memory
                and are overwritten by the next call with the same arena.

        Returns:
            ``(Σnᵢ, vocab)`` logits, one row per new token, batch order.
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        positions = np.asarray(positions, dtype=np.intp)
        if len(masks) != len(caches):
            raise ValueError(
                f"{len(masks)} masks but {len(caches)} caches"
            )
        if priors is None:
            priors = [c.length for c in caches]
        new_counts = [m.shape[0] for m in masks]
        offsets = [0]
        for count in new_counts:
            offsets.append(offsets[-1] + count)
        n_new = offsets[-1]
        if tokens.shape[0] != n_new:
            raise ValueError(
                f"{tokens.shape[0]} tokens but masks describe {n_new} rows"
            )
        for b, (mask, prior, count) in enumerate(
                zip(masks, priors, new_counts)):
            if mask.shape != (count, prior + count):
                raise ValueError(
                    f"mask shape {mask.shape} != expected "
                    f"{(count, prior + count)}"
                )
            sanitizer.guard_dtype(f"forward_masked_blocks masks[{b}]",
                                  mask, self.config.dtype)
        if positions.max(initial=0) >= self.config.max_seq_len:
            raise ValueError(
                f"position {int(positions.max())} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        p = self.params
        cfg = self.config
        use_rope = cfg.position_encoding == "rope"
        x = p["tok_embed"][tokens]
        if not use_rope:
            x += p["pos_embed"][positions]
        n_heads = cfg.n_heads
        d_head = cfg.d_model // n_heads
        d_model, d_ff = cfg.d_model, cfg.d_ff
        qkv_out = attn_buf = logits_out = None
        if scratch is not None:
            # Trailing dims are bounded exactly so the (n, h, d_head) view
            # stays C-contiguous and ``reshape(n_new, -1)`` below is a view,
            # not a silent copy.
            qkv_out = scratch.take("fwd.qkv", (n_new, 3 * d_model),
                                   cfg.dtype, bound=(0, 3 * d_model))
            attn_buf = scratch.take("fwd.attn", (n_new, n_heads, d_head),
                                    cfg.dtype, bound=(0, n_heads, d_head))
            logits_out = scratch.take("fwd.logits", (n_new, cfg.vocab_size),
                                      cfg.dtype, bound=(0, cfg.vocab_size))
            hidden = scratch.take("fwd.hidden", (n_new, d_model),
                                  cfg.dtype, bound=(0, d_model))
            mlp = scratch.take("fwd.mlp", (n_new, d_ff),
                               cfg.dtype, bound=(0, d_ff))
        else:
            hidden = np.empty_like(x)
            mlp = np.empty((n_new, d_ff), dtype=x.dtype)
        # ``hidden`` stages every d_model-wide intermediate in turn (each
        # LayerNorm output and each projection back to the residual stream
        # is consumed by the very next op) and ``mlp`` the d_ff-wide one, so
        # a layer allocates nothing of either size.  ``x`` is this call's
        # own array (a gather result): the residual adds run in place.
        for i in range(cfg.n_layers):
            pre = f"layer{i}"
            h, _ = layernorm_forward(x, p[f"{pre}.ln1.scale"],
                                     p[f"{pre}.ln1.bias"], out=hidden)
            wqkv, bqkv = p.packed_qkv(f"{pre}.attn")
            qkv, _ = linear_forward(h, wqkv, bqkv, out=qkv_out)
            qh = split_heads(qkv[:, :d_model], n_heads)
            kh = split_heads(qkv[:, d_model : 2 * d_model], n_heads)
            vh = split_heads(qkv[:, 2 * d_model :], n_heads)
            if use_rope:
                qh = rope_rotate(qh, positions)
                kh = rope_rotate(kh, positions)
            kvs = []
            for b, cache in enumerate(caches):
                layer_kv = cache.layers[i]
                layer_kv.append(kh[offsets[b] : offsets[b + 1]],
                                vh[offsets[b] : offsets[b + 1]])
                kvs.append(layer_kv.view())
            attn = block_diagonal_attention(qh, kvs, masks, offsets,
                                            out=attn_buf)
            attn_out, _ = linear_forward(
                attn.reshape(n_new, -1), p[f"{pre}.attn.wo"],
                p[f"{pre}.attn.bo"], out=hidden,
            )
            x += attn_out
            h2, _ = layernorm_forward(x, p[f"{pre}.ln2.scale"],
                                      p[f"{pre}.ln2.bias"], out=hidden)
            up, _ = linear_forward(h2, p[f"{pre}.mlp.w1"], p[f"{pre}.mlp.b1"],
                                   out=mlp)
            act, _ = gelu_forward(up, out=up)
            down, _ = linear_forward(act, p[f"{pre}.mlp.w2"],
                                     p[f"{pre}.mlp.b2"], out=hidden)
            x += down
        final, _ = layernorm_forward(x, p["final_ln.scale"],
                                     p["final_ln.bias"], out=hidden)
        logits = np.matmul(final, p["lm_head"], out=logits_out)
        sanitizer.guard_finite("forward_masked_blocks logits", logits)
        return logits

    @tensor_contract(tokens={"ndim": 1})
    def prefill(self, tokens: np.ndarray, cache: KVCache,
                scratch: Optional[ScratchArena] = None) -> np.ndarray:
        """Process a prompt, filling ``cache``; returns ``(n, vocab)`` logits.

        ``scratch`` backs both the cross mask and the forward staging
        buffers, making repeated prefills (the speculator mirroring accepted
        tokens every tick) allocation-free at steady state.  Arena-lifecycle
        caveats of :meth:`forward_masked_blocks` apply.
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        n = tokens.shape[0]
        prior = cache.length
        positions = np.arange(prior, prior + n)
        mask_out = None
        if scratch is not None:
            mask_out = MaskScratch(
                self.config.dtype, arena=scratch, tag="prefill.mask",
                bound=(0, self.config.max_seq_len),
            ).take(n, prior + n)
        mask = cross_mask(n, prior + n, prior, dtype=self.config.dtype,
                          out=mask_out)
        return self.forward_masked(tokens, positions, mask, cache,
                                   scratch=scratch)

    def prefill_batch(self, prompts: Sequence[np.ndarray],
                      caches: Sequence) -> List[np.ndarray]:
        """:meth:`prefill` for several requests in one forward pass; returns
        one ``(nᵢ, vocab)`` logits view per prompt.

        Prompt ``b`` lands after whatever ``caches[b]`` already holds, under
        a causal block of its own, so a prompt scored in a batch sees
        exactly what it sees alone — this is the prompt pass of
        iteration-level scheduling: every request admitted in one round
        shares the GEMMs.

        A prompt longer than :data:`PROMPT_BLOCK_ROWS` is laid out as
        consecutive blocks of the *same* cache: within a layer each block
        appends its keys and attends to everything up to its own last row,
        so the upper triangle of a long prompt's score matrix — all
        ``-inf`` under the causal mask — is never computed.  Still one
        forward of ``Σnᵢ`` rows.
        """
        dtype = self.config.dtype
        counts = [len(prompt) for prompt in prompts]
        starts = [cache.length for cache in caches]
        masks, block_caches, priors = [], [], []
        for count, start, cache in zip(counts, starts, caches):
            for prior in range(start, start + count, PROMPT_BLOCK_ROWS):
                rows = min(PROMPT_BLOCK_ROWS, start + count - prior)
                masks.append(cross_mask(rows, prior + rows, prior,
                                        dtype=dtype))
                block_caches.append(cache)
                priors.append(prior)
        # Allocating is fine here: the prompt pass runs once per admission round.
        tokens = np.concatenate(
            [np.asarray(prompt, dtype=np.intp) for prompt in prompts])
        positions = np.concatenate(
            [np.arange(start, start + n) for n, start in zip(counts, starts)])
        logits = self.forward_masked_blocks(tokens, positions, masks,
                                            block_caches, priors=priors)
        bounds = np.cumsum([0] + counts)
        return [logits[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @tensor_contract(tokens={"ndim": 1})
    def decode_batch(self, tokens: np.ndarray, caches: Sequence,
                     scratch: Optional[ScratchArena] = None) -> np.ndarray:
        """One incremental decoding step for each of several requests.

        ``tokens[b]`` is appended to ``caches[b]`` at position
        ``caches[b].length``; every request advances in the one forward
        pass (iteration-level batching).  Returns ``(len(caches), vocab)``
        logits in batch order.  ``scratch`` stages the positions and the
        forward's buffers; the arena-lifecycle caveats of
        :meth:`forward_masked_blocks` apply.
        """
        priors = [cache.length for cache in caches]
        if scratch is not None:
            positions = scratch.take("decode.positions", (len(priors),),
                                     np.intp)
            positions[:] = priors
        else:
            positions = np.array(priors, dtype=np.intp)
        # A single new token sees every prior position: each request's mask
        # is all zeros, so slices of the preallocated buffer serve every
        # step.
        masks = [self._decode_mask[:, : prior + 1] for prior in priors]
        return self.forward_masked_blocks(tokens, positions, masks, caches,
                                          priors=priors, scratch=scratch)

    def decode(self, token: int, cache: KVCache) -> np.ndarray:
        """One incremental decoding step; returns ``(vocab,)`` logits."""
        return self.decode_batch(np.array([token], dtype=np.intp), [cache])[0]

    def next_distribution(
        self, token: int, cache: KVCache, temperature: float = 1.0
    ) -> np.ndarray:
        """Probability distribution over the next token after ``token``."""
        logits = self.decode(token, cache)
        return stable_softmax(logits / max(temperature, 1e-8))

    @tensor_contract(tokens={"ndim": 1})
    def logits_for_sequence(self, tokens: np.ndarray) -> np.ndarray:
        """Stateless full-sequence logits (used by tests and baselines)."""
        cache = self.new_cache(capacity=min(len(tokens), self.config.max_seq_len))
        return self.prefill(np.asarray(tokens), cache)

    # -- training --------------------------------------------------------------

    @tensor_contract(tokens={"ndim": 1})
    def forward_train(self, tokens: np.ndarray) -> Tuple[np.ndarray, List]:
        """Differentiable full-sequence forward pass (causal mask).

        Returns ``(logits, caches)`` where ``caches`` feed :meth:`backward`.
        """
        tokens = np.asarray(tokens, dtype=np.intp)
        n = tokens.shape[0]
        if n > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}"
            )
        p = self.params
        use_rope = self.config.position_encoding == "rope"
        positions = np.arange(n)
        x = p["tok_embed"][tokens]
        if not use_rope:
            x = x + p["pos_embed"][positions]
        mask = causal_mask(n, dtype=self.config.dtype)
        caches: List = [(tokens, positions)]
        for i in range(self.config.n_layers):
            pre = f"layer{i}"
            h, ln1_c = layernorm_forward(
                x, p[f"{pre}.ln1.scale"], p[f"{pre}.ln1.bias"]
            )
            attn_out, attn_c = mha_forward(
                h, p, f"{pre}.attn", self.config.n_heads, mask,
                positions=positions, use_rope=use_rope,
            )
            x = x + attn_out
            h2, ln2_c = layernorm_forward(
                x, p[f"{pre}.ln2.scale"], p[f"{pre}.ln2.bias"]
            )
            up, up_c = linear_forward(h2, p[f"{pre}.mlp.w1"], p[f"{pre}.mlp.b1"])
            act, act_c = gelu_forward(up)
            down, down_c = linear_forward(act, p[f"{pre}.mlp.w2"], p[f"{pre}.mlp.b2"])
            x = x + down
            caches.append((ln1_c, attn_c, ln2_c, up_c, act_c, down_c))
        final, final_c = layernorm_forward(x, p["final_ln.scale"], p["final_ln.bias"])
        logits = final @ p["lm_head"]
        caches.append((final_c, final))
        return logits, caches

    @tensor_contract(dlogits={"ndim": 2})
    def backward(
        self, dlogits: np.ndarray, caches: List
    ) -> Dict[str, np.ndarray]:
        """Backward pass for :meth:`forward_train`; returns named gradients."""
        p = self.params
        grads: Dict[str, np.ndarray] = {}
        final_c, final = caches[-1]
        merge_grad(grads, "lm_head", final.T @ dlogits)
        dfinal = dlogits @ p["lm_head"].T
        dx, dscale, dbias = layernorm_backward(dfinal, final_c)
        merge_grad(grads, "final_ln.scale", dscale)
        merge_grad(grads, "final_ln.bias", dbias)
        for i in reversed(range(self.config.n_layers)):
            pre = f"layer{i}"
            ln1_c, attn_c, ln2_c, up_c, act_c, down_c = caches[1 + i]
            dact, dw2, db2 = linear_backward(dx, down_c)
            merge_grad(grads, f"{pre}.mlp.w2", dw2)
            merge_grad(grads, f"{pre}.mlp.b2", db2)
            dup = gelu_backward(dact, act_c)
            dh2, dw1, db1 = linear_backward(dup, up_c)
            merge_grad(grads, f"{pre}.mlp.w1", dw1)
            merge_grad(grads, f"{pre}.mlp.b1", db1)
            dres, dscale2, dbias2 = layernorm_backward(dh2, ln2_c)
            merge_grad(grads, f"{pre}.ln2.scale", dscale2)
            merge_grad(grads, f"{pre}.ln2.bias", dbias2)
            dx = dx + dres
            dh = mha_backward(dx, attn_c, f"{pre}.attn", grads)
            dres1, dscale1, dbias1 = layernorm_backward(dh, ln1_c)
            merge_grad(grads, f"{pre}.ln1.scale", dscale1)
            merge_grad(grads, f"{pre}.ln1.bias", dbias1)
            dx = dx + dres1
        tokens, positions = caches[0]
        merge_grad(
            grads,
            "tok_embed",
            embedding_backward(dx, (tokens, p["tok_embed"].shape)),
        )
        if self.config.position_encoding == "learned":
            merge_grad(
                grads,
                "pos_embed",
                embedding_backward(dx, (positions, p["pos_embed"].shape)),
            )
        return grads
