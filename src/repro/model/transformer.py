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
    SlotKV,
    block_diagonal_attention,
    causal_mask,
    cross_mask,
    mha_backward,
    mha_forward,
    slot_layout,
    split_heads,
)
from repro.model.config import ModelConfig
from repro.model.kv_cache import BatchArena, KVCache
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
from repro.model.scratch import ScratchArena
from repro.sanitizer import tensor_contract

#: Rows per causal block of a prompt pass (:meth:`TransformerLM.prefill_batch`).
#: Attention of a block costs ``rows × keys so far``, so a 224-row prompt in
#: blocks of 32 scores 57% of its square; shorter prompts are one block.
PROMPT_BLOCK_ROWS = 32

#: Most ``rows × d_model`` any block may have for
#: :meth:`TransformerLM.forward_masked_blocks` to score a batch slot-major
#: (one batched attention over the caches' arena slots instead of one call
#: per block).  Below it a block's attention is mostly call overhead and
#: batching wins; above it the padded ``(slots, rows, keys)`` grid, whose
#: work grows with ``rows × d_model``, costs more than the calls save.  The
#: measured crossover (docs/performance.md) is 8 rows at ``d_model`` 32 and
#: 2 at 128.
SLOT_BLOCK_CELLS = 256

#: Fewest blocks a slot-major forward scores: with two or three the saved
#: calls do not pay for the padded grid (docs/performance.md).
SLOT_MIN_BLOCKS = 4


def slot_block_rows(config: ModelConfig) -> int:
    """Most rows a block may have to be scored slot-major under ``config``
    (decode rows always may)."""
    return max(1, SLOT_BLOCK_CELLS // config.d_model)


class _SlotSpan:
    """A batch whose every block owns a default-size
    :class:`~repro.model.kv_cache.BatchArena` slot: its K/V stores and its
    attention run slot-major, once per layer.

    ``rows[r]`` is the slab row new token ``r`` is written to, the same in
    every layer; the caches' lengths move once, after the last layer.
    """

    def __init__(self, caches, slots, priors, counts, offsets, masks):
        self.arena = caches[0].arena
        self.size = self.arena.config.max_seq_len
        self.caches = caches
        self.ends = [prior + count for prior, count in zip(priors, counts)]
        self.first = min(slots)
        self.n_slots = max(slots) + 1 - self.first
        self.n_keys = max(self.ends)
        self.slots = [slot - self.first for slot in slots]
        heads = [slot * self.size + prior
                 for slot, prior in zip(slots, priors)]
        if offsets[-1] == len(caches):
            self.rows = np.array(heads, dtype=np.intp)
        else:
            self.rows = (np.repeat(np.array(heads, dtype=np.intp)
                                   - np.array(offsets[:-1], dtype=np.intp),
                                   counts)
                         + np.arange(offsets[-1]))
        self.bias, self.index = slot_layout(
            masks, self.slots, self.n_slots, offsets, self.arena.config.dtype)

    @classmethod
    def plan(cls, caches, priors, counts, offsets, masks):
        """The span, or ``None`` when the batch is not slot-shaped."""
        arena = caches[0].arena
        if (len(caches) < SLOT_MIN_BLOCKS
                or max(counts) > slot_block_rows(arena.config)):
            return None
        slots = []
        for cache, prior, count in zip(caches, priors, counts):
            slot = cache.slot if cache.arena is arena else None
            if slot is None or cache.layers[0].length != prior:
                return None
            if prior + count > cache.capacity:
                raise ValueError(
                    f"KV cache overflow: length {prior} + {count} new "
                    f"tokens exceeds capacity {cache.capacity}"
                )
            slots.append(slot)
        if len(set(slots)) != len(slots):
            return None
        return cls(caches, slots, priors, counts, offsets, masks)

    def store(self, layer: int, keys: np.ndarray,
              values: np.ndarray) -> SlotKV:
        """Write a layer's new K/V (one indexed store each) and return the
        span's view of that layer."""
        key_slab, value_slab = self.arena.slabs(layer)
        key_slab[self.rows] = keys
        value_slab[self.rows] = values
        lo = self.first * self.size
        hi = lo + self.n_slots * self.size
        shape = (self.n_slots, self.size) + key_slab.shape[1:]
        return SlotKV(
            key_slab[lo:hi].reshape(shape)[:, : self.n_keys],
            value_slab[lo:hi].reshape(shape)[:, : self.n_keys],
            self.bias, self.index,
        )

    def narrow(self, kv: SlotKV, masks, offsets) -> SlotKV:
        """``kv`` for the query rows of ``masks`` alone (some of each
        block's rows, at ``offsets``): the same keys, a new layout."""
        bias, index = slot_layout(masks, self.slots, self.n_slots, offsets,
                                  self.arena.config.dtype)
        return kv._replace(bias=bias, index=index)

    def commit(self) -> None:
        for cache, end in zip(self.caches, self.ends):
            for layer in cache.layers:
                layer.length = end


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
        """A fresh KV cache of ``capacity`` rows (default ``max_seq_len``):
        the whole of a private :class:`~repro.model.kv_cache.BatchArena`."""
        capacity = capacity or self.config.max_seq_len
        return BatchArena(self.config, capacity).new_sequence(capacity)

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
        read: Optional[np.ndarray] = None,
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

        The evaluation order follows the shape.  When at least
        :data:`SLOT_MIN_BLOCKS` blocks of at most :func:`slot_block_rows`
        rows each own a distinct default-size slot of one
        :class:`~repro.model.kv_cache.BatchArena` (decode rows, draft levels),
        a layer's K/V is one indexed store into the slab and its attention
        one batched evaluation over the slots
        (:func:`~repro.model.attention.block_diagonal_attention` with a
        :class:`~repro.model.attention.SlotKV`); otherwise each block is
        appended and scored on its own.  The two orders agree to rounding.

        Args:
            tokens: ``(Σnᵢ,)`` new token ids, request blocks contiguous in
                batch order.
            positions: ``(Σnᵢ,)`` absolute positions, same layout.
            masks: Per-request additive masks of shape
                ``(nᵢ, priorᵢ + nᵢ)``; defines the block layout.
            caches: Matching per-request KV caches (private ranges or slots
                of a shared arena); each receives its own new keys/values.
                One cache may back several consecutive blocks (the causal
                blocks of a long prompt): each block appends after, and
                attends to, what the blocks before it appended in the same
                layer.
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
            read: Optional ascending indices of the rows whose logits the
                caller reads (default: every row).  Every row's K/V is
                stored in every layer, and layers before the last run over
                every row; the last layer's attention, output projection
                and MLP, the final LayerNorm and the LM head run over these
                rows only (the prompt pass reads one row per prompt).

        Returns:
            ``(Σnᵢ, vocab)`` logits, one row per new token (per ``read``
            row when given), batch order.
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
        for mask, prior, count in zip(masks, priors, new_counts):
            if mask.shape != (count, prior + count):
                raise ValueError(
                    f"mask shape {mask.shape} != expected "
                    f"{(count, prior + count)}"
                )
        for b, mask in enumerate(masks):
            sanitizer.guard_dtype(f"forward_masked_blocks masks[{b}]",
                                  mask, self.config.dtype)
        if positions.max(initial=0) >= self.config.max_seq_len:
            raise ValueError(
                f"position {int(positions.max())} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        span = _SlotSpan.plan(caches, priors, new_counts, offsets, masks)
        p = self.params
        cfg = self.config
        x = p["tok_embed"][tokens]
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
        last = cfg.n_layers - 1 if read is not None else -1
        for i in range(cfg.n_layers):
            pre = f"layer{i}"
            h, _ = layernorm_forward(x, p[f"{pre}.ln1.scale"],
                                     p[f"{pre}.ln1.bias"], out=hidden)
            wqkv, bqkv = p.packed_qkv(f"{pre}.attn")
            qkv, _ = linear_forward(h, wqkv, bqkv, out=qkv_out)
            qh = split_heads(qkv[:, :d_model], n_heads)
            kh = split_heads(qkv[:, d_model : 2 * d_model], n_heads)
            vh = split_heads(qkv[:, 2 * d_model :], n_heads)
            if span is not None:
                kvs = span.store(i, kh, vh)
            else:
                kvs = []
                for b, cache in enumerate(caches):
                    layer_kv = cache.layers[i]
                    layer_kv.append(kh[offsets[b] : offsets[b + 1]],
                                    vh[offsets[b] : offsets[b + 1]])
                    kvs.append(layer_kv.view())
            if i == last:
                # Every row's K/V is stored; only the read rows go on.
                read = np.asarray(read, dtype=np.intp)
                starts = np.searchsorted(read, offsets)
                masks = [mask[read[lo:hi] - offset] for mask, offset, lo, hi
                         in zip(masks, offsets, starts, starts[1:])]
                offsets = starts.tolist()
                if span is not None:
                    kvs = span.narrow(kvs, masks, offsets)
                n_new = len(read)
                x, qh = x[read], qh[read]
                hidden, mlp = hidden[:n_new], mlp[:n_new]
                if scratch is not None:
                    attn_buf = attn_buf[:n_new]
                    logits_out = logits_out[:n_new]
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
        if span is not None:
            span.commit()
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
                      caches: Sequence) -> np.ndarray:
        """:meth:`prefill` for several requests in one forward pass; returns
        ``(len(prompts), vocab)`` logits, row ``b`` the last row of prompt
        ``b`` (the one its first token is drawn from).

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

        Every row's K/V is stored in every layer, but only the last rows
        go through the last layer's post-attention path and the LM head
        (``read`` of :meth:`forward_masked_blocks`).
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
        return self.forward_masked_blocks(tokens, positions, masks,
                                          block_caches, priors=priors,
                                          read=np.cumsum(counts) - 1)

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
        positions = np.arange(n)
        x = p["tok_embed"][tokens] + p["pos_embed"][positions]
        mask = causal_mask(n, dtype=self.config.dtype)
        caches: List = [(tokens, positions)]
        for i in range(self.config.n_layers):
            pre = f"layer{i}"
            h, ln1_c = layernorm_forward(
                x, p[f"{pre}.ln1.scale"], p[f"{pre}.ln1.bias"]
            )
            attn_out, attn_c = mha_forward(
                h, p, f"{pre}.attn", self.config.n_heads, mask
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
        merge_grad(
            grads,
            "pos_embed",
            embedding_backward(dx, (positions, p["pos_embed"].shape)),
        )
        return grads
