"""The zero-allocation decode hot path is an *optimization*, not a fork.

Four families of guarantees:

* scratch on/off bit-equivalence — committed tokens are identical with
  scratch-arena buffer reuse enabled and disabled, with per-request and
  shared verification streams, greedy and stochastic, multiple seeds (the
  ``out=`` rewrites of the forward pass provably compute the same bits);
* packed speculation equivalence — scoring every request's draft tree
  through one batched GEMM per level produces, tick for tick, the same
  fitted trees, the same recorded proposal distributions and the same
  committed tokens as the depth-first reference (``Speculator.speculate``),
  greedy and sampling, merge-based speculators and end-of-context cuts
  included;
* steady-state allocation freedom (``perf_smoke``) — after warm-up ticks,
  ``DecodePipeline.tick`` performs zero tracked hot-path allocations, the
  property ``benchmarks/ci_gate.py`` gates in CI;
* call counts (``perf_smoke``) — a tick drafts the batch in ``depth`` SSM
  forwards, and an incremental tick (served as such, fault-degraded, or
  planned with budget 0) is one LLM forward for the whole batch; each of
  those forwards, over a full batch of small blocks, is one attention
  evaluation and one K/V store per layer.
"""

from itertools import repeat

import numpy as np
import pytest

from repro.engine.generation import GenerationConfig
from repro.engine.pipeline import (
    DecodePipeline,
    DecodeState,
    FusedBackend,
)
from repro.faults import FaultKind
from repro.model import attention, perf
from repro.model import transformer as transformer_module
from repro.model.kv_cache import BatchArena
from repro.model.config import ModelConfig
from repro.model.coupled import CoupledSSM
from repro.model.kv_cache import LayerKV
from repro.model.sampling import SamplingConfig
from repro.model.transformer import TransformerLM
from repro.obs import REGISTRY, reset_observability
from repro.serving.manager import RequestManager
from repro.speculate.expansion import ExpansionConfig
from repro.speculate.packed import PackedSpeculator, scored_node_bound
from repro.speculate.speculator import Speculator
from tests.conftest import ScriptedInjector, draft_depth_first, make_prompt
from tests.engine.test_pipeline_planner import StubPlanner
from tests.serving.test_manager import incremental_factory


def _make_states(llm, ssm_factory, greedy, seed, n_requests=3,
                 max_new_tokens=14, prompt_len=4, widths=(1, 2, 1),
                 speculator_factory=None):
    """``n_requests`` decode states, each with a one-SSM speculator under
    ``widths``, or ``speculator_factory()``'s."""
    rng = np.random.default_rng(seed)
    sampling = (SamplingConfig(greedy=True) if greedy
                else SamplingConfig(temperature=1.0))
    states = []
    for r in range(n_requests):
        config = GenerationConfig(
            max_new_tokens=max_new_tokens, sampling=sampling, seed=seed + r,
            stop_on_eos=False,
        )
        spec = (speculator_factory() if speculator_factory is not None
                else Speculator([ssm_factory()], ExpansionConfig(widths)))
        states.append(DecodeState(
            llm, make_prompt(rng, length=prompt_len + r), config,
            speculator=spec,
        ))
    return states


def _run(llm, ssm_factory, backend_factory, greedy, seed, **pipeline_kwargs):
    """Token lists after driving a batch of requests to completion."""
    states = _make_states(llm, ssm_factory, greedy, seed)
    pipeline = DecodePipeline(llm, backend=backend_factory(llm),
                              **pipeline_kwargs)
    while any(not s.finished for s in states):
        pipeline.tick([s for s in states if not s.finished])
    return [s.tokens for s in states]


#: Each request's own sampling config and RNG, or one shared stream.
BACKENDS = [
    ("per_request", lambda llm, **kw: FusedBackend(llm, **kw)),
    ("fused_shared_rng", lambda llm, **kw: FusedBackend(
        llm, rng=np.random.default_rng(0), **kw)),
]


class TestScratchOnOffEquivalence:
    """Buffer reuse changes allocation counts, never committed tokens."""

    @pytest.mark.parametrize("name,backend", BACKENDS,
                             ids=[n for n, _ in BACKENDS])
    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_committed_tokens_identical(self, llm, name, backend, greedy,
                                        seed):
        ssm_factory = lambda: CoupledSSM(llm, alignment=0.9, seed=7,
                                         noise_scale=2.0)
        with_scratch = _run(
            llm, ssm_factory,
            lambda m: backend(m, reuse_scratch=True), greedy, seed,
        )
        without_scratch = _run(
            llm, ssm_factory,
            lambda m: backend(m, reuse_scratch=False), greedy, seed,
        )
        assert with_scratch == without_scratch
        assert any(tokens for tokens in with_scratch)


def _ssm_factory(llm, ssm_kind):
    if ssm_kind == "transformer":
        small = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1,
                        n_heads=2, max_seq_len=96), seed=9,
        )
        return lambda: small
    return lambda: CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)


def _shape_and_proposals(tree):
    """A tree as the verifier sees it: ``(parent slot, token)`` per node in
    DFS order over the children (node numbering itself differs between the
    BFS and DFS builders), and the SSM distribution each node was drawn
    from."""
    shape, proposals = [], []

    def walk(idx, parent_slot):
        slot = len(shape)
        shape.append((parent_slot, int(tree.tokens[idx])))
        proposals.append(tree.proposal_for(idx))
        for child in tree.children(idx).tolist():
            walk(child, slot)

    walk(0, -1)
    return shape, proposals


class _TreeLog(FusedBackend):
    """A fused backend that keeps every tick's fitted trees, each with the
    subtree the verifier resumed drafting below."""

    def __init__(self, model):
        super().__init__(model, rng=np.random.default_rng(0))
        self.ticks = []

    def verify(self, states, trees, resume=None):
        tick = [_shape_and_proposals(tree) for tree in trees]
        self.ticks.append(tick)

        def logged(indices, nodes):
            grown = resume(indices, nodes)
            for i, tree in zip(indices, grown):
                tick[i] = _shape_and_proposals(tree)
            return grown

        return super().verify(states, trees,
                              resume=None if resume is None else logged)


def _drive(llm, states, reference=False):
    """Drive ``states`` to completion through the packed drafter, or the
    depth-first ``reference``; their tokens and every tick's fitted trees."""
    backend = _TreeLog(llm)
    pipeline = DecodePipeline(llm, backend=backend)
    if reference:
        draft_depth_first(pipeline)
    while any(not s.finished for s in states):
        pipeline.tick([s for s in states if not s.finished])
    return [s.tokens for s in states], backend.ticks


def _assert_same_ticks(packed_ticks, sequential_ticks):
    """Tick for tick and request for request: the same tree, token for token
    and edge for edge, and the same recorded distributions.

    The distributions are compared to 1e-12, not bit for bit: the
    depth-first loop scores one row at a time, which BLAS runs through GEMV,
    and the packed path scores many, which it runs through GEMM — the two
    kernels round differently in the last few ulps (about 5e-15 on these
    logits).  Everything downstream of the distributions is compared
    exactly.
    """
    assert len(packed_ticks) == len(sequential_ticks)
    for packed_tick, sequential_tick in zip(packed_ticks, sequential_ticks):
        assert len(packed_tick) == len(sequential_tick)
        for (shape_a, props_a), (shape_b, props_b) in zip(packed_tick,
                                                         sequential_tick):
            assert shape_a == shape_b
            for a, b in zip(props_a, props_b):
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


#: The suite's long-standing shape, and one that branches at every level so
#: sampled siblings collide (merged duplicates) and path indices matter.
EQUIVALENCE_WIDTHS = [(1, 2, 1), (2, 2, 2)]


class TestPackedSpeculationEquivalence:
    """One batched GEMM per tree level == the depth-first reference."""

    def _assert_matches_reference(self, llm, states):
        """``states()`` driven through the packed drafter and through the
        depth-first reference commit the same tokens from the same fitted
        trees; returns the packed run's ticks."""
        packed_tokens, packed_ticks = _drive(llm, states())
        tokens, ticks = _drive(llm, states(), reference=True)
        assert packed_tokens == tokens
        assert any(tokens)
        _assert_same_ticks(packed_ticks, ticks)
        return packed_ticks

    def _check(self, llm, ssm_kind, greedy, seed):
        # Four requests: enough blocks for the draft levels to be scored
        # slot-major (``SLOT_MIN_BLOCKS``).
        for widths in EQUIVALENCE_WIDTHS:
            self._assert_matches_reference(
                llm, lambda: _make_states(
                    llm, _ssm_factory(llm, ssm_kind), greedy, seed,
                    n_requests=4, widths=widths))

    @pytest.mark.parametrize("ssm_kind", ["transformer", "coupled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_tokens_identical(self, llm, ssm_kind, seed):
        self._check(llm, ssm_kind, True, seed)

    @pytest.mark.parametrize("ssm_kind", ["transformer", "coupled"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stochastic_trees_and_tokens_identical(self, llm, ssm_kind,
                                                   seed):
        self._check(llm, ssm_kind, False, seed)

    def test_sampled_siblings_do_merge(self, llm):
        """The (2, 2, 2) runs above exercise duplicate draws, not just
        branching: some sampled tree is smaller than the full shape."""
        states = _make_states(llm, _ssm_factory(llm, "coupled"), False, 0,
                              widths=(2, 2, 2))
        _, ticks = _drive(llm, states)
        sizes = {len(shape) for tick in ticks for shape, _ in tick}
        assert min(sizes) < 1 + 2 + 4 + 8

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    def test_one_group_mixes_depths_and_temperatures(self, llm, greedy,
                                                     monkeypatch):
        """Requests over one coupled base share a packed group whatever
        their tree shapes and sampling temperatures: a depth-2 tree runs
        out of levels while its depth-3 neighbours still expand, and an
        int temperature samples like a float.  The group's levels are
        scored slot-major."""
        forwards = _per_forward_work(monkeypatch, llm)
        shapes = [((1, 2), 2), ((2, 2, 2), 1.0), ((1, 2), 1.0),
                  ((2, 2, 2), 0.5)]

        def states():
            rng = np.random.default_rng(5)
            return [
                DecodeState(
                    llm, make_prompt(rng, length=4 + r),
                    GenerationConfig(
                        max_new_tokens=14, seed=r, stop_on_eos=False,
                        sampling=SamplingConfig(greedy=greedy,
                                                temperature=temperature)),
                    speculator=Speculator(
                        [CoupledSSM(llm, alignment=0.9, seed=7,
                                    noise_scale=2.0)],
                        ExpansionConfig(widths)),
                )
                for r, (widths, temperature) in enumerate(shapes)
            ]

        self._assert_matches_reference(llm, states)
        assert any(forward["slot_major"] for forward in forwards)

    def test_one_group_mixes_greedy_and_sampled_requests(self, llm):
        """Greedy and sampled requests over one base share a group; only
        the sampled trees keep proposal rows, as on the depth-first path."""
        def states():
            made = []
            for greedy in (True, False):
                made += _make_states(llm, _ssm_factory(llm, "coupled"),
                                     greedy, 3, n_requests=2,
                                     widths=(2, 2, 1))
            return made

        first = self._assert_matches_reference(llm, states)[0]
        assert all(p is None for _, props in first[:2] for p in props)
        assert all(p is not None for _, props in first[2:] for p in props[1:])

    def _assert_packed_only(self, llm, greedy):
        reset_observability()
        states = _make_states(llm, _ssm_factory(llm, "coupled"), greedy, 0)
        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        while any(not s.finished for s in states):
            pipeline.tick([s for s in states if not s.finished])
        snap = REGISTRY.snapshot()
        # Every tree of every tick was drafted by the packer.
        assert (snap["repro.speculate.packed.requests"]["value"]
                == sum(len(s.steps) for s in states) > 0)
        assert snap["repro.speculate.packed.levels"]["value"] > 0

    def test_packed_path_actually_runs_greedy(self, llm):
        self._assert_packed_only(llm, greedy=True)

    def test_packed_path_actually_runs_stochastic(self, llm):
        self._assert_packed_only(llm, greedy=False)

    @staticmethod
    def _merged(llm, case):
        """A merge-based speculator: two coupled SSMs on one base, or a
        transformer SSM and a coupled one (two packed groups)."""
        def coupled(seed):
            return CoupledSSM(llm, alignment=0.9, seed=seed, noise_scale=2.0)

        if case == "two_coupled":
            return Speculator([coupled(7), coupled(8)],
                              ExpansionConfig((2, 2)))
        return Speculator([_ssm_factory(llm, "transformer")(), coupled(8)],
                          ExpansionConfig((2, 1, 2)))

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    @pytest.mark.parametrize("case", ["two_coupled", "two_groups"])
    def test_merge_based_speculator_matches_the_reference(self, llm, case,
                                                          greedy):
        """Each SSM of a merge-based speculator is its own slot in its
        base's group; the request's tree is the merge of its slots' trees,
        and each SSM's steps are recorded."""
        def states():
            return _make_states(
                llm, None, greedy, 4, n_requests=4,
                speculator_factory=lambda: self._merged(llm, case))

        self._assert_matches_reference(llm, states)
        drafted = states()
        DecodePipeline(llm).tick(drafted)
        assert all(len(s.speculator.last_ssm_steps) == 2
                   and min(s.speculator.last_ssm_steps) > 0
                   for s in drafted)

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    def test_tokens_do_not_depend_on_neighbours(self, llm, greedy):
        """A request's tree is a function of its own stream: the same
        request alone, and in a batch whose other members join late and
        leave early, commits the same tokens.  (The default backend
        verifies each request from its own stream too.)"""
        def request(seed, prompt_len, max_new_tokens):
            sampling = (SamplingConfig(greedy=True) if greedy
                        else SamplingConfig(temperature=1.0))
            return DecodeState(
                llm, make_prompt(np.random.default_rng(seed),
                                 length=prompt_len),
                GenerationConfig(max_new_tokens=max_new_tokens,
                                 sampling=sampling, seed=seed),
                speculator=Speculator(
                    [CoupledSSM(llm, alignment=0.9, seed=7,
                                noise_scale=2.0)],
                    ExpansionConfig((2, 2, 2))),
            )

        alone = request(11, 5, 24)
        DecodePipeline(llm).run_to_completion(alone)

        subject = request(11, 5, 24)
        early, late = request(12, 7, 6), request(13, 4, 30)
        pipeline = DecodePipeline(llm)
        tick = 0
        while not subject.finished:
            batch = [early, subject] if tick < 2 else [late, early, subject]
            pipeline.tick([s for s in batch if not s.finished])
            tick += 1
        assert early.finished and tick > 4
        assert subject.tokens == alone.tokens

    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    @pytest.mark.parametrize("merged", [False, True],
                             ids=["one_ssm", "merged"])
    def test_request_crossing_the_capacity_fallback(self, llm, merged,
                                                    greedy, monkeypatch):
        """Near end-of-context a request's SSM cache cannot hold its whole
        scored tree, so the packer stops at the level that no longer fits,
        down to a bare root; the fitted trees and tokens are the ones the
        depth-first loop, which stops per branch, produces.  A merge-based
        speculator cuts each SSM's tree on its own."""
        widths = (2, 2, 2)

        def states():
            return _make_states(
                llm, _ssm_factory(llm, "coupled"), greedy, 3, n_requests=2,
                max_new_tokens=60, prompt_len=50, widths=widths,
                speculator_factory=(
                    lambda: self._merged(llm, "two_coupled")) if merged
                else None)

        # How close to the end each drafted request's SSM cache is.
        rooms = []
        speculate_batch = PackedSpeculator.speculate_batch

        def spy(self, drafted, plan=None, below=None):
            rooms.extend(llm.config.max_seq_len - s.speculator.prefix_len
                         for s in drafted)
            return speculate_batch(self, drafted, plan, below)

        monkeypatch.setattr(PackedSpeculator, "speculate_batch", spy)
        self._assert_matches_reference(llm, states)
        bound = scored_node_bound(ExpansionConfig(widths))
        assert max(rooms) >= bound and min(rooms) < bound
        assert 0 in rooms


class _DuckSSM:
    """The SSM protocol over a transformer, without being one."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.new_cache = model.new_cache
        self.prefill = model.prefill
        self.decode = model.decode


class TestOnlyPackableSSMs:
    def test_duck_typed_ssm_is_rejected(self, llm):
        """The packed drafter scores transformers and coupled SSMs only, so
        a speculator refuses anything else when it is built."""
        with pytest.raises(TypeError):
            Speculator([_DuckSSM(llm)], ExpansionConfig((1, 2)))


class TestPackedFallbackCauses:
    """End-of-context once sent a request to the depth-first drafter; now
    the packer drafts it like any other."""

    def test_near_capacity(self, llm):
        # 90 of 96 positions are prompt: the (1, 2) tree's three scored
        # rows fit for a tick or two, then only a cut of the tree does.
        def states():
            return _make_states(
                llm, _ssm_factory(llm, "coupled"), True, 0, n_requests=2,
                max_new_tokens=12, prompt_len=90, widths=(1, 2))

        reset_observability()
        packed, drafted = states(), 0
        backend = _TreeLog(llm)
        pipeline = DecodePipeline(llm, backend=backend)
        while any(not s.finished for s in packed):
            live = [s for s in packed if not s.finished]
            drafted += len(live)
            pipeline.tick(live)
        # Every live request of every tick was drafted by the packer: the
        # whole tree while it fit, a cut of it (here a bare root) after.
        assert (REGISTRY.snapshot()["repro.speculate.packed.requests"]
                ["value"] == drafted)
        sizes = [[len(shape) for shape, _ in tick] for tick in backend.ticks]
        assert sizes[0] == [4, 4] and sizes[-1] == [1, 1]
        tokens, ticks = _drive(llm, states(), reference=True)
        assert [s.tokens for s in packed] == tokens
        _assert_same_ticks(backend.ticks, ticks)


def _count_calls(monkeypatch, model, names):
    """Count calls of ``names`` on this model *instance* (restored by
    ``monkeypatch``: the fixture models are shared)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _method=getattr(model, name),
                    **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(model, name, counted)
    return calls


@pytest.mark.perf_smoke
class TestOneDraftForwardPerLevel:
    """A tick drafts the whole batch one SSM forward per level, down to
    where the trees fan out, greedy or sampling, and runs the SSM nowhere
    else — so a regression to per-request drafting, or to a mirror prefill
    of its own, fails tier-1 and not only the benchmark.  The levels below
    a fan-out run only for walks that pass it, one row per walk and
    level; no tick runs more than ``depth`` forwards."""

    BATCH = 8
    TICKS = 6

    @pytest.mark.parametrize("drafter", ["small", "oracle"])
    @pytest.mark.parametrize("greedy", [True, False],
                             ids=["greedy", "stochastic"])
    def test_ssm_forwards_per_tick_stop_at_the_fanout(self, llm, greedy,
                                                      drafter, monkeypatch):
        config = ExpansionConfig.paper_default()
        fanout = config.widths.index(3) + 1  # levels down to the fan-out
        # A small SSM, whose greedy walks rarely pass the fan-out, or a copy
        # of the LLM, whose greedy walks always do.
        ssm = (TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=96), seed=9) if drafter == "small"
            else TransformerLM(llm.config, seed=42))
        states = _make_states(llm, lambda: ssm, greedy, 0,
                              n_requests=self.BATCH, max_new_tokens=90,
                              widths=config.widths)
        calls = _count_calls(monkeypatch, ssm, ["decode", "prefill"])
        # Rows of each SSM forward, and whether it drafted below a paused
        # walk; how many walks each tick paused.
        forwards, walks = [], []
        forward = ssm.forward_masked_blocks

        def counted(tokens, *args, **kwargs):
            forwards.append((len(tokens), bool(walks) and walks[-1] >= 0))
            return forward(tokens, *args, **kwargs)

        resume = DecodePipeline._resume_drafts

        def resumed(self, states, trees, whole, indices, nodes):
            walks[-1] = len(indices)
            return resume(self, states, trees, whole, indices, nodes)

        monkeypatch.setattr(ssm, "forward_masked_blocks", counted)
        monkeypatch.setattr(DecodePipeline, "_resume_drafts", resumed)
        second = REGISTRY.counter("repro.verify.fused.second_passes")

        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        paused_ticks = 0
        for _ in range(self.TICKS):
            # Steady state: nobody finishing, nobody near end-of-context.
            assert all(
                not s.finished
                and s.speculator.prefix_len + scored_node_bound(config)
                <= ssm.config.max_seq_len
                for s in states
            )
            del forwards[:]
            passes = second.value
            walks.append(-1)
            pipeline.tick(states)
            levels = len(forwards)
            if second.value == passes:
                # Nobody passed the fan-out.  Greedy trees all fan out
                # there; a sampled fan-out whose draws coincide leaves its
                # tree a chain, drafted whole (and its neighbours with it).
                assert levels == fanout if greedy else levels in (
                    fanout, config.depth)
            else:
                paused_ticks += 1
                assert levels <= config.depth
            below = [rows for rows, in_resume in forwards if in_resume]
            assert all(rows <= walks[-1] for rows in below)
            assert calls["decode"] == calls["prefill"] == 0
            if greedy and drafter == "oracle":
                # Every walk passed the fan-out: the levels below it scored
                # one row per walk.
                assert walks[-1] == self.BATCH
                assert below == [self.BATCH] * (config.depth - fanout)
        if drafter == "oracle":
            assert paused_ticks > 0

def _per_forward_work(monkeypatch, model):
    """Per ``forward_masked_blocks`` call on ``model``: its largest block
    and block count, and how many per-block attention calls, slot-major
    attention evaluations, per-cache appends and slot K/V stores it ran."""
    forwards = []
    inner = dict.fromkeys(["per_block", "slot_major", "appends", "stores"], 0)
    for owner, name, key in (
            (attention, "scaled_dot_attention", "per_block"),
            (attention, "_slot_major_attention", "slot_major"),
            (LayerKV, "append", "appends"),
            (transformer_module._SlotSpan, "store", "stores")):
        def counted(*args, _original=getattr(owner, name), _key=key,
                    **kwargs):
            inner[_key] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    def forward(tokens, positions, masks, caches, *args,
                _original=model.forward_masked_blocks, **kwargs):
        before = dict(inner)
        logits = _original(tokens, positions, masks, caches, *args, **kwargs)
        record = {key: inner[key] - before[key] for key in inner}
        record.update(rows=max(mask.shape[0] for mask in masks),
                      blocks=len(masks))
        forwards.append(record)
        return logits

    monkeypatch.setattr(model, "forward_masked_blocks", forward)
    return forwards


def _assert_one_evaluation_per_layer(forward, n_layers):
    assert forward == dict(forward, per_block=0, slot_major=n_layers,
                           appends=0, stores=n_layers)


@pytest.mark.perf_smoke
class TestOneAttentionEvaluationPerLayer:
    """Over a full batch of small blocks in arena slots — every draft level,
    every incremental tick — a forward is one attention evaluation and one
    K/V store per layer, not one of each per request."""

    BATCH = 8

    def test_draft_levels(self, llm, monkeypatch):
        config = ExpansionConfig.paper_default()
        ssm = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=96), seed=9)
        states = _make_states(llm, lambda: ssm, True, 0,
                              n_requests=self.BATCH, max_new_tokens=90,
                              widths=config.widths)
        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        pipeline.tick(states)  # the prompt pass and the level-0 prompt rows
        forwards = _per_forward_work(monkeypatch, ssm)
        for _ in range(4):
            pipeline.tick(states)
        # No walk passes this SSM's fan-out in these ticks, so each drafts
        # the levels down to it only.
        fanout = config.widths.index(3) + 1
        assert len(forwards) == 4 * fanout
        small = [f for f in forwards
                 if f["rows"]
                 <= transformer_module.slot_block_rows(ssm.config)]
        # Levels past the roots are one row a slot.
        assert len(small) >= 4 * (fanout - 1)
        for forward in small:
            assert forward["blocks"] == self.BATCH
            _assert_one_evaluation_per_layer(forward, ssm.config.n_layers)

    def test_incremental_ticks(self, llm, rng, monkeypatch):
        arena = BatchArena(llm.config, max_requests=self.BATCH)
        mgr = RequestManager(incremental_factory(llm, arena.new_sequence),
                             max_batch_size=self.BATCH)
        for r in range(self.BATCH):
            mgr.submit(make_prompt(rng, length=3 + r),
                       GenerationConfig(max_new_tokens=20,
                                        stop_on_eos=False))
        mgr.run_iteration()  # the prompt pass
        forwards = _per_forward_work(monkeypatch, llm)
        for _ in range(6):
            assert mgr.run_iteration().tokens_emitted == self.BATCH
        assert len(forwards) == 6
        for forward in forwards:
            assert (forward["rows"], forward["blocks"]) == (1, self.BATCH)
            _assert_one_evaluation_per_layer(forward, llm.config.n_layers)


def _tick_allocs():
    return REGISTRY.snapshot()["repro.engine.tick.allocs"]["value"]


@pytest.mark.perf_smoke
class TestOneLLMForwardPerIncrementalTick:
    """Algorithm 1 is batched at iteration level: a steady-state tick of B
    incremental requests — served as such, or degraded to it by a fault or
    a budget-0 plan — is one LLM forward that allocates nothing.  A
    regression to one forward per request fails tier-1, not only the
    benchmark."""

    BATCH = 8
    WARMUP = 3
    STEADY = 6

    def _assert_one_forward_per_tick(self, calls, tick):
        for _ in range(self.WARMUP):
            tick()
        allocs = _tick_allocs()
        for _ in range(self.STEADY):
            before = dict(calls)
            tick()
            assert (calls["forward_masked_blocks"]
                    - before["forward_masked_blocks"]) == 1
            assert calls["decode"] == before["decode"]
        assert _tick_allocs() == allocs

    def test_incremental_manager(self, llm, rng, monkeypatch):
        reset_observability()
        arena = BatchArena(llm.config, max_requests=self.BATCH)
        mgr = RequestManager(incremental_factory(llm, arena.new_sequence),
                             max_batch_size=self.BATCH)
        for r in range(self.BATCH):
            mgr.submit(make_prompt(rng, length=3 + r),
                       GenerationConfig(max_new_tokens=40,
                                        stop_on_eos=False))
        calls = _count_calls(monkeypatch, llm,
                             ["forward_masked_blocks", "decode"])

        def iteration():
            stats = mgr.run_iteration()
            assert stats.batch_size == self.BATCH == stats.tokens_emitted

        self._assert_one_forward_per_tick(calls, iteration)

    def _speculative_states(self, llm):
        ssm = TransformerLM(
            ModelConfig(vocab_size=64, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=96), seed=9)
        return _make_states(llm, lambda: ssm, True, 0,
                            n_requests=self.BATCH, max_new_tokens=40)

    def test_fault_degraded_fused_tick(self, llm, monkeypatch):
        reset_observability()
        states = self._speculative_states(llm)
        # A speculation fault at every draw: each tick enters or drains a
        # cooldown, so every tick is degraded.
        pipeline = DecodePipeline(
            llm, FusedBackend(llm),
            injector=ScriptedInjector({FaultKind.SPECULATION: repeat(1)}),
        )
        calls = _count_calls(monkeypatch, llm,
                             ["forward_masked_blocks", "decode"])

        def tick():
            pipeline.tick(states)
            assert all(state.steps[-1].tree_size == 0 for state in states)

        self._assert_one_forward_per_tick(calls, tick)

    def test_planner_budget_zero_fused_tick(self, llm, monkeypatch):
        reset_observability()
        states = self._speculative_states(llm)
        pipeline = DecodePipeline(llm, FusedBackend(llm),
                                  planner=StubPlanner(()))
        calls = _count_calls(monkeypatch, llm,
                             ["forward_masked_blocks", "decode"])
        self._assert_one_forward_per_tick(
            calls, lambda: pipeline.tick(states))
        assert all(step.tree_size == 0
                   for state in states for step in state.steps)


@pytest.mark.perf_smoke
class TestSteadyStateAllocationFree:
    """After warm-up, pipeline ticks perform zero tracked allocations."""

    WARMUP_TICKS = 5

    def _drive(self, llm):
        reset_observability()
        states = _make_states(
            llm, lambda: CoupledSSM(llm, alignment=0.9, seed=7,
                                    noise_scale=2.0),
            greedy=True, seed=0, max_new_tokens=40,
        )
        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        live = lambda: [s for s in states if not s.finished]
        for _ in range(self.WARMUP_TICKS):
            if live():
                pipeline.tick(live())
        steady_ticks = 0
        with perf.track() as counters:
            while live():
                pipeline.tick(live())
                steady_ticks += 1
        assert steady_ticks >= 3, "batch finished before steady state"
        return counters

    def test_fused_steady_state_has_zero_tracked_allocs(self, llm):
        counters = self._drive(llm)
        assert counters.hot_alloc_events == 0
        assert counters.hot_alloc_bytes == 0
        assert counters.mask_cells_allocated == 0

    def test_tick_allocs_counter_matches_perf_delta(self, llm):
        reset_observability()
        states = _make_states(
            llm, lambda: CoupledSSM(llm, alignment=0.9, seed=7,
                                    noise_scale=2.0),
            greedy=True, seed=1, max_new_tokens=30,
        )
        pipeline = DecodePipeline(llm, backend=FusedBackend(llm))
        # The prompt pass allocates outside any tick; only in-tick
        # allocations must land in the tick.allocs counter.
        pipeline.prefill(states)
        with perf.track() as counted:
            while any(not s.finished for s in states):
                pipeline.tick([s for s in states if not s.finished])
        snap = REGISTRY.snapshot()
        assert (snap["repro.engine.tick.allocs"]["value"]
                == counted.hot_alloc_events)
