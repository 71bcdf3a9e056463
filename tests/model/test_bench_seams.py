"""The benchmark's traced seams exist under the names it patches.

``benchmarks/e2e`` brackets the public functions of each layer from the
outside: ``Tracer.install`` looks every ``(owner, attr)`` of
``stack.trace_points`` up with ``vars(owner)[attr]`` — the name *as the
calling module bound it* — and swaps a span wrapper in.  Renaming
``repro.model.transformer.gelu_forward``, or importing it under another
name, would raise ``KeyError`` only in the benchmark's traced pass; this
makes it fail tier-1 instead.  Read-only use of ``benchmarks/e2e``.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = str(Path(__file__).resolve().parents[2])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from benchmarks.e2e import stack  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402
from repro.engine.generation import GenerationConfig  # noqa: E402
from repro.engine.pipeline import DecodePipeline, DecodeState  # noqa: E402
from repro.model import attention  # noqa: E402
from repro.model.kv_cache import BatchArena  # noqa: E402
from repro.model.config import ModelConfig  # noqa: E402
from repro.model.transformer import TransformerLM  # noqa: E402
from repro.speculate.expansion import ExpansionConfig  # noqa: E402
from repro.speculate.packed import PackedSpeculator  # noqa: E402
from repro.speculate.speculator import Speculator  # noqa: E402


def trace_points(llm=None):
    """``stack.trace_points`` on a stand-in for the benchmark's ``Stack``."""
    return stack.trace_points(SimpleNamespace(
        llm=llm, manager=SimpleNamespace(session_factory=None)))


def test_every_trace_point_resolves_and_is_put_back():
    points = trace_points()
    # KeyError here names the seam that moved.
    originals = [vars(point.owner)[point.attr] for point in points]
    tracer = Tracer()
    tracer.install(points)
    try:
        for point, original in zip(points, originals):
            wrapped = vars(point.owner)[point.attr]
            assert wrapped is not original, (point.owner, point.attr)
            assert wrapped.__wrapped__ is original
    finally:
        tracer.restore()
    for point, original in zip(points, originals):
        assert vars(point.owner)[point.attr] is original, (
            point.owner, point.attr)


def test_the_inference_forward_calls_its_ops_through_the_traced_names():
    # Resolving is not enough: a forward that reached an op some other way
    # (a private alias, a method) would leave its time in ``residual_s``.
    model = TransformerLM(
        ModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2,
                    max_seq_len=8, name="seam-lm"), seed=0)
    tracer = Tracer()
    with tracer.installed(trace_points(llm=model)):
        cache = model.new_cache()
        model.prefill([1, 2, 3], cache)
        model.decode(4, cache)
    names = {span[0] for span in tracer.spans}
    assert {"model.llm.prefill", "model.llm.decode",
            "model.llm.forward_masked", "model.llm.forward", "op.linear",
            "op.gelu", "op.layernorm", "op.attn", "op.softmax"} <= names


def test_slot_major_forwards_keep_attention_in_the_op_seams(monkeypatch):
    # A decode batch over arena slots and a packed draft level both take
    # the slot-major order; their attention and softmax must still land in
    # ``op.attn`` / ``op.softmax`` under the forward, not in its residual.
    slot_major = []
    original = attention._slot_major_attention

    def counted(*args, **kwargs):
        slot_major.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(attention, "_slot_major_attention", counted)
    config = ModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2,
                         max_seq_len=16, name="seam-lm")
    model = TransformerLM(config, seed=0)
    draft = TransformerLM(config.scaled(name="seam-ssm"), seed=1)
    arena = BatchArena(config, max_requests=4)
    states = [
        DecodeState(model, np.array([1, 2, 3 + r]),
                    GenerationConfig(max_new_tokens=4),
                    cache_factory=arena.new_sequence,
                    speculator=Speculator([draft], ExpansionConfig((1,))))
        for r in range(4)
    ]
    DecodePipeline(model).prefill(states)  # four short causal blocks
    slot_major.clear()
    tracer = Tracer()
    with tracer.installed(trace_points(llm=model)):
        model.decode_batch(np.array([s.pending for s in states]),
                           [s.cache for s in states])
        PackedSpeculator().speculate_batch(states)
    assert len(slot_major) == 2
    spans = tracer.spans
    for forward in ("model.llm.forward", "model.ssm.forward"):
        (outer,) = [i for i, span in enumerate(spans) if span[0] == forward]
        attn = [i for i, span in enumerate(spans)
                if span[0] == "op.attn" and span[3] == outer]
        assert len(attn) == 1
        assert any(span[0] == "op.softmax" and span[3] == attn[0]
                   for span in spans)
