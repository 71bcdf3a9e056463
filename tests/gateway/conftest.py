"""Async test support and shared builders for the gateway suite.

The container intentionally runs without ``pytest-asyncio`` (it is a dev
extra, not a hard dependency), so this conftest implements the two pieces
the suite needs:

* a ``pytest_pyfunc_call`` hook that runs coroutine test functions on a
  fresh event loop, and
* a **per-test timeout guard**: every coroutine test runs under
  ``asyncio.wait_for``, so a stalled gateway event loop fails the test in
  seconds instead of hanging the whole CI job.

When ``pytest-asyncio`` *is* installed it takes over coroutine tests
before this hook sees them; the suite works identically either way
because the tests are plain ``async def`` functions.
"""

import asyncio
import inspect

import numpy as np
import pytest

#: Per-test ceiling for coroutine tests.  Generous against slow CI hosts,
#: tiny against a deadlocked event loop (the failure mode it guards).
ASYNC_TEST_TIMEOUT_SECONDS = 60.0


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    func = pyfuncitem.obj
    if not inspect.iscoroutinefunction(func):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(
        asyncio.wait_for(func(**kwargs),
                         timeout=ASYNC_TEST_TIMEOUT_SECONDS)
    )
    return True


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path and "tests/gateway" in str(item.path):
            item.add_marker(pytest.mark.gateway)


def build_manager(llm, batch=4, fault_rate=0.0, fault_seed=9973,
                  seed=3, backend="fused", **manager_kwargs):
    """A request manager over the shared test LLM.

    ``backend`` selects the verification strategy: ``"fused"`` (the
    gateway's production shape, one shared verification stream),
    ``"per_request"`` (the default backend: each request's own stream),
    ``"incremental"``, or ``"sessions"`` (incremental sessions under the
    default backend).
    """
    from repro.engine.pipeline import FusedBackend, IncrementalBackend
    from repro.model.kv_cache import BatchArena
    from repro.model.coupled import CoupledSSM
    from repro.serving.manager import RequestManager
    from repro.serving.session import IncrementalSession, SpeculativeSession
    from repro.speculate.expansion import ExpansionConfig
    from repro.speculate.speculator import Speculator

    injector = None
    if fault_rate > 0:
        from repro.faults import FaultInjector

        injector = FaultInjector(rate=fault_rate, seed=fault_seed)
    if backend == "sessions":
        return RequestManager(
            lambda req: IncrementalSession(req, llm),
            max_batch_size=batch, injector=injector, **manager_kwargs)
    arena = BatchArena(llm.config, max_requests=batch)

    def session_factory(request):
        return SpeculativeSession(
            request, llm,
            lambda: Speculator(
                [CoupledSSM(llm, alignment=0.9, seed=7, noise_scale=2.0)],
                ExpansionConfig.paper_default(),
            ),
            cache_factory=arena.new_sequence,
        )

    backends = {
        "fused": lambda: FusedBackend(llm, rng=np.random.default_rng(seed)),
        "per_request": lambda: None,
        "incremental": lambda: IncrementalBackend(llm),
    }
    return RequestManager(
        session_factory, max_batch_size=batch,
        backend=backends[backend](),
        injector=injector, **manager_kwargs)


@pytest.fixture()
def prompts(rng):
    from tests.conftest import make_prompt

    return [[int(t) for t in make_prompt(rng, length=5)] for _ in range(6)]


def replay_reference(llm, prompts, config, **manager_kwargs):
    """Token lists from the synchronous replay path (the parity oracle)."""
    manager = build_manager(llm, **manager_kwargs)
    ids = [manager.submit(p, config) for p in prompts]
    manager.run_until_complete()
    return [manager.output_for(rid).tokens for rid in ids]
