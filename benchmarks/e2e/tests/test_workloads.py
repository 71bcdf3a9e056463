"""Seeded inputs: the same seed gives the same bytes, another seed differs."""

import itertools

from benchmarks.e2e import stack, workloads


def _closed(seed, stochastic=False, count=12):
    items = workloads.closed_items(seed, stack.prompt_sampler(), stochastic)
    return list(itertools.islice(items, count))


def test_same_seed_schedule_is_byte_identical():
    sample = stack.prompt_sampler()
    a = workloads.schedule_bytes(workloads.open_items(7, sample, 10.0))
    b = workloads.schedule_bytes(
        workloads.open_items(7, stack.prompt_sampler(), 10.0))
    assert a == b
    assert workloads.schedule_bytes(_closed(7)) == \
        workloads.schedule_bytes(_closed(7))


def test_different_seed_differs():
    sample = stack.prompt_sampler()
    assert workloads.schedule_bytes(workloads.open_items(7, sample, 10.0)) != \
        workloads.schedule_bytes(workloads.open_items(8, sample, 10.0))
    assert workloads.schedule_bytes(_closed(7)) != \
        workloads.schedule_bytes(_closed(8))


def test_closed_workloads_share_their_prompts():
    greedy, stoch = _closed(3), _closed(3, stochastic=True)
    assert [i.prompt for i in greedy] == [i.prompt for i in stoch]
    assert len({i.seed for i in stoch}) == len(stoch)


def test_a_longer_schedule_starts_with_the_shorter_one():
    sample = stack.prompt_sampler()
    short = workloads.open_items(4, sample, 5.0)
    longer = workloads.open_items(4, sample, 9.0)
    assert longer[:len(short)] == short and len(longer) > len(short)


def test_open_schedule_shape():
    items = workloads.open_items(1, stack.prompt_sampler(), 10.0)
    assert abs(len(items) - workloads.OPEN_RATE_PER_S * 10.0) <= 1
    dues = [i.due for i in items]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 10.0
    # One arrival per interval of 1/rate.
    assert [int(d * workloads.OPEN_RATE_PER_S) for d in dues] == \
        list(range(len(items)))
    docs = [i for i in items if i.kind == "doc"]
    assert len(docs) == len(items) // 4
    for item in items:
        low, high = (workloads.DOC_PROMPT if item.kind == "doc"
                     else workloads.CHAT_PROMPT)
        assert low <= len(item.prompt) <= high
        assert item.slo == ("batch" if item.kind == "doc" else "interactive")
        # Prompt, output and the widest tree all fit the context.
        assert len(item.prompt) + item.max_new_tokens + 21 <= stack.MAX_SEQ_LEN
    assert {i.tenant for i in items} == set(stack.TENANTS)
