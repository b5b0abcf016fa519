"""Canonical hashing and LRU behaviour of the service result cache."""

import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro.core.task import TaskSet
from repro.service.cache import LRUCache, admit_cache_key

pytestmark = pytest.mark.service


class TestCacheKey:
    def test_deterministic(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8)])
        assert admit_cache_key(ts, 2, "rmts") == admit_cache_key(ts, 2, "rmts")

    def test_input_order_invariant_for_distinct_periods(self):
        a = TaskSet.from_pairs([(1, 4), (2, 8), (6, 16)])
        b = TaskSet.from_pairs([(6, 16), (1, 4), (2, 8)])
        assert admit_cache_key(a, 2, "rmts") == admit_cache_key(b, 2, "rmts")

    def test_processors_and_algorithm_separate(self):
        ts = TaskSet.from_pairs([(1, 4), (2, 8)])
        keys = {
            admit_cache_key(ts, 2, "rmts"),
            admit_cache_key(ts, 3, "rmts"),
            admit_cache_key(ts, 2, "spa2"),
            admit_cache_key(ts, 2, "rmts", kind="bounds"),
        }
        assert len(keys) == 4

    def test_parameters_matter(self):
        a = TaskSet.from_pairs([(1, 4), (2, 8)])
        b = TaskSet.from_pairs([(1, 4), (3, 8)])
        assert admit_cache_key(a, 2, "rmts") != admit_cache_key(b, 2, "rmts")

    def test_names_matter(self):
        # Names appear in the serialized partition body, so differently
        # named but numerically equal sets must not share a cached body.
        from repro.core.task import Task

        a = TaskSet([Task(cost=1, period=4, name="alpha")])
        b = TaskSet([Task(cost=1, period=4, name="beta")])
        assert admit_cache_key(a, 2, "rmts") != admit_cache_key(b, 2, "rmts")

    def test_default_names_do_not_pollute_key(self):
        # TaskSet auto-names tasks tau0, tau1, ...; those defaults must
        # hash like anonymous tasks so pair-style payloads still hit.
        a = TaskSet.from_pairs([(1, 4)])
        from repro.core.task import Task

        b = TaskSet([Task(cost=1, period=4)])
        assert admit_cache_key(a, 2, "rmts") == admit_cache_key(b, 2, "rmts")


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(capacity=4)
        found, _ = cache.get("k")
        assert not found
        cache.put("k", {"x": 1})
        found, value = cache.get("k")
        assert found and value == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("a")[0]
        assert not cache.get("b")[0]
        assert cache.get("c")[0]
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert not cache.get("a")[0]

    def test_stats_shape(self):
        stats = LRUCache(capacity=8).stats()
        assert set(stats) == {
            "size", "capacity", "hits", "misses", "evictions", "hit_rate"
        }

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)


class _PreemptingDict(OrderedDict):
    """An ``OrderedDict`` that hands the GIL to another thread after every
    membership test: the point where an unlocked ``get`` is exposed to a
    concurrent eviction.  Without it the race needs about a million
    operations to show."""

    def __contains__(self, key):
        found = super().__contains__(key)
        time.sleep(0)
        return found


class TestThreadSafety:
    def test_concurrent_get_put_stats_never_raise(self):
        """The server runs ``get``/``put``/``stats`` on its worker
        threads: a ``put`` that evicts a key between ``get``'s membership
        test and its read must not surface as ``KeyError``."""
        cache = LRUCache(capacity=8)
        cache._data = _PreemptingDict()
        keys = [f"k{i}" for i in range(12)]
        errors = []
        rounds = 1_000

        def worker(offset):
            try:
                for i in range(rounds):
                    key = keys[(i * 7 + offset) % len(keys)]
                    cache.get(key)
                    cache.put(key, i)
                    if i % 16 == 0:
                        cache.stats()
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(j,)) for j in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(cache) == cache.capacity
        assert cache.hits + cache.misses == 8 * rounds
