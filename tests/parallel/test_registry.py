"""Tests for the process-local context registry."""

import pickle

import pytest

from repro.parallel import registry


@pytest.fixture(autouse=True)
def _clean_registry():
    registry.clear()
    yield
    registry.clear()


class TestRegister:
    def test_returns_distinct_ids_for_distinct_payloads(self):
        a = registry.register(("spec", 1))
        b = registry.register(("spec", 2))
        assert a != b

    def test_content_addressed_dedup(self):
        # Equal-pickling payloads share one id and ship one blob.
        a = registry.register(("txs", "spec", 200))
        b = registry.register(("txs", "spec", 200))
        assert a == b

    def test_dedup_does_not_bump_version(self):
        registry.register(("txs", "spec", 200))
        before = registry.version()
        registry.register(("txs", "spec", 200))
        assert registry.version() == before

    def test_new_context_bumps_version(self):
        before = registry.version()
        registry.register(("fresh", before))
        assert registry.version() == before + 1

    def test_ids_never_reused_after_clear(self):
        a = registry.register("one")
        registry.clear()
        b = registry.register("one")
        assert b > a

    def test_eviction_keeps_at_most_max_contexts(self):
        first = registry.register(("ctx", -1))
        for i in range(registry.MAX_CONTEXTS):
            registry.register(("ctx", i))
        with pytest.raises(KeyError):
            registry.payload_size(first)


class TestResolve:
    def test_parent_resolve_is_the_registered_object(self):
        payload = (("tx",), "spec", 200)
        ctx_id = registry.register(payload)
        # The inline path hands back the object itself — zero pickling.
        assert registry.resolve(ctx_id) is payload

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            registry.resolve(999_999)

    def test_install_round_trip(self):
        payload = {"population": list(range(10))}
        ctx_id = registry.register(payload)
        blob = registry.snapshot()
        registry.clear()  # simulate a fresh worker: parent side empty
        registry.install(blob)
        resolved = registry.resolve(ctx_id)
        assert resolved == payload
        # Lazy unpickle caches: same object on the second resolve.
        assert registry.resolve(ctx_id) is resolved


class TestPayloadSize:
    def test_matches_pickle_length(self):
        payload = ("txs",) * 50
        ctx_id = registry.register(payload)
        assert registry.payload_size(ctx_id) == len(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
