"""Tenant isolation: distinct keypairs, cross-tenant decrypt attacks,
exact per-tenant metric partitioning.

The isolation battery runs real jobs end-to-end under two tenants of
one gateway and then attacks each tenant's ciphertexts with the other
tenant's private key — recovery must be impossible (an exception or
garbage, never the plaintext).
"""

import threading
import time
import zlib

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.errors import TenantError, TenantRejectedError
from repro.observability import NULL_TRACER, Observability
from repro.serve import (
    DONE,
    Job,
    TenantRegistry,
    tenant_seed,
)
from repro.serve.gateway import ServeGateway, build_serve_model

KEY_SIZE = 128
SEED = 21


@pytest.fixture(scope="module")
def served():
    model, decimals, input_shape = build_serve_model("tiny")
    return model, decimals, input_shape


@pytest.fixture()
def registry(served):
    model, decimals, _ = served
    config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED).with_serve(
        max_tenants=4,
    )
    registry = TenantRegistry(model, decimals, config)
    yield registry
    registry.close()


class TestTenantSeeds:
    def test_deterministic(self):
        assert tenant_seed(7, "alice") == tenant_seed(7, "alice")

    def test_distinct_names_distinct_seeds(self):
        names = ["alice", "bob", "carol", "tenant-0", "tenant-1"]
        seeds = {tenant_seed(7, name) for name in names}
        assert len(seeds) == len(names)

    def test_master_seed_matters(self):
        assert tenant_seed(7, "alice") != tenant_seed(8, "alice")

    def test_seed_fits_rng_inputs(self):
        seed = tenant_seed(20240519, "alice")
        assert 0 <= seed < 2 ** 64

    def test_crc32_collisions_do_not_collide_seeds(self):
        """Tenant names are attacker-chosen, so the seed derivation
        must survive adversarial collisions in weak checksums: these
        two valid tenant names CRC32-collide (found by birthday
        search), so the original ``master_seed ^ crc32(name)``
        derivation would have handed both tenants the **same Paillier
        keypair**.  The cryptographic derivation must keep their
        seeds distinct."""
        first, second = "t-79462e94d11d", "t-4eaac92ea841"
        assert (zlib.crc32(first.encode("utf-8"))
                == zlib.crc32(second.encode("utf-8")))
        for master_seed in (7, 20240519):
            assert (tenant_seed(master_seed, first)
                    != tenant_seed(master_seed, second))


class TestTenantRegistry:
    def test_ensure_is_idempotent(self, registry):
        first = registry.ensure("alice")
        assert registry.ensure("alice") is first
        assert registry.get("alice") is first

    def test_unknown_tenant_rejected(self, registry):
        with pytest.raises(TenantError, match="unknown tenant"):
            registry.get("nobody")

    @pytest.mark.parametrize("bad", ["", "-lead", "sp ace", "a" * 65,
                                     "semi;colon", None, 7])
    def test_invalid_names_rejected(self, registry, bad):
        with pytest.raises(TenantError, match="invalid tenant name"):
            registry.ensure(bad)

    def test_tenant_cap_enforced(self, registry):
        for index in range(4):
            registry.ensure(f"t{index}")
        with pytest.raises(TenantError, match="cap reached"):
            registry.ensure("overflow")
        # Existing tenants stay reachable at the cap.
        assert registry.get("t0") is registry.ensure("t0")

    def test_distinct_keypairs(self, registry):
        alice = registry.ensure("alice")
        bob = registry.ensure("bob")
        assert alice.public_key.n != bob.public_key.n
        assert alice.config.seed != bob.config.seed

    def test_cap_refusal_is_non_retryable(self, registry):
        for index in range(4):
            registry.ensure(f"t{index}")
        with pytest.raises(TenantRejectedError):
            registry.ensure("overflow")

    def test_concurrent_ensure_shares_one_runtime(self, served):
        model, decimals, _ = served
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED)
        registry = TenantRegistry(model, decimals, config)
        runtimes = []
        barrier = threading.Barrier(4)

        def race():
            barrier.wait()
            runtimes.append(registry.ensure("shared"))

        threads = [
            threading.Thread(target=race,
                             name=f"repro-test-ensure-{i}")
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(runtimes) == 4
            assert all(r is runtimes[0] for r in runtimes)
        finally:
            registry.close()

    def test_failed_creation_does_not_poison_the_slot(self, served):
        """A runtime that fails to construct must release its pending
        slot: later ensures re-attempt (and re-fail) instead of
        deadlocking or permanently occupying the table."""
        model, decimals, _ = served
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED)
        # Fleet mode without worker addresses fails inside the
        # TenantRuntime constructor, after the slot is reserved.
        registry = TenantRegistry(model, decimals, config,
                                  mode="fleet",
                                  worker_addresses=None)
        for _ in range(2):
            with pytest.raises(TenantError,
                               match="worker addresses"):
                registry.ensure("doomed")
        assert registry.names() == []
        registry.close()


class TestTenantAllowlist:
    def test_allowlist_refuses_unlisted_names(self, served):
        model, decimals, _ = served
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED) \
            .with_serve(tenant_allowlist=("alice", "bob"))
        registry = TenantRegistry(model, decimals, config)
        try:
            assert registry.ensure("alice").name == "alice"
            with pytest.raises(TenantRejectedError,
                               match="not on the allowlist"):
                registry.ensure("mallory")
            # The refused name burned no slot (and no keygen).
            assert registry.names() == ["alice"]
        finally:
            registry.close()


class TestIdleEviction:
    def _registry(self, served, **serve_kwargs):
        model, decimals, _ = served
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED) \
            .with_serve(**serve_kwargs)
        return TenantRegistry(model, decimals, config)

    def test_full_table_evicts_lru_idle_tenant(self, served):
        registry = self._registry(
            served, max_tenants=2, tenant_idle_seconds=0.01,
        )
        try:
            registry.ensure("old")
            time.sleep(0.02)
            registry.ensure("young")
            time.sleep(0.02)
            registry.ensure("new")  # evicts "old" (LRU idle)
            assert registry.names() == ["new", "young"]
            with pytest.raises(TenantError, match="unknown tenant"):
                registry.get("old")
        finally:
            registry.close()

    def test_in_use_tenants_are_never_evicted(self, served):
        registry = self._registry(
            served, max_tenants=2, tenant_idle_seconds=0.01,
        )
        try:
            registry.ensure("busy")
            registry.ensure("idle")
            time.sleep(0.02)
            registry.in_use = lambda name: name == "busy"
            registry.ensure("new")  # must pick "idle", not "busy"
            assert registry.names() == ["busy", "new"]
        finally:
            registry.close()

    def test_eviction_disabled_keeps_table_full(self, served):
        registry = self._registry(served, max_tenants=2)
        try:
            registry.ensure("a")
            registry.ensure("b")
            time.sleep(0.02)
            with pytest.raises(TenantRejectedError,
                               match="cap reached"):
                registry.ensure("c")
        finally:
            registry.close()


class TestCrossTenantIsolation:
    """Tenant A's key must never decrypt tenant B's ciphertexts."""

    def test_cross_decrypt_impossible(self, registry):
        alice = registry.ensure("alice")
        bob = registry.ensure("bob")
        values = np.array([1.25, -2.5, 7.0])
        ciphertext = alice.data_provider.encrypt_input(values)
        own = ciphertext.decrypt_float(alice.private_key)
        assert np.allclose(own.reshape(-1), values, atol=1e-6)
        try:
            stolen = ciphertext.decrypt_float(bob.private_key)
        except Exception:
            return  # refusing outright is isolation too
        assert not np.allclose(stolen.reshape(-1), values, atol=1e-3)

    def test_end_to_end_jobs_stay_isolated(self, served):
        """Run one real job per tenant through a shared gateway, then
        attack each tenant's fresh ciphertexts with the other key."""
        model, decimals, input_shape = served
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED)
        rng = np.random.default_rng(SEED)
        with ServeGateway(model, decimals, config) as gateway:
            jobs = {
                name: gateway.submit(
                    name, rng.uniform(0, 1, input_shape).tolist()
                )
                for name in ("alice", "bob")
            }
            for job in jobs.values():
                assert job.state != "shed"
            import time

            deadline = time.monotonic() + 30.0
            while (not all(j.terminal for j in jobs.values())
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            for name, job in jobs.items():
                assert job.state == DONE, (name, job.state, job.error)
                assert len(job.result["probabilities"]) == 3
            alice = gateway.registry.get("alice")
            bob = gateway.registry.get("bob")
            probe = np.array([3.5, -1.0, 0.25])
            for owner, attacker in ((alice, bob), (bob, alice)):
                ciphertext = owner.data_provider.encrypt_input(probe)
                try:
                    stolen = ciphertext.decrypt_float(
                        attacker.private_key
                    )
                except Exception:
                    continue
                assert not np.allclose(stolen.reshape(-1), probe,
                                       atol=1e-3)


class TestMetricPartitioning:
    def test_labels_partition_exactly(self, served):
        """Every serve_* counter carries a tenant label, the label set
        equals the tenant set, and per-tenant totals match what each
        tenant actually submitted — zero cross-tenant bleed."""
        model, decimals, input_shape = served
        config = RuntimeConfig(key_size=KEY_SIZE, seed=SEED)
        obs = Observability(enabled=True, tracer=NULL_TRACER)
        rng = np.random.default_rng(SEED + 1)
        submissions = {"alice": 3, "bob": 1}
        with ServeGateway(model, decimals, config,
                          obs=obs) as gateway:
            for name, count in submissions.items():
                for _ in range(count):
                    gateway.submit(
                        name,
                        rng.uniform(0, 1, input_shape).tolist(),
                    )
            import time

            deadline = time.monotonic() + 30.0
            while (not gateway.manager.tracker.all_terminal()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert gateway.manager.tracker.all_terminal()

        submitted = {
            labels["tenant"]: counter.value
            for labels, counter in obs.registry.find(
                "counter", "serve_jobs_submitted")
        }
        assert submitted == {name: float(count)
                             for name, count in submissions.items()}
        terminal = {}
        for labels, counter in obs.registry.find(
                "counter", "serve_jobs_terminal"):
            assert set(labels) == {"tenant", "state"}
            terminal.setdefault(labels["tenant"], 0.0)
            terminal[labels["tenant"]] += counter.value
        assert terminal == submitted
        # Per-tenant histograms exist only for tenants that ran.
        service_tenants = {
            labels["tenant"]
            for labels, _ in obs.registry.find(
                "histogram", "serve_service_seconds")
        }
        assert service_tenants == set(submissions)
