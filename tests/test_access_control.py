"""Tests for access control: policies, grants, resolution restriction, revocation."""

from __future__ import annotations

import pytest

from repro.access.grants import GrantManager
from repro.access.keystore import TokenStore
from repro.access.policy import AccessPolicy, OPEN_END, Resolution, open_ended
from repro.access.principal import IdentityProvider, Principal
from repro.access.resolution import ResolutionConsumerKeystream, ResolutionKeystream
from repro.access.tokens import AccessToken
from repro.crypto.heac import HEACCipher, aggregate
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import (
    AccessDeniedError,
    ConfigurationError,
    DecryptionError,
    KeyDerivationError,
    ProtocolError,
)
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange

SEED = b"\x21" * 16


@pytest.fixture
def key_tree():
    return KeyDerivationTree(seed=SEED, height=16, prg="blake2")


@pytest.fixture
def stream_config():
    return StreamConfig(chunk_interval=1_000, key_tree_height=16, index_fanout=4)


@pytest.fixture
def identity_provider():
    return IdentityProvider()


@pytest.fixture
def grant_manager(key_tree, stream_config, identity_provider):
    return GrantManager(
        stream_uuid="stream-1",
        config=stream_config,
        key_tree=key_tree,
        identity_provider=identity_provider,
        token_store=TokenStore(),
    )


class TestResolution:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Resolution(0)

    def test_alignment_helpers(self):
        resolution = Resolution(6)
        assert resolution.aligned(12)
        assert not resolution.aligned(13)
        assert resolution.align_down(13) == 12
        assert resolution.align_up(13) == 18

    def test_from_interval(self):
        assert Resolution.from_interval(60_000, 10_000).chunks == 6
        with pytest.raises(ConfigurationError):
            Resolution.from_interval(15_000, 10_000)
        with pytest.raises(ConfigurationError):
            Resolution.from_interval(0, 10_000)


class TestAccessPolicy:
    def test_resolution_check(self):
        policy = AccessPolicy("s", "p", TimeRange(0, 100), Resolution(6))
        assert policy.allows_resolution(6)
        assert policy.allows_resolution(12)
        assert not policy.allows_resolution(3)
        assert not policy.allows_resolution(0)

    def test_time_range_check(self):
        policy = AccessPolicy("s", "p", TimeRange(10, 100))
        assert policy.allows_time_range(TimeRange(10, 50))
        assert not policy.allows_time_range(TimeRange(0, 50))

    def test_open_ended(self):
        policy = open_ended("s", "p", 500)
        assert policy.is_open_ended
        assert policy.time_range.end == OPEN_END

    def test_restrict_end(self):
        policy = AccessPolicy("s", "p", TimeRange(0, 100))
        clipped = policy.restrict_end(40)
        assert clipped.time_range == TimeRange(0, 40)
        assert policy.restrict_end(200) is policy
        assert policy.restrict_end(-5).time_range.is_empty()


class TestPrincipalsAndIdentity:
    def test_registration_and_lookup(self, identity_provider):
        alice = Principal.create("alice")
        identity_provider.register(alice)
        assert identity_provider.is_registered("alice")
        assert identity_provider.public_key_of("alice") == alice.public_key

    def test_unknown_principal(self, identity_provider):
        with pytest.raises(AccessDeniedError):
            identity_provider.public_key_of("nobody")

    def test_encrypt_for_roundtrip(self, identity_provider):
        bob = Principal.create("bob")
        identity_provider.register(bob)
        blob = identity_provider.encrypt_for("bob", b"hello", b"ctx")
        assert bob.decrypt_envelope(blob, b"ctx") == b"hello"

    def test_unregister(self, identity_provider):
        carol = Principal.create("carol")
        identity_provider.register(carol)
        identity_provider.unregister("carol")
        assert not identity_provider.is_registered("carol")


class TestAccessTokenSerialization:
    def test_full_resolution_roundtrip(self, key_tree):
        token = AccessToken(
            stream_uuid="s",
            principal_id="p",
            time_range=TimeRange(0, 1000),
            window_start=0,
            window_end=10,
            resolution_chunks=1,
            prg="blake2",
            tree_tokens=key_tree.tokens_for_range(0, 11),
        )
        decoded = AccessToken.from_bytes(token.to_bytes())
        assert decoded == token

    def test_restricted_resolution_roundtrip(self, key_tree):
        from repro.crypto.keyregression import DualKeyRegression

        regression = DualKeyRegression(length=64)
        token = AccessToken(
            stream_uuid="s",
            principal_id="p",
            time_range=TimeRange(0, 1000),
            window_start=0,
            window_end=60,
            resolution_chunks=6,
            prg="blake2",
            tree_tokens=[],
            regression_token=regression.share(0, 10),
        )
        decoded = AccessToken.from_bytes(token.to_bytes())
        assert decoded == token
        assert not decoded.is_full_resolution

    def test_malformed_token_rejected(self):
        with pytest.raises(ProtocolError):
            AccessToken.from_bytes(b"not json at all")
        with pytest.raises(ProtocolError):
            AccessToken.from_bytes(b"{}")


class TestTokenStore:
    def test_grant_lifecycle(self):
        store = TokenStore()
        assert store.put_grants([("s", "p", b"sealed-1")]) == [0]
        assert store.put_grants([("s", "p", b"sealed-2")]) == [1]
        assert store.grants_for("s", "p") == [b"sealed-1", b"sealed-2"]
        assert store.latest_grant("s", "p") == b"sealed-2"
        assert store.principals_with_grants("s") == ["p"]
        assert store.delete_grants("s", "p") == 2
        with pytest.raises(AccessDeniedError):
            store.latest_grant("s", "p")

    def test_envelope_storage(self):
        store = TokenStore()
        store.put_envelopes("s", 6, {0: b"e0", 6: b"e6", 12: b"e12"})
        assert store.get_envelope("s", 6, 6) == b"e6"
        assert store.envelopes_for_range("s", 6, 0, 6) == {0: b"e0", 6: b"e6"}
        assert store.envelopes_for_range("s", 3, 0, 100) == {}


class TestResolutionKeystream:
    def test_envelope_alignment_enforced(self, key_tree):
        keystream = ResolutionKeystream("s", 6, key_tree, length=256)
        with pytest.raises(KeyDerivationError):
            keystream.envelope_index(7)
        assert keystream.envelope_index(12) == 2

    def test_consumer_recovers_outer_keys(self, key_tree):
        keystream = ResolutionKeystream("s", 6, key_tree, length=256)
        envelopes = keystream.make_envelopes(0, 36)
        share = keystream.share(0, 36)
        consumer = ResolutionConsumerKeystream(share, envelopes)
        for window in (0, 6, 12, 36):
            assert consumer.leaf(window) == key_tree.leaf(window)

    def test_consumer_cannot_get_inner_keys(self, key_tree):
        keystream = ResolutionKeystream("s", 6, key_tree, length=256)
        consumer = ResolutionConsumerKeystream(
            keystream.share(0, 36), keystream.make_envelopes(0, 36)
        )
        with pytest.raises(KeyDerivationError):
            consumer.leaf(3)

    def test_consumer_missing_envelope_denied(self, key_tree):
        keystream = ResolutionKeystream("s", 6, key_tree, length=256)
        consumer = ResolutionConsumerKeystream(keystream.share(0, 36), {})
        with pytest.raises(AccessDeniedError):
            consumer.leaf(6)

    def test_restricted_consumer_decrypts_only_aligned_aggregates(self, key_tree):
        owner_cipher = HEACCipher(key_tree)
        values = list(range(1, 13))
        ciphertexts = [owner_cipher.encrypt(v, i) for i, v in enumerate(values)]
        keystream = ResolutionKeystream("s", 6, key_tree, length=256)
        consumer = ResolutionConsumerKeystream(
            keystream.share(0, 12), keystream.make_envelopes(0, 12)
        )
        consumer_cipher = HEACCipher(consumer)
        aligned = aggregate(ciphertexts[0:6])
        assert consumer_cipher.decrypt(aligned) == sum(values[0:6])
        full = aggregate(ciphertexts)
        assert consumer_cipher.decrypt(full) == sum(values)
        unaligned = aggregate(ciphertexts[0:3])
        with pytest.raises((DecryptionError, KeyDerivationError)):
            consumer_cipher.decrypt(unaligned)


class TestGrantManager:
    def _register(self, grant_manager, name):
        principal = Principal.create(name)
        grant_manager.identity_provider.register(principal)
        return principal

    def test_full_resolution_grant_roundtrip(self, grant_manager, key_tree):
        principal = self._register(grant_manager, "doc")
        policy = AccessPolicy("stream-1", "doc", TimeRange(2_000, 10_000))
        grant_manager.grant(policy)
        sealed = grant_manager.token_store.latest_grant("stream-1", "doc")
        token = AccessToken.from_bytes(
            principal.decrypt_envelope(sealed, context=b"stream-1")
        )
        assert token.window_start == 2 and token.window_end == 10
        # The shared tree tokens cover windows 2..10 inclusive (the +1 outer key).
        from repro.crypto.keytree import DerivedKeystream

        keystream = DerivedKeystream(token.tree_tokens, prg=token.prg)
        assert keystream.can_derive_range(2, 11)
        assert not keystream.can_derive(1)

    def test_restricted_grant_produces_envelopes(self, grant_manager):
        self._register(grant_manager, "coach")
        policy = AccessPolicy("stream-1", "coach", TimeRange(0, 60_000), Resolution(6))
        grant_manager.grant(policy)
        envelopes = grant_manager.token_store.envelopes_for_range("stream-1", 6, 0, 60)
        assert set(envelopes) == {0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60}

    def test_grant_for_wrong_stream_rejected(self, grant_manager):
        self._register(grant_manager, "doc")
        with pytest.raises(ConfigurationError):
            grant_manager.grant(AccessPolicy("other", "doc", TimeRange(0, 1000)))

    def test_grant_before_epoch_rejected(self, grant_manager, stream_config):
        self._register(grant_manager, "doc")
        policy = AccessPolicy(
            "stream-1", "doc", TimeRange(stream_config.start_time - 10, 1000)
        )
        with pytest.raises(ConfigurationError):
            grant_manager.grant(policy)

    def test_unregistered_principal_rejected(self, grant_manager):
        with pytest.raises(AccessDeniedError):
            grant_manager.grant(AccessPolicy("stream-1", "ghost", TimeRange(0, 1000)))

    def test_open_ended_grant(self, grant_manager):
        self._register(grant_manager, "doc")
        grant = grant_manager.grant(open_ended("stream-1", "doc", 0))
        assert grant.policy.is_open_ended

    def test_revocation_clips_grants(self, grant_manager):
        self._register(grant_manager, "doc")
        grant_manager.grant(AccessPolicy("stream-1", "doc", TimeRange(0, 100_000)))
        modified = grant_manager.revoke("doc", 10_000)
        assert len(modified) == 1
        active = grant_manager.active_policy("doc")
        assert active is not None and active.time_range.end == 10_000

    def test_revoking_unknown_principal(self, grant_manager):
        with pytest.raises(AccessDeniedError):
            grant_manager.revoke("nobody", 0)

    def test_revocation_leaves_expired_grants_alone(self, grant_manager):
        self._register(grant_manager, "doc")
        grant_manager.grant(AccessPolicy("stream-1", "doc", TimeRange(0, 5_000)))
        assert grant_manager.revoke("doc", 10_000) == []
