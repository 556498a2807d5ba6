"""Tests for the PRG constructions and the GGM key-derivation tree."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keytree import DerivedKeystream, KeyDerivationTree, merge_token_sets
from repro.crypto.prf import available_prgs, get_prg, kdf, prf, prf_int
from repro.exceptions import ConfigurationError, KeyDerivationError
from tests.conftest import run_concurrently

SEED = bytes(range(16))


class TestPRGs:
    @pytest.mark.parametrize("name", available_prgs())
    def test_expand_is_deterministic_and_splits(self, name):
        prg = get_prg(name)
        left1, right1 = prg.expand(SEED)
        left2, right2 = prg.expand(SEED)
        assert (left1, right1) == (left2, right2)
        assert left1 != right1
        assert len(left1) == len(right1) == 16

    @pytest.mark.parametrize("name", available_prgs())
    def test_children_match_expand(self, name):
        prg = get_prg(name)
        assert prg.left(SEED) == prg.expand(SEED)[0]
        assert prg.right(SEED) == prg.expand(SEED)[1]
        assert prg.child(SEED, 0) == prg.left(SEED)
        assert prg.child(SEED, 1) == prg.right(SEED)

    def test_invalid_child_bit(self):
        with pytest.raises(ValueError):
            get_prg("blake2").child(SEED, 2)

    def test_invalid_seed_length(self):
        with pytest.raises(ValueError):
            get_prg("blake2").expand(b"short")

    def test_unknown_prg_rejected(self):
        with pytest.raises(ConfigurationError):
            get_prg("md5")

    def test_different_constructions_disagree(self):
        """Distinct PRG constructions produce unrelated keystreams."""
        outputs = {name: get_prg(name).expand(SEED) for name in ("sha256", "blake2", "aes")}
        assert len(set(outputs.values())) == len(outputs)

    def test_aes_backends_agree(self):
        """The pure-Python AES PRG and the native-backend PRG are interchangeable."""
        if "aes-ni" not in available_prgs():
            pytest.skip("native AES backend not available")
        assert get_prg("aes").expand(SEED) == get_prg("aes-ni").expand(SEED)

    @pytest.mark.parametrize("name", available_prgs())
    def test_one_instance_serves_concurrent_threads(self, name):
        """A stream's tree (one PRG) derives keys for an ingest and a grant thread at once."""
        prg = get_prg(name)
        seeds = [i.to_bytes(16, "big") for i in range(16 if name == "aes" else 2048)]

        def derive_all():
            return (
                [prg.child(seed, seed[-1] & 1) for seed in seeds[:64]],
                [prg.expand(seed) for seed in seeds[:8]],
                prg.expand_many(seeds),
            )

        expected = derive_all()
        rounds = 1 if name == "aes" else 20
        barrier = threading.Barrier(4, timeout=30)
        failures = []

        def derive() -> None:
            barrier.wait()
            try:
                for _ in range(rounds):
                    if derive_all() != expected:
                        failures.append("mismatch")
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(repr(exc))

        run_concurrently(derive, [()] * 4)
        assert failures == []


class TestPRF:
    def test_prf_deterministic(self):
        assert prf(b"key", b"msg") == prf(b"key", b"msg")

    def test_prf_key_separation(self):
        assert prf(b"key1", b"msg") != prf(b"key2", b"msg")

    def test_prf_output_length(self):
        assert len(prf(b"key", b"msg", 5)) == 5
        assert len(prf(b"key", b"msg", 100)) == 100

    def test_prf_invalid_length(self):
        with pytest.raises(ValueError):
            prf(b"key", b"msg", 0)

    def test_prf_int_in_range(self):
        for modulus in (2, 10, 1 << 64):
            assert 0 <= prf_int(b"key", b"msg", modulus) < modulus

    def test_prf_int_invalid_modulus(self):
        with pytest.raises(ValueError):
            prf_int(b"key", b"msg", 0)

    def test_kdf_domain_separation(self):
        assert kdf(SEED, "label-a") != kdf(SEED, "label-b")


class TestKeyDerivationTree:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KeyDerivationTree(seed=b"short", height=10)
        with pytest.raises(ValueError):
            KeyDerivationTree(seed=SEED, height=0)
        with pytest.raises(ValueError):
            KeyDerivationTree(seed=SEED, height=63)

    def test_leaf_determinism_and_distinctness(self):
        tree = KeyDerivationTree(seed=SEED, height=10, prg="blake2")
        leaves = [tree.leaf(i) for i in range(32)]
        assert leaves == [tree.leaf(i) for i in range(32)]
        assert len(set(leaves)) == 32

    def test_leaf_out_of_range(self):
        tree = KeyDerivationTree(seed=SEED, height=4, prg="blake2")
        with pytest.raises(KeyDerivationError):
            tree.leaf(16)
        with pytest.raises(KeyDerivationError):
            tree.leaf(-1)

    def test_cache_levels_do_not_change_results(self):
        uncached = KeyDerivationTree(seed=SEED, height=12, prg="blake2", cache_levels=0)
        cached = KeyDerivationTree(seed=SEED, height=12, prg="blake2", cache_levels=12)
        for i in (0, 1, 100, 4095):
            assert uncached.leaf(i) == cached.leaf(i)

    def test_prg_choice_changes_keystream(self):
        blake = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        sha = KeyDerivationTree(seed=SEED, height=8, prg="sha256")
        assert blake.leaf(0) != sha.leaf(0)

    def test_keys_iterator(self):
        tree = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        assert list(tree.keys(3, 7)) == [tree.leaf(i) for i in range(3, 7)]

    def test_root_token_covers_everything(self):
        tree = KeyDerivationTree(seed=SEED, height=6, prg="blake2")
        root = tree.root_token()
        assert root.leaf_span == (0, 63)
        derived = DerivedKeystream([root], prg="blake2")
        assert derived.leaf(0) == tree.leaf(0)
        assert derived.leaf(63) == tree.leaf(63)


class TestTokensForRange:
    @pytest.mark.parametrize("start,end", [(0, 8), (3, 11), (5, 6), (0, 1), (7, 16), (1, 15)])
    def test_cover_is_exact(self, start, end):
        tree = KeyDerivationTree(seed=SEED, height=4, prg="blake2")
        tokens = tree.tokens_for_range(start, end)
        covered = sorted(
            leaf for token in tokens for leaf in range(token.leaf_span[0], token.leaf_span[1] + 1)
        )
        assert covered == list(range(start, end))

    def test_cover_is_minimal_for_aligned_subtree(self):
        tree = KeyDerivationTree(seed=SEED, height=4, prg="blake2")
        assert len(tree.tokens_for_range(0, 16)) == 1
        assert len(tree.tokens_for_range(0, 8)) == 1
        assert len(tree.tokens_for_range(8, 16)) == 1

    def test_cover_size_bounded(self):
        tree = KeyDerivationTree(seed=SEED, height=10, prg="blake2")
        for start, end in [(1, 1023), (3, 700), (511, 513)]:
            assert len(tree.tokens_for_range(start, end)) <= 2 * tree.height

    def test_invalid_range(self):
        tree = KeyDerivationTree(seed=SEED, height=4, prg="blake2")
        with pytest.raises(KeyDerivationError):
            tree.tokens_for_range(0, 17)
        with pytest.raises(KeyDerivationError):
            tree.tokens_for_range(5, 3)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_cover_property(self, a, b):
        start, end = min(a, b), max(a, b) + 1
        tree = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        tokens = tree.tokens_for_range(start, end)
        covered = set()
        for token in tokens:
            lo, hi = token.leaf_span
            covered.update(range(lo, hi + 1))
        assert covered == set(range(start, end))


class TestDerivedKeystream:
    def test_derives_exactly_granted_keys(self):
        tree = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        tokens = tree.tokens_for_range(10, 30)
        derived = DerivedKeystream(tokens, prg="blake2")
        for i in range(10, 30):
            assert derived.leaf(i) == tree.leaf(i)
        for i in (9, 30, 0, 255):
            with pytest.raises(KeyDerivationError):
                derived.leaf(i)

    def test_can_derive_checks(self):
        tree = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        derived = DerivedKeystream(tree.tokens_for_range(4, 12), prg="blake2")
        assert derived.can_derive(4) and derived.can_derive(11)
        assert not derived.can_derive(3) and not derived.can_derive(12)
        assert derived.can_derive_range(4, 12)
        assert not derived.can_derive_range(4, 13)
        assert derived.can_derive_range(5, 5)  # empty range is trivially satisfied

    def test_covered_ranges_merging(self):
        tree = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        tokens = merge_token_sets(tree.tokens_for_range(0, 4), tree.tokens_for_range(4, 8))
        derived = DerivedKeystream(tokens, prg="blake2")
        assert derived.covered_ranges == [(0, 7)]

    def test_requires_at_least_one_token(self):
        with pytest.raises(ValueError):
            DerivedKeystream([], prg="blake2")

    def test_rejects_mixed_tree_heights(self):
        tree_a = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        tree_b = KeyDerivationTree(seed=SEED, height=10, prg="blake2")
        with pytest.raises(ValueError):
            DerivedKeystream(
                tree_a.tokens_for_range(0, 2) + tree_b.tokens_for_range(0, 2), prg="blake2"
            )

    def test_merge_token_sets_deduplicates(self):
        tree = KeyDerivationTree(seed=SEED, height=8, prg="blake2")
        tokens = tree.tokens_for_range(0, 8)
        merged = merge_token_sets(tokens, tokens)
        assert len(merged) == len(tokens)
