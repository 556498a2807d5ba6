"""HEAC boundary keys: bit-identity, step budget and the access-control edge.

Three kinds of evidence that the one-child PRG steps, the shared-ancestor
``leaves()`` walk and the one-keyed-state-per-leaf pad vectors changed the
*cost* of a boundary key and nothing else:

* **golden fixtures** (``tests/fixtures/crypto/golden_keys.json``, written
  by the parent commit of ISSUE 20 before the derivation code was touched):
  leaf labels at tree-boundary indices, their component keys and payload
  keys, a token cover, encrypted ``TCD1`` digest blobs and resolution
  envelopes, per PRG and tree height — all re-derived, and the stored blobs
  decrypted, through today's code;
* **references** kept here only: stdlib ``hmac`` for the keyed PRF,
  ``expand(seed)[bit]`` for ``child``, per-index ``leaf`` for ``leaves``;
* a **counting PRG / counting PRF** pinning the budget: a two-boundary
  decrypt costs at most ``(h - cached) + (h - lca)`` one-child steps and
  exactly one keyed PRF state per boundary.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
from pathlib import Path
from typing import List

import pytest

from repro.access.resolution import ResolutionConsumerKeystream, ResolutionShare
from repro.crypto.heac import (
    MODULUS,
    HEACCipher,
    HEACCiphertext,
    component_keys_from_leaf,
    fold_vectors,
    key_to_int,
    payload_key_from_leaf,
)
from repro.crypto.keyregression import DualKeyRegressionToken
from repro.crypto.keytree import DerivedKeystream, KeyDerivationTree, TreeToken
from repro.crypto.prf import KeyedPRF, available_prgs, get_prg, kdf, prf
from repro.exceptions import DecryptionError, KeyDerivationError
from repro.timeseries.serialization import decode_digest_vector, encode_digest_vector

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "crypto" / "golden_keys.json").read_text()
)
SEED = bytes.fromhex(GOLDEN["seed"])
WIDTH = GOLDEN["width"]


def _golden_cases():
    cases = []
    for name, case in GOLDEN["cases"].items():
        prg, height = name.split("/")
        marks = [] if prg in available_prgs() else [pytest.mark.skip(reason=f"{prg} unavailable")]
        cases.append(pytest.param(prg, int(height), case, id=name, marks=marks))
    return cases


# -- references (the definitions the fast paths replaced) ------------------------------


def reference_prf(key: bytes, message: bytes, out_len: int) -> bytes:
    blocks = b""
    counter = 0
    while len(blocks) < out_len:
        blocks += hmac.new(key, counter.to_bytes(4, "big") + message, hashlib.sha256).digest()
        counter += 1
    return blocks[:out_len]


def reference_component_key(leaf: bytes, component: int) -> int:
    if component == 0:
        return key_to_int(leaf)
    return key_to_int(reference_prf(leaf, f"digest-component:{component}".encode(), 16))


def lca_depth(height: int, a: int, b: int) -> int:
    return height - (a ^ b).bit_length()


# -- golden fixtures ------------------------------------------------------------------------


@pytest.mark.parametrize("prg,height,case", _golden_cases())
class TestGoldenKeys:
    def test_leaf_labels_component_keys_and_payload_keys(self, prg, height, case):
        tree = KeyDerivationTree(seed=SEED, height=height, prg=prg)
        cipher = HEACCipher(tree)
        indices = sorted(map(int, case["leaves"]))
        assert {0, (1 << height) - 1} <= set(indices)
        batched = KeyDerivationTree(seed=SEED, height=height, prg=prg).leaves(indices)
        for index, label in zip(indices, batched):
            recorded = case["leaves"][str(index)]
            assert label.hex() == recorded["label"]
            assert tree.leaf(index).hex() == recorded["label"]
            assert component_keys_from_leaf(label, WIDTH) == recorded["component_keys"]
            assert [reference_component_key(label, c) for c in range(WIDTH)] == recorded[
                "component_keys"
            ]
            if recorded["payload_key"] is None:
                assert index == tree.num_keys - 1
                with pytest.raises(KeyDerivationError):
                    cipher.chunk_payload_key(index)
            else:
                assert cipher.chunk_payload_key(index).hex() == recorded["payload_key"]

    def test_token_cover_and_the_keystream_derived_from_it(self, prg, height, case):
        tree = KeyDerivationTree(seed=SEED, height=height, prg=prg)
        cover = case["cover"]
        tokens = tree.tokens_for_range(cover["start"], cover["end"])
        assert [[t.depth, t.index, t.value.hex()] for t in tokens] == cover["tokens"]
        stored = [
            TreeToken(depth=depth, index=index, value=bytes.fromhex(value), height=height)
            for depth, index, value in cover["tokens"]
        ]
        derived = DerivedKeystream(stored, prg=prg)
        span = list(range(cover["start"], cover["end"]))
        assert derived.leaves(span[::3]) == [tree.leaf(i) for i in span[::3]]
        assert derived.leaf_range(cover["start"], cover["end"]) == tree.leaves(span)

    def test_stored_digest_blobs_decrypt_and_re_encrypt_identically(self, prg, height, case):
        tree = KeyDerivationTree(seed=SEED, height=height, prg=prg)
        cipher = HEACCipher(tree)
        for digest in case["digests"]:
            start, end = digest["window_start"], digest["window_end"]
            first = decode_digest_vector(bytes.fromhex(digest["first_window_blob"]))
            folded = decode_digest_vector(bytes.fromhex(digest["range_blob"]))
            assert (folded[0].window_start, folded[0].window_end) == (start, end)
            assert cipher.decrypt_ranges([first, folded]) == [
                digest["first_window_plaintext"],
                digest["range_plaintext"],
            ]
            assert cipher.decrypt_vector(folded) == digest["range_plaintext"]
            assert cipher.decrypt(folded[0]) == digest["range_plaintext"][0]
            fresh = cipher.encrypt_vector(digest["first_window_plaintext"], start)
            assert encode_digest_vector(fresh).hex() == digest["first_window_blob"]
            assert cipher.window_batch(start, end).encrypt_vector(
                digest["first_window_plaintext"], start
            ) == first

    def test_consumers_read_the_stored_blobs(self, prg, height, case):
        """Full-resolution (tree tokens) and restricted (envelopes) consumers."""
        tree = KeyDerivationTree(seed=SEED, height=height, prg=prg)
        low = case["digests"][0]
        folded = decode_digest_vector(bytes.fromhex(low["range_blob"]))
        stored = [
            TreeToken(depth=depth, index=index, value=bytes.fromhex(value), height=height)
            for depth, index, value in case["cover"]["tokens"]
        ]
        full = HEACCipher(DerivedKeystream(stored, prg=prg))
        assert full.decrypt_ranges([folded]) == [low["range_plaintext"]]
        recorded = case["envelopes"]
        token = recorded["token"]
        share = ResolutionShare(
            stream_uuid=recorded["stream_uuid"],
            resolution_chunks=recorded["resolution_chunks"],
            token=DualKeyRegressionToken(
                lower=token["lower"],
                upper=token["upper"],
                primary_state=bytes.fromhex(token["primary_state"]),
                secondary_state=bytes.fromhex(token["secondary_state"]),
                length=token["length"],
            ),
        )
        envelopes = {int(w): bytes.fromhex(blob) for w, blob in recorded["blobs"].items()}
        keystream = ResolutionConsumerKeystream(share, envelopes)
        for window, outer_key in recorded["outer_keys"].items():
            assert keystream.leaf(int(window)).hex() == outer_key == tree.leaf(int(window)).hex()
        restricted = HEACCipher(ResolutionConsumerKeystream(share, envelopes))
        assert restricted.decrypt_ranges([folded]) == [low["range_plaintext"]]
        assert restricted.outer_pads(folded[0].window_start, folded[0].window_end, WIDTH) == (
            HEACCipher(tree).outer_pads(folded[0].window_start, folded[0].window_end, WIDTH)
        )


# -- primitives against their references ----------------------------------------------------


@pytest.mark.parametrize("prg_name", available_prgs())
def test_child_is_the_requested_half_of_expand(prg_name):
    prg = get_prg(prg_name)
    rng = random.Random(prg_name)
    for _ in range(16 if prg_name == "aes" else 200):
        seed = rng.randbytes(16)
        assert (prg.child(seed, 0), prg.child(seed, 1)) == prg.expand(seed)
    for bad_bit in (2, -1):
        with pytest.raises(ValueError):
            prg.child(bytes(16), bad_bit)
    with pytest.raises(ValueError):
        prg.child(b"short", 1)


def test_keyed_prf_equals_stdlib_hmac():
    rng = random.Random(20)
    for _ in range(400):
        key = rng.randbytes(rng.choice((0, 1, 16, 32, 63, 64, 65, 130)))
        keyed = KeyedPRF(key)
        for out_len in rng.sample(range(1, 81), 6):
            message = rng.randbytes(rng.randrange(0, 70))
            expected = reference_prf(key, message, out_len)
            assert keyed(message, out_len) == expected
            assert prf(key, message, out_len) == expected
        labels = [rng.randbytes(rng.randrange(1, 30)) for _ in range(5)]
        assert keyed.blocks(labels) == [reference_prf(key, label, 32) for label in labels]
    assert kdf(b"k" * 16, "label", 48) == reference_prf(b"k" * 16, b"label", 48)
    with pytest.raises(ValueError):
        KeyedPRF(b"k")(b"m", 0)


def test_component_keys_match_the_per_component_reference_at_any_width():
    leaf = bytes(range(16))
    for width in (0, 1, 2, 11, 65, 66, 130):  # 65: the precomputed label table ends
        assert component_keys_from_leaf(leaf, width) == [
            reference_component_key(leaf, component) for component in range(width)
        ]


# -- the 64-bit ring: every bit position survives the wrap --------------------------------


@pytest.mark.parametrize("n", range(64))
def test_values_and_pads_at_every_bit_position_survive_the_modular_wrap(n, key_tree):
    cipher = HEACCipher(key_tree)
    bit = 1 << n
    plaintexts = [bit, bit - 1, (MODULUS - bit) % MODULUS, bit | 1]
    window = 40 + n
    cells = cipher.encrypt_vector(plaintexts, window)
    assert cipher.decrypt_vector(cells) == plaintexts
    # A ciphertext *value* with only bit n set decrypts to value - pad (mod M).
    pads = cipher.outer_pads(window, window + 3, len(plaintexts))
    forged = [HEACCiphertext(bit, window, window + 3) for _ in plaintexts]
    assert cipher.decrypt_vector(forged) == [(bit - pad) % MODULUS for pad in pads]
    # Sums that overflow bit 63 wrap in plaintext exactly as they do encrypted.
    three = [cipher.encrypt_vector(plaintexts, window + offset) for offset in range(3)]
    folded = fold_vectors(three)
    assert cipher.decrypt_ranges([folded]) == [[(3 * p) % MODULUS for p in plaintexts]]


# -- leaves(): every LCA depth, any input shape ----------------------------------------------


@pytest.mark.parametrize("prg_name", [p for p in ("blake2", "aes-ni-fk") if p in available_prgs()])
@pytest.mark.parametrize("cache_levels", [0, 5, 16])
def test_leaves_equals_per_leaf_for_pairs_differing_in_exactly_bit_n(prg_name, cache_levels):
    height = 30
    reference = KeyDerivationTree(seed=SEED, height=height, prg=prg_name, cache_levels=0)
    tree = KeyDerivationTree(seed=SEED, height=height, prg=prg_name, cache_levels=cache_levels)
    rng = random.Random(cache_levels)
    for n in range(height):  # LCA at depth height - n - 1: every depth, root to leaf's parent
        low = rng.randrange(1 << height) & ~(1 << n)
        pair = [low, low | (1 << n)]
        assert lca_depth(height, *pair) == height - n - 1
        expected = [reference.leaf(i) for i in pair]
        assert tree.leaves(pair) == expected
        assert tree.leaves(pair[::-1]) == expected[::-1]
        tokens = reference.tokens_for_range(min(pair), max(pair) + 1)
        assert DerivedKeystream(tokens, prg=prg_name).leaves(pair) == expected


@pytest.mark.parametrize("prg_name", [p for p in ("blake2", "aes-ni-fk") if p in available_prgs()])
def test_batched_payload_keys_equal_per_window_keys(prg_name):
    """One key batch per range answer, bit-identical to one window at a time."""
    height = 30
    tree = KeyDerivationTree(seed=SEED, height=height, prg=prg_name)
    last = (1 << height) - 2  # the last window with a successor boundary
    rng = random.Random(height)
    answers = [[0], [last], [0, last], [0, 1, 2, 5, 6, 1 << 29]]
    for n in range(height):  # the pair straddling bit n: LCA at every depth
        edge = 1 << n
        answers.append([edge - 1, edge])
        answers.append([edge - 1, edge + 1, min(edge + 2 + rng.randrange(edge), last)])  # gaps
    for windows in answers:
        owner = HEACCipher(tree)
        consumer = HEACCipher(
            DerivedKeystream(tree.tokens_for_range(windows[0], windows[-1] + 2), prg=prg_name)
        )
        for cipher in (owner, consumer):
            for length in (16, 32):
                per_window = []
                for window in windows:
                    batch = cipher.window_batch(window, window + 1)
                    leaf, encoded = batch.leaf(window), batch.encoded_key(window)
                    per_window.append(payload_key_from_leaf(leaf, encoded, length))
                assert cipher.chunk_payload_keys(windows, length) == per_window, windows
                assert [cipher.chunk_payload_key(window, length) for window in windows] == per_window
        assert consumer.chunk_payload_keys(windows) == owner.chunk_payload_keys(windows)
    assert HEACCipher(tree).chunk_payload_keys([]) == []


def test_leaves_accepts_unsorted_duplicate_and_empty_input_and_rejects_out_of_range(key_tree):
    n = key_tree.num_keys
    indices = [9, 3, 3, 4, 5, 200, 9, n - 1, 0, 6, 5]
    assert key_tree.leaves(indices) == [key_tree.leaf(i) for i in indices]
    assert key_tree.leaves([]) == [] and key_tree.leaves(range(0)) == []
    assert key_tree.leaves(range(7, 19)) == key_tree.leaf_range(7, 19)
    for bad in ([-1], [n], [3, n], [5, -2, 6]):
        with pytest.raises(KeyDerivationError):
            key_tree.leaves(bad)
    derived = DerivedKeystream(
        key_tree.tokens_for_range(4, 12) + key_tree.tokens_for_range(40, 44),
        prg=key_tree.prg_name,
    )
    scattered = [41, 5, 5, 11, 40, 4, 43]
    assert derived.leaves(scattered) == [key_tree.leaf(i) for i in scattered]
    assert derived.leaves([]) == []
    for bad in ([3], [12], [5, 39], [-1], [n]):
        with pytest.raises(KeyDerivationError):
            derived.leaves(bad)


def test_derived_keystream_resolves_nested_and_duplicate_tokens(key_tree):
    """Merged grants may hand a consumer a subtree and a node inside it."""
    outer = key_tree.tokens_for_range(0, 64)
    inner = key_tree.tokens_for_range(8, 12)
    derived = DerivedKeystream(inner + outer + inner, prg=key_tree.prg_name)
    assert derived.covered_ranges == [(0, 63)]
    assert derived.can_derive(63) and not derived.can_derive(64)
    assert derived.can_derive_range(0, 64) and not derived.can_derive_range(0, 65)
    assert derived.leaves([7, 9, 12, 63]) == [key_tree.leaf(i) for i in (7, 9, 12, 63)]


# -- round trip / wrong key must fail ----------------------------------------------------------


class TestAccessEdge:
    VECTORS = [[7, 8, MODULUS - 3], [1 << 63, 5, 0]]

    def _aggregate(self, cipher: HEACCipher, start: int) -> List[HEACCiphertext]:
        return fold_vectors(
            [cipher.encrypt_vector(v, start + i) for i, v in enumerate(self.VECTORS)]
        )

    def test_round_trip_for_owner_and_covering_consumer(self, key_tree):
        owner = HEACCipher(key_tree)
        cells = self._aggregate(owner, 20)
        expected = [sum(column) % MODULUS for column in zip(*self.VECTORS)]
        assert owner.decrypt_ranges([cells]) == [expected]
        consumer = HEACCipher(
            DerivedKeystream(key_tree.tokens_for_range(20, 23), prg=key_tree.prg_name)
        )
        assert consumer.decrypt_ranges([cells]) == [expected]

    @pytest.mark.parametrize("granted", [(20, 22), (21, 23)], ids=["start-only", "end-only"])
    def test_one_boundary_is_not_enough(self, key_tree, granted):
        """Tokens covering one outer key but not the other recover nothing."""
        cells = self._aggregate(HEACCipher(key_tree), 20)
        keystream = DerivedKeystream(
            key_tree.tokens_for_range(*granted), prg=key_tree.prg_name
        )
        partial = HEACCipher(keystream)
        for attempt in (
            lambda: partial.decrypt_ranges([cells]),
            lambda: partial.decrypt_vector(cells),
            lambda: partial.decrypt(cells[0]),
            lambda: partial.outer_pads(20, 22, 3),
        ):
            with pytest.raises(DecryptionError, match=r"windows \[20, 22\)") as raised:
                attempt()
            assert isinstance(raised.value.__cause__, KeyDerivationError)

    def test_neighbouring_streams_tree_decrypts_to_something_else(self, key_tree):
        cells = self._aggregate(HEACCipher(key_tree), 20)
        expected = [sum(column) % MODULUS for column in zip(*self.VECTORS)]
        neighbour = KeyDerivationTree(
            seed=bytes(reversed(range(16))), height=key_tree.height, prg=key_tree.prg_name
        )
        wrong = HEACCipher(neighbour).decrypt_ranges([cells])[0]
        assert all(got != want for got, want in zip(wrong, expected))

    def test_missing_envelope_stays_access_denied(self):
        from repro.access.resolution import ResolutionKeystream
        from repro.exceptions import AccessDeniedError

        tree = KeyDerivationTree(seed=SEED, height=12, prg="blake2")
        resolution = ResolutionKeystream("s", 4, tree, length=16)
        share = resolution.share(0, 16)
        cells = fold_vectors(
            [HEACCipher(tree).encrypt_vector([1, 2], window) for window in range(4, 8)]
        )
        consumer = HEACCipher(ResolutionConsumerKeystream(share, resolution.make_envelopes(4, 4)))
        with pytest.raises(AccessDeniedError):  # envelope for window 8 never fetched
            consumer.decrypt_ranges([cells])
        unaligned = [HEACCiphertext(1, 4, 6)]
        with pytest.raises(DecryptionError):  # finer than the granted resolution
            consumer.decrypt_ranges([unaligned])


# -- the step budget ------------------------------------------------------------------------------


class _CountingPRG:
    """Counts one-child steps and batch-expanded seeds through to the real PRG."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.steps = 0

    def child(self, seed: bytes, bit: int) -> bytes:
        self.steps += 1
        return self._inner.child(seed, bit)

    def expand_many(self, seeds):
        self.steps += len(seeds)
        return self._inner.expand_many(seeds)


@pytest.fixture
def counting(monkeypatch):
    """A height-30 owner tree with a counting PRG, and a counter of keyed PRF set-ups."""
    tree = KeyDerivationTree(seed=SEED, height=30, prg="blake2", cache_levels=16)
    prg = tree._prg = _CountingPRG(tree._prg)
    setups = []

    set_up = KeyedPRF.__init__

    def counting_set_up(self, key: bytes) -> None:
        setups.append(key)
        set_up(self, key)

    monkeypatch.setattr(KeyedPRF, "__init__", counting_set_up)
    return tree, prg, setups


class TestStepBudget:
    HEIGHT, CACHED = 30, 16

    @pytest.mark.parametrize(
        "start,end", [(0, 1023), (37, 38), (38, 39), (511, 512), (100, 612), (640, 641)]
    )
    def test_two_boundary_decrypt(self, counting, start, end):
        tree, prg, setups = counting
        cipher = HEACCipher(tree)
        cells = [HEACCiphertext(component, start, end) for component in range(11)]
        cipher.decrypt_ranges([[HEACCiphertext(0, 1, 2)]])  # warm the memoised top levels
        prg.steps = 0
        del setups[:]
        cipher.decrypt_ranges([cells])
        budget = (self.HEIGHT - self.CACHED) + (self.HEIGHT - lca_depth(self.HEIGHT, start, end))
        assert prg.steps <= budget
        if end - start > 1:
            assert prg.steps == budget
        assert len(setups) == 2 and set(setups) == {tree.leaf(start), tree.leaf(end)}

    def test_cold_tree_pays_the_full_first_walk_once(self, counting):
        tree, prg, _setups = counting
        HEACCipher(tree).decrypt_ranges([[HEACCiphertext(0, 100, 612)]])
        assert prg.steps == self.HEIGHT + (self.HEIGHT - lca_depth(self.HEIGHT, 100, 612))

    def test_series_derives_each_boundary_once(self, counting):
        tree, prg, setups = counting
        cipher = HEACCipher(tree)
        edges = [64, 96, 128, 192, 200]
        series = [
            [HEACCiphertext(c, lo, hi) for c in range(11)] for lo, hi in zip(edges, edges[1:])
        ]
        cipher.decrypt_ranges(series)
        assert len(setups) == len(edges) == len(set(setups))
        walked = self.HEIGHT + sum(
            self.HEIGHT - lca_depth(self.HEIGHT, a, b) for a, b in zip(edges, edges[1:])
        )
        assert prg.steps == walked

    def test_consumer_walks_from_its_token_not_from_the_root(self, counting):
        tree, _prg, setups = counting
        tokens = tree.tokens_for_range(0, 1024)  # one node at depth 20
        assert [t.depth for t in tokens] == [20]
        keystream = DerivedKeystream(tokens, prg="blake2")
        prg = keystream._prg = _CountingPRG(keystream._prg)
        del setups[:]
        HEACCipher(keystream).decrypt_ranges([[HEACCiphertext(c, 100, 612) for c in range(11)]])
        assert prg.steps == (30 - 20) + (30 - lca_depth(30, 100, 612))
        assert len(setups) == 2

    def test_window_batch_of_eight(self, counting):
        tree, prg, setups = counting
        tree.leaf(0)
        prg.steps = 0
        del setups[:]
        batch = HEACCipher(tree).window_batch(512, 520)
        # Nine boundaries: the aligned block of eight is expanded as one
        # subtree (7 inner nodes), the ninth leaf walks from their shared path.
        assert prg.steps == (27 - self.CACHED) + 7 + (self.HEIGHT - lca_depth(self.HEIGHT, 512, 520))
        for window in range(512, 520):
            batch.encrypt_vector(list(range(11)), window)
            batch.chunk_payload_key(window)
        # One keyed state per boundary's pad vector, one per payload key.
        assert len(setups) == 9 + 8
