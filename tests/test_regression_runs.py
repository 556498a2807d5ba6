"""Key regression at the construction's cost: runs, lazy checkpoints, envelopes.

A restricted grant wraps every r-th outer key under a dual-key-regression
keystream.  Its keys are consecutive positions, so ``DualKeyRegression.keys``
walks each hash chain once across the run, and ``HashChain`` stores only its
seed until it is read, checkpointing as far down as reads reach.  The
evidence that this changed the cost and nothing else:

* **golden fixtures** (``tests/fixtures/crypto/golden_regression.json``,
  recorded by the commit before the lazy chain, when chains were walked
  eagerly at construction): fixed-seed chain states and keys for lengths
  {1, 2, 63, 64, 65, 200, 2^16} x checkpoint intervals {1, 7, 64} at
  positions 0, ``1 << n`` and ``length - 1``; dual-key-regression keys and
  full shares; and 128 envelopes from ``make_envelopes(0, 1016)`` at r = 8
  with their share token.  Per-position and run derivations must both
  reproduce it, and today's consumer must open the recorded envelopes;
* an **eager reference** kept here only (plain ``hashlib``), against which
  any query order on a fresh chain is checked, from 8 threads too;
* a **step budget**, counted by wrapping ``hashchain.next_state``;
* **round-trip / wrong-key / tamper pairs** for resolution envelopes;
* the **concurrent first grant** race that used to lock a principal out.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServerEngine, StreamConfig, TimeCrypt, TimeCryptConsumer
from repro.access import grants
from repro.access.resolution import (
    ResolutionConsumerKeystream,
    ResolutionKeystream,
    ResolutionShare,
)
from repro.client import keymanager
from repro.crypto import hashchain
from repro.crypto.gcm import aead_encrypt
from repro.crypto.hashchain import HashChain
from repro.crypto.keyregression import DualKeyRegression, DualKeyRegressionToken
from repro.crypto.keytree import KeyDerivationTree
from repro.crypto.prf import kdf
from repro.exceptions import IntegrityError, KeyDerivationError, TimeCryptError
from tests.conftest import make_principal, run_concurrently

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "crypto" / "golden_regression.json").read_text()
)
PRIMARY = bytes.fromhex(GOLDEN["primary_seed"])
SECONDARY = bytes.fromhex(GOLDEN["secondary_seed"])


# -- the eager reference --------------------------------------------------------------------


def reference_chain(seed: bytes, length: int) -> list:
    """Every state, walked eagerly from the seed at ``length - 1``."""
    states = [seed]
    for _ in range(length - 1):
        states.append(
            hashlib.blake2b(states[-1], digest_size=32, person=b"tc-hashchain0000").digest()[:16]
        )
    return states[::-1]


def reference_keys(length: int) -> list:
    primary = reference_chain(PRIMARY, length)
    secondary = reference_chain(SECONDARY, length)[::-1]
    return [
        kdf(bytes(a ^ b for a, b in zip(p, s)), "dual-key-regression")
        for p, s in zip(primary, secondary)
    ]


# -- golden fixtures ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN["chains"]))
def test_chain_states_and_keys_match_the_recorded_eager_chain(name):
    length, interval = map(int, name.split("/"))
    recorded = {int(p): row for p, row in GOLDEN["chains"][name].items()}
    assert {0, length - 1} <= set(recorded)
    low_first = HashChain(PRIMARY, length, checkpoint_interval=interval)
    high_first = HashChain(PRIMARY, length, checkpoint_interval=interval)
    for position in sorted(recorded):
        assert low_first.state(position).hex() == recorded[position]["state"]
        assert low_first.key(position).hex() == recorded[position]["key"]
    for position in sorted(recorded, reverse=True):
        assert high_first.state(position).hex() == recorded[position]["state"]
    run = HashChain(PRIMARY, length, checkpoint_interval=interval).states(0, length)
    assert [run[p].hex() for p in sorted(recorded)] == [
        recorded[p]["state"] for p in sorted(recorded)
    ]


@pytest.mark.parametrize("length", sorted(map(int, GOLDEN["dual"])))
def test_dual_keys_and_shares_match_the_recorded_eager_chains(length):
    recorded = GOLDEN["dual"][str(length)]
    keys = {int(p): key for p, key in recorded["keys"].items()}
    per_position = DualKeyRegression(PRIMARY, SECONDARY, length)
    assert {p: per_position.key(p).hex() for p in keys} == keys
    run = DualKeyRegression(PRIMARY, SECONDARY, length).keys(0, length)
    assert {p: run[p].hex() for p in keys} == keys
    token = DualKeyRegression(PRIMARY, SECONDARY, length).share(0, length - 1)
    assert token.primary_state.hex() == recorded["share"]["primary_state"]
    assert token.secondary_state.hex() == recorded["share"]["secondary_state"]
    assert {p: DualKeyRegression.derive_from_token(token, p).hex() for p in keys} == keys


def _golden_envelope_setup():
    recorded = GOLDEN["envelopes"]
    tree = KeyDerivationTree(
        seed=bytes.fromhex(recorded["tree"]["seed"]),
        height=recorded["tree"]["height"],
        prg=recorded["tree"]["prg"],
    )
    keystream = ResolutionKeystream(
        recorded["stream_uuid"], recorded["resolution_chunks"], tree
    )
    keystream._regression = DualKeyRegression(PRIMARY, SECONDARY, recorded["token"]["length"])
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
    return recorded, tree, keystream, share


def test_recorded_envelopes_open_and_new_ones_wrap_the_same_keys():
    recorded, tree, keystream, share = _golden_envelope_setup()
    blobs = {int(w): bytes.fromhex(blob) for w, blob in recorded["blobs"].items()}
    assert sorted(blobs) == list(range(0, 1017, 8))
    consumer = ResolutionConsumerKeystream(share, blobs)
    assert [consumer.leaf(w) for w in sorted(blobs)] == tree.leaves(sorted(blobs))
    assert keystream.share(recorded["window_start"], recorded["window_end"]) == share
    assert [k.hex() for k in keystream._regression.keys(0, len(blobs))] == recorded[
        "wrapping_keys"
    ]
    fresh = keystream.make_envelopes(recorded["window_start"], recorded["window_end"])
    assert sorted(fresh) == sorted(blobs)
    reopened = ResolutionConsumerKeystream(share, fresh)
    assert [reopened.leaf(w) for w in sorted(fresh)] == tree.leaves(sorted(fresh))


# -- the lazy chain against the eager reference ----------------------------------------------


_QUERY = st.tuples(
    st.sampled_from(["state", "states", "key", "keys"]), st.integers(0, 10_000), st.integers(0, 10_000)
)


@given(
    length=st.integers(1, 300),
    interval=st.integers(1, 70),
    queries=st.lists(_QUERY, min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_any_query_sequence_on_a_fresh_chain_matches_the_eager_reference(
    length, interval, queries
):
    states = reference_chain(PRIMARY, length)
    keys = reference_keys(length)
    chain = HashChain(PRIMARY, length, checkpoint_interval=interval)
    regression = DualKeyRegression(PRIMARY, SECONDARY, length)
    for op, a, b in queries:
        a, b = sorted((a % (length + 1), b % (length + 1)))
        if op == "state" and a < length:
            assert chain.state(a) == states[a]
            assert chain.key(a) == hashchain.state_key(states[a])
        elif op == "key" and a < length:
            assert regression.key(a) == keys[a]
        elif op == "states":
            assert chain.states(a, b) == states[a:b]
        elif op == "keys":
            assert regression.keys(a, b) == keys[a:b]


@pytest.mark.parametrize("order", ["low-first", "high-first", "interleaved"])
def test_query_order_does_not_matter(order):
    length, interval = 1000, 64
    states = reference_chain(PRIMARY, length)
    positions = list(range(0, length, 37)) + [length - 1]
    if order == "high-first":
        positions.reverse()
    elif order == "interleaved":
        positions = [p for pair in zip(positions, positions[::-1]) for p in pair]
    chain = HashChain(PRIMARY, length, checkpoint_interval=interval)
    for position in positions:
        assert chain.state(position) == states[position]
        assert chain.states(position // 2, position + 1) == states[position // 2 : position + 1]
    # Checkpoints stay the O(n/k) the eager chain kept, however the reads came.
    assert len(chain._checkpoints) <= -(-length // interval) + 1


def test_runs_equal_per_index_lists_and_bounds_are_checked():
    length = 130
    chain = HashChain(PRIMARY, length, checkpoint_interval=7)
    regression = DualKeyRegression(PRIMARY, SECONDARY, length)
    for a, b in [(0, 0), (0, 1), (5, 70), (64, 65), (129, 130), (0, 130), (130, 130)]:
        assert chain.states(a, b) == [chain.state(i) for i in range(a, b)]
        assert regression.keys(a, b) == [regression.key(i) for i in range(a, b)]
    for a, b in [(-1, 3), (0, 131), (-5, -1), (131, 131), (8, 7)]:
        with pytest.raises(KeyDerivationError):
            chain.states(a, b)
        with pytest.raises(KeyDerivationError):
            regression.keys(a, b)
    for bad in (-1, length):
        with pytest.raises(KeyDerivationError):
            chain.state(bad)
        with pytest.raises(KeyDerivationError):
            regression.key(bad)


THREADED_LENGTH = 1 << 13


@pytest.fixture(scope="module")
def threaded_reference():
    return reference_chain(PRIMARY, THREADED_LENGTH), reference_keys(THREADED_LENGTH)


@pytest.mark.parametrize("round_", range(3))
def test_eight_threads_reading_one_fresh_chain_see_identical_bytes(threaded_reference, round_):
    states, keys = threaded_reference
    length = THREADED_LENGTH
    chain = HashChain(PRIMARY, length, checkpoint_interval=64)
    regression = DualKeyRegression(PRIMARY, SECONDARY, length)
    barrier = threading.Barrier(8, timeout=30)
    failures = []

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        barrier.wait()
        try:
            for _ in range(40):
                index = rng.randrange(length)
                if chain.state(index) != states[index]:
                    failures.append(("state", index))
                end = min(length, index + rng.randrange(1, 20))
                if regression.keys(index, end) != keys[index:end]:
                    failures.append(("keys", index, end))
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)

    run_concurrently(reader, [(round_ * 8 + i,) for i in range(8)])
    assert failures == []


# -- the step budget ----------------------------------------------------------------------------


@pytest.fixture
def counted_steps(monkeypatch):
    steps = [0]
    step = hashchain.next_state

    def counting(state: bytes) -> bytes:
        steps[0] += 1
        return step(state)

    monkeypatch.setattr(hashchain, "next_state", counting)
    return steps


def test_restricted_grant_walks_each_chain_once(counted_steps):
    """One 128-envelope grant (r = 8), as ``GrantManager`` issues it: share + envelopes."""
    tree = KeyDerivationTree(seed=b"r" * 16, height=20, prg="blake2")
    keystream = ResolutionKeystream("s", 8, tree)
    assert counted_steps[0] == 0  # construction stores the seeds only
    keystream.share(0, 1016)
    keystream.make_envelopes(0, 1016)
    assert counted_steps[0] <= (1 << 16) - 1 + 2 * 64  # the primary's one walk down
    counted_steps[0] = 0
    keystream.share(0, 1016)
    keystream.make_envelopes(0, 1016)
    assert counted_steps[0] <= 2 * 128 + 64


# -- envelopes: round trip, wrong key, tamper ----------------------------------------------------


@pytest.fixture(scope="module")
def envelope_batch():
    tree = KeyDerivationTree(seed=b"e" * 16, height=16, prg="blake2")
    keystream = ResolutionKeystream("stream-a", 8, tree, length=256)
    return tree, keystream, keystream.share(0, 1016), keystream.make_envelopes(0, 1016)


def test_every_window_of_a_batch_round_trips(envelope_batch):
    tree, _keystream, share, envelopes = envelope_batch
    assert len(envelopes) == 128
    consumer = ResolutionConsumerKeystream(share, envelopes)
    for window in sorted(envelopes):
        assert consumer.leaf(window) == tree.leaf(window)


def _refuses(share: ResolutionShare, envelopes, window: int) -> None:
    with pytest.raises(TimeCryptError):
        ResolutionConsumerKeystream(share, envelopes).leaf(window)


@pytest.mark.parametrize(
    "field,value", [("stream", "stream-b"), ("resolution", 4), ("window", 24)]
)
def test_an_envelope_bound_to_another_stream_resolution_or_window_is_refused(
    envelope_batch, field, value
):
    tree, keystream, share, envelopes = envelope_batch
    window = 16
    aad = {"stream": "stream-a", "resolution": 8, "window": window}
    aad[field] = value
    wrapping_key = keystream._regression.key(window // 8)
    forged = aead_encrypt(
        wrapping_key, tree.leaf(window), f"{aad['stream']}:{aad['resolution']}:{aad['window']}".encode()
    )
    with pytest.raises(IntegrityError):
        ResolutionConsumerKeystream(share, {window: forged}).leaf(window)
    # The consumer side of the same mix-ups, on genuine envelopes.
    if field == "stream":
        _refuses(ResolutionShare("stream-b", 8, share.token), envelopes, window)
    elif field == "resolution":
        _refuses(ResolutionShare("stream-a", 4, share.token), envelopes, window)
    else:
        _refuses(share, {value: envelopes[window]}, value)


def test_a_share_from_another_chain_opens_nothing(envelope_batch):
    tree, _keystream, _share, envelopes = envelope_batch
    other = ResolutionKeystream("stream-a", 8, tree, length=256).share(0, 1016)
    for window in sorted(envelopes)[::9]:
        _refuses(other, envelopes, window)


@pytest.mark.parametrize("window", [0, 512, 1016])
def test_every_flipped_bit_and_every_cut_is_refused(envelope_batch, window):
    _tree, _keystream, share, envelopes = envelope_batch
    blob = envelopes[window]
    for bit in range(len(blob) * 8):
        tampered = bytearray(blob)
        tampered[bit // 8] ^= 1 << (bit % 8)
        _refuses(share, {window: bytes(tampered)}, window)
    for cut in range(len(blob)):
        _refuses(share, {window: blob[:cut]}, window)
    _refuses(share, {window: blob + b"\x00"}, window)


# -- concurrent first grants ------------------------------------------------------------------------


@pytest.fixture
def slow_construction(monkeypatch):
    """Widen the check-then-construct window of the two lazily created owner objects."""

    def slowed(cls):
        class Slowed(cls):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                time.sleep(0.002)

        return Slowed

    monkeypatch.setattr(keymanager, "GrantManager", slowed(keymanager.GrantManager))
    monkeypatch.setattr(grants, "ResolutionKeystream", slowed(grants.ResolutionKeystream))


@pytest.mark.parametrize("attempt", range(20))
def test_concurrent_first_restricted_grants_share_one_chain(slow_construction, attempt):
    """Two first restricted grants racing on one stream: both principals can read."""
    owner = TimeCrypt(server=ServerEngine(), owner_id=f"racer-{attempt}")
    config = StreamConfig(chunk_interval=1_000, key_tree_height=16, index_fanout=4)
    uuid = owner.create_stream(config=config)
    owner.insert_records(uuid, [(t, float(t % 7)) for t in range(0, 16_000, 500)])
    owner.flush(uuid)
    principals = [make_principal(owner, f"racer-{attempt}-{i}") for i in range(2)]
    barrier = threading.Barrier(len(principals), timeout=30)
    failures = []

    def grant(principal) -> None:
        barrier.wait()
        try:
            # The repeat races the other thread's first grant: it must reuse
            # the published envelopes, and both grants must be stored.
            for _repeat in range(2):
                owner.grant_access(uuid, principal.principal_id, 0, 16_000, resolution_interval=4_000)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)

    run_concurrently(grant, [(p,) for p in principals])
    assert failures == []
    for principal in principals:
        assert len(owner.server.fetch_grants(uuid, principal.principal_id)) == 2
        consumer = TimeCryptConsumer(server=owner.server, principal=principal)
        consumer.fetch_access(uuid, config)
        assert consumer.get_stat_range(uuid, 0, 16_000, operators=("count",))["count"] == 32
