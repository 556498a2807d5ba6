"""HEAC: Homomorphic Encryption-based Access Control (paper §4.2, §A.1).

HEAC is a symmetric, additively homomorphic stream cipher with a key encoding
that makes contiguous-range aggregation cheap to decrypt:

* Encryption of the digest value ``m_i`` for chunk window ``i`` is
  ``c_i = m_i + (k_i - k_{i+1})  mod M`` with ``M = 2^64``.
* Adding ciphertexts adds plaintexts (mod M).
* For a contiguous range ``[i, j)`` the inner keys telescope away, so
  decryption of ``sum(c_i .. c_{j-1})`` needs only ``k_i`` and ``k_j``
  ("key cancelling", §4.2.2) — this is also what enables resolution-based
  access control via outer-key sharing (§4.4.1).

Keys come from the GGM key-derivation tree (:mod:`repro.crypto.keytree`);
any object exposing ``leaf(index) -> bytes`` works as a keystream, so both
the data owner's full tree and a consumer's token-derived partial keystream
plug in directly.

What a decrypt costs
--------------------

A range aggregate over ``[i, j)`` with a ``w``-component digest needs the two
boundary keystream keys — one ``keystream.leaves([i, j])`` call: a walk to
``k_i`` plus ``h - lca(i, j)`` PRG steps to ``k_j`` (cost model in
:mod:`repro.crypto.keytree`) — and per boundary its ``w`` component keys,
all from one keyed PRF state (:func:`component_keys_from_leaf`).  That is
``≈ 20`` AES blocks and ``2·(w - 1)`` short HMACs whatever the range length:
symmetric-key speed, the paper's argument against ABE-style enforcement.
Nothing is remembered between calls; a cache of pads would only add state to
size and invalidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple

from repro.crypto.prf import KeyedPRF, kdf
from repro.exceptions import DecryptionError, KeyDerivationError

#: Plaintext/ciphertext ring modulus.  The paper sets M = 2^64 so that any
#: 64-bit integer can be encrypted without leaking its magnitude.
MODULUS = 1 << 64
_MASK = MODULUS - 1


class Keystream(Protocol):
    """Anything that can produce the i-th 16-byte keystream key.

    Implementations may additionally expose ``leaves(indices)`` returning the
    keys of many positions in one call (sharing tree walks between them); the
    HEAC batch paths use it when present and fall back to per-leaf derivation
    otherwise.
    """

    def leaf(self, leaf_index: int) -> bytes:  # pragma: no cover - protocol
        ...


def _fetch_leaves(keystream: Keystream, indices: Sequence[int]) -> List[bytes]:
    """Keystream keys for ``indices`` (sorted, for the most shared walks), in order."""
    leaves = getattr(keystream, "leaves", None)
    if leaves is not None:
        return leaves(indices)
    return [keystream.leaf(index) for index in indices]


@dataclass(frozen=True, slots=True)
class HEACCiphertext:
    """A HEAC ciphertext tagged with the chunk-window interval it covers.

    ``window_start`` / ``window_end`` identify the half-open keystream
    interval ``[window_start, window_end)`` the ciphertext aggregates over.
    A freshly encrypted per-chunk digest value has ``window_end ==
    window_start + 1``.  Homomorphic addition of adjacent ciphertexts widens
    the interval; the interval is exactly what determines which two outer
    keys decrypt the aggregate.
    """

    value: int
    window_start: int
    window_end: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < MODULUS:
            raise ValueError("HEAC ciphertext value outside the 64-bit ring")
        if self.window_end <= self.window_start:
            raise ValueError("HEAC ciphertext must cover a non-empty window interval")

    @property
    def num_windows(self) -> int:
        return self.window_end - self.window_start

    def __add__(self, other: "HEACCiphertext") -> "HEACCiphertext":
        """Homomorphic addition of ciphertexts over adjacent window intervals."""
        if not isinstance(other, HEACCiphertext):
            return NotImplemented
        if self.window_end == other.window_start:
            first, second = self, other
        elif other.window_end == self.window_start:
            first, second = other, self
        else:
            raise ValueError(
                "HEAC ciphertexts can only be combined over adjacent window intervals; "
                f"got [{self.window_start},{self.window_end}) and "
                f"[{other.window_start},{other.window_end})"
            )
        return HEACCiphertext(
            value=(first.value + second.value) & _MASK,
            window_start=first.window_start,
            window_end=second.window_end,
        )

    def add_scalar(self, plaintext_delta: int) -> "HEACCiphertext":
        """Homomorphically add a known plaintext constant."""
        return HEACCiphertext(
            value=(self.value + plaintext_delta) & _MASK,
            window_start=self.window_start,
            window_end=self.window_end,
        )


def payload_key_from_leaf(leaf: bytes, encoded_key: int, length: int = 16) -> bytes:
    """The AEAD key for a chunk payload, from its window's keystream key.

    The paper uses ``H(k_i - k_{i+1})``; we use a domain-separated PRF of the
    encoded key so payload keys are independent of digest pads.  Single
    definition shared by the scalar and batch paths — a drifted copy would
    write chunks the other path cannot decrypt.
    """
    encoded = encoded_key.to_bytes(8, "big")
    return kdf(leaf, "chunk-payload:" + encoded.hex(), length)


def _payload_key(leaf: bytes, next_leaf: bytes, length: int) -> bytes:
    """The payload key of the window whose keystream key is ``leaf``.

    The one derivation behind both :meth:`HEACCipher.chunk_payload_keys`
    (the reader) and :meth:`HEACWindowBatch.chunk_payload_key` (the writer).
    """
    return payload_key_from_leaf(leaf, (key_to_int(leaf) - key_to_int(next_leaf)) & _MASK, length)


def _component_label(component: int) -> bytes:
    return f"digest-component:{component}".encode("utf-8")


#: PRF labels of components 1..64, built once; wider digests format the rest.
_COMPONENT_LABELS = tuple(map(_component_label, range(1, 65)))


def component_keys_from_leaf(leaf: bytes, width: int) -> List[int]:
    """The 64-bit additive keys of digest components ``0 .. width-1``, from a keystream key.

    Component 0 folds the keystream key directly; every higher component
    folds ``PRF(leaf, "digest-component:<c>")`` so each component of a digest
    vector gets its own pad stream.  The whole vector comes from one keyed
    PRF state (the HMAC key set-up is paid once per leaf, not once per
    component).  This is the single definition every encrypt and decrypt path
    shares — their bit-identity depends on there being exactly one.
    """
    if width <= 0:
        return []
    keys = [key_to_int(leaf)]
    if width > 1:
        derive = KeyedPRF(leaf)
        labels: Iterable[bytes] = (
            _COMPONENT_LABELS[: width - 1]
            if width <= len(_COMPONENT_LABELS) + 1
            else map(_component_label, range(1, width))
        )
        keys += map(key_to_int, derive.blocks(labels))
    return keys


def key_to_int(key: bytes) -> int:
    """Length-matching hash: fold a 128-bit key into the 64-bit ring (§A.1.5).

    The paper folds the PRF output by XOR-ing fixed-size substrings; the
    result stays uniform over ``[0, 2^64)``.
    """
    if len(key) < 16:
        raise ValueError("keystream keys must be at least 16 bytes")
    folded = int.from_bytes(key[:16], "big")
    return (folded >> 64) ^ (folded & _MASK)


class HEACCipher:
    """Encrypt/decrypt per-window digest values with the key-cancelling encoding."""

    def __init__(self, keystream: Keystream) -> None:
        self._keystream = keystream

    # -- key material -------------------------------------------------------

    def window_key(self, window_index: int) -> int:
        """The 64-bit additive key ``k_i`` for window ``i``."""
        return key_to_int(self._keystream.leaf(window_index))

    def encoded_key(self, window_index: int) -> int:
        """The encoded one-time pad ``k_i - k_{i+1} mod M``."""
        return self.window_batch(window_index, window_index + 1).encoded_key(window_index)

    def chunk_payload_key(self, window_index: int, length: int = 16) -> bytes:
        """Derive the AEAD key for the raw chunk payload of window ``i``."""
        return self.chunk_payload_keys([window_index], length)[0]

    def chunk_payload_keys(self, windows: Sequence[int], length: int = 16) -> List[bytes]:
        """The AEAD payload keys of ``windows``, in the order given.

        A payload key needs the keystream keys of its window and the next
        one, so all of them come from one shared-walk derivation over the
        sorted boundaries ``{w, w + 1}`` — at most two leaves per window,
        however far apart the windows are.
        """
        boundaries = sorted(set(windows).union([window + 1 for window in windows]))
        leaves = dict(zip(boundaries, _fetch_leaves(self._keystream, boundaries)))
        return [
            _payload_key(leaves[window], leaves[window + 1], length) for window in windows
        ]

    def _outer_keys(self, boundaries: Sequence[int], width: int) -> Dict[int, List[int]]:
        """Component keys ``0 .. width-1`` of every boundary window (sorted, distinct).

        The one place decryption derives keys.  A keystream that cannot
        derive a boundary raises :class:`DecryptionError` — that failure *is*
        the access-control enforcement.
        """
        try:
            leaves = _fetch_leaves(self._keystream, boundaries)
        except KeyDerivationError as exc:
            raise DecryptionError(
                f"missing outer keys for windows [{boundaries[0]}, {boundaries[-1]})"
            ) from exc
        return {
            window: component_keys_from_leaf(leaf, width)
            for window, leaf in zip(boundaries, leaves)
        }

    # -- encryption / decryption ---------------------------------------------

    def encrypt(self, plaintext: int, window_index: int) -> HEACCiphertext:
        """Encrypt the digest value of chunk window ``window_index``."""
        value = (plaintext + self.encoded_key(window_index)) & _MASK
        return HEACCiphertext(value=value, window_start=window_index, window_end=window_index + 1)

    def encrypt_vector(self, plaintexts: Sequence[int], window_index: int) -> List[HEACCiphertext]:
        """Encrypt a digest vector; each component gets an independent pad.

        Component ``j`` is padded with keys derived for the sub-position
        ``window_index`` of a component-specific keystream slice, realised by
        mixing the component index into the keystream key via the PRF.  This
        keeps one tree per stream while never reusing a pad.
        """
        return self.window_batch(window_index, window_index + 1).encrypt_vector(
            plaintexts, window_index
        )

    def decrypt(self, ciphertext: HEACCiphertext) -> int:
        """Decrypt a (possibly range-aggregated) ciphertext from its two outer keys."""
        return self.decrypt_ranges([[ciphertext]])[0][0]

    def decrypt_vector(
        self, ciphertexts: Sequence[HEACCiphertext], component_offset: int = 0
    ) -> List[int]:
        """Decrypt a vector of per-component range aggregates."""
        return self.decrypt_ranges([ciphertexts], component_offset)[0]

    # -- batch paths ---------------------------------------------------------

    def window_batch(self, window_start: int, window_end: int) -> "HEACWindowBatch":
        """Precompute key material for the consecutive windows ``[start, end)``.

        Encrypting ``n`` consecutive windows needs the ``n + 1`` boundary
        keys ``k_start .. k_end``; the batch derives them once (through the
        keystream's batch derivation when available), so adjacent windows
        share their boundary key material instead of re-deriving it.
        """
        return HEACWindowBatch(self._keystream, window_start, window_end)

    def encrypt_windows(
        self, plaintext_vectors: Sequence[Sequence[int]], window_start: int
    ) -> List[List[HEACCiphertext]]:
        """Encrypt digest vectors for consecutive windows starting at ``window_start``.

        Bit-identical to calling :meth:`encrypt_vector` per window, but each
        boundary key (and its component keys) is computed once for the whole
        batch instead of twice per adjacent window pair.
        """
        batch = self.window_batch(window_start, window_start + len(plaintext_vectors))
        return [
            batch.encrypt_vector(plaintexts, window_start + offset)
            for offset, plaintexts in enumerate(plaintext_vectors)
        ]

    def decrypt_ranges(
        self,
        ciphertext_vectors: Sequence[Sequence[HEACCiphertext]],
        component_offset: int = 0,
    ) -> List[List[int]]:
        """Decrypt many range-aggregate vectors, deriving shared keys once.

        Dashboard-style series share every inner bucket boundary between two
        adjacent aggregates, and all components of one aggregate share its two
        boundary keys: every distinct boundary window is derived exactly once
        (see :meth:`_outer_keys`).  Raises :class:`DecryptionError` when the
        keystream cannot derive a boundary.
        """
        boundaries = sorted(
            {c.window_start for vector in ciphertext_vectors for c in vector}
            | {c.window_end for vector in ciphertext_vectors for c in vector}
        )
        if not boundaries:
            return [[] for _ in ciphertext_vectors]
        width = component_offset + max(map(len, ciphertext_vectors))
        keys = self._outer_keys(boundaries, width)
        return [
            [
                (c.value - keys[c.window_start][component] + keys[c.window_end][component]) & _MASK
                for component, c in enumerate(vector, start=component_offset)
            ]
            for vector in ciphertext_vectors
        ]

    def outer_pad(self, window_start: int, window_end: int, component: int = 0) -> int:
        """The additive pad covering ``[window_start, window_end)`` for one component.

        Subtracting this pad from a range-aggregated ciphertext value yields
        the plaintext aggregate; it is what remains after all inner keys
        cancel.
        """
        return self.outer_pads(window_start, window_end, component + 1)[component]

    def outer_pads(self, window_start: int, window_end: int, num_components: int) -> List[int]:
        """All component pads covering ``[window_start, window_end)`` in one pass.

        Exposed for multi-stream decryption, where pads from several streams
        are removed from one combined value: an inter-stream dashboard pulls
        each involved stream's outer pads with one keystream pass (both
        boundaries, shared walk) and one keyed PRF state per boundary.
        """
        keys = self._outer_keys(sorted({window_start, window_end}), num_components)
        return [
            (start_key - end_key) & _MASK
            for start_key, end_key in zip(keys[window_start], keys[window_end])
        ]

    def decrypt_signed(self, ciphertext: HEACCiphertext) -> int:
        """Decrypt and reinterpret the 64-bit result as a signed integer."""
        value = self.decrypt(ciphertext)
        return value - MODULUS if value >= MODULUS // 2 else value


class HEACWindowBatch:
    """HEAC key material for the consecutive windows ``[start, end)``.

    Built by :meth:`HEACCipher.window_batch`.  Holds the ``n + 1`` boundary
    keystream keys for ``n`` windows (derived in one batch) and each
    boundary's component keys (derived on first use, all components from one
    keyed PRF state), so encrypting window ``i`` and window ``i + 1`` shares
    their common boundary instead of deriving it twice.
    """

    def __init__(self, keystream: Keystream, window_start: int, window_end: int) -> None:
        if window_end < window_start:
            raise ValueError("window batch interval must not be reversed")
        self._start = window_start
        self._end = window_end
        self._leaves = _fetch_leaves(keystream, range(window_start, window_end + 1))
        self._keys: List[List[int]] = [[] for _ in self._leaves]

    @property
    def window_start(self) -> int:
        return self._start

    @property
    def window_end(self) -> int:
        return self._end

    def leaf(self, window_index: int) -> bytes:
        """The keystream key for a boundary in ``[window_start, window_end]``."""
        if not self._start <= window_index <= self._end:
            raise KeyDerivationError(
                f"window {window_index} outside batch [{self._start}, {self._end}]"
            )
        return self._leaves[window_index - self._start]

    def _component_keys(self, window_index: int, width: int) -> List[int]:
        """Component keys ``0 .. width-1`` (at least) of one boundary."""
        leaf = self.leaf(window_index)
        keys = self._keys[window_index - self._start]
        if len(keys) < width:
            keys = self._keys[window_index - self._start] = component_keys_from_leaf(leaf, width)
        return keys

    def window_key(self, window_index: int) -> int:
        return self._component_keys(window_index, 1)[0]

    def encoded_key(self, window_index: int) -> int:
        """The encoded one-time pad ``k_i - k_{i+1} mod M``."""
        return (self.window_key(window_index) - self.window_key(window_index + 1)) & _MASK

    def chunk_payload_key(self, window_index: int, length: int = 16) -> bytes:
        """The AEAD key for the raw chunk payload of window ``i``."""
        return _payload_key(self.leaf(window_index), self.leaf(window_index + 1), length)

    def encrypt_vector(self, plaintexts: Sequence[int], window_index: int) -> List[HEACCiphertext]:
        """Encrypt one window's digest vector from the batch's key material."""
        width = len(plaintexts)
        window_end = window_index + 1
        return [
            HEACCiphertext((plaintext + key - next_key) & _MASK, window_index, window_end)
            for plaintext, key, next_key in zip(
                plaintexts,
                self._component_keys(window_index, width),
                self._component_keys(window_end, width),
            )
        ]


def aggregate(ciphertexts: Iterable[HEACCiphertext]) -> HEACCiphertext:
    """Homomorphically sum ciphertexts covering a contiguous window range.

    The inputs may arrive in any order; they are sorted by window interval
    and must tile a contiguous range with no gaps or overlaps.
    """
    ordered = sorted(ciphertexts, key=lambda c: c.window_start)
    if not ordered:
        raise ValueError("cannot aggregate an empty ciphertext sequence")
    result = ordered[0]
    for ciphertext in ordered[1:]:
        result = result + ciphertext
    return result


def sum_columns(rows: Iterable[Sequence[int]]) -> List[int]:
    """Component-wise integer sum of equal-width rows: one ``sum`` per column.

    Plain integers, no reduction — HEAC callers mask the totals into the ring.
    """
    return [sum(column) for column in zip(*rows)]


def vector_interval(vector: Sequence[HEACCiphertext]) -> Tuple[int, int]:
    """The one window interval every cell of a (non-empty) digest vector covers.

    A digest vector is the per-component encryption of one window range, so
    all of its cells share an interval; a vector whose cells disagree is
    malformed and rejected.
    """
    head = vector[0]
    start, end = head.window_start, head.window_end
    for cell in vector:
        if cell.window_start != start or cell.window_end != end:
            raise ValueError(
                "digest vector cells cover different window intervals: "
                f"[{start},{end}) and [{cell.window_start},{cell.window_end})"
            )
    return start, end


def fold_vectors(vectors: Sequence[Sequence[HEACCiphertext]]) -> List[HEACCiphertext]:
    """Homomorphically sum digest vectors over adjacent intervals, in order.

    The n-ary form of component-wise ``+``: the cell values are summed as
    integer columns and the ``width`` result cells — all tagged
    ``[first.window_start, last.window_end)`` — are the only ciphertext
    objects built, instead of one per cell per addition.  Consecutive
    vectors must be adjacent, exactly as ``+`` demands.

    Precondition: ``vectors`` is non-empty, the vectors have one non-zero
    width, and every vector's cells share one interval — only the first cell
    of each vector is read for it.  The fold does not re-check that (it
    would cost a pass over every cell of every fold); a caller holding
    vectors it has not validated runs :func:`vector_interval` over them
    first, as :func:`aggregate_componentwise` and the index's entry points
    do.
    """
    start = end = vectors[0][0].window_start
    rows = []
    for vector in vectors:
        head = vector[0]
        if head.window_start != end:
            raise ValueError(
                "HEAC ciphertexts can only be combined over adjacent window intervals; "
                f"got [{start},{end}) and [{head.window_start},{head.window_end})"
            )
        end = head.window_end
        rows.append([cell.value for cell in vector])
    return [HEACCiphertext(total & _MASK, start, end) for total in sum_columns(rows)]


def signed_sum_columns(
    added: Sequence[Sequence[int]], subtracted: Sequence[Sequence[int]]
) -> List[int]:
    """Per component, the added rows' sum minus the subtracted rows' (plain integers).

    ``added`` is non-empty; HEAC callers mask the totals into the ring.
    """
    totals = sum_columns(added)
    if subtracted:
        totals = [total - out for total, out in zip(totals, sum_columns(subtracted))]
    return totals


def fold_signed(
    added: Sequence[Sequence[HEACCiphertext]],
    subtracted: Sequence[Sequence[HEACCiphertext]],
    window_start: int,
    window_end: int,
) -> List[HEACCiphertext]:
    """``Σ added − Σ subtracted`` of digest vectors whose signed intervals
    tile exactly ``[window_start, window_end)``.

    HEAC is additive mod 2^64, so a block's aggregate minus the pieces of it
    outside a range is the same ciphertext as the sum of the pieces inside.
    The cell intervals are not read: the caller guarantees the tiling (the
    index plans it and checks every node's stored interval against the
    plan), and the ``width`` result cells are tagged with the range.
    """
    rows = [[cell.value for cell in vector] for vector in added]
    out = [[cell.value for cell in vector] for vector in subtracted]
    return [
        HEACCiphertext(total & _MASK, window_start, window_end)
        for total in signed_sum_columns(rows, out)
    ]


def aggregate_componentwise(
    vectors: Iterable[Sequence[HEACCiphertext]],
) -> List[HEACCiphertext]:
    """Aggregate digest vectors component by component.

    Like :func:`aggregate`, the vectors may arrive in any order and must tile
    a contiguous window range.
    """
    materialised = [list(vector) for vector in vectors]
    if not materialised:
        raise ValueError("cannot aggregate an empty vector sequence")
    width = len(materialised[0])
    if any(len(vector) != width for vector in materialised):
        raise ValueError("all digest vectors must have the same number of components")
    if width == 0:
        return []
    materialised.sort(key=vector_interval)
    return fold_vectors(materialised)
