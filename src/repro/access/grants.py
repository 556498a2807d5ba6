"""Grant management: turning policies into key material (Table 1, §4.3-§4.4).

The :class:`GrantManager` is owner-side logic.  Given an access policy it

1. maps the policy's time range onto chunk-window indices,
2. derives the minimal key material enforcing the policy
   (tree tokens for full resolution, a dual-key-regression share plus key
   envelopes for restricted resolution),
3. seals the resulting :class:`~repro.access.tokens.AccessToken` for the
   recipient via the identity provider, and
4. parks the sealed token (and any envelopes) in the server's token store.

Revocation (forward secrecy only, per §3.3) is implemented by replacing the
stored grant with one whose end is clipped: the principal keeps key material
for data it already had access to, but new grants never extend past the
revocation point, and open-ended subscriptions stop being refreshed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.access.keystore import TokenStore
from repro.access.policy import AccessPolicy, OPEN_END, Resolution
from repro.access.principal import IdentityProvider
from repro.access.resolution import ResolutionKeystream
from repro.access.tokens import AccessToken
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import AccessDeniedError, ConfigurationError
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange


@dataclass
class AccessGrant:
    """Owner-side record of one issued grant."""

    policy: AccessPolicy
    grant_id: int
    revoked_at: Optional[int] = None

    @property
    def is_revoked(self) -> bool:
        return self.revoked_at is not None


@dataclass
class GrantManager:
    """Owner-side issuance and revocation of grants for one stream."""

    stream_uuid: str
    config: StreamConfig
    key_tree: KeyDerivationTree
    identity_provider: IdentityProvider
    token_store: TokenStore
    _grants: Dict[Tuple[str, int], AccessGrant] = field(default_factory=dict, init=False)
    _resolutions: Dict[int, ResolutionKeystream] = field(default_factory=dict, init=False)
    #: resolution chunks -> windows whose envelopes this token store holds.
    _published: Dict[int, FrozenSet[int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self._published_lock = threading.Lock()

    # -- window mapping ---------------------------------------------------------

    def _windows_for(self, time_range: TimeRange) -> Tuple[int, int]:
        """Chunk-window interval [start, end) covered by a policy time range."""
        if time_range.start < self.config.start_time:
            raise ConfigurationError("grant starts before the stream epoch")
        window_start = self.config.window_of(time_range.start)
        if time_range.end >= OPEN_END:
            window_end = self.config.max_chunks
        else:
            window_end = self.config.window_of(max(time_range.end - 1, time_range.start)) + 1
        return window_start, min(window_end, self.config.max_chunks)

    # -- issuance ----------------------------------------------------------------

    def grant(self, policy: AccessPolicy) -> AccessGrant:
        """Issue key material for ``policy`` and park it at the server."""
        return self.grant_many([policy])[0]

    def grant_many(self, policies: List[AccessPolicy]) -> List[AccessGrant]:
        """Issue a burst of grants (e.g. onboarding a cohort of principals).

        All tokens are derived and sealed first; then the envelopes no
        earlier grant published land in one ``put_envelopes`` per resolution
        and every sealed token in one ``put_grants`` call — over a remote
        token store that is one wire round trip for the whole cohort instead
        of one per grant, and none for envelopes a repeated grant reuses.
        """
        if not policies:
            return []
        window_bounds: List[Tuple[int, int]] = []
        for policy in policies:
            if policy.stream_uuid != self.stream_uuid:
                raise ConfigurationError("policy addresses a different stream")
            window_start, window_end = self._windows_for(policy.time_range)
            if window_end <= window_start:
                raise ConfigurationError("the granted time range covers no chunk window")
            window_bounds.append((window_start, window_end))
        # One shared subtree-cover traversal for every full-resolution policy
        # in the cohort: overlapping ranges (the common burst shape — many
        # principals granted the same recent window) derive shared cover
        # nodes once instead of once per grant.
        full_slots = [slot for slot, policy in enumerate(policies) if policy.resolution.is_full]
        cohort_tokens = dict(
            zip(
                full_slots,
                self.key_tree.tokens_for_ranges(
                    [
                        (
                            window_bounds[slot][0],
                            min(window_bounds[slot][1] + 1, self.key_tree.num_keys),
                        )
                        for slot in full_slots
                    ]
                ),
            )
        )
        sealed_batch: List[Tuple[str, str, bytes]] = []
        needed_windows: Dict[int, Set[int]] = {}
        for slot, policy in enumerate(policies):
            window_start, window_end = window_bounds[slot]
            if policy.resolution.is_full:
                token = self._full_resolution_token(
                    policy, window_start, window_end, tree_tokens=cohort_tokens[slot]
                )
            else:
                token = self._restricted_resolution_token(policy, window_start, window_end)
                chunks = policy.resolution.chunks
                needed_windows.setdefault(chunks, set()).update(
                    range(-(-window_start // chunks) * chunks, window_end + 1, chunks)
                )
            sealed = self.identity_provider.encrypt_for(
                policy.principal_id, token.to_bytes(), context=self.stream_uuid.encode("utf-8")
            )
            sealed_batch.append((self.stream_uuid, policy.principal_id, sealed))
        # Envelopes before grants: a consumer that sees its sealed token must
        # also find the envelopes its keystream needs.
        for resolution_chunks, windows in sorted(needed_windows.items()):
            self._publish_missing(resolution_chunks, windows)
        grant_ids = self.token_store.put_grants(sealed_batch)
        grants: List[AccessGrant] = []
        for policy, grant_id in zip(policies, grant_ids):
            grant = AccessGrant(policy=policy, grant_id=grant_id)
            self._grants[(policy.principal_id, grant_id)] = grant
            grants.append(grant)
        return grants

    def _full_resolution_token(
        self,
        policy: AccessPolicy,
        window_start: int,
        window_end: int,
        tree_tokens: Optional[List] = None,
    ) -> AccessToken:
        # HEAC decryption of window w needs keys k_w and k_{w+1}, so the shared
        # keystream segment extends one position past the last granted window.
        # A cohort burst passes tokens pre-derived by the shared traversal in
        # tokens_for_ranges; the scalar path derives its own.
        if tree_tokens is None:
            tree_tokens = self.key_tree.tokens_for_range(
                window_start, min(window_end + 1, self.key_tree.num_keys)
            )
        return AccessToken(
            stream_uuid=self.stream_uuid,
            principal_id=policy.principal_id,
            time_range=policy.time_range,
            window_start=window_start,
            window_end=window_end,
            resolution_chunks=1,
            prg=self.key_tree.prg_name,
            tree_tokens=tree_tokens,
        )

    def _restricted_resolution_token(
        self, policy: AccessPolicy, window_start: int, window_end: int
    ) -> AccessToken:
        """The share to seal; the caller publishes the envelopes it needs
        (batched across a grant burst, skipping those already published)."""
        resolution = policy.resolution
        share = self.resolution_keystream(resolution).share(window_start, window_end)
        return AccessToken(
            stream_uuid=self.stream_uuid,
            principal_id=policy.principal_id,
            time_range=policy.time_range,
            window_start=window_start,
            window_end=window_end,
            resolution_chunks=resolution.chunks,
            prg=self.key_tree.prg_name,
            tree_tokens=[],
            regression_token=share.token,
        )

    def resolution_keystream(self, resolution: Resolution) -> ResolutionKeystream:
        """The (lazily created) resolution keystream for a granularity.

        ``setdefault``: concurrent first grants must share one random chain, or
        the later one's envelopes lock the earlier one's principal out.
        """
        chunks = resolution.chunks
        return self._resolutions.get(chunks) or self._resolutions.setdefault(
            chunks, ResolutionKeystream(self.stream_uuid, chunks, self.key_tree)
        )

    def publish_envelopes(self, resolution: Resolution, window_start: int, window_end: int) -> int:
        """Publish (or refresh) envelopes for a window interval; returns the count.

        Republishes every envelope of the interval, recorded or not: the way
        to restore envelopes a server lost.
        """
        keystream = self.resolution_keystream(resolution)
        envelopes = keystream.make_envelopes(window_start, window_end)
        self.token_store.put_envelopes(self.stream_uuid, resolution.chunks, envelopes)
        self._mark_published(resolution.chunks, envelopes)
        return len(envelopes)

    def _publish_missing(self, resolution_chunks: int, windows: Iterable[int]) -> None:
        """Wrap and publish the envelopes of ``windows`` not yet recorded as published.

        Missing windows are wrapped in runs of consecutive boundaries (one
        ``make_envelopes`` each) and land in one ``put_envelopes``; they are
        recorded only once it returns, so a failed publication is retried
        by the next grant that needs them.
        """
        published = self._published.get(resolution_chunks, frozenset())
        runs: List[List[int]] = []
        for window in sorted(set(windows) - published):
            if runs and window == runs[-1][1] + resolution_chunks:
                runs[-1][1] = window
            else:
                runs.append([window, window])
        if not runs:
            return
        keystream = self._resolutions[resolution_chunks]
        envelopes: Dict[int, bytes] = {}
        for first, last in runs:
            envelopes.update(keystream.make_envelopes(first, last))
        self.token_store.put_envelopes(self.stream_uuid, resolution_chunks, envelopes)
        self._mark_published(resolution_chunks, envelopes)

    def _mark_published(self, resolution_chunks: int, windows: Iterable[int]) -> None:
        # Two owner threads may grant at once: swap the record under a lock
        # so neither drops the other's windows.
        with self._published_lock:
            self._published[resolution_chunks] = self._published.get(
                resolution_chunks, frozenset()
            ).union(windows)

    # -- revocation --------------------------------------------------------------------

    def revoke(self, principal_id: str, end_time: int) -> List[AccessGrant]:
        """Revoke a principal's access from ``end_time`` onward (forward secrecy).

        Every live grant whose range extends past ``end_time`` is replaced by
        a clipped grant; already-expired grants are left untouched.  Returns
        the grants that were modified.
        """
        modified: List[AccessGrant] = []
        for (grantee, _grant_id), grant in sorted(self._grants.items()):
            if grantee != principal_id or grant.is_revoked:
                continue
            if grant.policy.time_range.end <= end_time:
                continue
            grant.revoked_at = end_time
            clipped = grant.policy.restrict_end(end_time)
            modified.append(grant)
            if clipped.time_range.duration > 0:
                # Re-issue the clipped grant so future token pickups stop at the
                # revocation point.
                self.grant(clipped)
        if not modified and not any(g for (p, _), g in self._grants.items() if p == principal_id):
            raise AccessDeniedError(f"principal '{principal_id}' holds no grant to revoke")
        return modified

    def grants_for(self, principal_id: str) -> List[AccessGrant]:
        return [grant for (grantee, _), grant in sorted(self._grants.items()) if grantee == principal_id]

    def active_policy(self, principal_id: str) -> Optional[AccessPolicy]:
        """The most recently issued, non-revoked policy for a principal."""
        grants = [g for g in self.grants_for(principal_id) if not g.is_revoked]
        return grants[-1].policy if grants else None
