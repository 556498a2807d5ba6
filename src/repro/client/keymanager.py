"""Owner-side key management.

The data owner holds the root secret of each stream's key-derivation tree
and uses it for everything key-related:

* deriving the HEAC keystream and per-chunk payload keys for the write path,
* issuing grants (through :class:`~repro.access.grants.GrantManager`),
* creating resolution keystreams and their public key envelopes.

The owner's secrets never leave this object; everything handed to other
parties is derived, scoped key material.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.access.grants import GrantManager
from repro.access.keystore import TokenStore
from repro.access.principal import IdentityProvider
from repro.crypto.heac import HEACCipher
from repro.crypto.keytree import KeyDerivationTree
from repro.crypto.prf import resolve_prg
from repro.timeseries.stream import StreamConfig


@dataclass
class OwnerKeyManager:
    """All key material the owner of one stream holds."""

    stream_uuid: str
    config: StreamConfig
    master_seed: bytes = field(default_factory=lambda: os.urandom(16), repr=False)
    _key_tree: Optional[KeyDerivationTree] = field(default=None, init=False, repr=False)
    _grant_managers: Dict[int, GrantManager] = field(default_factory=dict, init=False, repr=False)

    @property
    def key_tree(self) -> KeyDerivationTree:
        """The stream's key-derivation tree (lazily constructed from the seed)."""
        if self._key_tree is None:
            self._key_tree = KeyDerivationTree(
                seed=self.master_seed,
                height=self.config.key_tree_height,
                prg=resolve_prg(self.config.prg),
            )
        return self._key_tree

    @property
    def prg_name(self) -> str:
        return self.key_tree.prg_name

    def heac_cipher(self) -> HEACCipher:
        """A HEAC cipher over the owner's full keystream."""
        return HEACCipher(self.key_tree)

    def grant_manager(
        self, identity_provider: IdentityProvider, token_store: TokenStore
    ) -> GrantManager:
        """The grant manager wired to a directory and a server token store.

        One manager is kept per token store so repeated calls share issued
        grant/revocation state; ``setdefault`` keeps it one under concurrent
        first calls.
        """
        key = id(token_store)
        return self._grant_managers.get(key) or self._grant_managers.setdefault(
            key,
            GrantManager(
                stream_uuid=self.stream_uuid,
                config=self.config,
                key_tree=self.key_tree,
                identity_provider=identity_provider,
                token_store=token_store,
            ),
        )
