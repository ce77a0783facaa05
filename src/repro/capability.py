"""Amoeba-style ports and capabilities.

The paper protects files and versions with Amoeba's ports and capabilities
[Mullender85b].  A capability names an object managed by a service and
carries a rights mask; it is unforgeable because its *check field* is
derived from a per-object secret with a one-way function.

This module reproduces the classic Amoeba scheme:

* A **port** is a 48-bit service address.  Servers listen on a port; clients
  address requests to a port (see :mod:`repro.sim.rpc`).
* A **capability** is ``(port, object_number, rights, check)``.
* The server creating an object draws a random secret and hands out an
  *owner capability* whose check field is ``F(secret, ALL_RIGHTS)``.
* Anybody holding a capability can *restrict* it to a subset of its rights;
  the server can validate a restricted capability without storing anything
  beyond the per-object secret, because ``check = F(secret, rights)``.

``F`` here is SHA-256 truncated to 48 bits — collision-resistance far beyond
the 1985 original, but the *semantics* (unforgeable without the secret,
restrictable by anyone, verifiable by the server alone) are identical.
"""

from __future__ import annotations

import hashlib
import secrets as _secrets
import threading
from dataclasses import dataclass

from repro.errors import BadCapability, InsufficientRights

# Rights bits.  The file service uses the first five; the block service uses
# READ/WRITE/DESTROY.  ALL_RIGHTS is the owner mask.
RIGHT_READ = 0x01
RIGHT_WRITE = 0x02
RIGHT_CREATE = 0x04  # create a version of a file
RIGHT_COMMIT = 0x08  # commit a version
RIGHT_DESTROY = 0x10  # delete the object
ALL_RIGHTS = 0x1F

_CHECK_BITS = 48
_CHECK_MASK = (1 << _CHECK_BITS) - 1
_PORT_BITS = 48
_OBJ_MASK = (1 << 64) - 1


def _one_way(secret: int, rights: int) -> int:
    """The one-way function F: derive a check field from a secret and rights."""
    material = secret.to_bytes(8, "big") + rights.to_bytes(2, "big")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:6], "big") & _CHECK_MASK


def new_port(rng=None) -> int:
    """Draw a fresh 48-bit port.

    ``rng`` may be a ``random.Random`` for deterministic tests; by default a
    cryptographically random port is drawn, as a real Amoeba server would.
    """
    if rng is not None:
        return rng.getrandbits(_PORT_BITS)
    return _secrets.randbits(_PORT_BITS)


def new_secret(rng=None) -> int:
    """Draw a fresh per-object secret for capability checking."""
    if rng is not None:
        return rng.getrandbits(64)
    return _secrets.randbits(64)


@dataclass(frozen=True, slots=True)
class Capability:
    """An unforgeable reference to an object managed by some service.

    Attributes:
        port: service address the capability is valid at.
        obj: object number within that service.
        rights: rights mask (bitwise OR of ``RIGHT_*`` constants).
        check: 48-bit check field tying ``(obj, rights)`` to the object's
            secret.
    """

    port: int
    obj: int
    rights: int
    check: int

    def restrict(self, rights: int) -> "Capability":
        """Return a new capability carrying only ``rights``.

        Anyone holding a capability may restrict it; the server will accept
        the result iff ``rights`` is a subset of this capability's rights
        (enforced at validation time, since the check field is recomputed
        by the server from the object's secret).

        Note: in real Amoeba restriction requires a server round-trip for
        non-owner capabilities; we model the equivalent result directly, and
        :meth:`validate` rejects any rights escalation.
        """
        if rights & ~self.rights:
            raise InsufficientRights(
                f"cannot widen rights {self.rights:#x} to {rights:#x}"
            )
        # The holder cannot compute the new check itself without the secret;
        # the issuing server does it on its behalf.  ``CapabilityIssuer``
        # (below) performs the derivation; holders go through it.
        raise NotImplementedError(
            "restriction requires the issuing service; use CapabilityIssuer.restrict"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"cap({self.port:012x}:{self.obj}:{self.rights:#04x})"

    # -- wire format ------------------------------------------------------

    PACKED_SIZE = 22  # 6 port + 8 obj + 2 rights + 6 check

    def pack(self) -> bytes:
        """Serialize to the fixed 22-byte wire format used in page headers."""
        if self.port >> 48 or self.obj >> 64 or self.rights >> 16 or self.check >> 48:
            raise OverflowError(f"{self!r} does not fit the 22-byte format")
        return (
            (((self.port << 64 | self.obj) << 16 | self.rights) << 48) | self.check
        ).to_bytes(22, "big")

    @staticmethod
    def unpack(data: bytes) -> "Capability | None":
        """Deserialize 22 bytes; all-zero bytes decode to None (nil cap)."""
        if len(data) != Capability.PACKED_SIZE:
            raise ValueError(f"capability must be {Capability.PACKED_SIZE} bytes")
        n = int.from_bytes(data, "big")
        if not n:
            return None
        return Capability(
            n >> 128, n >> 64 & _OBJ_MASK, n >> 48 & 0xFFFF, n & _CHECK_MASK
        )

    @staticmethod
    def pack_nil() -> bytes:
        """The wire form of 'no capability'."""
        return b"\x00" * Capability.PACKED_SIZE


class CapabilityIssuer:
    """Server-side capability mint and validator.

    Each service that manages objects owns one issuer.  The issuer keeps the
    per-object secrets; everything a client holds is derivable from them and
    nothing a client holds reveals them.
    """

    def __init__(self, port: int):
        self.port = port
        self._secrets: dict[int, int] = {}
        self._next_obj = 1
        # Minting is not confined to the dispatch lock: the TCP daemon's
        # lock-free read commands can lazily re-mint a version capability
        # while a commit mints new ones.
        self._mint_lock = threading.Lock()

    # -- minting ----------------------------------------------------------

    def mint(self, rights: int = ALL_RIGHTS, rng=None) -> Capability:
        """Create a new object number and return its owner capability."""
        with self._mint_lock:
            obj = self._next_obj
            self._next_obj += 1
            secret = new_secret(rng)
            self._secrets[obj] = secret
        return Capability(self.port, obj, rights, _one_way(secret, rights))

    def mint_for(self, obj: int, rights: int = ALL_RIGHTS, rng=None) -> Capability:
        """Create (or re-key) the capability for a caller-chosen object number."""
        with self._mint_lock:
            secret = self._secrets.get(obj)
            if secret is None:
                secret = new_secret(rng)
                self._secrets[obj] = secret
            self._next_obj = max(self._next_obj, obj + 1)
        return Capability(self.port, obj, rights, _one_way(secret, rights))

    def install_secret(self, obj: int, secret: int) -> None:
        """Adopt a known (obj, secret) pair — used when a server rebuilds
        its state from a persisted file table, so capabilities minted
        before the crash stay valid after it."""
        with self._mint_lock:
            self._secrets[obj] = secret
            self._next_obj = max(self._next_obj, obj + 1)

    def secret_of(self, obj: int) -> int:
        """The secret backing an object (persisted in the file table)."""
        return self._secrets[obj]

    # -- validation -------------------------------------------------------

    def validate(self, cap: Capability, required_rights: int = 0) -> int:
        """Validate ``cap`` and return its object number.

        Raises:
            BadCapability: wrong port, unknown object, or forged check field.
            InsufficientRights: genuine capability lacking ``required_rights``.
        """
        if cap.port != self.port:
            raise BadCapability(
                f"capability for port {cap.port:#x} presented at {self.port:#x}"
            )
        secret = self._secrets.get(cap.obj)
        if secret is None:
            raise BadCapability(f"unknown object {cap.obj}")
        if _one_way(secret, cap.rights) != cap.check:
            raise BadCapability(f"check field mismatch for object {cap.obj}")
        if required_rights & ~cap.rights:
            raise InsufficientRights(
                f"need rights {required_rights:#x}, capability has {cap.rights:#x}"
            )
        return cap.obj

    # -- restriction ------------------------------------------------------

    def restrict(self, cap: Capability, rights: int) -> Capability:
        """Derive a capability with a subset of ``cap``'s rights.

        The request itself must be genuine, and the new rights must not
        exceed the old ones.
        """
        self.validate(cap)
        if rights & ~cap.rights:
            raise InsufficientRights(
                f"cannot widen rights {cap.rights:#x} to {rights:#x}"
            )
        secret = self._secrets[cap.obj]
        return Capability(self.port, cap.obj, rights, _one_way(secret, rights))

    # -- revocation -------------------------------------------------------

    def revoke(self, obj: int) -> None:
        """Forget an object's secret: all outstanding capabilities die."""
        self._secrets.pop(obj, None)

    def knows(self, obj: int) -> bool:
        """Whether the issuer still holds a secret for ``obj``."""
        return obj in self._secrets
