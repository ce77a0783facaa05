"""Protection end-to-end: forgery, replay, restriction, cross-service.

The capability model's promises, checked through the full stack rather
than against the issuer alone.
"""

import pytest

from repro.capability import (
    ALL_RIGHTS,
    Capability,
    CapabilityIssuer,
    RIGHT_COMMIT,
    RIGHT_READ,
    RIGHT_WRITE,
    new_port,
)
from repro.errors import (
    BadCapability,
    InsufficientRights,
    NotBlockOwner,
)
from repro.core.pathname import PagePath
from repro.core.registry import FileRegistry
from repro.core.service import FileService
from repro.client.api import FileClient

ROOT = PagePath.ROOT


def test_guessing_object_numbers_gains_nothing(fs):
    """Knowing that file 1 exists does not let you build its capability."""
    cap = fs.create_file(b"secret")
    for guess in range(0, 2**16, 4099):
        forged = Capability(cap.port, cap.obj, ALL_RIGHTS, guess)
        with pytest.raises(BadCapability):
            fs.current_version(forged)


def test_version_capability_cannot_open_other_versions(fs):
    """A version capability is for that version only."""
    cap = fs.create_file(b"v0")
    h1 = fs.create_version(cap)
    fs.write_page(h1.version, ROOT, b"v1")
    fs.commit(h1.version)
    h2 = fs.create_version(cap)
    # Splicing h1's check onto h2's object is a forgery.
    spliced = Capability(h2.version.port, h2.version.obj, h1.version.rights, h1.version.check)
    with pytest.raises(BadCapability):
        fs.read_page(spliced, ROOT)
    fs.abort(h2.version)


def test_capability_replay_at_wrong_service(cluster):
    """A capability from one file service is rejected by another (different
    port, different secrets)."""
    other = FileService(
        "other",
        cluster.network,
        FileRegistry(),
        CapabilityIssuer(new_port(cluster.rng)),
        cluster.block_port,
        account=2,
    )
    cap = cluster.fs().create_file(b"mine")
    with pytest.raises(BadCapability):
        other.current_version(cap)


def test_restricted_chain_monotone(cluster, fs):
    """Restriction can only shrink rights, even through several hops."""
    cap = fs.create_file(b"x")
    rw = cluster.issuer.restrict(cap, RIGHT_READ | RIGHT_WRITE)
    r = cluster.issuer.restrict(rw, RIGHT_READ)
    with pytest.raises(InsufficientRights):
        cluster.issuer.restrict(r, RIGHT_READ | RIGHT_COMMIT)
    # And the widened-by-hand version is a forgery.
    widened = Capability(r.port, r.obj, ALL_RIGHTS, r.check)
    with pytest.raises(BadCapability):
        fs.create_version(widened)


def test_write_rights_checked_on_every_page_command(cluster, fs):
    cap = fs.create_file(b"x")
    handle = fs.create_version(cap)
    read_only_version = cluster.issuer.restrict(handle.version, RIGHT_READ)
    assert fs.read_page(read_only_version, ROOT) == b"x"
    for forbidden in (
        lambda: fs.write_page(read_only_version, ROOT, b"y"),
        lambda: fs.append_page(read_only_version, ROOT, b"y"),
        lambda: fs.make_hole(read_only_version, PagePath.of(0)),
    ):
        with pytest.raises(InsufficientRights):
            forbidden()
    fs.abort(handle.version)


def test_block_layer_protection_under_the_service(cluster):
    """Even a party who learns raw block numbers cannot read them without
    the service's account."""
    from repro.block.sharding import ShardedBlockClient

    cap = cluster.fs().create_file(b"protected")
    block = cluster.registry.file(cap.obj).entry_block
    intruder = ShardedBlockClient(
        cluster.network, "intruder", [cluster.block_port], account=666
    )
    with pytest.raises(NotBlockOwner):
        intruder.read(block)
    with pytest.raises(NotBlockOwner):
        intruder.write(block, b"vandalism")
    with pytest.raises(NotBlockOwner):
        intruder.free(block)


def test_revoked_file_rejects_old_capabilities(cluster, fs):
    cap = fs.create_file(b"x")
    fs.delete_file(cap)
    with pytest.raises(BadCapability):
        fs.current_version(cap)
    with pytest.raises(BadCapability):
        fs.create_version(cap)


def test_capabilities_survive_transit_as_bytes(fs):
    """Pack/unpack (how capabilities live inside pages and directories)
    preserves validity; flipping any byte breaks it."""
    cap = fs.create_file(b"x")
    packed = cap.pack()
    restored = Capability.unpack(packed)
    assert fs.current_version(restored) is not None
    for position in range(len(packed)):
        tampered_bytes = bytearray(packed)
        tampered_bytes[position] ^= 0x01
        tampered = Capability.unpack(bytes(tampered_bytes))
        if tampered is None:
            continue
        with pytest.raises(BadCapability):
            fs.current_version(tampered)
