"""Capabilities: minting, validation, restriction, revocation, wire format."""

import random

import pytest

from repro.capability import (
    ALL_RIGHTS,
    Capability,
    CapabilityIssuer,
    RIGHT_COMMIT,
    RIGHT_READ,
    RIGHT_WRITE,
    new_port,
    new_secret,
)
from repro.errors import BadCapability, InsufficientRights


@pytest.fixture
def issuer():
    return CapabilityIssuer(new_port(random.Random(1)))


def test_mint_produces_distinct_objects(issuer):
    a = issuer.mint()
    b = issuer.mint()
    assert a.obj != b.obj


def test_validate_accepts_genuine_capability(issuer):
    cap = issuer.mint()
    assert issuer.validate(cap) == cap.obj


def test_validate_rejects_wrong_port(issuer):
    cap = issuer.mint()
    other = Capability(cap.port ^ 1, cap.obj, cap.rights, cap.check)
    with pytest.raises(BadCapability):
        issuer.validate(other)


def test_validate_rejects_forged_check(issuer):
    cap = issuer.mint()
    forged = Capability(cap.port, cap.obj, cap.rights, cap.check ^ 0xDEAD)
    with pytest.raises(BadCapability):
        issuer.validate(forged)


def test_validate_rejects_unknown_object(issuer):
    cap = issuer.mint()
    ghost = Capability(cap.port, cap.obj + 99, cap.rights, cap.check)
    with pytest.raises(BadCapability):
        issuer.validate(ghost)


def test_rights_escalation_is_a_forgery(issuer):
    """Changing the rights field without the secret breaks the check."""
    cap = issuer.restrict(issuer.mint(), RIGHT_READ)
    widened = Capability(cap.port, cap.obj, ALL_RIGHTS, cap.check)
    with pytest.raises(BadCapability):
        issuer.validate(widened)


def test_required_rights_enforced(issuer):
    cap = issuer.restrict(issuer.mint(), RIGHT_READ)
    issuer.validate(cap, RIGHT_READ)
    with pytest.raises(InsufficientRights):
        issuer.validate(cap, RIGHT_WRITE)


def test_restrict_produces_valid_subset(issuer):
    owner = issuer.mint()
    reader = issuer.restrict(owner, RIGHT_READ)
    assert issuer.validate(reader, RIGHT_READ) == owner.obj
    with pytest.raises(InsufficientRights):
        issuer.restrict(reader, RIGHT_READ | RIGHT_COMMIT)


def test_revocation_kills_all_capabilities(issuer):
    cap = issuer.mint()
    issuer.revoke(cap.obj)
    with pytest.raises(BadCapability):
        issuer.validate(cap)
    assert not issuer.knows(cap.obj)


def test_mint_for_rekeys_unknown_object(issuer):
    cap = issuer.mint_for(42)
    assert cap.obj == 42
    assert issuer.validate(cap) == 42


def test_mint_for_existing_object_preserves_secret(issuer):
    first = issuer.mint_for(7)
    second = issuer.mint_for(7, RIGHT_READ)
    # Both derive from the same secret: both validate.
    assert issuer.validate(first) == 7
    assert issuer.validate(second, RIGHT_READ) == 7


def test_install_secret_revives_capabilities(issuer):
    cap = issuer.mint()
    secret = issuer.secret_of(cap.obj)
    fresh = CapabilityIssuer(issuer.port)
    fresh.install_secret(cap.obj, secret)
    assert fresh.validate(cap) == cap.obj


def test_pack_unpack_roundtrip(issuer):
    cap = issuer.mint()
    assert Capability.unpack(cap.pack()) == cap


@pytest.mark.parametrize(
    "field, value",
    [("port", 1 << 48), ("obj", 1 << 64), ("rights", 1 << 16), ("check", 1 << 48), ("obj", -1)],
)
def test_pack_refuses_a_field_outside_its_width(field, value):
    fields = {"port": 1, "obj": 2, "rights": 3, "check": 4, field: value}
    with pytest.raises(OverflowError):
        Capability(**fields).pack()
    edge = {**fields, field: max(value - 1, 0)}
    assert Capability.unpack(Capability(**edge).pack()) == Capability(**edge)


def test_pack_nil_roundtrip():
    assert Capability.unpack(Capability.pack_nil()) is None


def test_unpack_rejects_wrong_length():
    with pytest.raises(ValueError):
        Capability.unpack(b"\x00" * 5)


def test_deterministic_ports_with_rng():
    assert new_port(random.Random(3)) == new_port(random.Random(3))
    assert new_secret(random.Random(3)) == new_secret(random.Random(3))


def test_restrict_via_capability_method_requires_issuer(issuer):
    cap = issuer.mint()
    with pytest.raises(NotImplementedError):
        cap.restrict(RIGHT_READ)
    with pytest.raises(InsufficientRights):
        issuer.restrict(cap, ALL_RIGHTS).restrict(ALL_RIGHTS << 1)
