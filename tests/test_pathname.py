"""Page path names (§5, §5.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import BadPathName
from repro.core.pathname import PagePath

indices = st.lists(st.integers(min_value=0, max_value=300), max_size=8)


def test_root_is_empty():
    assert PagePath.ROOT.is_root
    assert str(PagePath.ROOT) == ""
    assert len(PagePath.ROOT) == 0


def test_parse_and_str():
    path = PagePath.parse("3/0/5")
    assert path.indices == (3, 0, 5)
    assert str(path) == "3/0/5"
    assert repr(path) == "PagePath((3, 0, 5))"


def test_parse_empty_is_root():
    assert PagePath.parse("") == PagePath.ROOT


def test_parse_rejects_garbage():
    with pytest.raises(BadPathName):
        PagePath.parse("a/b")
    with pytest.raises(BadPathName):
        PagePath.parse("1//2")


def test_negative_index_rejected():
    with pytest.raises(BadPathName):
        PagePath((1, -2))
    with pytest.raises(BadPathName):
        PagePath.ROOT.child(-1)


def test_child_and_parent():
    path = PagePath.of(1, 2)
    assert path.child(3) == PagePath.of(1, 2, 3)
    assert path.parent() == PagePath.of(1)
    assert path.last == 2


def test_root_has_no_parent_or_last():
    with pytest.raises(BadPathName):
        PagePath.ROOT.parent()
    with pytest.raises(BadPathName):
        _ = PagePath.ROOT.last


def test_ancestry():
    a = PagePath.of(1)
    b = PagePath.of(1, 2, 3)
    assert a.is_ancestor_of(b)
    assert a.is_ancestor_of(a)
    assert not b.is_ancestor_of(a)
    assert PagePath.ROOT.is_ancestor_of(b)


def test_relative_to_and_joined():
    base = PagePath.of(1, 2)
    full = PagePath.of(1, 2, 3, 4)
    rel = full.relative_to(base)
    assert rel == PagePath.of(3, 4)
    assert base.joined(rel) == full


def test_relative_to_non_ancestor_raises():
    with pytest.raises(BadPathName):
        PagePath.of(5).relative_to(PagePath.of(1))


def test_ordering_and_hashing():
    paths = {PagePath.of(1), PagePath.of(1), PagePath.of(2)}
    assert len(paths) == 2
    assert PagePath.of(1) < PagePath.of(1, 0) < PagePath.of(2)


def test_iteration_and_indexing():
    path = PagePath.of(4, 5, 6)
    assert list(path) == [4, 5, 6]
    assert path[1] == 5
    assert path.depth == 3


@given(indices)
def test_parse_str_roundtrip(idx):
    path = PagePath(tuple(idx))
    assert PagePath.parse(str(path)) == path


@given(indices, st.integers(min_value=0, max_value=99))
def test_child_parent_inverse(idx, extra):
    path = PagePath(tuple(idx))
    assert path.child(extra).parent() == path


@given(indices, indices)
def test_joined_ancestry(a, b):
    pa, pb = PagePath(tuple(a)), PagePath(tuple(b))
    joined = pa.joined(pb)
    assert pa.is_ancestor_of(joined)
    assert joined.relative_to(pa) == pb
