"""Structural tree operations: insert, remove, holes, split, move."""

import pytest

from repro.errors import BadPathName, HoleReference
from repro.core.pathname import PagePath

ROOT = PagePath.ROOT


@pytest.fixture
def file_with_children(fs):
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    for i in range(4):
        fs.append_page(handle.version, ROOT, b"c%d" % i)
    fs.commit(handle.version)
    return cap


def test_insert_shifts_siblings(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    path = fs.insert_page(handle.version, ROOT, 1, b"inserted")
    assert path == PagePath.of(1)
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    assert fs.read_page(current, PagePath.of(1)) == b"inserted"
    assert fs.read_page(current, PagePath.of(2)) == b"c1"
    assert fs.read_page(current, PagePath.of(4)) == b"c3"


def test_insert_beyond_table_rejected(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        fs.insert_page(handle.version, ROOT, 9, b"x")
    fs.abort(handle.version)


def test_append_returns_next_index(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    path = fs.append_page(handle.version, ROOT, b"tail")
    assert path == PagePath.of(4)
    fs.abort(handle.version)


def test_remove_shifts_left(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    fs.remove_page(handle.version, PagePath.of(1))
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    assert fs.page_structure(current, ROOT) == [1, 1, 1]
    assert fs.read_page(current, PagePath.of(1)) == b"c2"


def test_remove_root_rejected(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        fs.remove_page(handle.version, ROOT)
    fs.abort(handle.version)


def test_make_hole_preserves_sibling_paths(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    fs.make_hole(handle.version, PagePath.of(1))
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    assert fs.page_structure(current, ROOT) == [1, 0, 1, 1]
    assert fs.read_page(current, PagePath.of(2)) == b"c2"  # unshifted
    with pytest.raises(HoleReference):
        fs.read_page(current, PagePath.of(1))


def test_fill_hole(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    fs.make_hole(handle.version, PagePath.of(1))
    fs.fill_hole(handle.version, PagePath.of(1), b"refilled")
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    assert fs.read_page(current, PagePath.of(1)) == b"refilled"


def test_fill_nonhole_rejected(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        fs.fill_hole(handle.version, PagePath.of(1), b"x")
    fs.abort(handle.version)


def test_remove_hole_shifts(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    fs.make_hole(handle.version, PagePath.of(1))
    fs.remove_hole(handle.version, PagePath.of(1))
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    assert fs.page_structure(current, ROOT) == [1, 1, 1]
    assert fs.read_page(current, PagePath.of(1)) == b"c2"


def test_remove_hole_on_page_rejected(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        fs.remove_hole(handle.version, PagePath.of(1))
    fs.abort(handle.version)


def test_split_page(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    sibling = fs.split_page(handle.version, PagePath.of(1), at=1)
    assert sibling == PagePath.of(2)
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    assert fs.read_page(current, PagePath.of(1)) == b"c"
    assert fs.read_page(current, PagePath.of(2)) == b"1"
    assert fs.read_page(current, PagePath.of(3)) == b"c2"


def test_split_offset_validated(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        fs.split_page(handle.version, PagePath.of(1), at=99)
    fs.abort(handle.version)


def test_move_subtree_between_parents(fs):
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    left = fs.append_page(handle.version, ROOT, b"left")
    right = fs.append_page(handle.version, ROOT, b"right")
    payload = fs.append_page(handle.version, left, b"cargo")
    deep = fs.append_page(handle.version, payload, b"nested")
    fs.commit(handle.version)
    handle = fs.create_version(cap)
    new_path = fs.move_subtree(handle.version, payload, right, 0)
    fs.commit(handle.version)
    current = fs.current_version(cap)
    assert new_path == PagePath.of(1, 0)
    assert fs.read_page(current, PagePath.of(1, 0)) == b"cargo"
    assert fs.read_page(current, PagePath.of(1, 0, 0)) == b"nested"
    assert fs.page_structure(current, left) == []


def test_move_within_same_parent(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    fs.move_subtree(handle.version, PagePath.of(3), ROOT, 0)
    fs.commit(handle.version)
    current = fs.current_version(file_with_children)
    values = [fs.read_page(current, PagePath.of(i)) for i in range(4)]
    assert values == [b"c3", b"c0", b"c1", b"c2"]


def test_move_into_own_subtree_rejected(fs):
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    a = fs.append_page(handle.version, ROOT, b"a")
    b = fs.append_page(handle.version, a, b"b")
    with pytest.raises(BadPathName):
        fs.move_subtree(handle.version, a, b, 0)
    fs.abort(handle.version)


def test_move_root_rejected(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        fs.move_subtree(handle.version, ROOT, PagePath.of(0), 0)
    fs.abort(handle.version)


def test_destination_index_shift_after_removal(fs):
    """Moving from an earlier sibling of the destination's ancestor: the
    destination path is adjusted for the table shift."""
    cap = fs.create_file(b"root")
    handle = fs.create_version(cap)
    fs.append_page(handle.version, ROOT, b"x0")  # 0 (source)
    dest = fs.append_page(handle.version, ROOT, b"x1")  # 1 -> becomes 0
    fs.commit(handle.version)
    handle = fs.create_version(cap)
    new_path = fs.move_subtree(handle.version, PagePath.of(0), dest, 0)
    fs.commit(handle.version)
    current = fs.current_version(cap)
    assert new_path == PagePath.of(0, 0)
    assert fs.read_page(current, PagePath.of(0)) == b"x1"
    assert fs.read_page(current, PagePath.of(0, 0)) == b"x0"


BAD_PATHS = [
    ("remove_page", (ROOT,)),
    ("remove_page", (PagePath.of(9),)),
    ("make_hole", (ROOT,)),
    ("make_hole", (PagePath.of(9),)),
    ("remove_hole", (ROOT,)),
    ("remove_hole", (PagePath.of(9),)),
    ("fill_hole", (ROOT,)),
    ("fill_hole", (PagePath.of(9),)),
    ("split_page", (ROOT, 0)),
    ("move_subtree", (PagePath.of(9), ROOT, 0)),
    ("move_subtree", (PagePath.of(0, 9), ROOT, 0)),
    ("move_subtree", (PagePath.of(0), PagePath.of(1), 5)),
]


@pytest.mark.parametrize(
    "op, args", BAD_PATHS, ids=[f"{op}{args}" for op, args in BAD_PATHS]
)
def test_bad_path_names_are_refused(fs, file_with_children, op, args):
    """The root where a child is meant, and an index past the table."""
    handle = fs.create_version(file_with_children)
    with pytest.raises(BadPathName):
        getattr(fs, op)(handle.version, *args)
    fs.abort(handle.version)


def test_making_a_hole_twice_changes_nothing(fs, file_with_children):
    handle = fs.create_version(file_with_children)
    fs.make_hole(handle.version, PagePath.of(2))
    fs.make_hole(handle.version, PagePath.of(2))
    assert fs.page_structure(handle.version, ROOT) == [1, 1, 0, 1]
    fs.abort(handle.version)
