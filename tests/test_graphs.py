"""Graph toolkit: the tie-break rules that certificates depend on."""

import pytest

from defocone.graphs import UnionFind, adjacency, bfs_parents, bfs_path, components, tree_path


def test_adjacency_sorts_neighbours_and_keeps_isolated_vertices():
    adj = adjacency(["c", "b", "a", "z"], [("b", "c"), ("a", "c"), ("a", "b")])
    assert adj == {"c": ("a", "b"), "b": ("a", "c"), "a": ("b", "c"), "z": ()}
    assert adjacency((), [("y", "x")]) == {"y": ("x",), "x": ("y",)}


def test_bfs_path_is_shortest_and_prefers_smaller_labels():
    # two shortest routes a-b-d and a-c-d, and a longer one a-e-f-d
    adj = {
        "a": {"e", "c", "b"},
        "b": {"d", "a"},
        "c": {"a", "d"},
        "d": {"f", "c", "b"},
        "e": {"a", "f"},
        "f": {"e", "d"},
    }
    assert bfs_path(adj, "a", "d") == ["a", "b", "d"]
    assert bfs_path(adj, "d", "a") == ["d", "b", "a"]
    assert bfs_path(adj, "e", "b") == ["e", "a", "b"]
    assert bfs_path(adj, "c", "c") == ["c"]
    adj["g"] = set()
    with pytest.raises(ValueError):
        bfs_path(adj, "a", "g")


def test_bfs_parents_takes_roots_in_the_given_order():
    adj = adjacency("abcxy", [("a", "b"), ("b", "c"), ("x", "y")])
    parent = bfs_parents(adj, ["y", "c", "a", "x"])
    assert parent == {"y": None, "x": "y", "c": None, "b": "c", "a": "b"}
    assert list(parent) == ["y", "x", "c", "b", "a"]  # visiting order


def test_tree_path_meets_at_the_lowest_common_ancestor():
    parent = {"r": None, "a": "r", "b": "r", "c": "a", "d": "a", "s": None}
    assert tree_path(parent, "c", "d") == ["c", "a", "d"]
    assert tree_path(parent, "c", "b") == ["c", "a", "r", "b"]
    assert tree_path(parent, "r", "d") == ["r", "a", "d"]
    with pytest.raises(ValueError):
        tree_path(parent, "c", "s")


def test_union_find_keeps_the_smallest_member_as_root():
    uf = UnionFind("edcba")
    assert uf.union("d", "e")
    assert uf.union("c", "e")
    assert uf.union("e", "b")
    assert not uf.union("b", "d")
    assert {x: uf.find(x) for x in "abcde"} == {"a": "a", "b": "b", "c": "b", "d": "b", "e": "b"}
    uf.add("z")
    assert "z" in uf and "y" not in uf
    assert uf.classes() == {"b": {"b", "c", "d", "e"}, "a": {"a"}, "z": {"z"}}


def test_components_cover_isolated_vertices():
    adj = adjacency("abcz", [("a", "b")])
    assert components(["c", "b", "z", "a"], adj) == [("c",), ("a", "b"), ("z",)]


def test_components_of_an_induced_subgraph():
    adj = adjacency("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert components(["a", "c", "d"], adj) == [("a",), ("c", "d")]
    assert len(components({"a", "b", "c"}, adj)) == 1
    assert len(components([], adj)) != 1  # the empty set is not connected
