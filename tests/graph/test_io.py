"""Tests for edge-list I/O round-trips."""

import io
import random

import pytest

from repro.graph import (
    FollowerGraph,
    SocialGraph,
    barabasi_albert,
    read_follower_graph,
    read_friendship_graph,
    write_graph,
)


def test_friendship_roundtrip_via_file(tmp_path):
    g = barabasi_albert(40, 2, random.Random(0))
    path = tmp_path / "graph.txt"
    write_graph(g, path, header="synthetic test graph")
    loaded = read_friendship_graph(path)
    assert sorted(loaded.edges()) == sorted(g.edges())
    assert loaded.num_users == g.num_users


def test_friendship_roundtrip_keeps_isolated_users():
    g = SocialGraph()
    g.add_edge(1, 2)
    g.add_user(99)
    buf = io.StringIO()
    write_graph(g, buf)
    loaded = read_friendship_graph(io.StringIO(buf.getvalue()))
    assert 99 in loaded
    assert loaded.degree(99) == 0


def test_follower_roundtrip():
    g = FollowerGraph()
    g.add_follow(1, 2)
    g.add_follow(3, 2)
    g.add_user(50)
    buf = io.StringIO()
    write_graph(g, buf)
    loaded = read_follower_graph(io.StringIO(buf.getvalue()))
    assert loaded.followers(2) == frozenset({1, 3})
    assert 50 in loaded


def test_reader_skips_comments_blank_lines_and_extra_columns():
    text = "# comment\n\n1 2 1234567890\n2\t3\n"
    g = read_friendship_graph(io.StringIO(text))
    assert g.has_edge(1, 2)
    assert g.has_edge(2, 3)
    assert g.num_edges == 2


def test_reader_skips_self_loops():
    g = read_friendship_graph(io.StringIO("1 1\n1 2\n"))
    assert g.num_edges == 1


def test_reader_rejects_garbage():
    with pytest.raises(ValueError):
        read_friendship_graph(io.StringIO("not numbers\n"))
    with pytest.raises(ValueError):
        read_friendship_graph(io.StringIO("42\n"))


def test_written_header_is_commented(tmp_path):
    g = SocialGraph()
    g.add_edge(1, 2)
    path = tmp_path / "g.txt"
    write_graph(g, path, header="line one\nline two")
    text = path.read_text()
    assert "# line one" in text
    assert "# line two" in text
    assert "undirected" in text


def _built(cls, edges, isolated):
    graph = cls()
    add = graph.add_edge if cls is SocialGraph else graph.add_follow
    for user in isolated:
        graph.add_user(user)
    for u, v in edges:
        add(u, v)
    return graph


@pytest.mark.parametrize("cls", [SocialGraph, FollowerGraph])
def test_written_bytes_depend_only_on_the_edge_set(cls):
    # 1/9/17 share a slot in a small set, so insertion order alone
    # changes set iteration order; reversing also changes dict order.
    edges = [(1, 9), (1, 17), (9, 17), (40, 1), (33, 9), (5, 6), (6, 7)]
    isolated = [99, 50]
    forward = _built(cls, edges, isolated)
    backward = _built(cls, edges[::-1], isolated[::-1])
    assert sorted(forward.edges()) == sorted(backward.edges())
    assert list(forward.edges()) != list(backward.edges())
    texts = []
    for graph in (forward, backward):
        buf = io.StringIO()
        write_graph(graph, buf, header="h")
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
