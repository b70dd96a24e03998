"""Graph (de)serialisation in SNAP-style edge-list format.

The public SNAP social-graph snapshots — and the Viswanath et al. Facebook
links file the paper uses — are whitespace-separated edge lists with ``#``
comment lines.  These functions read and write that format for both graph
flavours, so the pipeline runs unchanged on the real data when available.
"""

from __future__ import annotations

import os
from typing import Iterable, TextIO, Union

from repro.graph.social_graph import FollowerGraph, SocialGraph

PathOrFile = Union[str, os.PathLike, TextIO]


def open_for_read(source: PathOrFile):
    """Return ``(handle, owned)``: open ``source`` if it is a path, pass it
    through if it is already a file object.  Shared by the trace loaders."""
    if hasattr(source, "read"):
        return source, False
    return open(source, "r", encoding="utf-8"), True


def _open_for_write(target: PathOrFile):
    if hasattr(target, "write"):
        return target, False
    return open(target, "w", encoding="utf-8"), True


def _parse_lines(handle: TextIO) -> Iterable[tuple[str, int, int]]:
    """Yield ``("edge", u, v)`` or ``("node", u, u)`` records."""
    for lineno, line in enumerate(handle, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                node = int(parts[1])
                yield ("node", node, node)
                continue
            if len(parts) < 2:
                raise ValueError
            yield ("edge", int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: expected 'u v' or 'v id', got {line!r}"
            ) from exc


def read_friendship_graph(source: PathOrFile) -> SocialGraph:
    """Load an undirected friendship graph from an edge list.

    Each non-comment line is ``u v`` (extra columns, e.g. the timestamp in
    ``facebook-links.txt``, are ignored).  Self-loops are skipped —
    real-world dumps occasionally contain them and they are meaningless as
    friendships.
    """
    handle, owned = open_for_read(source)
    try:
        graph = SocialGraph()
        for kind, u, v in _parse_lines(handle):
            if kind == "node":
                graph.add_user(u)
            elif u != v:
                graph.add_edge(u, v)
        return graph
    finally:
        if owned:
            handle.close()


def read_follower_graph(source: PathOrFile) -> FollowerGraph:
    """Load a directed follower graph; each line ``u v`` means *u follows v*."""
    handle, owned = open_for_read(source)
    try:
        graph = FollowerGraph()
        for kind, u, v in _parse_lines(handle):
            if kind == "node":
                graph.add_user(u)
            elif u != v:
                graph.add_follow(u, v)
        return graph
    finally:
        if owned:
            handle.close()


def write_graph(
    graph: Union[SocialGraph, FollowerGraph], target: PathOrFile, *, header: str = ""
) -> None:
    """Write a graph as an edge list (undirected edges appear once).

    Edges are written sorted, so equal graphs write equal files however
    they were built.
    """
    handle, owned = _open_for_write(target)
    try:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(
            f"# {'directed' if graph.directed else 'undirected'}; "
            f"{graph.num_users} users, {graph.num_edges} edges\n"
        )
        edges = sorted(graph.edges())
        for u, v in edges:
            handle.write(f"{u}\t{v}\n")
        # Isolated users still need to exist on reload; declare them with
        # 'v <id>' records (understood by the readers in this module).
        connected = set()
        for u, v in edges:
            connected.add(u)
            connected.add(v)
        for u in sorted(u for u in graph.users() if u not in connected):
            handle.write(f"v {u}\n")
    finally:
        if owned:
            handle.close()
