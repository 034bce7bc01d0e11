"""Independent output checks.

Set-based propagation and connectivity written from the definitions, with
no code shared with ``powerdom``: adjacency is a dict of label sets read
from the edge-list text, and forcing runs from a worklist of vertices
whose uncoloured-neighbour count dropped, so a check is linear in n + m.
"""

from __future__ import annotations

import re
from collections import deque


def adjacency(text: str) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        u, v = line.split()
        adj.setdefault(u, set())
        adj.setdefault(v, set())
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def edge_count(adj: dict[str, set[str]]) -> int:
    return sum(len(nbrs) for nbrs in adj.values()) // 2


def power_dominates(adj: dict[str, set[str]], chosen: list[str]) -> bool:
    """Closed neighbourhood of ``chosen``, then forcing to exhaustion.

    The final coloured set of forcing does not depend on the order forces
    fire in, so a worklist gives the same answer as synchronized rounds.
    """
    if any(v not in adj for v in chosen):
        return False
    colored: set[str] = set()
    for v in chosen:
        colored.add(v)
        colored.update(adj[v])
    missing = {v: sum(1 for w in adj[v] if w not in colored) for v in adj}
    work = deque(v for v in colored if missing[v] == 1)
    while work:
        v = work.popleft()
        if missing[v] != 1:
            continue
        target = next(w for w in adj[v] if w not in colored)
        colored.add(target)
        for w in adj[target]:
            missing[w] -= 1
            if w in colored and missing[w] == 1:
                work.append(w)
        if missing[target] == 1:
            work.append(target)
    return len(colored) == len(adj)


def induces_connected(adj: dict[str, set[str]], chosen: list[str]) -> bool:
    inside = set(chosen)
    if not inside or not inside <= adj.keys():
        return False
    start = next(iter(inside))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == inside


def witness_problems(adj: dict[str, set[str]], chosen: list[str], optimum: int,
                     connected: bool) -> list[str]:
    problems = []
    if len(set(chosen)) != optimum:
        problems.append(f"witness has {len(set(chosen))} vertices, optimum says {optimum}")
    if not power_dominates(adj, chosen):
        problems.append("witness does not power dominate")
    if connected and not induces_connected(adj, chosen):
        problems.append("witness is not connected")
    return problems


_TRACE = re.compile(r"t=(\d+) (\S+) -> (\S+) \[(dominate|force)\]$")


def trace_problems(adj: dict[str, set[str]], chosen: list[str], lines: list[str]) -> list[str]:
    """Replay a printed force trace under synchronized rounds.

    Round 1 holds the domination entries, each from a chosen vertex to a
    neighbour. A force at round t needs a source coloured before round t
    whose only uncoloured neighbour, at the start of round t, is the
    target. Every vertex must end up coloured exactly once. Targets join
    the coloured set only after their whole round is checked.
    """
    if not set(chosen) <= adj.keys():
        return ["witness names an unknown vertex"]
    initial = set(chosen)
    colored = set(chosen)
    steps: list[tuple[int, str, str, str]] = []
    for line in lines:
        match = _TRACE.match(line.strip())
        if not match:
            return [f"unreadable trace line {line!r}"]
        t, src, tgt, kind = match.groups()
        steps.append((int(t), src, tgt, kind))
    if [s[0] for s in steps] != sorted(s[0] for s in steps):
        return ["trace rounds out of order"]
    missing = {v: sum(1 for w in adj[v] if w not in colored) for v in adj}
    i = 0
    while i < len(steps):
        t = steps[i][0]
        batch = []
        while i < len(steps) and steps[i][0] == t:
            batch.append(steps[i])
            i += 1
        targets: set[str] = set()
        for _, src, tgt, kind in batch:
            if src not in adj or tgt not in adj[src]:
                return [f"t={t} {src} -> {tgt} is not an edge"]
            if tgt in colored or tgt in targets:
                return [f"t={t} {tgt} coloured twice"]
            targets.add(tgt)
            if kind == "dominate":
                if t != 1 or src not in initial:
                    return [f"t={t} domination from {src} outside round 1"]
            elif src not in colored or missing[src] != 1:
                return [f"t={t} {src} cannot force {tgt}"]
        for _, _, tgt, _ in batch:
            colored.add(tgt)
        for _, _, tgt, _ in batch:
            for w in adj[tgt]:
                missing[w] -= 1
    if len(colored) != len(adj):
        return [f"trace colours {len(colored)} of {len(adj)} vertices"]
    return []
