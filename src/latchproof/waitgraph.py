"""Wait-for acyclicity."""

from __future__ import annotations


def is_cyclic(arcs: frozenset[tuple[str, str]]) -> bool:
    succ: dict[str, list[str]] = {}
    for a, b in arcs:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in succ}
    for start in succ:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False
