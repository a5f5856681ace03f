"""Fresh-name generation.

Names carry a '#' which the surface syntax never produces for user
identifiers, so generated names cannot collide with parsed programs.
Counters are monotone per prefix, giving deterministic traces.
"""

from __future__ import annotations


class FreshGen:
    def __init__(self):
        self._counters: dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0) + 1
        self._counters[prefix] = n
        return f"{prefix}#{n}"

    def reset(self):
        self._counters.clear()


_default = FreshGen()


def fresh(prefix: str) -> str:
    return _default.fresh(prefix)


def reset_fresh():
    _default.reset()


def default_gen() -> FreshGen:
    return _default
