"""Spans around the library's layer functions, recorded from outside the library.

`Tracer.install()` replaces each traced function in every `latchproof`
module that binds it (a `from .x import f` makes a second binding), so
calls between modules and recursive calls are both seen. `uninstall()`
puts the originals back. Spans are kept in memory; a layer's self time is
its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (defining module, function name)
LAYERS = {
    "parser": ("latchproof.parser", "parse_program"),
    "verifier": ("latchproof.verifier", "verify_program"),
    "oracle": ("latchproof.oracle", "explore"),
    "entail": ("latchproof.entail", "entail"),
    "lemmas.normalize": ("latchproof.lemmas", "normalize"),
    "lemmas.check_consistency": ("latchproof.lemmas", "check_consistency"),
    "lemmas.split_for": ("latchproof.lemmas", "split_for"),
    "waitgraph.is_cyclic": ("latchproof.waitgraph", "is_cyclic"),
    "pure.is_sat": ("latchproof.pure", "is_sat"),
    "pure.eliminate": ("latchproof.pure", "eliminate"),
}

# The `latchproof` package binds the *function* `entail` over the submodule of
# the same name, so modules are looked up by import path, never by attribute.
_pure = importlib.import_module("latchproof.pure")
_Status = _pure.Status


def _bindings(fn):
    """Every (module, attribute) in the library bound to `fn`."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "latchproof" or name.startswith("latchproof.")):
            continue
        for attr, val in vars(mod).items():
            if val is fn:
                out.append((mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, program, layer, start, end, self_s, extra)
        self.program = ""
        self._stack: list[list] = []   # [span id, child seconds] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for layer, (modname, fname) in LAYERS.items():
            fn = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(layer, fn)
            for mod, attr in _bindings(fn):
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, layer, fn):
        stack = self._stack
        spans = self.spans
        sat_cache = _pure._sat_cache

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            cache_before = len(sat_cache)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.program, layer, t0, t1, dur - frame[1],
                              _extra(layer, result, cache_before, len(sat_cache))))
        return traced

    # -- results --------------------------------------------------------------

    def take(self) -> list[tuple]:
        """Spans recorded since the last call, which are then forgotten."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _extra(layer, result, cache_before, cache_after):
    if layer == "pure.is_sat":
        status = result.status if result is not None else None
        return (cache_before == cache_after, status == _Status.UNKNOWN)
    if layer == "entail":
        return result is not None and result.success
    if layer == "oracle":
        return result.explored if result is not None else 0
    return None


def layer_metrics(spans: list[tuple], wall: float) -> dict[str, float]:
    """Per-layer totals of one traced pass whose programs took `wall` seconds."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for _, _, _, layer, _, _, st, _ in spans:
        self_s[layer] += st
        calls[layer] += 1
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        if layer != "oracle":          # one call per program; oracle.states counts its work
            m[f"{layer}.calls"] = calls[layer]

    entail_ok = [x for _, _, _, layer, _, _, _, x in spans if layer == "entail"]
    m["entail.fail_frac"] = (entail_ok.count(False) / len(entail_ok)) if entail_ok else 0.0

    sat = [(t1 - t0, x) for _, _, _, layer, t0, t1, _, x in spans if layer == "pure.is_sat"]
    durs = [d for d, _ in sat]
    m["pure.is_sat.p50_ms"] = statistics.median(durs) * 1e3 if durs else 0.0
    m["pure.is_sat.max_ms"] = max(durs) * 1e3 if durs else 0.0
    m["pure.unknown"] = sum(1 for _, (_, unknown) in sat if unknown)
    m["pure.cache_hit_frac"] = (sum(1 for _, (hit, _) in sat if hit) / len(sat)) if sat else 0.0

    states = sum(x for _, _, _, layer, _, _, _, x in spans if layer == "oracle")
    m["oracle.states"] = states
    m["oracle.us_per_state"] = self_s["oracle"] / states * 1e6 if states else 0.0
    m["trace.coverage"] = sum(self_s.values()) / wall
    return m


def write_spans(path: Path, spans: list[tuple]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for sid, parent, program, layer, t0, t1, st, extra in spans:
            out.write(json.dumps({"id": sid, "parent": parent, "program": program,
                                  "layer": layer, "start": t0, "end": t1, "self_s": st,
                                  "extra": extra}) + "\n")
