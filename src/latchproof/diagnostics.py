"""Source spans and diagnostic records shared by all passes, and `record`,
which builds every record and node class of the package."""

from __future__ import annotations


# ---------------------------------------------------------------------------
# Records
#
# A record's fields are its annotations, in order, with their defaults. It is
# slotted, and its __init__, __eq__, __hash__ and __repr__ are written from
# the fields as source text (as `dataclasses` writes them) and compiled at
# their first call, as syntax.py's walkers are. Two rules, and no options: a
# field annotated `Span` takes no part in equality or hashing, and a default
# `fresh(make)` is made anew by `make()` for each instance. Not `dataclasses`:
# processing the package's 66 classes took 44 of the 55 ms of an
# `import latchproof` with a warm bytecode cache (on a 2-vCPU x86 VM, with
# `dataclasses` itself already loaded), and loading it loads `inspect`,
# `ast` and `dis` as well.

RECORDS: list[type] = []    # every class `record` has built, in order


class fresh:
    """A field default made anew for each instance by `make()`: `fresh(list)`."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def at_first_call(write, install):
    """A stand-in for a function that is written at its first call: `write()`
    gives its source text, which defines `f`, the globals `f` runs in and the
    values its free names take. The stand-in compiles `f`, passes it to
    `install` to take its own place and calls it, so that a function no one
    calls is never compiled."""
    def first_call(*args, **kwargs):
        text, scope, free = write()
        namespace: dict = {}
        exec(f"def make({', '.join(free)}):\n"
             + "".join(f" {line}\n" for line in text.splitlines()) + " return f\n",
             scope, namespace)
        f = namespace["make"](**free)
        install(f)
        return f(*args, **kwargs)
    return first_call


def record(cls):
    """`cls` rebuilt as a slotted record whose fields are its annotations."""
    ns = dict(cls.__dict__)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {n: ns.pop(n) for n in fields if n in ns}
    ns["__slots__"] = fields
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    compared = [n for n in fields if cls.__annotations__[n] != "Span"]
    writers = {"__init__": lambda: _init(fields, defaults),
               "__eq__": lambda: (_eq(compared), {}, {}),
               "__hash__": lambda: (f"def f(self):\n return hash({_tuple('self', compared)})", {}, {}),
               "__repr__": lambda: (_repr(fields), {}, {})}
    for name, write in writers.items():
        setattr(cls, name, at_first_call(write, lambda f, name=name: setattr(cls, name, f)))
    RECORDS.append(cls)
    return cls


def replace(obj, **changes):
    """A new record like `obj`, with the fields named in `changes` set to
    their values there."""
    return type(obj)(**{n: getattr(obj, n) for n in obj.__slots__} | changes)


def _tuple(x: str, fields) -> str:
    return "(" + "".join(f"{x}.{n}, " for n in fields) + ")"


def _init(fields, defaults: dict) -> tuple[str, dict, dict]:
    params, lines, free = ["self"], [], {}
    for n in fields:
        if n not in defaults:
            params.append(n)
            lines.append(f"self.{n} = {n}")
            continue
        free[f"_d_{n}"] = default = defaults[n]
        params.append(f"{n}=_d_{n}")
        if type(default) is fresh:
            free[f"_m_{n}"] = default.make
            lines.append(f"self.{n} = _m_{n}() if {n} is _d_{n} else {n}")
        else:
            lines.append(f"self.{n} = {n}")
    return f"def f({', '.join(params)}):\n " + ("\n ".join(lines) or "pass"), {}, free


def _eq(compared) -> str:
    return ("def f(self, other):\n"
            " if other.__class__ is self.__class__:\n"
            f"  return {_tuple('self', compared)} == {_tuple('other', compared)}\n"
            " return NotImplemented")


def _repr(fields) -> str:
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in fields)
    return f"def f(self):\n return self.__class__.__qualname__ + f'({shown})'"


@record
class Span:
    line: int = 0
    col: int = 0

    def __str__(self):
        return f"{self.line}:{self.col}"


NO_SPAN = Span(0, 0)


@record
class Diagnostic:
    code: str
    message: str
    span: Span = NO_SPAN

    def __str__(self):
        return f"{self.span}: [{self.code}] {self.message}"
