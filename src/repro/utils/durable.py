"""Declared run state: every durable field of a component, written once.

A run-state class mixes in :class:`Durable` and lists its durable
fields in one ``_STATE`` tuple of :class:`Field` — the key in the state
tree, a kind from the closed set below, and the attribute holding the
value.  ``state_dict`` and ``load_state_dict`` are generated from that
declaration.

Loading checks the whole tree before it assigns anything: the exact
key set of every component, then each value's kind, dtype and shape.
Any mismatch raises one :class:`RunStateError` naming
``<component>.<field>`` and what was expected, and leaves every
component as it was.

The kinds (a closed set; classes are declared, never registered):

* scalars — :data:`INT`, :data:`FLOAT`, :data:`BOOL`, :data:`ID` (a
  string), :data:`MEMBER` (the id of a client in scope),
  :data:`PAYLOAD` (wire bytes that decode to the model tree),
  :data:`SAME` (equal to the live value: a discriminator);
* :data:`RNG` — a NumPy generator's state, checked by setting it on a
  scratch generator of the live one's kind;
* :class:`Array` — an array with the live value's dtype and shape;
* :data:`MODEL_TREE` — a ``{name: array}`` tree with the names,
  dtypes and shapes of the model tree in scope: the engine hands its
  ``global_state`` down to itself, EF residuals, server moments,
  buffered deltas and in-flight payloads;
* :class:`List` (free length, or counted against the live list),
  :class:`Row` (fixed positions, loaded as a tuple) and :class:`Map`
  (string keys) of a kind;
* :class:`Record` — a dataclass / NamedTuple row, its field kinds read
  off the class annotations; :class:`Either` picks one of several;
* :data:`COMPONENT` — a nested :class:`Durable` (``None`` for a live
  object that holds no run state); :data:`PARKED` — a component's
  state kept as its dict (a client pool's evicted clients), checked
  against a template of the component;
* :class:`Opt` — may be ``None`` whatever the live value is.

A field whose live value is ``None`` must load ``None`` unless it is
:class:`Opt`.  ``Field(omit=True)`` writes ``None`` as an absent key;
a class's ``Opt`` fields declared ``omit`` are one group, written and
read all or none.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import numpy as np

from .serialization import PayloadError

__all__ = ["RunStateError", "Durable", "Field", "Kind", "Array", "List",
           "Row", "Map", "Record", "Either", "Opt", "INT", "FLOAT", "BOOL",
           "ID", "MEMBER", "PAYLOAD", "SAME", "RNG", "MODEL_TREE",
           "COMPONENT", "PARKED"]


class RunStateError(ValueError, KeyError):
    """A well-formed state tree that does not fit the live run: a key
    missing or extra, or a value of the wrong kind, dtype or shape.
    Also a ``KeyError``, what a missing key raised before loads were
    checked."""

    __str__ = ValueError.__str__


def _fail(path: str, expected: str, node) -> RunStateError:
    got = (f"{node.dtype} array of shape {node.shape}"
           if isinstance(node, np.ndarray) else f"{type(node).__name__} {node!r:.60}")
    return RunStateError(f"run state {path}: expected {expected}, got {got}")


def _check_keys(path: str, node, keys: list, optional=()) -> None:
    """``node`` is a dict holding exactly ``keys`` (less any of
    ``optional``); a mismatch names the first key at fault."""
    if not isinstance(node, dict):
        raise _fail(path, f"a dict with keys {keys}", node)
    faults = [*(f"{k}: missing" for k in keys
                if k not in node and k not in optional),
              *(f"{k}: unexpected" for k in node if k not in keys)]
    if faults:
        raise RunStateError(
            f"run state {path}.{faults[0]} (the fields are {keys})")


class Kind:
    """How one durable value is written (``dump``) and checked on load:
    ``load(node, live, ctx, path)`` returns the value to assign or
    raises.  ``ctx`` is the load's scope (``model``, ``clients``,
    ``payload``) plus the ``assign`` list the checked components fill."""

    def dump(self, value):
        return value


class _Scalar(Kind):
    """One of ``types`` (a bool only if listed), loaded as the first;
    ``check(node, live, ctx, path)`` may refuse its value."""

    def __init__(self, what: str, types: tuple, check=None):
        self.what, self.types, self.check = what, types, check

    def load(self, node, live, ctx, path):
        if not isinstance(node, self.types) or (
                isinstance(node, (bool, np.bool_)) and bool not in self.types):
            raise _fail(path, self.what, node)
        if self.check is not None:
            self.check(node, live, ctx, path)
        return self.types[0](node)


def _member(node, live, ctx, path):
    clients = ctx.get("clients")
    if clients is not None and node not in clients:
        raise RunStateError(f"run state {path}: client {node!r} is not in "
                            "this federation")


def _payload(node, live, ctx, path):
    decode = ctx.get("payload")
    if decode is not None:
        try:
            MODEL_TREE.load(decode(node), None, ctx, path)
        except PayloadError as exc:
            raise RunStateError(f"run state {path}: {exc}") from None


def _same(node, live, ctx, path):
    if node != live:
        raise _fail(path, repr(live), node)


INT = _Scalar("an int", (int, np.integer))
FLOAT = _Scalar("a float", (float, int, np.floating, np.integer))
BOOL = _Scalar("a bool", (bool, np.bool_))
ID = _Scalar("a str", (str,))
MEMBER = _Scalar("a client id", (str,), _member)
PAYLOAD = _Scalar("payload bytes", (bytes,), _payload)
SAME = _Scalar("a str", (str,), _same)


class _Rng(Kind):
    def dump(self, value):
        return value.bit_generator.state

    def load(self, node, live, ctx, path):
        make = np.random.PCG64 if live is None else type(live.bit_generator)
        rng = np.random.Generator(make(0))
        try:  # numpy ignores extra keys: read the state back
            rng.bit_generator.state = node
            same = rng.bit_generator.state == node
        except (TypeError, ValueError, KeyError, OverflowError):
            same = False
        if not same:
            raise _fail(path, f"a {make.__name__} state", node)
        return rng


RNG = _Rng()


class Array(Kind):
    """An array of the live value's dtype and shape; ``check(array)``
    may refuse its values with a ``ValueError``."""

    def __init__(self, check: Callable | None = None):
        self.check = check

    def dump(self, value):
        return value.copy()

    def load(self, node, live, ctx, path):
        if not (isinstance(node, np.ndarray) and node.dtype == live.dtype
                and node.shape == live.shape):
            raise _fail(path, f"{live.dtype} array of shape {live.shape}", node)
        try:
            if self.check is not None:
                self.check(node)
        except ValueError as exc:
            raise RunStateError(f"run state {path}: {exc}") from None
        return node.copy()


class _ModelTree(Kind):
    def dump(self, value):
        return {k: v.copy() for k, v in value.items()}

    def load(self, node, live, ctx, path):
        want = ctx.get("model")
        if want is None and isinstance(node, dict):  # no model in scope
            want = {k: v for k, v in node.items() if isinstance(v, np.ndarray)}
        if not isinstance(node, dict) or node.keys() != want.keys():
            raise _fail(path, "arrays named as the model's", node)
        return {k: Array().load(v, want[k], ctx, f"{path}.{k}")
                for k, v in node.items()}


MODEL_TREE = _ModelTree()


class List(Kind):
    """A list of ``kind``; ``counted``: as long as the live list, each
    item checked against the live item at its position."""

    def __init__(self, kind: Kind, counted: bool = False):
        self.kind, self.counted = kind, counted

    def dump(self, value):
        return [self.kind.dump(v) for v in value]

    def load(self, node, live, ctx, path):
        if not isinstance(node, list) or self.counted and len(node) != len(live):
            raise _fail(path, f"a list of {len(live)}" if self.counted
                        else "a list", node)
        live = live if self.counted else [None] * len(node)
        return [self.kind.load(n, v, ctx, f"{path}[{i}]")
                for i, (n, v) in enumerate(zip(node, live))]


class Row(Kind):
    """A fixed-length list of kinds, loaded as a tuple."""

    def __init__(self, *kinds: Kind):
        self.kinds = kinds

    def dump(self, value):
        return [k.dump(v) for k, v in zip(self.kinds, value)]

    def load(self, node, live, ctx, path):
        if not (isinstance(node, list) and len(node) == len(self.kinds)):
            raise _fail(path, f"a row of {len(self.kinds)}", node)
        return tuple(k.load(n, None, ctx, f"{path}[{i}]")
                     for i, (k, n) in enumerate(zip(self.kinds, node)))


class Map(Kind):
    """String keys (checked as ``keys``) to values of ``kind``, each
    checked against the live entry of its key (or ``live(key)``)."""

    def __init__(self, kind: Kind, keys: Kind = ID):
        self.kind, self.keys = kind, keys

    def dump(self, value):
        return {k: self.kind.dump(v) for k, v in value.items()}

    def load(self, node, live, ctx, path):
        if not isinstance(node, dict):
            raise _fail(path, "a dict", node)
        out = {}
        for key, value in node.items():
            sub = f"{path}[{key!r}]"
            self.keys.load(key, None, ctx, sub)
            template = live(key) if callable(live) else (
                None if live is None else live.get(key))
            out[key] = self.kind.load(value, template, ctx, sub)
        return out


class Record(Kind):
    """A dataclass or NamedTuple, written as a dict of its fields; each
    field's kind comes from its annotation unless given by name."""

    _ANNOTATED = {"int": INT, "float": FLOAT, "bool": BOOL, "str": ID,
                  "list[str]": List(ID),
                  "dict[str, float]": Map(FLOAT), "StateDict": MODEL_TREE}

    def __init__(self, cls: type, **kinds: Kind):
        self.cls = cls
        annotated = ({f.name: f.type for f in dataclasses.fields(cls)}
                     if dataclasses.is_dataclass(cls) else cls.__annotations__)
        # NamedTuple annotations are ForwardRefs of the source text.
        self.fields = {name: kinds.get(name) or self._ANNOTATED[
            getattr(kind, "__forward_arg__", kind)]
            for name, kind in annotated.items()}

    def dump(self, value):
        return {name: kind.dump(getattr(value, name))
                for name, kind in self.fields.items()}

    def load(self, node, live, ctx, path):
        _check_keys(path, node, list(self.fields))
        return self.cls(**{name: kind.load(node[name], None, ctx, f"{path}.{name}")
                           for name, kind in self.fields.items()})


class Either(Kind):
    """One of several records: told apart by type when written and by
    key set when read."""

    def __init__(self, *records: Record):
        self.records = records

    def dump(self, value):
        return next(r for r in self.records if isinstance(value, r.cls)).dump(value)

    def load(self, node, live, ctx, path):
        for record in self.records:
            if isinstance(node, dict) and node.keys() == record.fields.keys():
                return record.load(node, None, ctx, path)
        raise _fail(path, " or ".join(
            f"a dict with keys {list(r.fields)}" for r in self.records), node)


class _Component(Kind):
    def dump(self, value):
        return value.state_dict() if isinstance(value, Durable) else None

    def load(self, node, live, ctx, path):
        if isinstance(live, Durable):
            live._check(node, ctx, path)
        elif node is not None:
            raise _fail(path, "None (no run state here)", node)
        return live


class _Parked(Kind):
    def dump(self, value):
        return dict(value) if isinstance(value, dict) else value.state_dict()

    def load(self, node, live, ctx, path):
        if isinstance(live, Durable):  # checked, never assigned
            live._check(node, {**ctx, "assign": []}, path)
        elif not isinstance(node, dict):
            raise _fail(path, "a dict", node)
        return node


COMPONENT = _Component()
PARKED = _Parked()


class Opt(Kind):
    """``kind``, or ``None`` whatever the live value is."""

    def __init__(self, kind: Kind):
        self.kind = kind

    def dump(self, value):
        return self.kind.dump(value)

    def load(self, node, live, ctx, path):
        return None if node is None else self.kind.load(node, live, ctx, path)


class Field(NamedTuple):
    """One durable field: its key in the state tree and its kind.

    ``attr`` holds the value (default: the key).  ``omit`` writes
    ``None`` as an absent key.  ``encode`` / ``decode`` convert a value
    the kind cannot name directly (a set, a heap, tuple keys) to and
    from its written form.  ``live(owner)`` gives what a load is
    checked against when that is not the attribute's value (a template
    client, an optimizer a stateful client has yet to build).
    """

    key: str
    kind: Kind
    attr: str | None = None
    omit: bool = False
    encode: Callable | None = None
    decode: Callable | None = None
    live: Callable | None = None


class Durable:
    """Mixin: ``state_dict`` / ``load_state_dict`` generated from the
    class's ``_STATE`` declaration."""

    _STATE: tuple[Field, ...] = ()

    def _scope(self) -> dict:
        """What the kinds of this component's subtree read: the
        ``model`` tree, the ``clients`` ids belong to, how to decode an
        in-flight ``payload``."""
        return {}

    def _group(self) -> list[Field]:
        return [f for f in self._STATE if f.omit and isinstance(f.kind, Opt)]

    def _quiesce(self) -> None:
        """Bring live work to rest before the state is read (the
        engine shuts its fork pool down); nothing by default."""

    def state_dict(self) -> dict:
        self._quiesce()
        state = {}
        empty = any(getattr(self, f.attr or f.key) is None for f in self._group())
        for f in self._STATE:
            value = getattr(self, f.attr or f.key)
            if f.omit and (value is None or empty and isinstance(f.kind, Opt)):
                continue
            if value is not None and f.encode is not None:
                value = f.encode(value)
            state[f.key] = None if value is None else f.kind.dump(value)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Check ``state`` against the declaration and the live values,
        then assign it (nothing is assigned if any check fails)."""
        assign: list[tuple[Durable, dict]] = []
        self._check(state, {"assign": assign}, type(self).__name__)
        for obj, values in assign:
            for attr, value in values.items():
                setattr(obj, attr, value)

    def _check(self, state, ctx: dict, path: str) -> None:
        _check_keys(path, state, [f.key for f in self._STATE],
                    optional=[f.key for f in self._STATE if f.omit])
        group = [f.key for f in self._group()]
        if 0 < len(state.keys() & set(group)) < len(group):
            raise RunStateError(f"run state {path}: fields {group} are "
                                "written together or not at all")
        ctx = {**ctx, **self._scope()}
        values = {}
        for f in self._STATE:
            node, sub = state.get(f.key), f"{path}.{f.key}"
            live = f.live(self) if f.live else getattr(self, f.attr or f.key)
            if live is None and not isinstance(f.kind, Opt):
                if node is not None:  # nothing of the kind here
                    raise _fail(sub, "None", node)
                value = None
            else:
                value = f.kind.load(node, live, ctx, sub)
            values[f.attr or f.key] = value if f.decode is None else f.decode(value)
        ctx["assign"].append((self, values))
