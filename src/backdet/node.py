"""Hash-consed formula and condition nodes, the ``|`` and ``&`` nodes they
share, and one walk over their DAG.

Every node is interned: building a node whose class and fields match a live
node returns that node (after Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  So structurally equal nodes are one object, equality
and hashing are identity, and a formula whose subformulas repeat, like the
nested rank formulas of a Buchi automaton, is a DAG of distinct nodes.

A node class lists its fields in ``__slots__`` and is built positionally
from their values.  Two attributes are derived when it is built: ``children``,
the fields that are nodes and the nodes inside tuple fields, in field order,
and ``free``, the frozenset union of the children's free names, which a
``_free(node, names)`` hook may adjust (a variable gives its name, a binder
removes its own).  A class may define ``_check(*fields)`` to validate or
normalize the field values; it returns the values to store.

:class:`Or` and :class:`And` are declared here, once: the transition
conditions of an automaton are positive boolean formulas, so LTL formulas,
fixed-point formulas and conditions all build the same two classes.
"""

from __future__ import annotations

import weakref

# (class, *fields) -> weak reference to the live node; an entry leaves the
# table when its node is freed.  The table is not locked: two threads that
# build the same node at once could get two copies.
_interned = {}
_set = object.__setattr__
_NO_NAMES = frozenset()


class _Ref(weakref.ref):
    """A weak reference that knows its table key, so that one callback
    serves every node."""

    __slots__ = ("key",)


def _forget(ref):
    if _interned.get(ref.key) is ref:
        del _interned[ref.key]


class Node:
    __slots__ = ("children", "free", "__weakref__")
    _check = None
    _free = None

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        if cls._check is not None:
            fields = cls._check(*fields)
        key = (cls, *fields)
        ref = _interned.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            children = []
            for name, value in zip(cls.__slots__, fields):
                _set(node, name, value)
                if isinstance(value, Node):
                    children.append(value)
                elif type(value) is tuple:
                    children += [c for c in value if isinstance(c, Node)]
            _set(node, "children", tuple(children))
            free = _NO_NAMES.union(*[c.free for c in children if c.free])
            if cls._free is not None:
                free = cls._free(node, free)
            _set(node, "free", free or _NO_NAMES)
            ref = _interned[key] = _Ref(node, _forget)
            ref.key = key
        return node

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Or(Node):
    __slots__ = ("left", "right")


class And(Node):
    __slots__ = ("left", "right")


def subterms(roots, children_first: bool = False) -> list:
    """The distinct nodes reachable from ``roots``, each listed once, in
    depth-first order: preorder, or with ``children_first`` postorder.
    Roots are walked in order and children left to right."""
    seen = set()
    out = []

    def walk(f):
        seen.add(f)
        if not children_first:
            out.append(f)
        for c in f.children:
            if c not in seen:
                walk(c)
        if children_first:
            out.append(f)

    for r in roots:
        if r not in seen:
            walk(r)
    return out
