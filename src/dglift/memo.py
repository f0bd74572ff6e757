"""Build once, share afterwards: the one memo mechanism of the engine.

The paper's objects are built lazily and read many times: graded pieces of
carriers, action matrices, the tensor powers T^n, Hom spaces, echelon forms.
Each such construction is a method (or a function of its first argument, its
owner) decorated with memo.  On the first call for a key the method runs;
every later call for that key returns the very same object.

A memo lives on its owner, in one attribute named after the method
("_memo_" + name), which the first call sets.  So an owner that never asks
a memo carries nothing, a memo is freed with its owner, and no cache
outside the owners holds an engine object.  The key is
the full argument tuple as passed, positionally: a method that accepts
several spellings of one question normalizes them before calling its memo.
A method of no arguments keeps its value in that attribute itself; a method
of one argument keys its table by the argument, so its hit path builds no
tuple; a method of several arguments keys its table by their tuple.  A
memoized build must not return None, which marks a key not built yet: a
call whose build returns None raises TypeError and stores nothing.

peek(owner, name) is the one way to read a memo without filling it.
Nothing guards a memo against concurrent filling; the engine is
single-threaded.
"""

from __future__ import annotations

from functools import wraps

_PREFIX = "_memo_"


def memo(build):
    """Memoize build(owner, *key) on owner, per key (see the module
    docstring).  The decorated method keeps its name in the class body."""
    slot = _PREFIX + build.__name__
    nargs = build.__code__.co_argcount
    # getattr and setattr, never owner.__dict__: on CPython 3.11 reading
    # __dict__ turns the owner's inline attribute values into a dict, and
    # every later attribute read on the owner gets slower

    if nargs == 1:
        def memoized(owner):
            value = getattr(owner, slot, None)
            if value is None:
                value = _built(build, build(owner))
                setattr(owner, slot, value)
            return value
    elif nargs == 2:
        def memoized(owner, key):
            table = getattr(owner, slot, None)
            if table is None:
                table = {}
                setattr(owner, slot, table)
            value = table.get(key)
            if value is None:
                value = table[key] = _built(build, build(owner, key))
            return value
    else:
        def memoized(owner, *key):
            table = getattr(owner, slot, None)
            if table is None:
                table = {}
                setattr(owner, slot, table)
            value = table.get(key)
            if value is None:
                value = table[key] = _built(build, build(owner, *key))
            return value
    return wraps(build)(memoized)


def _built(build, value):
    """value, which build just returned; None is refused, as the memo would
    read it as a key not built yet and build it again on every call."""
    if value is None:
        raise TypeError(f"memoized {build.__qualname__} returned None")
    return value


def peek(owner, name: str):
    """What owner's memo of the method name holds, without building: the
    value of a method of no arguments, or the {key: value} table of a keyed
    one; None while nothing is built."""
    return getattr(owner, _PREFIX + name, None)
