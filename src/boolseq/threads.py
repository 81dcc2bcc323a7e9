"""Behaviour trees of instruction sequences.

A thread is a finite tree describing what a sequence does: terminate
(``Stop``), deadlock (``Dead``), take an internal step (``Tau``), or perform
a basic action and continue along one of two branches depending on the
reply (``PostCond``).  ``extract`` maps a sequence to its thread.

Extraction can blow up exponentially on alternating test chains, so there
is also a compact representation with variables and explicit substitution
binders: ``extract_compact`` produces a term whose size is linear in the
sequence length, and ``eval_xthread`` normalises it back to a plain thread.
"""

from __future__ import annotations

from typing import Union

from .instr import (
    KIND_JUMP,
    KIND_TERM,
    BasicInstruction,
    InstructionSequence,
    Jump,
    PrimitiveInstruction,
    ResourceBoundError,
    decode,
    render_basic,
)

# Sets a field of a frozen node; a module-level name is the cheapest way to
# call it from the constructors.
_set = object.__setattr__


class _Node:
    """Base of the thread nodes: frozen values with their term size.

    Each node carries ``_size``, its ``tsize``, worked out from its
    children's when it is built.  ``==`` and ``hash`` go by class and fields,
    like a frozen dataclass's, but neither recurses: ``==`` walks an
    explicit stack of node pairs, and the hash is worked out bottom-up on
    first use and kept in ``_hash``.  ``__match_args__`` names the fields,
    and a copy or an unpickled node is built again from them.
    """

    __slots__ = ("_size", "_hash")
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _hash_of(self)


class Stop(_Node):
    """Successful termination."""

    __slots__ = ()

    def __init__(self):
        _set(self, "_size", 1)


class Dead(_Node):
    """Deadlock: no further behaviour, no termination."""

    __slots__ = ()

    def __init__(self):
        _set(self, "_size", 1)


class Tau(_Node):
    """One internal step, then ``next``."""

    __slots__ = __match_args__ = ("next",)

    def __init__(self, next: "XThread"):
        _set(self, "next", next)
        _set(self, "_size", 1 + 2 * next._size)


class PostCond(_Node):
    """Perform ``action``; continue as ``on_true`` or ``on_false`` per the reply."""

    __slots__ = __match_args__ = ("action", "on_true", "on_false")

    def __init__(self, action: BasicInstruction, on_true: "XThread", on_false: "XThread"):
        _set(self, "action", action)
        _set(self, "on_true", on_true)
        _set(self, "on_false", on_false)
        _set(self, "_size", 1 + on_true._size + on_false._size)


class Var(_Node):
    """A thread variable, resolved by an enclosing substitution binder."""

    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)
        _set(self, "_size", 1)


class Subst(_Node):
    """Explicit substitution: ``body`` with ``Var(var_index)`` bound to ``bound``."""

    __slots__ = __match_args__ = ("var_index", "bound", "body")

    def __init__(self, var_index: int, bound: "XThread", body: "XThread"):
        _set(self, "var_index", var_index)
        _set(self, "bound", bound)
        _set(self, "body", body)
        _set(self, "_size", 1 + bound._size + body._size)


def _equal(a: _Node, b: _Node) -> bool:
    """Structural equality of two nodes of one class, over an explicit stack.

    A pair is pushed once: a later occurrence of it (shared subtrees) would
    only repeat its first comparison, so the walk is linear in the pairs of
    DAG nodes met, not in the tree size.
    """
    stack = [(a, b)]
    seen = set()
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._size != b._size:
            return False
        for name in a.__match_args__:
            u, v = getattr(a, name), getattr(b, name)
            if isinstance(u, _Node):
                pair = (id(u), id(v))
                if pair not in seen:
                    seen.add(pair)
                    stack.append((u, v))
            elif u != v:
                return False
    return True


def _hash_of(t: _Node) -> int:
    """Hash ``t`` and every node below it that has none yet, bottom-up.

    A node stays on the stack until all its children are hashed; its hash
    combines its class, its other fields and its children's hashes.
    """
    stack = [t]
    while stack:
        node = stack[-1]
        if hasattr(node, "_hash"):
            stack.pop()
            continue
        fields = [getattr(node, name) for name in node.__match_args__]
        pending = [u for u in fields if isinstance(u, _Node) and not hasattr(u, "_hash")]
        if pending:
            stack += pending
            continue
        _set(node, "_hash", hash((type(node), *(u._hash if isinstance(u, _Node) else u for u in fields))))
        stack.pop()
    return t._hash


Thread = Union[Stop, Dead, Tau, PostCond]
XThread = Union[Stop, Dead, Tau, PostCond, Var, Subst]

STOP = Stop()
DEAD = Dead()

# Most tree nodes ``render_thread`` emits (about 10 MB of text).
MAX_RENDER_NODES = 1_000_000


def extract(x: InstructionSequence) -> Thread:
    """Thread of an instruction sequence.

    Computed back to front: the thread at a position depends only on the
    threads at later positions (jumps are forward), with deadlock at the
    decoded successor 0.  Subtrees are shared, so the in-memory result stays
    linear even when the tree, counted as a tree, is exponential.
    """
    rows = decode(x)
    threads: list[XThread] = [DEAD] * (len(rows) + 1)  # 1-based; 0 stays Dead
    for i in range(len(rows), 0, -1):
        kind, _slot, _method, on_true, on_false = rows[i - 1]
        if kind == KIND_TERM:
            threads[i] = STOP
        elif kind == KIND_JUMP:
            threads[i] = threads[on_true]
        else:
            threads[i] = PostCond(x.items[i - 1].basic, threads[on_true], threads[on_false])
    return threads[1]


def _rho_prime(i: int, u: PrimitiveInstruction, var: list[Var]) -> XThread:
    """Compact per-instruction term over position variables, ``var[j]`` = ``Var(j)``."""
    offsets = u.offsets
    if offsets is None:
        return STOP
    on_true, on_false = offsets
    if isinstance(u, Jump):
        if not on_true:
            return DEAD
        # A jump past the end targets a position with no shared variable.
        return var[i + on_true] if i + on_true < len(var) else Var(i + on_true)
    return PostCond(u.basic, var[i + on_true], var[i + on_false])


def extract_compact(x: InstructionSequence) -> XThread:
    """Linear-size thread term with explicit substitution binders.

    One binder per position: position i's term refers to positions i+1,
    i+2, ... through variables, and the binder for the last position holds
    that instruction's extraction outright.  Every occurrence of a position
    up to k + 1 is one shared ``Var``.  Satisfies
    ``tsize(extract_compact(x)) <= 4 * psize(x) + 1``.
    """
    k = len(x)
    if k == 1:
        return extract(x)
    var = list(map(Var, range(k + 2)))
    body: XThread = var[1]
    for i, u in enumerate(x.items[:-1], 1):
        body = Subst(i, _rho_prime(i, u, var), body)
    last = extract(InstructionSequence((x.items[-1],)))
    return Subst(k, last, body)


def eval_xthread(t: XThread) -> Thread:
    """Resolve all substitution binders; free variables become deadlock.

    Binders are resolved innermost first (the order produced by
    ``extract_compact``); each bound term is evaluated once, at its binder,
    and shared by every occurrence of its variable, so evaluation is linear
    in the term size.  One explicit stack, so depth is not limited by
    recursion: a node goes back on it as ``(node,)`` below its children,
    and a binder's body above ``(var_index, outer binding)``, which undoes
    the binding in the one environment once the body is evaluated.
    """
    env: dict[int, Thread] = {}
    done: list[Thread] = []  # evaluated children, the last on top
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            done.append(env.get(node.index, DEAD))
        elif kind is PostCond:
            stack += ((node,), node.on_false, node.on_true)
        elif kind is Subst or kind is Tau:
            stack += ((node,), node.bound if kind is Subst else node.next)
        elif kind is not tuple:  # Stop, Dead
            done.append(node)
        elif len(node) == 2:
            index, outer = node
            if outer is None:
                del env[index]
            else:
                env[index] = outer
        else:
            (node,) = node
            kind = type(node)
            if kind is PostCond:
                on_false = done.pop()
                done[-1] = PostCond(node.action, done[-1], on_false)
            elif kind is Tau:
                done[-1] = Tau(done[-1])
            else:
                stack += ((node.var_index, env.get(node.var_index)), node.body)
                env[node.var_index] = done.pop()
    return done[0]


def tsize(t: XThread) -> int:
    """Term size: leaves count 1, binary nodes 1 + both children.

    ``Tau`` counts as a postconditional with two equal children.  Shared
    subterms are counted once per occurrence (tree size, not DAG size).
    Each node carries its size from construction, so this is O(1).
    """
    return t._size


def render_thread(t: XThread) -> str:
    """Debug rendering, e.g. ``(in:1.get ? S : D)``; for inspection and goldens only.

    Renders the tree, not the DAG, so the text of an extracted thread can be
    exponential in the sequence length; past ``MAX_RENDER_NODES`` nodes this
    raises ``ResourceBoundError``.  One explicit stack of pending nodes and
    literal text, so depth is not limited by recursion.
    """
    parts: list[str] = []
    stack: list = [t]
    nodes = 0
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        nodes += 1
        if nodes > MAX_RENDER_NODES:
            raise ResourceBoundError(f"resource bound exceeded: the thread has more than {MAX_RENDER_NODES} nodes to render")
        if isinstance(node, Stop):
            parts.append("S")
        elif isinstance(node, Dead):
            parts.append("D")
        elif isinstance(node, Tau):
            parts.append("tau . ")
            stack.append(node.next)
        elif isinstance(node, PostCond):
            parts.append(f"({render_basic(node.action)} ? ")
            stack += (")", node.on_false, " : ", node.on_true)
        elif isinstance(node, Var):
            parts.append(f"x{node.index}")
        else:
            parts.append("[")
            stack += (node.body, f"/x{node.var_index}] ", node.bound)
    return "".join(parts)
