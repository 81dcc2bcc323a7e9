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
    ResourceBoundError,
    _Tree,
    render_basic,
)


class _Node(_Tree):
    """Base of the thread nodes: values that carry their term size.

    Each node carries ``_size``, its ``tsize``, worked out from its
    children's when it is built.  The hash takes in the class as well as the
    fields.  A thread's tree can be exponential in its DAG, so ``repr`` is
    the default one; ``render_thread`` gives bounded text.
    """

    __slots__ = ("_size",)
    __repr__ = object.__repr__

    def _hashed(self) -> tuple:
        return (type(self), *self._fields())  # so that ``Stop`` and ``Dead`` differ


class Stop(_Node):
    """Successful termination."""

    __slots__ = ()

    def __init__(self):
        _set_size(self, 1)


class Dead(_Node):
    """Deadlock: no further behaviour, no termination."""

    __slots__ = ()

    def __init__(self):
        _set_size(self, 1)


class Tau(_Node):
    """One internal step, then ``next``."""

    __slots__ = __match_args__ = ("next",)

    def __init__(self, next: "XThread"):
        _set_next(self, next)
        _set_size(self, 1 + 2 * next._size)


class PostCond(_Node):
    """Perform ``action``; continue as ``on_true`` or ``on_false`` per the reply."""

    __slots__ = __match_args__ = ("action", "on_true", "on_false")

    def __init__(self, action: BasicInstruction, on_true: "XThread", on_false: "XThread"):
        _set_action(self, action)
        _set_on_true(self, on_true)
        _set_on_false(self, on_false)
        _set_size(self, 1 + on_true._size + on_false._size)


class Var(_Node):
    """A thread variable, resolved by an enclosing substitution binder."""

    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set_index(self, index)
        _set_size(self, 1)


class Subst(_Node):
    """Explicit substitution: ``body`` with ``Var(var_index)`` bound to ``bound``."""

    __slots__ = __match_args__ = ("var_index", "bound", "body")

    def __init__(self, var_index: int, bound: "XThread", body: "XThread"):
        _set_var_index(self, var_index)
        _set_bound(self, bound)
        _set_body(self, body)
        _set_size(self, 1 + bound._size + body._size)


# The constructors fill each field through its slot's setter, which skips the
# attribute lookup that ``object.__setattr__`` makes: a ``PostCond`` builds
# in about two thirds of the time.
_set_size = _Node._size.__set__
_set_next = Tau.next.__set__
_set_action, _set_on_true, _set_on_false = PostCond.action.__set__, PostCond.on_true.__set__, PostCond.on_false.__set__
_set_index = Var.index.__set__
_set_var_index, _set_bound, _set_body = Subst.var_index.__set__, Subst.bound.__set__, Subst.body.__set__

Thread = Union[Stop, Dead, Tau, PostCond]
XThread = Union[Stop, Dead, Tau, PostCond, Var, Subst]

STOP = Stop()
DEAD = Dead()

# Most tree nodes ``render_thread`` emits (about 10 MB of text).
MAX_RENDER_NODES = 1_000_000


def extract(x: InstructionSequence) -> Thread:
    """Thread of an instruction sequence.

    Computed back to front over the row templates: the thread at a position
    depends only on the threads at later positions (moves are forward), and
    a move of 0 (``#0``) or past the end is deadlock.  Subtrees are shared,
    so the in-memory result stays linear even when the tree, counted as a
    tree, is exponential.
    """
    moves = x._moves
    items = x.items
    k = len(moves)
    threads: list[XThread] = [DEAD] * (k + 1)  # 1-based
    for pos, (kind, _slot, _method, d_true, d_false) in zip(range(k, 0, -1), reversed(moves)):
        if kind == KIND_TERM:
            threads[pos] = STOP
            continue
        # A move d from pos continues as threads[pos + d] when 0 < d <= k - pos.
        on_true = threads[pos + d_true] if 0 < d_true <= k - pos else DEAD
        if kind == KIND_JUMP:
            threads[pos] = on_true
        else:
            on_false = threads[pos + d_false] if 0 < d_false <= k - pos else DEAD
            threads[pos] = PostCond(items[pos - 1].basic, on_true, on_false)
    return threads[1]


# ``_vars[i]`` is ``Var(i)``, shared by every term ``extract_compact`` builds.
# The table grows to the longest sequence compacted so far by rebinding a
# longer tuple, never in place, so a caller holding an older one still finds
# ``Var(i)`` at index i.
_vars: tuple[Var, ...] = ()


def extract_compact(x: InstructionSequence) -> XThread:
    """Linear-size thread term with explicit substitution binders.

    One binder per position: position i's term refers to positions i+1,
    i+2, ... through variables, and the binder for the last position holds
    that instruction's extraction outright.  Every occurrence of a position
    up to k + 1 is one ``Var`` of the shared table.  Satisfies
    ``tsize(extract_compact(x)) <= 4 * psize(x) + 1``.
    """
    global _vars
    moves = x._moves
    items = x.items
    k = len(moves)
    if k == 1:
        return extract(x)
    var = _vars
    if len(var) < k + 2:
        var = _vars = var + tuple(map(Var, range(len(var), k + 2)))
    body: XThread = var[1]
    for i, u, (kind, _slot, _method, d_true, d_false) in zip(range(1, k), items, moves):
        if kind == KIND_TERM:
            term = STOP
        elif kind == KIND_JUMP:
            # ``#0`` deadlocks; a jump past the end targets a position with no shared variable.
            term = DEAD if not d_true else var[i + d_true] if i + d_true <= k + 1 else Var(i + d_true)
        else:
            term = PostCond(u.basic, var[i + d_true], var[i + d_false])
        body = Subst(i, term, body)
    # The last position's extraction: every move from it leaves the sequence.
    kind = moves[-1][0]
    last = STOP if kind == KIND_TERM else DEAD if kind == KIND_JUMP else PostCond(items[-1].basic, DEAD, DEAD)
    return Subst(k, last, body)


def eval_xthread(t: XThread) -> Thread:
    """Resolve all substitution binders; free variables become deadlock.

    Binders are resolved innermost first (the order produced by
    ``extract_compact``); each bound term is evaluated once, at its binder,
    and shared by every occurrence of its variable, so evaluation is linear
    in the term size.  One explicit stack, so depth is not limited by
    recursion: a node goes back on it as ``(node,)`` below its children,
    and a binder's body above ``(var_index, outer binding)``, which undoes
    the binding in the one environment once the body is evaluated.  A
    binder with nothing under it on the stack needs no undo, as nothing
    reads the environment after its body: the chain of binders at the top
    of a term, all of ``extract_compact``'s output, leaves none.  A bound
    term that is a leaf, or a ``PostCond`` over two variables (all that
    ``extract_compact`` binds), is evaluated at its binder, without a trip
    through the stack.
    """
    env: dict[int, Thread] = {}
    done: list[Thread] = []  # evaluated children, the last on top
    stack: list = [t]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Subst:
            index = node.var_index
            bound = node.bound
            kind = type(bound)
            if kind is Var:
                value = env.get(bound.index, DEAD)
            elif kind is Stop or kind is Dead:
                value = bound
            elif kind is PostCond and type(bound.on_true) is Var and type(bound.on_false) is Var:
                value = PostCond(bound.action, env.get(bound.on_true.index, DEAD), env.get(bound.on_false.index, DEAD))
            else:
                stack += ((node,), bound)
                continue
            if stack:
                stack.append((index, env.get(index)))
            stack.append(node.body)
            env[index] = value
        elif kind is Var:
            done.append(env.get(node.index, DEAD))
        elif kind is PostCond:
            stack += ((node,), node.on_false, node.on_true)
        elif kind is Tau:
            stack += ((node,), node.next)
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
                if stack:
                    stack.append((node.var_index, env.get(node.var_index)))
                stack.append(node.body)
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
