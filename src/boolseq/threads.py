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

from dataclasses import dataclass
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


@dataclass(frozen=True, repr=False)
class Stop:
    """Successful termination."""


@dataclass(frozen=True, repr=False)
class Dead:
    """Deadlock: no further behaviour, no termination."""


@dataclass(frozen=True, repr=False)
class Tau:
    """One internal step, then ``next``."""

    next: "XThread"


@dataclass(frozen=True, repr=False)
class PostCond:
    """Perform ``action``; continue as ``on_true`` or ``on_false`` per the reply."""

    action: BasicInstruction
    on_true: "XThread"
    on_false: "XThread"


@dataclass(frozen=True, repr=False)
class Var:
    """A thread variable, resolved by an enclosing substitution binder."""

    index: int


@dataclass(frozen=True, repr=False)
class Subst:
    """Explicit substitution: ``body`` with ``Var(var_index)`` bound to ``bound``."""

    var_index: int
    bound: "XThread"
    body: "XThread"


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


def _rho_prime(i: int, u: PrimitiveInstruction) -> XThread:
    """Compact per-instruction term over position variables."""
    offsets = u.offsets
    if offsets is None:
        return STOP
    on_true, on_false = offsets
    if isinstance(u, Jump):
        return Var(i + on_true) if on_true else DEAD
    return PostCond(u.basic, Var(i + on_true), Var(i + on_false))


def extract_compact(x: InstructionSequence) -> XThread:
    """Linear-size thread term with explicit substitution binders.

    One binder per position: position i's term refers to positions i+1,
    i+2, ... through variables, and the binder for the last position holds
    that instruction's extraction outright.  Satisfies
    ``tsize(extract_compact(x)) <= 4 * psize(x) + 1``.
    """
    k = len(x)
    if k == 1:
        return extract(x)
    body: XThread = Var(1)
    for i in range(1, k):
        body = Subst(i, _rho_prime(i, x.items[i - 1]), body)
    last = extract(InstructionSequence((x.items[-1],)))
    return Subst(k, last, body)


def eval_xthread(t: XThread) -> Thread:
    """Resolve all substitution binders; free variables become deadlock.

    Binders are resolved innermost first (the order produced by
    ``extract_compact``); each bound term is evaluated once and shared by
    every occurrence of its variable, so evaluation is linear in the term
    size.
    """

    def ev(node: XThread, env: dict[int, Thread]) -> Thread:
        if isinstance(node, (Stop, Dead)):
            return node
        if isinstance(node, Var):
            return env.get(node.index, DEAD)
        if isinstance(node, Tau):
            return Tau(ev(node.next, env))
        if isinstance(node, PostCond):
            return PostCond(node.action, ev(node.on_true, env), ev(node.on_false, env))
        bound = ev(node.bound, env)
        inner = dict(env)
        inner[node.var_index] = bound
        return ev(node.body, inner)

    return ev(t, {})


def tsize(t: XThread) -> int:
    """Term size: leaves count 1, binary nodes 1 + both children.

    ``Tau`` counts as a postconditional with two equal children.  Shared
    subterms are counted once per occurrence (tree size, not DAG size).
    """
    memo: dict[int, int] = {}

    def sz(node: XThread) -> int:
        key = id(node)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(node, (Stop, Dead, Var)):
            val = 1
        elif isinstance(node, Tau):
            val = 2 * sz(node.next) + 1
        elif isinstance(node, PostCond):
            val = sz(node.on_true) + sz(node.on_false) + 1
        else:
            val = sz(node.bound) + sz(node.body) + 1
        memo[key] = val
        return val

    return sz(t)


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
