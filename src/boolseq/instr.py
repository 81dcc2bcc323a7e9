"""Primitive instructions and finite single-pass instruction sequences.

An instruction sequence is a nonempty finite sequence of primitive
instructions: plain basic instructions, positive/negative test
instructions, forward jumps ``#l``, and the termination instruction ``!``.
Basic instructions address named Boolean registers (``in:i``, ``aux:i``,
``out``) with ``get``/``set:T``/``set:F`` methods, or fork/reply on a
Boolean parameter (``split:p``, ``reply:p``).

Everything here is immutable and purely syntactic: parsing, canonical
rendering, length, ``classify`` profiles, and ``actions``, the jump-free
view of a sequence's control flow for the lane sweep.  Instructions are
interned values: one object per value, which carries its text and its row
template: what it does, and how far control moves on after each reply.
Every reader of control flow walks a sequence's templates by these
offsets; the templates are the one form of it that a sequence keeps.
"""

from __future__ import annotations

import re
from functools import cached_property
import operator
from operator import attrgetter, itemgetter
from typing import Iterator, Union

GET = "get"
SET_TRUE = "set:T"
SET_FALSE = "set:F"

METHODS = (GET, SET_TRUE, SET_FALSE)


class InstructionSyntaxError(ValueError):
    """Malformed instruction-sequence text; ``position`` is a 0-based char offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ResourceBoundError(ValueError):
    """A documented resource bound (lanes, variables, states or steps) would be exceeded."""


# Instruction kinds (see ``Row``).  The register kinds come first, so that a
# register kind indexes a list of register banks.
KIND_IN = 0
KIND_AUX = 1
KIND_OUT = 2
KIND_SPLIT = 3
KIND_REPLY = 4
KIND_JUMP = 5
KIND_TERM = 6


# --- frozen values -------------------------------------------------------------

# Sets a field of a frozen value; a module-level name is the cheapest way to
# call it from the constructors.
_set = object.__setattr__


def _field_methods(names: tuple[str, ...]) -> tuple:
    """``_fields``, ``__eq__`` and ``__hash__`` of a value class with these fields.

    Each reads the fields in one ``attrgetter`` call, which returns them as
    a tuple when there are two or more; the hash is that of the tuple of
    fields whatever their number.
    """
    get = attrgetter(*names) if names else lambda v: ()
    if len(names) == 1:

        def _fields(self):
            return (get(self),)

        def __hash__(self):
            return hash((get(self),))

        def __eq__(self, other):
            if type(other) is not type(self):
                return NotImplemented
            return (get(self),) == (get(other),)

    else:

        def _fields(self):
            return get(self)

        def __hash__(self):
            return hash(get(self))

        def __eq__(self, other):
            if type(other) is not type(self):
                return NotImplemented
            return get(self) == get(other)

    for method in (_fields, __eq__, __hash__):
        method._by_fields = True
    return _fields, __eq__, __hash__


class _Value:
    """Base of the frozen value classes: what a frozen dataclass gives.

    The fields are named once, in ``__match_args__``; each class's
    ``__init__`` checks its arguments and sets its fields through ``_set``.
    ``==`` goes by class and fields, the hash is the hash of the tuple of
    fields, ``repr`` is ``Cls(name=value, ...)``, and assigning or deleting
    an attribute raises ``dataclasses.FrozenInstanceError`` (imported on
    that path only).  A copy or an unpickled value is built again from its
    fields, and ``_replace(**changes)`` is ``dataclasses.replace``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _fields, __eq__, __hash__ = _field_methods(())

    def __init_subclass__(cls):
        # Each class gets the methods made for its own fields, but keeps an
        # ``==`` or ``hash`` that it or a base defines (``_Tree``, ``_Interned``).
        for method in _field_methods(cls.__match_args__):
            if getattr(getattr(cls, method.__name__), "_by_fields", False):
                setattr(cls, method.__name__, method)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self.__match_args__, self._fields())), **changes})

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Tree(_Value):
    """A value whose fields may hold values of its family, nested to any depth.

    ``==``, ``hash`` and ``repr`` give what ``_Value``'s give, each over an
    explicit stack, so depth is not limited by recursion.  ``==`` compares
    each pair of shared subtrees once, and the hash is worked out bottom-up
    on first use and kept in ``_hash``.
    """

    __slots__ = ("_hash",)

    def _hashed(self) -> tuple:
        """What the hash is the hash of."""
        return self._fields()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        seen = set()
        while stack:
            a, b = stack.pop()
            if type(a) is not type(b):
                return False
            for u, v in zip(a._fields(), b._fields()):
                if u is v:
                    continue
                if isinstance(u, _Tree):
                    pair = (id(u), id(v))
                    if pair not in seen:
                        seen.add(pair)
                        stack.append((u, v))
                elif u != v:
                    return False
        return True

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # A node goes back on the stack as ``(node, key)`` below its subtrees,
        # and is hashed when that comes off.
        stack: list = [self]
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                node, key = node
                _set(node, "_hash", hash(key))
            elif not hasattr(node, "_hash"):  # else a shared subtree, hashed since it was pushed
                key = node._hashed()
                stack.append((node, key))
                stack += [u for u in key if isinstance(u, _Tree)]
        return self._hash

    def __repr__(self) -> str:
        parts = []
        stack: list = [self]  # nodes to write out, and text
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            parts.append(f"{type(item).__qualname__}(")
            pieces = []
            for name, value in zip(item.__match_args__, item._fields()):
                pieces += (", ", f"{name}=", value if isinstance(value, _Tree) else repr(value))
            stack.append(")")
            stack += reversed(pieces[1:])
        return "".join(parts)


# --- interned values -----------------------------------------------------------

# Every instruction value made so far, keyed by (class, *fields).  Entries are
# never removed: README's resource bounds give the size of one.
_INTERNED: dict[tuple, "_Interned"] = {}


class _Interned(_Value):
    """Base of the instruction classes: one object per distinct value.

    Each class's ``__new__`` looks ``(cls, *fields)`` up in ``_INTERNED`` (its
    objects are all true, so ``get(...) or`` tells a miss) and builds a new
    object only on a miss, so equality is identity and hashing is by ``id``.
    An integer field takes the lookup only when it is an exact ``int``:
    another number equal to one (``True``, ``1.0``) goes through ``_check``,
    which normalises or rejects it whatever the table holds.
    A copy or an unpickled object is the interned object itself.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def _intern(cls, *fields):
        # Validate and normalise the new value, then publish it: setdefault
        # keeps one object per value when threads race on the same miss.
        fields = cls._check(*fields)
        obj = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):
            _set(obj, name, value)
        obj._setup()
        return _INTERNED.setdefault((cls, *fields), obj)

    @classmethod
    def _check(cls, *fields):
        """The fields of a new value, normalised; raises if they are invalid."""
        return fields

    def _setup(self) -> None:
        """Work out what each use of the new object would otherwise redo."""


def _positive(value, noun: str) -> int:
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{noun} must be >= 1, got {value}")
    return value


# --- register foci ---------------------------------------------------------


class _Indexed(_Interned):
    __slots__ = __match_args__ = ("index",)

    def __new__(cls, index: int):
        return type(index) is int and _INTERNED.get((cls, index)) or cls._intern(index)

    @classmethod
    def _check(cls, index):
        return (_positive(index, cls._noun),)


class InReg(_Indexed):
    """The i-th input register."""

    __slots__ = ()
    _noun = "input register index"


class AuxReg(_Indexed):
    """The i-th auxiliary register."""

    __slots__ = ()
    _noun = "auxiliary register index"


class OutReg(_Interned):
    """The single output register."""

    __slots__ = ()

    def __new__(cls):
        return _INTERNED.get((cls,)) or cls._intern()


OUT = OutReg()

Focus = Union[InReg, AuxReg, OutReg]

_FOCUS_KINDS = {InReg: KIND_IN, AuxReg: KIND_AUX, OutReg: KIND_OUT}


# --- basic instructions ----------------------------------------------------


class RegisterOp(_Interned):
    """A register method call ``focus.method``."""

    __slots__ = __match_args__ = ("focus", "method")

    def __new__(cls, focus: Focus, method: str):
        return _INTERNED.get((cls, focus, method)) or cls._intern(focus, method)

    @classmethod
    def _check(cls, focus, method):
        if type(focus) not in _FOCUS_KINDS:
            raise TypeError(f"register focus must be InReg, AuxReg or OutReg, got {focus!r}")
        if method not in METHODS:
            raise ValueError(f"unknown register method {method!r}")
        return focus, method


class _ParamOp(_Interned):
    __slots__ = __match_args__ = ("param",)

    def __new__(cls, param: int):
        return type(param) is int and _INTERNED.get((cls, param)) or cls._intern(param)

    @classmethod
    def _check(cls, param):
        return (_positive(param, cls._noun),)


class SplitOp(_ParamOp):
    """Fork execution on Boolean parameter ``param``."""

    __slots__ = ()
    _noun = "split parameter"


class ReplyOp(_ParamOp):
    """Reply with the instantiated value of Boolean parameter ``param``."""

    __slots__ = ()
    _noun = "reply parameter"


BasicInstruction = Union[RegisterOp, SplitOp, ReplyOp]


# --- primitive instructions ------------------------------------------------

# Each primitive instruction has ``offsets``: how far control moves on after
# a True and after a False reply (None for ``!``).  This is the one place the
# rule is written; everything that needs a successor uses it.  When an
# instruction is interned, its ``_row`` is read from them: its row template
# ``(kind, slot, method, d_true, d_false)`` (see ``Row``), with 0 for ``!``,
# which has no successor; ``_text`` is its text.


class _Form(_Interned):
    __slots__ = ("basic", "_row", "_text")
    __match_args__ = ("basic",)

    def __new__(cls, basic: BasicInstruction):
        return _INTERNED.get((cls, basic)) or cls._intern(basic)

    @classmethod
    def _check(cls, basic):
        if type(basic) not in (RegisterOp, SplitOp, ReplyOp):
            raise TypeError(f"basic instruction must be RegisterOp, SplitOp or ReplyOp, got {basic!r}")
        return (basic,)

    def _setup(self) -> None:
        basic = self.basic
        if type(basic) is RegisterOp:
            kind = _FOCUS_KINDS[type(basic.focus)]
            shape = (kind, 0 if kind == KIND_OUT else basic.focus.index, basic.method)
        else:
            shape = (KIND_SPLIT if type(basic) is SplitOp else KIND_REPLY, basic.param, None)
        _set(self, "_row", (*shape, *self.offsets))
        _set(self, "_text", self._sign + render_basic(basic))


class Plain(_Form):
    __slots__ = ()
    offsets = (1, 1)
    _sign = ""


class PosTest(_Form):
    __slots__ = ()
    offsets = (1, 2)
    _sign = "+"


class NegTest(_Form):
    __slots__ = ()
    offsets = (2, 1)
    _sign = "-"


class Jump(_Interned):
    """Forward jump over ``distance`` instructions; 0 deadlocks by definition."""

    __slots__ = ("distance", "_row", "_text")
    __match_args__ = ("distance",)

    def __new__(cls, distance: int):
        return type(distance) is int and _INTERNED.get((cls, distance)) or cls._intern(distance)

    @classmethod
    def _check(cls, distance):
        distance = operator.index(distance)
        if distance < 0:
            raise ValueError("jump distance must be a natural number")
        return (distance,)

    def _setup(self) -> None:
        _set(self, "_row", (KIND_JUMP, 0, None, *self.offsets))
        _set(self, "_text", f"#{self.distance}")

    @property
    def offsets(self) -> tuple[int, int]:
        return self.distance, self.distance


class Term(_Interned):
    """The termination instruction ``!``."""

    __slots__ = ()
    offsets = None
    _row = (KIND_TERM, 0, None, 0, 0)
    _text = "!"

    def __new__(cls):
        return _INTERNED.get((cls,)) or cls._intern()


TERM = Term()

PrimitiveInstruction = Union[Plain, PosTest, NegTest, Jump, Term]


class InstructionSequence(_Value):
    """A nonempty, immutable sequence of primitive instructions."""

    # The ``__dict__`` holds the ``cached_property`` values below.
    __slots__ = ("items", "__dict__")
    __match_args__ = ("items",)

    def __init__(self, items: tuple[PrimitiveInstruction, ...]):
        if not items:
            raise ValueError("instruction sequence must be nonempty")
        _set(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[PrimitiveInstruction]:
        return iter(self.items)

    def __getitem__(self, idx):
        return self.items[idx]

    def __add__(self, other: "InstructionSequence") -> "InstructionSequence":
        return InstructionSequence(self.items + other.items)

    def __str__(self) -> str:
        return render(self)

    # Sequences are immutable: each of these is worked out when first read.
    @cached_property
    def _moves(self) -> tuple["Row", ...]:
        # The instructions' row templates, in position order: offsets, not targets.
        return tuple(map(attrgetter("_row"), self.items))

    @cached_property
    def _profile(self) -> "ClassProfile":
        return _classify(self)

    @cached_property
    def _actions(self) -> tuple[tuple["Row", ...], tuple[int, ...], int]:
        return _actions(self)


def seq(*items: PrimitiveInstruction) -> InstructionSequence:
    """Convenience constructor."""
    return InstructionSequence(tuple(items))


def psize(x: InstructionSequence) -> int:
    """Length of an instruction sequence."""
    return len(x.items)


# --- classification --------------------------------------------------------


class ClassProfile(_Value):
    """Syntactic classification of a sequence.

    ``is_isbr``: all basics are register ops reading in/aux and writing
    aux/out.  ``is_isbrna``: additionally no auxiliary registers (reads of
    inputs and writes of out only).  ``is_sisbr``: input reads, ``out.set:T``,
    and split/reply only.  The ``max_*`` fields are maxima over occurring
    indices, 0 when absent.  ``last_param_use``: each parameter's last split
    or reply position.
    """

    __slots__ = __match_args__ = (
        "is_isbr", "is_isbrna", "is_sisbr", "max_jump", "max_aux_index", "max_input_index", "max_param_index",
        "term_count", "has_out_set_false", "last_param_use",
    )

    def __init__(
        self, is_isbr: bool, is_isbrna: bool, is_sisbr: bool, max_jump: int, max_aux_index: int, max_input_index: int,
        max_param_index: int, term_count: int, has_out_set_false: bool, last_param_use: dict[int, int],
    ):
        _set(self, "is_isbr", is_isbr)
        _set(self, "is_isbrna", is_isbrna)
        _set(self, "is_sisbr", is_sisbr)
        _set(self, "max_jump", max_jump)
        _set(self, "max_aux_index", max_aux_index)
        _set(self, "max_input_index", max_input_index)
        _set(self, "max_param_index", max_param_index)
        _set(self, "term_count", term_count)
        _set(self, "has_out_set_false", has_out_set_false)
        _set(self, "last_param_use", last_param_use)

    def __hash__(self):
        return hash(self._fields()[:-1])  # not ``last_param_use``, a dict


def classify(x: InstructionSequence) -> ClassProfile:
    """The syntactic class profile of ``x``, worked out from its distinct instructions and kept on ``x``."""
    return x._profile


# --- control flow ------------------------------------------------------------


# One position's row template, as a plain tuple ``(kind, slot, method,
# d_true, d_false)``: what it does and how far control moves on after a True
# and after a False reply.  ``slot`` is the register index (0 for ``out``) or
# the parameter of a split or reply, 0 otherwise; ``method`` is the register
# method, None otherwise.  A jump has its distance in both moves, ``!`` has 0
# in both.  A move of 0 (``#0``) or past the end deadlocks: each reader that
# follows control states that rule in its own loop.  A row of the ``actions``
# view has the same shape, with action indices in place of the moves.
Row = tuple[int, int, str | None, int, int]


# Classes by the (kind, method) pairs that occur.  Writes of inputs, reads of
# out and split/reply leave the register classes; anything but input reads,
# ``out.set:T`` and split/reply leaves the fork/reply class.
_NOT_ISBR = {(KIND_IN, SET_TRUE), (KIND_IN, SET_FALSE), (KIND_OUT, GET), (KIND_SPLIT, None), (KIND_REPLY, None)}
_SISBR = {(KIND_IN, GET), (KIND_OUT, SET_TRUE), (KIND_SPLIT, None), (KIND_REPLY, None)}


def _classify(x: InstructionSequence) -> ClassProfile:
    # The profile depends only on which instructions occur, except for the
    # ``!`` count and the positions of the splits and replies.
    items = x.items
    shapes = set()  # the (kind, method) pairs of the basic instructions
    top = [0] * (KIND_JUMP + 1)  # per kind, the largest slot, and at KIND_JUMP the largest distance
    for u in set(items):
        kind, slot, method, _, _ = u._row
        if kind == KIND_TERM:
            continue
        if kind == KIND_JUMP:
            slot = u.distance
        else:
            shapes.add((kind, method))
        if slot > top[kind]:
            top[kind] = slot
    last_param_use = {}
    if top[KIND_SPLIT] or top[KIND_REPLY]:
        for pos, (kind, slot, _, _, _) in enumerate(x._moves, start=1):
            if kind == KIND_SPLIT or kind == KIND_REPLY:
                last_param_use[slot] = pos

    is_isbr = shapes.isdisjoint(_NOT_ISBR)
    return ClassProfile(
        is_isbr=is_isbr,
        is_isbrna=is_isbr and not top[KIND_AUX],
        is_sisbr=shapes <= _SISBR,
        max_jump=top[KIND_JUMP],
        max_aux_index=top[KIND_AUX],
        max_input_index=top[KIND_IN],
        max_param_index=max(top[KIND_SPLIT], top[KIND_REPLY]),
        term_count=items.count(TERM),
        has_out_set_false=(KIND_OUT, SET_FALSE) in shapes,
        last_param_use=last_param_use,
    )


def actions(x: InstructionSequence) -> tuple[tuple[Row, ...], tuple[int, ...], int]:
    """The jump-free view of ``x``'s control flow: ``(rows, where, entry)``, kept on ``x``.

    A jump is not an action: control passes it on to its target.  ``rows``
    holds the rows of the other positions, in order, and ``rows[j - 1]``
    describes action j; its targets are action indices, found by following
    every jump chain, and 0 where control deadlocks (``#0``, or a move past
    the end).  ``where[j]`` is action j's position in ``x`` (``where[0]`` is
    0), and ``entry`` the action that control reaches from position 1.
    """
    return x._actions


def _actions(x: InstructionSequence) -> tuple[tuple[Row, ...], tuple[int, ...], int]:
    moves = x._moves
    k = len(moves)
    count = k - list(map(itemgetter(0), moves)).count(KIND_JUMP)
    acts = [None] * count
    where = [0] * (count + 1)
    # to[p]: the action that control at position p reaches, 0 where it
    # deadlocks.  Moves only go forward, so one backward pass resolves every
    # chain by the time it is reached.  A move d from pos reaches to[pos + d]
    # when 0 < d <= k - pos; a move of 0 or past the end deadlocks.
    to = [0] * (k + 1)
    j = count
    for pos, (kind, slot, method, d_true, d_false) in zip(range(k, 0, -1), reversed(moves)):
        if kind == KIND_JUMP:
            to[pos] = to[pos + d_true] if 0 < d_true <= k - pos else 0
        else:
            to[pos] = j
            where[j] = pos
            j -= 1
            acts[j] = (
                kind,
                slot,
                method,
                to[pos + d_true] if 0 < d_true <= k - pos else 0,
                to[pos + d_false] if 0 < d_false <= k - pos else 0,
            )
    return tuple(acts), tuple(where), to[1]


# --- rendering --------------------------------------------------------------


def render_focus(f: Focus) -> str:
    if isinstance(f, InReg):
        return f"in:{f.index}"
    if isinstance(f, AuxReg):
        return f"aux:{f.index}"
    return "out"


def render_basic(b: BasicInstruction) -> str:
    if isinstance(b, RegisterOp):
        return f"{render_focus(b.focus)}.{b.method}"
    if isinstance(b, SplitOp):
        return f"split:{b.param}"
    return f"reply:{b.param}"


def render_instruction(u: PrimitiveInstruction) -> str:
    return u._text


def render(x: InstructionSequence) -> str:
    """Canonical text: instructions joined by ``" ; "``."""
    return " ; ".join(map(attrgetter("_text"), x.items))


# --- parsing ----------------------------------------------------------------

_INSTR_RE = re.compile(
    r"""^(?:
        (?P<term>!)
      | \#(?P<jump>\d+)
      | (?P<sign>[+-])?(?P<body>
            (?:in:(?P<in>\d+)|aux:(?P<aux>\d+)|out)\.(?P<method>get|set:T|set:F)
          | split:(?P<split>\d+)
          | reply:(?P<reply>\d+)
        )
    )$""",
    re.VERBOSE,
)


def _parse_one(token: str, position: int) -> PrimitiveInstruction:
    m = _INSTR_RE.match(token)
    if m is None:
        raise InstructionSyntaxError(f"malformed instruction {token!r}", position)
    if m.group("term"):
        return TERM
    if m.group("jump") is not None:
        return Jump(int(m.group("jump")))

    try:  # the constructors check the indices
        if m.group("split") is not None:
            basic: BasicInstruction = SplitOp(int(m.group("split")))
        elif m.group("reply") is not None:
            basic = ReplyOp(int(m.group("reply")))
        elif m.group("in") is not None:
            basic = RegisterOp(InReg(int(m.group("in"))), m.group("method"))
        elif m.group("aux") is not None:
            basic = RegisterOp(AuxReg(int(m.group("aux"))), m.group("method"))
        else:
            basic = RegisterOp(OUT, m.group("method"))
    except ValueError as exc:
        raise InstructionSyntaxError(str(exc), position) from None

    sign = m.group("sign")
    if sign == "+":
        return PosTest(basic)
    if sign == "-":
        return NegTest(basic)
    return Plain(basic)


def parse(text: str) -> InstructionSequence:
    """Parse instruction-sequence text (whitespace-insensitive, ';' separated)."""
    if not text.strip():
        raise InstructionSyntaxError("empty instruction sequence", 0)
    items = []
    parsed: dict[str, PrimitiveInstruction] = {}  # instructions are values, so a repeat reuses the first parse
    offset = 0
    for chunk in text.split(";"):
        token = "".join(chunk.split())
        u = parsed.get(token)
        if u is None:
            start = offset + len(chunk) - len(chunk.lstrip())
            if not token:
                raise InstructionSyntaxError("empty instruction between separators", start)
            u = parsed[token] = _parse_one(token, start)
        items.append(u)
        offset += len(chunk) + 1
    return InstructionSequence(tuple(items))
