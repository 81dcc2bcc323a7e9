"""Primitive instructions and finite single-pass instruction sequences.

An instruction sequence is a nonempty finite sequence of primitive
instructions: plain basic instructions, positive/negative test
instructions, forward jumps ``#l``, and the termination instruction ``!``.
Basic instructions address named Boolean registers (``in:i``, ``aux:i``,
``out``) with ``get``/``set:T``/``set:F`` methods, or fork/reply on a
Boolean parameter (``split:p``, ``reply:p``).

Everything here is immutable and purely syntactic: parsing, canonical
rendering, length, and one walk over a sequence that gives both its
``decode`` rows (each position's successor after each reply) and its
``classify`` profile (the vocabularies used elsewhere in the package).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
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


# --- register foci ---------------------------------------------------------


@dataclass(frozen=True)
class InReg:
    """The i-th input register."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"input register index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class AuxReg:
    """The i-th auxiliary register."""

    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"auxiliary register index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class OutReg:
    """The single output register."""


OUT = OutReg()

Focus = Union[InReg, AuxReg, OutReg]


# --- basic instructions ----------------------------------------------------


@dataclass(frozen=True)
class RegisterOp:
    """A register method call ``focus.method``."""

    focus: Focus
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown register method {self.method!r}")


@dataclass(frozen=True)
class SplitOp:
    """Fork execution on Boolean parameter ``param``."""

    param: int

    def __post_init__(self):
        if self.param < 1:
            raise ValueError(f"split parameter must be >= 1, got {self.param}")


@dataclass(frozen=True)
class ReplyOp:
    """Reply with the instantiated value of Boolean parameter ``param``."""

    param: int

    def __post_init__(self):
        if self.param < 1:
            raise ValueError(f"reply parameter must be >= 1, got {self.param}")


BasicInstruction = Union[RegisterOp, SplitOp, ReplyOp]


# --- primitive instructions ------------------------------------------------

# Each primitive instruction has ``offsets``: how far control moves on after
# a True and after a False reply (None for ``!``).  This is the one place the
# rule is written; ``decode`` and everything else that needs a successor use it.


@dataclass(frozen=True)
class Plain:
    basic: BasicInstruction

    offsets = (1, 1)


@dataclass(frozen=True)
class PosTest:
    basic: BasicInstruction

    offsets = (1, 2)


@dataclass(frozen=True)
class NegTest:
    basic: BasicInstruction

    offsets = (2, 1)


@dataclass(frozen=True)
class Jump:
    """Forward jump over ``distance`` instructions; 0 deadlocks by definition."""

    distance: int

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError("jump distance must be a natural number")

    @property
    def offsets(self) -> tuple[int, int]:
        return self.distance, self.distance


@dataclass(frozen=True)
class Term:
    """The termination instruction ``!``."""

    offsets = None


TERM = Term()

PrimitiveInstruction = Union[Plain, PosTest, NegTest, Jump, Term]


@dataclass(frozen=True)
class InstructionSequence:
    """A nonempty, immutable sequence of primitive instructions."""

    items: tuple[PrimitiveInstruction, ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("instruction sequence must be nonempty")

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

    @cached_property
    def _decoded(self) -> tuple[tuple["Row", ...], "ClassProfile"]:
        # Sequences are immutable, so each is walked at most once.
        return _decode(self)


def seq(*items: PrimitiveInstruction) -> InstructionSequence:
    """Convenience constructor."""
    return InstructionSequence(tuple(items))


def psize(x: InstructionSequence) -> int:
    """Length of an instruction sequence."""
    return len(x.items)


# --- classification --------------------------------------------------------


@dataclass(frozen=True)
class ClassProfile:
    """Syntactic classification of a sequence.

    ``is_isbr``: all basics are register ops reading in/aux and writing
    aux/out.  ``is_isbrna``: additionally no auxiliary registers (reads of
    inputs and writes of out only).  ``is_sisbr``: input reads, ``out.set:T``,
    and split/reply only.  The ``max_*`` fields are maxima over occurring
    indices, 0 when absent.  ``last_param_use``: each parameter's last split
    or reply position.
    """

    is_isbr: bool
    is_isbrna: bool
    is_sisbr: bool
    max_jump: int
    max_aux_index: int
    max_input_index: int
    max_param_index: int
    term_count: int
    has_out_set_false: bool
    last_param_use: dict[int, int] = field(hash=False)


def classify(x: InstructionSequence) -> ClassProfile:
    """The syntactic class profile of ``x``, worked out with ``decode(x)`` and kept on ``x``."""
    return x._decoded[1]


# --- decoded control flow ----------------------------------------------------


# Decoded kinds.  The register kinds come first, so that a register kind
# indexes a list of register banks.
KIND_IN = 0
KIND_AUX = 1
KIND_OUT = 2
KIND_SPLIT = 3
KIND_REPLY = 4
KIND_JUMP = 5
KIND_TERM = 6


# One decoded position, as a plain tuple ``(kind, slot, method, on_true,
# on_false)``: what it does and which position comes next.  ``slot`` is the
# register index (0 for ``out``) or the parameter of a split or reply, 0
# otherwise; ``method`` is the register method, None otherwise.  ``on_true``
# and ``on_false`` are the positions reached after a True and after a False
# reply, 0 where control deadlocks (``#0``, or a move past the end).  A jump
# has its target in both, ``!`` has 0 in both.  Readers unpack or index it.
Row = tuple[int, int, str | None, int, int]


_FOCUS_KINDS = {InReg: KIND_IN, AuxReg: KIND_AUX, OutReg: KIND_OUT}
_TERM_ROW = (KIND_TERM, 0, None, 0, 0)


def decode(x: InstructionSequence) -> tuple[Row, ...]:
    """The rows of ``x``: ``decode(x)[i - 1]`` describes position i.

    Worked out with ``classify(x)`` and kept on ``x``.
    """
    return x._decoded[0]


# Classes by the (kind, method) pairs that occur.  Writes of inputs, reads of
# out and split/reply leave the register classes; anything but input reads,
# ``out.set:T`` and split/reply leaves the fork/reply class.
_NOT_ISBR = {(KIND_IN, SET_TRUE), (KIND_IN, SET_FALSE), (KIND_OUT, GET), (KIND_SPLIT, None), (KIND_REPLY, None)}
_SISBR = {(KIND_IN, GET), (KIND_OUT, SET_TRUE), (KIND_SPLIT, None), (KIND_REPLY, None)}


def _decode(x: InstructionSequence) -> tuple[tuple[Row, ...], ClassProfile]:
    items = x.items
    k = len(items)
    positions = list(range(k + 1))  # one int per position, shared by the rows leading there
    rows = []
    shapes = set()  # the (kind, method) pairs of the basic instructions
    top = [0] * (KIND_JUMP + 1)  # per kind, the largest slot, and at KIND_JUMP the largest distance
    term_count = 0
    last_param_use = {}
    for pos, u in enumerate(items, start=1):
        t = type(u)
        if t is Term:
            rows.append(_TERM_ROW)
            term_count += 1
            continue
        on_true, on_false = u.offsets
        on_true = positions[pos + on_true] if 0 < on_true <= k - pos else 0
        on_false = positions[pos + on_false] if 0 < on_false <= k - pos else 0
        if t is Jump:
            rows.append((KIND_JUMP, 0, None, on_true, on_false))
            if u.distance > top[KIND_JUMP]:
                top[KIND_JUMP] = u.distance
            continue
        b = u.basic
        if type(b) is RegisterOp:
            f = b.focus
            kind = _FOCUS_KINDS[type(f)]
            slot = 0 if kind == KIND_OUT else f.index
            method = b.method
        else:
            kind = KIND_SPLIT if type(b) is SplitOp else KIND_REPLY
            slot = b.param
            method = None
            last_param_use[slot] = pos
        rows.append((kind, slot, method, on_true, on_false))
        shapes.add((kind, method))
        if slot > top[kind]:
            top[kind] = slot

    is_isbr = shapes.isdisjoint(_NOT_ISBR)
    profile = ClassProfile(
        is_isbr=is_isbr,
        is_isbrna=is_isbr and not top[KIND_AUX],
        is_sisbr=shapes <= _SISBR,
        max_jump=top[KIND_JUMP],
        max_aux_index=top[KIND_AUX],
        max_input_index=top[KIND_IN],
        max_param_index=max(top[KIND_SPLIT], top[KIND_REPLY]),
        term_count=term_count,
        has_out_set_false=(KIND_OUT, SET_FALSE) in shapes,
        last_param_use=last_param_use,
    )
    return tuple(rows), profile


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
    if isinstance(u, Term):
        return "!"
    if isinstance(u, Jump):
        return f"#{u.distance}"
    if isinstance(u, Plain):
        return render_basic(u.basic)
    if isinstance(u, PosTest):
        return "+" + render_basic(u.basic)
    return "-" + render_basic(u.basic)


def render(x: InstructionSequence) -> str:
    """Canonical text: instructions joined by ``" ; "``."""
    return " ; ".join(render_instruction(u) for u in x.items)


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
