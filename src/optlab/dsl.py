"""Line-oriented text format for theories, named payloads, and circuits.

One statement per line, ``#`` starts a comment, and numeric payloads are
literal JSON arrays (complex scalars as two-element ``[re,im]`` pairs).
A file fixes the theory, declares primitive systems, defines named states,
effects, boxes, and outcome-labelled tests by payload, and wires names into
circuits with ``;`` (in sequence) and ``*`` (side by side)::

    theory quantum
    system Q dim=2
    state plus : Q = vec=[0.70710678118654752, 0.70710678118654752]
    box flip : Q -> Q = kraus=[[[0,1],[1,0]]]
    circuit readout = plus ; flip ; trace(Q)

A state is a box from the trivial system ``I`` and an effect a box into it,
so all three parse to one ``BoxDef`` whose ``kind`` keeps the keyword, and
compile the same way.

Parsing, printing, and binding are separate stages: ``parse`` produces an
abstract document (or the first located error), ``print_document`` renders
it canonically so parse/print round-trips are exact, and ``bind`` compiles
every payload onto the declared backend, certifying the kernels of one
shape together, then reports the first faulty statement.

``parse`` reads each line in one pass: one compiled pattern splits it into
tokens, and a recursive descent walks the token list.  A payload literal
made of plain numbers and brackets is one token, which the C JSON scanner
reads; a literal it refuses is scanned bracket by bracket and parsed again,
which locates its first fault.  Columns are computed from token offsets
only when an error is raised.  Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .backends import BACKENDS, get_backend
from .backends.base import Channel, Payload, StateVector, TheoryBackend
from .diagram import (
    Diagram,
    Identity,
    OutcomeSpace,
    PrimitiveBox,
    Swap,
    SystemType,
    Test,
    par,
    seq,
    singleton_test,
    test_par,
    test_seq,
)
from .errors import DslParseError, OptlabError, UnknownBoxError
from .evaluator import trace_box
from .serialize import format_float

__all__ = [
    "SystemDecl",
    "BoxDef",
    "TestDef",
    "CircuitDef",
    "Ref",
    "IdExpr",
    "SwapExpr",
    "TraceExpr",
    "SeqExpr",
    "ParExpr",
    "Document",
    "Workbench",
    "parse",
    "print_document",
    "bind",
    "load",
]

#: Deepest nesting of parentheses in a circuit, or of brackets in a payload.
MAX_NESTING = 100
#: Most digits in an integer (a system dimension), so it fits a 64-bit array shape.
MAX_DIGITS = 18

# ASCII only: a Unicode letter or digit never scans as a name, label or integer
_BLANKS = re.compile(r"[ \t]*")
_KEYWORD = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")  # statement words and theory names
_HEAD = re.compile(r"[ \t]*(" + _KEYWORD.pattern + r")?")  # a line's statement word
# One token after blanks: the arrow, a word (a name, a label or an integer), a
# payload literal made of plain numbers and brackets, or any other character.
# A name holds no '-', so ``Q0->Q1`` is a name, the arrow and a name.
_TOKEN = re.compile(r"[ \t]*(->|[A-Za-z0-9_]+|\[[-+.,0-9eE \t\[\]]*\]|.)", re.DOTALL)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")
_WORD_START = _NAME_START | _DIGITS
_INT = re.compile(r"[0-9]+")
_BRACKET = re.compile(r"[\[\]]")


# ---------------------------------------------------------------------------
# abstract document
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemDecl:
    name: str
    dim: int
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class BoxDef:
    """A ``state``, ``effect`` or ``box`` definition, by ``kind``; a state's
    input word and an effect's output word are ``()``.  The payload holds
    nested tuples."""

    kind: str
    name: str
    input_word: tuple[str, ...]
    output_word: tuple[str, ...]
    payload: Payload
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class TestDef:
    name: str
    input_word: tuple[str, ...]
    output_word: tuple[str, ...]
    labels: tuple[str, ...]
    branches: tuple[Payload, ...]
    line: int = field(compare=False, default=0)


# circuit expression terms


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class IdExpr:
    word: tuple[str, ...]


@dataclass(frozen=True)
class SwapExpr:
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class TraceExpr:
    word: tuple[str, ...]


@dataclass(frozen=True)
class SeqExpr:
    parts: tuple  # a parenthesized SeqExpr may follow the first part


@dataclass(frozen=True)
class ParExpr:
    parts: tuple  # grouped to the left; a parenthesized ParExpr may follow the first part


@dataclass(frozen=True)
class CircuitDef:
    name: str
    expr: object
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Document:
    theory: str
    statements: tuple

    @property
    def systems(self) -> dict[str, int]:
        return {s.name: s.dim for s in self.statements if isinstance(s, SystemDecl)}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class _Line:
    """The tokens of one line after its statement word: each the text
    ``_TOKEN`` matches after blanks, then ``""``, which no token equals.

    The parse functions below take the index of the next token and return
    what they read with the index after it.  A column is computed from a
    token's offset, and only for an error."""

    __slots__ = ("text", "line", "start", "toks", "depth", "_spans")

    def __init__(self, text: str, line_no: int, start: int) -> None:
        self.text = text
        self.line = line_no
        self.start = start  # offset of the first token's blanks
        self.toks = _TOKEN.findall(text, start)
        self.toks.append("")
        self.depth = 0  # open parentheses in a circuit expression
        self._spans = None

    def spans(self) -> list[tuple[int, int]]:
        """Each token's (start, end) offsets in the line."""
        if self._spans is None:
            self._spans = [m.span(1) for m in _TOKEN.finditer(self.text, self.start)]
        return self._spans

    def cut(self, i: int, end: int) -> None:
        """End token ``i`` at offset ``end``, and tokenize the rest of the
        line again from there."""
        spans = self.spans()
        rest = list(_TOKEN.finditer(self.text, end))
        start = spans[i][0]
        self.toks[i:] = [self.text[start:end], *(m.group(1) for m in rest), ""]
        spans[i:] = [(start, end), *(m.span(1) for m in rest)]

    def fail(self, i: int, message: str, expected=None, after: bool = False, col: int | None = None):
        """Raise at token ``i`` (or the end of the line), or, ``after``, just
        past token ``i - 1``; or at ``col``."""
        if col is None:
            spans = self.spans()
            if after:
                col = (spans[i - 1][1] if i else self.start) + 1
            else:
                col = (spans[i][0] if i < len(spans) else len(self.text)) + 1
        raise DslParseError(message, self.line, col, expected)

    def expect(self, i: int, token: str) -> int:
        if self.toks[i] != token:
            self.fail(i, f"missing {token!r}", [repr(token)])
        return i + 1

    def word(self, i: int, words, message: str) -> str:
        """Token ``i`` if it is one of ``words``; otherwise raise, just past
        it if it is a name and at it if not."""
        tok = self.toks[i]
        if tok not in words:
            named = tok[:1] in _NAME_START
            self.fail(i + named, message, list(words), after=named)
        return tok

    def name(self, i: int, what: str) -> str:
        tok = self.toks[i]
        if tok[:1] not in _NAME_START:
            self.fail(i, f"missing {what}", ["name"])
        return tok

    def label(self, i: int, what: str = "outcome label") -> str:
        tok = self.toks[i]
        if tok[:1] not in _WORD_START:
            self.fail(i, f"missing {what}", ["label"])
        return tok

    def end(self, i: int) -> None:
        if self.toks[i]:
            rest = self.text[self.spans()[i][0]:]
            self.fail(i, f"unexpected trailing text {rest!r}", ["end of line"])


def _parse_sysexpr(ln: _Line, i: int) -> tuple[tuple[str, ...], int]:
    toks = ln.toks
    labels: list[str] = []
    while True:
        name = toks[i]
        if name[:1] not in _NAME_START:
            ln.fail(i, "missing system expression", ["system name", "I"])
        if name != "I":
            labels.append(name)
        if toks[i + 1] != "*":
            return tuple(labels), i + 1
        i += 2


def _scan_bracketed(ln: _Line, i: int) -> tuple[str, int]:
    """Take a balanced [...] span at token ``i``, which then holds it alone;
    returns (span, col)."""
    if ln.toks[i][:1] != "[":
        ln.fail(i, "missing '[' opening a payload literal", ["'['"])
    start = ln.spans()[i][0]
    depth = 0
    for m in _BRACKET.finditer(ln.text, start):
        if m.group() == "[":
            depth += 1
            if depth > MAX_NESTING:
                ln.fail(i, f"payload literal nested deeper than {MAX_NESTING}", col=m.start() + 1)
        else:
            depth -= 1
            if depth == 0:
                ln.cut(i, m.end())
                return ln.text[start:m.end()], start + 1
    ln.fail(i, "unbalanced brackets in payload literal", col=start + 1)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name!r} is not allowed")


def _finite(convert):
    """A JSON number hook: ``convert(text)``, refused if it overflows a float."""
    def number(text: str):
        x = convert(text)
        if not math.isfinite(float(text)):
            _reject_constant(text)
        return x
    return number


_NUMBERS = {
    "parse_constant": _reject_constant,
    "parse_float": _finite(float),
    "parse_int": _finite(int),
}


def _parse_payload(ln: _Line, i: int, theory: str) -> tuple[Payload, int]:
    kind = ln.word(i, Payload.KINDS, "missing payload kind")
    i = ln.expect(i + 1, "=")
    complex_ok = BACKENDS[theory].pair_payloads and kind != "stoch"
    literal = ln.toks[i]
    if literal[:1] == "[" and len(literal) > 1:
        # a literal of numbers and brackets is one token, read by C-level calls;
        # one they refuse is scanned and parsed again below, which locates its first fault
        data = _literal_tree(Payload.DEPTH[kind], literal, complex_ok)
        if data is not None:
            return Payload(kind, data), i + 1
    span, col = _scan_bracketed(ln, i)
    try:
        raw = json.loads(span, **_NUMBERS)
    except json.JSONDecodeError as e:
        ln.fail(i, f"bad payload literal: {e.msg}", col=col + e.pos)
    except ValueError as e:
        ln.fail(i, f"bad payload literal: {e}", col=col)
    try:
        data = _payload_tree(kind, raw, complex_ok)
    except ValueError as e:
        ln.fail(i, str(e), col=col)
    return Payload(kind, data), i + 1


_scan_json = json.JSONDecoder().scan_once  # the C scanner: (value, end) of the value at an offset


def _literal_tree(depth: int, literal: str, complex_ok: bool) -> tuple | None:
    """``_payload_tree`` of a literal whose scalars are all numbers, or all
    [re,im] pairs, in non-empty lists ``depth`` deep whose lengths agree at
    each depth; None for any other, or for one with a number past the float
    range.  A literal token holds no letter but ``e``, so its JSON holds
    numbers and lists alone."""
    try:
        raw, end = _scan_json(literal, 0)
        if end != len(literal):
            return None
        first = raw
        for _ in range(depth):
            first = first[0]
        row = _pair_row if complex_ok and type(first) is list else _number_row
        if depth == 1:
            tree = row(raw)
            rows = (tree,)
        elif depth == 2:
            tree = rows = tuple(map(row, raw))
        else:
            tree = tuple([tuple(map(row, m)) for m in raw])
            if len({len(m) for m in tree}) != 1:
                return None
            rows = tuple(chain.from_iterable(tree))
        if len(set(map(len, rows))) != 1 or max(map(abs, chain.from_iterable(rows))) == math.inf:
            return None
    except (ValueError, TypeError, IndexError, OverflowError, RecursionError, StopIteration):
        return None
    return tree


def _number_row(row: list) -> tuple:
    return tuple(map(float, row))  # a list in place of a number raises


def _pair_row(row: list) -> tuple:
    return tuple([complex(re, im) for re, im in row])  # so does a number, or a list not of two


_NUMBER_TYPES = (int, float)  # as JSON gives them; a bool is neither


def _scalar(x, complex_ok: bool):
    """A payload entry as a float or complex; past the float range it raises."""
    if type(x) in _NUMBER_TYPES:
        x = float(x)
    elif (
        complex_ok
        and type(x) is list
        and len(x) == 2
        and type(x[0]) in _NUMBER_TYPES
        and type(x[1]) in _NUMBER_TYPES
    ):
        x = complex(float(x[0]), float(x[1]))
    elif isinstance(x, bool):
        raise ValueError("payload entries must be numbers")
    elif isinstance(x, list) and not complex_ok:
        raise ValueError("complex [re,im] entries are not allowed here")
    else:
        raise ValueError(f"payload entry {x!r} is neither a number nor a [re,im] pair")
    if not cmath.isfinite(x):
        raise ValueError("non-finite number")
    return x


def _vector(x, complex_ok):
    if not isinstance(x, list) or not x:
        raise ValueError("expected a non-empty vector")
    return tuple(_scalar(v, complex_ok) for v in x)


def _matrix(x, complex_ok):
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise ValueError("expected a non-empty matrix (list of rows)")
    rows = tuple(_vector(r, complex_ok) for r in x)
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return rows


def _payload_tree(kind: str, raw, complex_ok: bool) -> tuple:
    if kind == "vec":
        return _vector(raw, complex_ok)
    if kind in ("dens", "choi", "stoch"):
        return _matrix(raw, complex_ok)
    if kind == "kraus":
        if not isinstance(raw, list) or not raw:
            raise ValueError("expected a non-empty list of matrices")
        mats = tuple(_matrix(m, complex_ok) for m in raw)
        if len({(len(m), len(m[0])) for m in mats}) != 1:
            raise ValueError("kraus matrices have unequal shapes")
        return mats
    raise ValueError(f"unknown payload kind {kind!r}")


def _parse_chain(ln: _Line, i: int, op: str, parse_part, node):
    first, i = parse_part(ln, i)
    toks = ln.toks
    if toks[i] != op:
        return first, i
    parts = [first]
    while toks[i] == op:
        part, i = parse_part(ln, i + 1)
        parts.append(part)
    if isinstance(first, node):  # both operators group to the left: (a ; b) ; c is a ; b ; c
        parts[:1] = first.parts
    return node(tuple(parts)), i


def _parse_expr(ln: _Line, i: int):
    return _parse_chain(ln, i, ";", _parse_par, SeqExpr)


def _parse_par(ln: _Line, i: int):
    return _parse_chain(ln, i, "*", _parse_atom, ParExpr)


_TERMS = {"id": IdExpr, "swap": SwapExpr, "trace": TraceExpr}


def _parse_atom(ln: _Line, i: int):
    tok = ln.toks[i]
    if tok == "(":
        if ln.depth == MAX_NESTING:
            ln.fail(i, f"parentheses nested deeper than {MAX_NESTING}", col=ln.spans()[i][0] + 1)
        ln.depth += 1
        inner, i = _parse_expr(ln, i + 1)
        i = ln.expect(i, ")")
        ln.depth -= 1
        return inner, i
    if tok[:1] not in _NAME_START:
        ln.fail(i, "missing circuit term", ["name", "id(", "swap(", "trace(", "("])
    node = _TERMS.get(tok)
    if node is None:
        return Ref(tok), i + 1
    word, i = _parse_sysexpr(ln, ln.expect(i + 1, "("))
    if node is not SwapExpr:
        return node(word), ln.expect(i, ")")
    right, i = _parse_sysexpr(ln, ln.expect(i, ","))
    return SwapExpr(word, right), ln.expect(i, ")")


_STATEMENT_WORDS = ("theory", "system", "state", "effect", "box", "test", "circuit")


def parse(text: str) -> Document:
    """Parse a workbench file; the first problem raises a located error.
    Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line."""
    theory: str | None = None
    statements: list = []
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line:
            continue
        m = _HEAD.match(line)
        head = m.group(1)
        if head not in _STATEMENT_WORDS:
            found = head if head is not None else line[m.end()]
            raise DslParseError(f"unknown statement {found!r}", line_no, 1, list(_STATEMENT_WORDS))
        if head == "theory":
            if theory is not None:
                raise DslParseError("duplicate theory declaration", line_no, 1)
            if statements:
                raise DslParseError("the theory declaration must come first", line_no, 1)
            at = _BLANKS.match(line, m.end()).end()
            name = _KEYWORD.match(line, at)  # a theory name may hold '-', as quantum-real does
            if name is None or name.group() not in BACKENDS:
                col = (at if name is None else name.end()) + 1
                raise DslParseError("unknown theory", line_no, col, list(BACKENDS))
            theory = name.group()
            _Line(line, line_no, name.end()).end(0)
            continue
        if theory is None:
            raise DslParseError("file must start with a theory declaration", line_no, 1,
                                ["theory"])
        ln = _Line(line, line_no, m.end())
        toks = ln.toks
        if head == "system":
            name = ln.name(0, "system name")
            if name == "I":
                ln.fail(1, "'I' names the trivial system and cannot be declared", after=True)
            ln.word(1, ("dim",), "missing 'dim='")
            tok = toks[ln.expect(2, "=")]
            if tok[:1] not in _DIGITS:
                ln.fail(3, "missing system dimension", ["integer"])
            digits = _INT.match(tok).group()
            if len(digits) < len(tok):  # a word such as 12ab: the integer ends at its letters
                ln.cut(3, ln.spans()[3][0] + len(digits))
            if len(digits) > MAX_DIGITS:
                ln.fail(3, f"system dimension has more than {MAX_DIGITS} digits")
            dim = int(digits)
            if dim < 1:
                ln.fail(4, "system dimension must be at least 1", after=True)
            ln.end(4)
            statements.append(SystemDecl(name, dim, line_no))
        elif head == "circuit":
            name = ln.name(0, "circuit name")
            expr, i = _parse_expr(ln, ln.expect(1, "="))
            ln.end(i)
            statements.append(CircuitDef(name, expr, line_no))
        else:  # state, effect, box or test: a name, its wires, then its payloads
            name = ln.name(0, f"{head} name")
            win, i = _parse_sysexpr(ln, ln.expect(1, ":"))
            if head == "state":
                win, wout = (), win
            elif head == "effect":
                wout = ()
            else:
                wout, i = _parse_sysexpr(ln, ln.expect(i, "->"))
            if head != "test":
                payload, i = _parse_payload(ln, ln.expect(i, "="), theory)
                ln.end(i)
                statements.append(BoxDef(head, name, win, wout, payload, line_no))
                continue
            ln.word(i, ("outcomes",), "missing 'outcomes={...}'")
            i = ln.expect(ln.expect(i + 1, "="), "{")
            labels = [ln.label(i)]
            i += 1
            while toks[i] == ",":
                labels.append(ln.label(i + 1))
                i += 2
            i = ln.expect(i, "}")
            if len(set(labels)) != len(labels):
                ln.fail(i, "duplicate outcome label", after=True)
            i = ln.expect(i, "{")
            branch_map: dict[str, Payload] = {}
            while True:
                label = ln.label(i, "branch label")
                i += 1
                if label not in labels:
                    ln.fail(i, f"branch label {label!r} is not in the outcome set", labels, after=True)
                if label in branch_map:
                    ln.fail(i, f"duplicate branch for outcome {label!r}", after=True)
                branch_map[label], i = _parse_payload(ln, ln.expect(i, ":"), theory)
                if toks[i] == ";":
                    i += 1
                    if toks[i] != "}":
                        continue
                i = ln.expect(i, "}")
                break
            missing = [l for l in labels if l not in branch_map]
            if missing:
                ln.fail(i, f"missing branch for outcome {missing[0]!r}", after=True)
            ln.end(i)
            statements.append(TestDef(
                name, win, wout, tuple(labels),
                tuple(branch_map[l] for l in labels), line_no,
            ))
    if theory is None:
        raise DslParseError("empty file: missing theory declaration", 1, 1,
                            expected=["theory"])
    return Document(theory, tuple(statements))


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------


def _print_scalar(x, pair_form: bool) -> str:
    if pair_form:
        z = complex(x)
        return f"[{format_float(z.real)},{format_float(z.imag)}]"
    return format_float(float(np.real(x)))


def _print_payload(p: Payload, theory: str) -> str:
    pair_form = BACKENDS[theory].pair_payloads and p.kind != "stoch"

    def render(node) -> str:
        if isinstance(node, tuple):
            return "[" + ",".join(render(v) for v in node) + "]"
        return _print_scalar(node, pair_form)

    return f"{p.kind}={render(p.data)}"


def _print_word(word: tuple[str, ...]) -> str:
    return " * ".join(word) if word else "I"


def _print_wires(kind: str, input_word: tuple[str, ...], output_word: tuple[str, ...]) -> str:
    """A state names its output word, an effect its input word, the rest both."""
    if kind == "state":
        return _print_word(output_word)
    if kind == "effect":
        return _print_word(input_word)
    return f"{_print_word(input_word)} -> {_print_word(output_word)}"


def _print_expr(e) -> str:
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, IdExpr):
        return f"id({_print_word(e.word)})"
    if isinstance(e, SwapExpr):
        return f"swap({_print_word(e.left)}, {_print_word(e.right)})"
    if isinstance(e, TraceExpr):
        return f"trace({_print_word(e.word)})"
    if isinstance(e, (SeqExpr, ParExpr)):
        # a part of the same kind is grouped on purpose; ';' binds looser than '*'
        op, grouped = (" ; ", SeqExpr) if isinstance(e, SeqExpr) else (" * ", (SeqExpr, ParExpr))
        return op.join(f"({_print_expr(p)})" if isinstance(p, grouped) else _print_expr(p) for p in e.parts)
    raise OptlabError(f"cannot print expression node {type(e).__name__}")


def print_document(doc: Document) -> str:
    """Render canonically; parsing the result reproduces the document."""
    lines = [f"theory {doc.theory}"]
    for s in doc.statements:
        if isinstance(s, SystemDecl):
            lines.append(f"system {s.name} dim={s.dim}")
        elif isinstance(s, BoxDef):
            wires = _print_wires(s.kind, s.input_word, s.output_word)
            lines.append(f"{s.kind} {s.name} : {wires} = {_print_payload(s.payload, doc.theory)}")
        elif isinstance(s, TestDef):
            branches = "; ".join(
                f"{label}: {_print_payload(p, doc.theory)}"
                for label, p in zip(s.labels, s.branches)
            )
            wires = _print_wires("test", s.input_word, s.output_word)
            lines.append(f"test {s.name} : {wires} "
                         f"outcomes={{{','.join(s.labels)}}} {{ {branches} }}")
        elif isinstance(s, CircuitDef):
            lines.append(f"circuit {s.name} = {_print_expr(s.expr)}")
        else:
            raise OptlabError(f"cannot print statement {type(s).__name__}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------


@dataclass
class Workbench:
    """A document compiled onto its backend: everything named, resolved."""

    document: Document
    backend: TheoryBackend
    bindings: dict[str, Channel]
    circuits: dict[str, Diagram]
    tests: dict[str, Test]
    kinds: dict[str, str]  # name -> state | effect | box | test | circuit

    def state_vector(self, name: str) -> StateVector:
        if self.kinds.get(name) != "state":
            raise UnknownBoxError(f"no state named {name!r}")
        return self.backend.channel_state(self.bindings[name])

    def diagram(self, name: str) -> Diagram:
        """Any named deterministic piece: box, state, effect, or circuit."""
        kind = self.kinds.get(name)
        if kind == "circuit":
            return self.circuits[name]
        if kind in ("state", "effect", "box"):
            ch = self.bindings[name]
            return PrimitiveBox(name, ch.input_type, ch.output_type)
        if kind == "test":
            raise UnknownBoxError(f"{name!r} is a test, not a deterministic circuit")
        raise UnknownBoxError(f"no circuit, box, state, or effect named {name!r}")

    def test(self, name: str) -> Test:
        """A declared test or a circuit that composes tests."""
        if self.kinds.get(name) != "test":
            raise UnknownBoxError(f"no test or test circuit named {name!r}")
        return self.tests[name]


def _as_test(piece) -> Test:
    return piece if isinstance(piece, Test) else singleton_test(piece)


@contextmanager
def _located(line: int):
    """Re-raise package errors, other than parse errors, with the source line."""
    try:
        yield
    except OptlabError as exc:
        if not isinstance(exc, DslParseError):
            exc.args = (f"line {line}: {exc}",)
        raise


def bind(doc: Document) -> Workbench:
    """Compile a document onto its backend, certifying every payload.

    All payloads are compiled and certified first, each kernel shape in one
    stacked check; the statements are then bound in order, so the first
    error raised, and its line, are those of the first faulty statement."""
    backend = get_backend(doc.theory, doc.systems)
    wb = Workbench(doc, backend, {}, {}, {}, {})
    bindings, kinds = wb.bindings, wb.kinds

    def claim(name: str, kind: str, line: int) -> None:
        if name in kinds:
            raise DslParseError(f"duplicate definition of {name!r}", line, 1)
        kinds[name] = kind

    def word_of(labels: tuple[str, ...], line: int) -> SystemType:
        for label in labels:
            if label not in backend.systems:
                raise DslParseError(f"undeclared system {label!r}", line, 1)
        return SystemType(labels)

    def to_piece(e, line: int):
        """A circuit expression is a Diagram, or a Test once any test is wired in."""
        if isinstance(e, Ref):
            kind = kinds.get(e.name)
            if kind is None:
                raise DslParseError(f"unknown name {e.name!r}", line, 1)
            return wb.test(e.name) if kind == "test" else wb.diagram(e.name)
        if isinstance(e, IdExpr):
            return Identity(word_of(e.word, line))
        if isinstance(e, SwapExpr):
            return Swap(word_of(e.left, line), word_of(e.right, line))
        if isinstance(e, TraceExpr):
            return trace_box(word_of(e.word, line))
        if isinstance(e, (SeqExpr, ParExpr)):
            pieces = [to_piece(p, line) for p in e.parts]
            compose, compose_tests = (seq, test_seq) if isinstance(e, SeqExpr) else (par, test_par)
            with _located(line):
                if any(isinstance(p, Test) for p in pieces):
                    return compose_tests(*map(_as_test, pieces))
                return compose(*pieces)
        raise OptlabError(f"cannot bind expression node {type(e).__name__}")

    # every payload on declared wires is compiled and certified up front, in
    # statement order; the walk below takes each result, or raises its error, in turn
    declared = backend.systems
    pending = []
    for s in doc.statements:
        if isinstance(s, (BoxDef, TestDef)) and all(
            label in declared for label in s.input_word + s.output_word
        ):
            win, wout = SystemType(s.input_word), SystemType(s.output_word)
            payloads = (s.payload,) if isinstance(s, BoxDef) else s.branches
            pending.extend((payload, win, wout) for payload in payloads)
    results = iter(backend.compile_payloads(pending))

    def compiled(line: int) -> Channel:
        result = next(results)
        if isinstance(result, OptlabError):
            with _located(line):
                raise result
        return result

    for s in doc.statements:
        if isinstance(s, SystemDecl):
            continue
        if isinstance(s, BoxDef):
            claim(s.name, s.kind, s.line)
            word_of(s.input_word, s.line)
            word_of(s.output_word, s.line)
            bindings[s.name] = compiled(s.line)
        elif isinstance(s, TestDef):
            claim(s.name, "test", s.line)
            win = word_of(s.input_word, s.line)
            wout = word_of(s.output_word, s.line)
            branch_terms = []
            for label in s.labels:
                branch_name = f"{s.name}.{label}"
                bindings[branch_name] = compiled(s.line)
                branch_terms.append(PrimitiveBox(branch_name, win, wout))
            wb.tests[s.name] = Test(OutcomeSpace(s.labels), tuple(branch_terms))
        elif isinstance(s, CircuitDef):
            if s.name in kinds:
                raise DslParseError(f"duplicate definition of {s.name!r}", s.line, 1)
            piece = to_piece(s.expr, s.line)
            kind = "test" if isinstance(piece, Test) else "circuit"
            claim(s.name, kind, s.line)
            (wb.tests if kind == "test" else wb.circuits)[s.name] = piece
        else:
            raise OptlabError(f"cannot bind statement {type(s).__name__}")

    return wb


def load(text: str) -> Workbench:
    """Parse and bind in one go."""
    return bind(parse(text))
