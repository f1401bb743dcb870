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
"""

from __future__ import annotations

import cmath
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

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
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORD = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")  # statement words and theory names
_LABEL = re.compile(r"[A-Za-z0-9_]+")
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


class _Cursor:
    """Single-line scanner with 1-based column reporting."""

    def __init__(self, text: str, line_no: int) -> None:
        self.text = text
        self.line = line_no
        self.pos = 0
        self.depth = 0  # open parentheses in a circuit expression

    def fail(self, message: str, expected=None, col: int | None = None):
        raise DslParseError(message, self.line, self.pos + 1 if col is None else col, expected)

    def skip_ws(self) -> None:
        text, pos = self.text, self.pos
        if pos < len(text) and text[pos] in " \t":  # most calls find no blank
            self.pos = _BLANKS.match(text, pos).end()

    @property
    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_punct(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect_punct(self, token: str) -> None:
        if not self.try_punct(token):
            self.fail(f"missing {token!r}", expected=[repr(token)])

    def word(self, pattern: re.Pattern = _NAME) -> str | None:
        """The text ``pattern`` matches after blanks, consumed; None if it does not match."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def expect_name(self, what: str) -> str:
        w = self.word()
        if w is None:
            self.fail(f"missing {what}", expected=["name"])
        return w

    def expect_label(self, what: str = "outcome label") -> str:
        w = self.word(_LABEL)
        if w is None:
            self.fail(f"missing {what}", expected=["label"])
        return w

    def expect_int(self, what: str) -> int:
        w = self.word(_INT)
        if w is None:
            self.fail(f"missing {what}", expected=["integer"])
        if len(w) > MAX_DIGITS:
            self.fail(f"{what} has more than {MAX_DIGITS} digits", col=self.pos - len(w) + 1)
        return int(w)

    def expect_end(self) -> None:
        if not self.done:
            self.fail(f"unexpected trailing text {self.text[self.pos:]!r}",
                      expected=["end of line"])


def _parse_sysexpr(cur: _Cursor) -> tuple[str, ...]:
    labels: list[str] = []
    while True:
        name = cur.word()
        if name is None:
            cur.fail("missing system expression", expected=["system name", "I"])
        if name != "I":
            labels.append(name)
        if not cur.try_punct("*"):
            return tuple(labels)


def _scan_bracketed(cur: _Cursor) -> tuple[str, int]:
    """Take a balanced [...] span starting at the cursor; returns (span, col)."""
    cur.skip_ws()
    start = cur.pos
    if not cur.text.startswith("[", start):
        cur.fail("missing '[' opening a payload literal", expected=["'['"])
    depth = 0
    for m in _BRACKET.finditer(cur.text, start):
        if m.group() == "[":
            depth += 1
            if depth > MAX_NESTING:
                cur.fail(f"payload literal nested deeper than {MAX_NESTING}", col=m.start() + 1)
        else:
            depth -= 1
            if depth == 0:
                cur.pos = m.end()
                return cur.text[start:cur.pos], start + 1
    cur.fail("unbalanced brackets in payload literal", col=start + 1)


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
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _parse_payload(cur: _Cursor, theory: str) -> Payload:
    kind = cur.word()
    if kind is None or kind not in Payload.KINDS:
        cur.fail("missing payload kind", expected=list(Payload.KINDS))
    cur.expect_punct("=")
    complex_ok = BACKENDS[theory].pair_payloads and kind != "stoch"
    if cur.peek() == "[":
        # each number converted once; a literal that fails here is scanned and parsed
        # again below, which locates its first fault
        try:
            raw, end = _DECODER.raw_decode(cur.text, cur.pos)
            data = _payload_tree(kind, raw, complex_ok)
        except (ValueError, OverflowError, RecursionError):
            pass
        else:
            cur.pos = end
            return Payload(kind, data)
    span, col = _scan_bracketed(cur)
    try:
        raw = json.loads(span, **_NUMBERS)
    except json.JSONDecodeError as e:
        cur.fail(f"bad payload literal: {e.msg}", col=col + e.pos)
    except ValueError as e:
        cur.fail(f"bad payload literal: {e}", col=col)
    try:
        data = _payload_tree(kind, raw, complex_ok)
    except ValueError as e:
        cur.fail(str(e), col=col)
    return Payload(kind, data)


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


def _parse_chain(cur: _Cursor, op: str, parse_part, node):
    parts = [parse_part(cur)]
    while cur.try_punct(op):
        parts.append(parse_part(cur))
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], node):  # both operators group to the left: (a ; b) ; c is a ; b ; c
        parts[:1] = parts[0].parts
    return node(tuple(parts))


def _parse_expr(cur: _Cursor):
    return _parse_chain(cur, ";", _parse_par, SeqExpr)


def _parse_par(cur: _Cursor):
    return _parse_chain(cur, "*", _parse_atom, ParExpr)


def _parse_atom(cur: _Cursor):
    if cur.try_punct("("):
        if cur.depth == MAX_NESTING:
            cur.fail(f"parentheses nested deeper than {MAX_NESTING}", col=cur.pos)
        cur.depth += 1
        inner = _parse_expr(cur)
        cur.expect_punct(")")
        cur.depth -= 1
        return inner
    name = cur.word()
    if name is None:
        cur.fail("missing circuit term", expected=["name", "id(", "swap(", "trace(", "("])
    node = {"id": IdExpr, "swap": SwapExpr, "trace": TraceExpr}.get(name)
    if node is None:
        return Ref(name)
    cur.expect_punct("(")
    words = [_parse_sysexpr(cur)]
    if node is SwapExpr:
        cur.expect_punct(",")
        words.append(_parse_sysexpr(cur))
    cur.expect_punct(")")
    return node(*words)


_STATEMENT_WORDS = ("theory", "system", "state", "effect", "box", "test", "circuit")


def parse(text: str) -> Document:
    """Parse a workbench file; the first problem raises a located error."""
    theory: str | None = None
    statements: list = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        cur = _Cursor(line, line_no)
        head = cur.word(_KEYWORD)
        if head is None or head not in _STATEMENT_WORDS:
            cur.fail(
                f"unknown statement {head if head is not None else cur.peek()!r}",
                expected=list(_STATEMENT_WORDS), col=1,
            )
        if head == "theory":
            if theory is not None:
                cur.fail("duplicate theory declaration", col=1)
            if statements:
                cur.fail("the theory declaration must come first", col=1)
            name = cur.word(_KEYWORD)
            if name is None or name not in BACKENDS:
                cur.fail("unknown theory", expected=list(BACKENDS))
            theory = name
            cur.expect_end()
            continue
        if theory is None:
            cur.fail("file must start with a theory declaration", col=1,
                     expected=["theory"])
        if head == "system":
            name = cur.expect_name("system name")
            if name == "I":
                cur.fail("'I' names the trivial system and cannot be declared")
            w = cur.word()
            if w != "dim":
                cur.fail("missing 'dim='", expected=["dim"])
            cur.expect_punct("=")
            dim = cur.expect_int("system dimension")
            if dim < 1:
                cur.fail("system dimension must be at least 1")
            cur.expect_end()
            statements.append(SystemDecl(name, dim, line_no))
        elif head == "circuit":
            name = cur.expect_name("circuit name")
            cur.expect_punct("=")
            expr = _parse_expr(cur)
            cur.expect_end()
            statements.append(CircuitDef(name, expr, line_no))
        else:  # state, effect, box or test: a name, its wires, then its payloads
            name = cur.expect_name(f"{head} name")
            cur.expect_punct(":")
            win = _parse_sysexpr(cur)
            if head == "state":
                win, wout = (), win
            elif head == "effect":
                wout = ()
            else:
                cur.expect_punct("->")
                wout = _parse_sysexpr(cur)
            if head != "test":
                cur.expect_punct("=")
                payload = _parse_payload(cur, theory)
                cur.expect_end()
                statements.append(BoxDef(head, name, win, wout, payload, line_no))
                continue
            w = cur.word()
            if w != "outcomes":
                cur.fail("missing 'outcomes={...}'", expected=["outcomes"])
            cur.expect_punct("=")
            cur.expect_punct("{")
            labels = [cur.expect_label()]
            while cur.try_punct(","):
                labels.append(cur.expect_label())
            cur.expect_punct("}")
            if len(set(labels)) != len(labels):
                cur.fail("duplicate outcome label")
            cur.expect_punct("{")
            branch_map: dict[str, Payload] = {}
            while True:
                label = cur.expect_label("branch label")
                if label not in labels:
                    cur.fail(f"branch label {label!r} is not in the outcome set",
                             expected=labels)
                if label in branch_map:
                    cur.fail(f"duplicate branch for outcome {label!r}")
                cur.expect_punct(":")
                branch_map[label] = _parse_payload(cur, theory)
                if cur.try_punct(";") and cur.peek() != "}":
                    continue
                cur.expect_punct("}")
                break
            missing = [l for l in labels if l not in branch_map]
            if missing:
                cur.fail(f"missing branch for outcome {missing[0]!r}")
            cur.expect_end()
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
