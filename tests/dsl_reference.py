r"""The character-level parser that ``optlab.dsl.parse`` replaced, kept as a
reference: ``test_dsl_reference.py`` asserts that both give equal documents,
and equal errors, on the fixtures, on generated ladders and on mutants.

It splits lines with ``str.splitlines``, which also breaks at ``\v``,
``\f``, ``\x1c``-``\x1e``, ``\x85``, U+2028 and U+2029; ``optlab.dsl``
ends a line only at ``\n``, ``\r\n`` and ``\r``.
"""

from __future__ import annotations

import cmath
import json
import math
import re

from optlab.backends import BACKENDS
from optlab.backends.base import Payload
from optlab.dsl import (
    BoxDef,
    CircuitDef,
    Document,
    IdExpr,
    ParExpr,
    Ref,
    SeqExpr,
    SwapExpr,
    SystemDecl,
    TestDef,
    TraceExpr,
)
from optlab.errors import DslParseError

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
