"""Circuit intermediate representation.

Systems are finite words of primitive labels; circuits are immutable terms
built from primitive boxes, identities, wire swaps, sequential composition
and parallel (side-by-side) composition.  Outcome-indexed families of
circuits ("tests") ride on top of plain circuits and compose the same way,
with outcome sets multiplying as Cartesian products.  A test is either
given by its branches or composed by :func:`test_seq` / :func:`test_par`
from component tests, which it keeps: its outcomes are the product of
theirs, first component major, and its branches are built one at a time
when a report asks for them, so ``test_par`` of n two-outcome tests holds
n tests, not 2^n terms.  The evaluator reads a composite test's outcomes as
one array with an axis per component.

Terms are frozen dataclasses with structural equality, and nothing mutates
after construction, so sharing subterms across threads or memo tables is
safe.  A :class:`Seq` is the flat tuple of its parts, every nested ``Seq``
spliced in, so ``;`` is associative on the nose.  A :class:`Par` is a flat
tuple too, but only a *leading* ``Par`` part is spliced in: ``(a * b) * c``
and ``a * b * c`` are one term, while ``a * (b * c)`` keeps a nested part.
Folding a ``Par``'s parts from the left thus gives each Kronecker product the
association it was written with, which decides its floating-point result.
Both store their wire types and structural hash, folded once from the head's
stored values, so hashing is O(1) per node and never recurses.  The checked
constructors :func:`seq` / :func:`par` (also spelled ``>>`` and ``@``) are
the intended way to build composites; the raw dataclass constructors perform
no wire checking.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, groupby, product
from typing import Iterable, Iterator

from .errors import TypeMismatchError

__all__ = [
    "SystemType",
    "UNIT",
    "Diagram",
    "PrimitiveBox",
    "Identity",
    "Swap",
    "Seq",
    "Par",
    "seq",
    "par",
    "OutcomeSpace",
    "SINGLETON_OUTCOME",
    "Test",
    "ProductBranches",
    "singleton_test",
    "test_seq",
    "test_par",
]


# ---------------------------------------------------------------------------
# system types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class SystemType:
    """A finite word of primitive system labels.

    The empty word is the trivial system (scalar wires live on it).  Tensoring
    is word concatenation, written ``a * b``.
    """

    word: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.word, tuple):
            object.__setattr__(self, "word", tuple(self.word))
        for label in self.word:
            if not isinstance(label, str) or not label:
                raise ValueError(f"system labels must be non-empty strings, got {label!r}")

    @classmethod
    def of(cls, *labels: str) -> "SystemType":
        return cls(tuple(labels))

    def __mul__(self, other: "SystemType") -> "SystemType":
        if not isinstance(other, SystemType):
            return NotImplemented
        return self._joined((other,))

    def _joined(self, others: Iterable["SystemType"]) -> "SystemType":
        """This word followed by each of ``others``, in one concatenation."""
        joint = object.__new__(SystemType)  # every word is checked already
        object.__setattr__(joint, "word", self.word + tuple(chain.from_iterable(others)))
        return joint

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[str]:
        return iter(self.word)

    @property
    def is_unit(self) -> bool:
        return not self.word

    def __str__(self) -> str:
        return "*".join(self.word) if self.word else "I"

    def __repr__(self) -> str:
        return f"SystemType({self})"


#: The trivial (empty-word) system.
UNIT = SystemType(())


# ---------------------------------------------------------------------------
# circuit terms
# ---------------------------------------------------------------------------


class Diagram:
    """Base class for circuit terms.  Subclasses are frozen dataclasses."""

    input_type: SystemType
    output_type: SystemType

    # sugar shared by all terms; mirrors the usual string-diagram reading:
    # ``a >> b`` wires a's output into b, ``a @ b`` puts them side by side.
    def __rshift__(self, other: "Diagram") -> "Diagram":
        return seq(self, other)

    def __matmul__(self, other: "Diagram") -> "Diagram":
        return par(self, other)


@dataclass(frozen=True)
class PrimitiveBox(Diagram):
    """A named leaf with declared input and output wires."""

    name: str
    input_type: SystemType
    output_type: SystemType

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Identity(Diagram):
    """Do nothing on the given wires."""

    system: SystemType

    @property
    def input_type(self) -> SystemType:  # type: ignore[override]
        return self.system

    @property
    def output_type(self) -> SystemType:  # type: ignore[override]
        return self.system

    def __str__(self) -> str:
        return f"id({self.system})"


@dataclass(frozen=True)
class Swap(Diagram):
    """Exchange two adjacent blocks of wires.

    Any block exchange is a composite of adjacent wire transpositions; the
    term stores the block form and compiles to the corresponding index
    permutation in one go.
    """

    left: SystemType
    right: SystemType

    @property
    def input_type(self) -> SystemType:  # type: ignore[override]
        return self.left * self.right

    @property
    def output_type(self) -> SystemType:  # type: ignore[override]
        return self.right * self.left

    def __str__(self) -> str:
        return f"swap({self.left},{self.right})"


@dataclass(frozen=True)
class Seq(Diagram):
    """``parts`` in order, nested ``Seq`` parts spliced in.  The hash is
    folded part by part from a leading ``Seq``'s stored hash, so appending
    costs no rehash of the prefix.  Raw constructor does not check wires."""

    parts: tuple[Diagram, ...]
    input_type: SystemType = field(init=False, repr=False, compare=False)
    output_type: SystemType = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        head, *rest = self.parts
        flat = list(head.parts) if isinstance(head, Seq) else [head]
        h = head._hash if isinstance(head, Seq) else hash((Seq, head))
        for part in rest:
            for p in part.parts if isinstance(part, Seq) else (part,):
                flat.append(p)
                h = hash((h, p))
        object.__setattr__(self, "parts", tuple(flat))
        object.__setattr__(self, "input_type", flat[0].input_type)
        object.__setattr__(self, "output_type", flat[-1].output_type)
        object.__setattr__(self, "_hash", h)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "(" + " ; ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True)
class Par(Diagram):
    """``parts`` side by side, the first part's wires leading.  A leading
    ``Par`` part is spliced in and a later one stays one part, so folding the
    parts from the left keeps the written Kronecker association.  Words and
    hash are folded from a leading ``Par``'s stored values.  Raw constructor
    performs no checks."""

    parts: tuple[Diagram, ...]
    input_type: SystemType = field(init=False, repr=False, compare=False)
    output_type: SystemType = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        head, *rest = self.parts
        flat = list(head.parts) if isinstance(head, Par) else [head]
        h = head._hash if isinstance(head, Par) else hash((Par, head))
        for part in rest:
            flat.append(part)
            h = hash((h, part))
        object.__setattr__(self, "parts", tuple(flat))
        object.__setattr__(self, "input_type", head.input_type._joined(p.input_type for p in rest))
        object.__setattr__(self, "output_type", head.output_type._joined(p.output_type for p in rest))
        object.__setattr__(self, "_hash", h)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "(" + " * ".join(map(str, self.parts)) + ")"


def seq(*parts: Diagram) -> Diagram:
    """Compose in time: ``seq(a, b, c)`` is ``a ; b ; c``, and ``seq(a)`` is ``a``.

    Raises :class:`TypeMismatchError` when neighbouring wires disagree.
    """
    for first, second in zip(parts, parts[1:]):
        if first.output_type != second.input_type:
            raise TypeMismatchError(
                f"cannot wire output {first.output_type} of {first} "
                f"into input {second.input_type} of {second}"
            )
    return parts[0] if len(parts) == 1 else Seq(parts)


def par(*parts: Diagram) -> Diagram:
    """Compose side by side: ``par(a, b, c)`` is ``a * b * c``, and ``par(a)``
    is ``a``.  Always well-typed."""
    return parts[0] if len(parts) == 1 else Par(parts)


# ---------------------------------------------------------------------------
# outcome spaces and tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeSpace:
    """An ordered finite set of outcome labels (plain strings).

    The singleton space on the empty label is the unit of the product, so
    deterministic circuits compose with tests without inventing outcomes.
    Products pair labels as canonical parenthesized strings ``(x,y)``.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"outcome labels must be distinct, got {self.labels!r}")
        if not self.labels:
            raise ValueError("an outcome space needs at least one label")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    @property
    def is_singleton_unit(self) -> bool:
        return self.labels == ("",)

    def product(self, other: "OutcomeSpace") -> "OutcomeSpace":
        if self.is_singleton_unit:
            return other
        if other.is_singleton_unit:
            return self
        return OutcomeSpace(tuple(f"({x},{y})" for x in self.labels for y in other.labels))


#: Outcome space of deterministic circuits: one branch, empty label.
SINGLETON_OUTCOME = OutcomeSpace(("",))


@dataclass(frozen=True)
class Test:
    """An outcome-indexed family of circuits with common wire types.

    ``branches`` is aligned with ``outcomes.labels``: a tuple for a test given
    by its branches, or the :class:`ProductBranches` of a test composed from
    ``parts`` by :func:`test_seq` or :func:`test_par`.  Either way the object
    stays hashable, and lookup by label goes through ``__getitem__``.
    """

    __test__ = False  # not a test case, despite the name

    outcomes: OutcomeSpace
    branches: Sequence[Diagram]
    input_type: SystemType = field(init=False)
    output_type: SystemType = field(init=False)

    def __post_init__(self) -> None:
        if len(self.branches) != len(self.outcomes):
            raise ValueError(
                f"{len(self.outcomes)} outcome labels but {len(self.branches)} branches"
            )
        if self.parts:
            first, *rest = self.parts
            if self.kind is Seq:
                wires = first.input_type, rest[-1].output_type
            else:
                wires = (first.input_type._joined(p.input_type for p in rest),
                         first.output_type._joined(p.output_type for p in rest))
            object.__setattr__(self, "input_type", wires[0])
            object.__setattr__(self, "output_type", wires[1])
            return
        first = self.branches[0]
        for b in self.branches:
            if (b.input_type, b.output_type) != (first.input_type, first.output_type):
                raise TypeMismatchError(
                    f"branch {b} typed {b.input_type} -> {b.output_type}, "
                    f"expected {first.input_type} -> {first.output_type}"
                )
        object.__setattr__(self, "input_type", first.input_type)
        object.__setattr__(self, "output_type", first.output_type)

    @property
    def parts(self) -> tuple["Test", ...]:
        """The component tests of a composite test; empty for one given by its branches."""
        return self.branches.parts if isinstance(self.branches, ProductBranches) else ()

    @property
    def kind(self) -> type | None:
        """``Seq`` or ``Par`` for a composite test; ``None`` for one given by its branches."""
        return self.branches.kind if isinstance(self.branches, ProductBranches) else None

    def __getitem__(self, label: str) -> Diagram:
        try:
            return self.branches[self.outcomes.labels.index(label)]
        except ValueError:
            raise KeyError(label) from None

    def items(self) -> Iterator[tuple[str, Diagram]]:
        return zip(self.outcomes.labels, self.branches)

    def __rshift__(self, other: "Test") -> "Test":
        return test_seq(self, other)

    def __matmul__(self, other: "Test") -> "Test":
        return test_par(self, other)


@dataclass(frozen=True)
class ProductBranches(Sequence):
    """The branches of a composite test, each built when it is asked for.

    Branch ``i`` is ``kind`` of one branch of every part, picked by the
    digits of ``i`` in the mixed radix of the parts' outcome counts, first
    part major: the term the Cartesian product of the parts' branches gives
    at position ``i``.  Its length needs no branch.
    """

    kind: type  # Seq or Par
    parts: tuple[Test, ...]

    def __len__(self) -> int:
        return math.prod(len(p.outcomes) for p in self.parts)

    def __getitem__(self, index: int) -> Diagram:
        size = len(self)
        if not -size <= index < size:
            raise IndexError(f"branch {index} of {size}")
        index %= size
        picks = []
        for part in reversed(self.parts):
            index, digit = divmod(index, len(part.outcomes))
            picks.append(part.branches[digit])
        return self.kind(tuple(reversed(picks)))

    def __iter__(self) -> Iterator[Diagram]:
        return map(self.kind, product(*(p.branches for p in self.parts)))


def singleton_test(d: Diagram) -> Test:
    """Lift a deterministic circuit to a one-branch test."""
    return Test(SINGLETON_OUTCOME, (d,))


def test_seq(*tests: Test) -> Test:
    """Compose tests in time: ``test_seq(a, b, c)`` is ``a ; b ; c``.

    The result keeps its parts, and its outcomes are the product of theirs.
    Its branch for outcomes ``(x, y, z)`` is the flat ``Seq`` of branches
    ``a[x]``, ``b[y]`` and ``c[z]``.  Each run of deterministic parts
    (singleton tests) becomes one singleton test of their ``Seq``, so a
    deterministic stretch is one part however it was grouped.
    """
    for first, second in zip(tests, tests[1:]):
        if first.output_type != second.input_type:
            raise TypeMismatchError(
                f"cannot wire test output {first.output_type} into test input {second.input_type}"
            )
    parts: list[Test] = []
    for deterministic, run in groupby(tests, key=lambda t: t.outcomes.is_singleton_unit):
        run = list(run)
        if deterministic and len(run) > 1:
            parts.append(singleton_test(Seq(tuple(t.branches[0] for t in run))))
        else:
            parts.extend(run)
    return _test_product(Seq, tuple(parts))


def test_par(*tests: Test) -> Test:
    """Compose tests side by side: ``test_par(a, b, c)`` is ``a * b * c``.

    The result keeps its parts, and its outcomes are the product of theirs;
    each branch is one ``Par``."""
    return _test_product(Par, tests)


def _test_product(kind: type, tests: tuple[Test, ...]) -> Test:
    if len(tests) == 1:
        return tests[0]
    return Test(reduce(OutcomeSpace.product, (t.outcomes for t in tests)), ProductBranches(kind, tests))
