"""Theory-file grammar: round trips over the corpus, located diagnostics,
and survival under token corruption."""

import glob
import random
from pathlib import Path

import numpy as np
import pytest

from optlab import SystemType
from optlab import linalg as la
from optlab.dsl import MAX_NESTING, Document, Workbench, load, parse, print_document
from optlab.errors import DslParseError, NotPhysicalError, OptlabError

# single characters, plus non-ASCII digits and an exponent that overflows a float
ALPHABET = list("abcXYZ019{}[]()=:;,*->#@.\"' \t") + ["²", "٣", "e400"]


def corpus(fixture_dir):
    paths = sorted(glob.glob(str(fixture_dir / "*.opt")))
    assert len(paths) >= 20
    return paths


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_corpus_round_trips(fixture_dir):
    for path in corpus(fixture_dir):
        text = Path(path).read_text()
        doc = parse(text)
        printed = print_document(doc)
        assert parse(printed) == doc, path
        # the printer is a fixpoint of its own output
        assert print_document(parse(printed)) == printed, path


def test_corpus_binds(fixture_dir):
    for path in corpus(fixture_dir):
        wb = load(Path(path).read_text())
        assert isinstance(wb, Workbench)
        assert wb.document.theory in ("quantum", "quantum-real", "classical")


def test_layout_is_not_part_of_document_identity():
    a = parse("theory quantum\nsystem Q dim=2\ncircuit idle = id(Q)\n")
    b = parse("# padded\n\ntheory quantum\n\nsystem Q dim=2\n\n\ncircuit idle = id(Q)\n")
    assert a == b


def test_printer_layout():
    doc = parse("theory classical\nsystem B dim=3\nstate u:B = vec=[0.25,0.25,0.5]\n")
    printed = print_document(doc)
    assert printed.startswith("theory classical\n")
    assert "state u : B = vec=[0.25,0.25,0.5]" in printed


def test_composition_printing_round_trips():
    text = (
        "theory quantum\n"
        "system Q dim=2\n"
        "circuit a = id(Q)\n"
        "circuit b = (a ; a) * (a ; (a ; a))\n"
        "circuit c = trace(Q) ; a * a ; swap(Q, Q)\n"
    )
    doc = parse(text)
    assert parse(print_document(doc)) == doc


def test_leading_groups_are_spliced_and_later_ones_kept():
    head = "theory quantum\nsystem Q dim=2\ncircuit a = id(Q)\n"
    assert parse(head + "circuit b = (a ; a) ; a\n") == parse(head + "circuit b = a ; a ; a\n")
    assert parse(head + "circuit b = (a * a) * a\n") == parse(head + "circuit b = a * a * a\n")
    grouped = parse(head + "circuit b = a ; (a ; a) * (a * a)\n")
    assert print_document(grouped).endswith("circuit b = a ; (a ; a) * (a * a)\n")


def test_long_chains_round_trip():
    text = ("theory quantum\nsystem Q dim=2\n"
            f"circuit c = {' ; '.join(['id(Q)'] * 10_000)}\n"
            f"circuit d = {' * '.join(['c'] * 1_000)}\n")
    doc = parse(text)
    assert print_document(doc) == text
    assert parse(print_document(doc)) == doc


def test_long_inline_chain_around_a_test_binds_like_a_named_one():
    head = ("theory classical\nsystem A dim=2\nstate prep : A = vec=[1, 0]\n"
            "box flip : A -> A = stoch=[[0, 1], [1, 0]]\n"
            "test z : A -> A outcomes={0,1} { 0: stoch=[[1,0],[0,0]]; 1: stoch=[[0,0],[0,1]] }\n")
    steps = " ; ".join(["flip"] * 8000)
    inline = load(head + f"circuit t = prep ; {steps} ; z\n").tests["t"]
    named = load(head + f"circuit l = {steps}\ncircuit t = prep ; l ; z\n").tests["t"]
    assert inline == named
    assert hash(inline) == hash(named)
    assert len(inline["1"].parts) == 8002


def test_parenthesis_nesting_is_limited():
    text = "theory quantum\nsystem Q dim=2\ncircuit c = {}id(Q){}\n"
    deepest = MAX_NESTING * "("
    assert parse(text.format(deepest, MAX_NESTING * ")")) is not None
    e = err(text.format(deepest + "(", (MAX_NESTING + 1) * ")"))
    assert (e.line, e.column) == (3, 13 + MAX_NESTING)


def test_payload_nesting_is_limited():
    e = err("theory quantum\nsystem Q dim=2\n"
            f"state s : Q = vec={'[' * 5000}1{']' * 5000}\n")
    assert (e.line, e.column) == (3, 19 + MAX_NESTING)


def test_scientific_notation_accepted():
    wb = load(
        "theory classical\nsystem B dim=2\nstate s : B = vec=[9.9e-1, 1e-2]\n"
    )
    assert wb.state_vector("s").coords[1] == pytest.approx(0.01)


def test_complex_entries_as_pairs():
    wb = load(
        "theory quantum\nsystem Q dim=2\n"
        "state y : Q = vec=[[0.7071067811865476, 0], [0, 0.7071067811865476]]\n"
    )
    assert wb.state_vector("y").system == SystemType.of("Q")


def test_trailing_semicolon_in_branch_lists():
    wb = load(
        "theory classical\nsystem B dim=2\n"
        "test t : B -> B outcomes={l,r} "
        "{ l: stoch=[[1,0],[0,0]]; r: stoch=[[0,0],[0,1]]; }\n"
    )
    assert set(wb.test("t").outcomes.labels) == {"l", "r"}


def test_document_model_is_plain_data():
    doc = parse("theory quantum\nsystem Q dim=2\n")
    assert isinstance(doc, Document)
    assert doc.systems == {"Q": 2}


# ---------------------------------------------------------------------------
# located diagnostics (frozen messages come from deliberate small inputs)
# ---------------------------------------------------------------------------

def err(text):
    with pytest.raises(DslParseError) as e:
        load(text)
    return e.value


def test_empty_input_is_located_at_the_top():
    e = err("")
    assert (e.line, e.column) == (1, 1)
    assert "theory" in e.message


def test_theory_must_come_first():
    e = err("system Q dim=2\ntheory quantum\n")
    assert e.line == 1
    assert "theory" in e.message


def test_unknown_theory_lists_the_known_ones():
    e = err("theory sorcery\n")
    assert (e.line, e.column) == (1, 15)
    assert "classical" in (e.expected or "") or "classical" in e.message


def test_reserved_trivial_system_name():
    e = err("theory quantum\nsystem I dim=2\n")
    assert (e.line, e.column) == (2, 9)


def test_bad_number_is_located_inside_the_payload():
    e = err("theory quantum\nsystem Q dim=2\nstate s : Q = vec=[0.5, xx]\n")
    assert e.line == 3
    assert e.column == 25


def test_unbalanced_payload_brackets():
    e = err("theory quantum\nsystem Q dim=2\nstate s : Q = vec=[1, 0\n")
    assert (e.line, e.column) == (3, 19)
    assert "unbalanced" in e.message


def test_non_finite_numbers_are_rejected():
    big = "1" + "0" * 400  # an integer beyond the float range
    for entries in ("1, NaN", "1e400, 0", "-1e400, 0", f"{big}, 0", "[1e400, 0], 0"):
        e = err(f"theory quantum\nsystem Q dim=2\nstate s : Q = vec=[{entries}]\n")
        assert (e.line, e.column) == (3, 19), entries
        assert e.message.startswith("bad payload literal: non-finite number"), entries


def test_numbers_at_the_float_limits_parse():
    entries = "1" + "0" * 300 + ", 1.7976931348623157e308, 1e-400"
    doc = parse(f"theory classical\nsystem B dim=3\nstate s : B = vec=[{entries}]\n")
    assert doc.statements[1].payload.data == (1e300, 1.7976931348623157e308, 0.0)


@pytest.mark.parametrize("dim", ["²", "٣"], ids=["superscript-two", "arabic-indic-three"])
def test_system_dimensions_are_ascii_digits(dim):
    e = err(f"theory quantum\nsystem Q dim={dim}\n")
    assert (e.line, e.column) == (2, 14)
    assert e.message.startswith("missing system dimension")


SPLITLINES_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BREAK_IDS = ["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"]


@pytest.mark.parametrize("brk", SPLITLINES_BREAKS, ids=BREAK_IDS)
def test_only_newlines_end_a_line(brk):
    # at the end of a line such a character is stripped like a blank, and the
    # lines after it keep their numbers
    e = err(f"theory quantum\nsystem Q dim=2{brk}\ncircuit c = id(Q)\ncircuit c = id(Q)\n")
    assert (e.line, e.column) == (4, 1)
    assert e.message == "duplicate definition of 'c'"


@pytest.mark.parametrize("brk", SPLITLINES_BREAKS, ids=BREAK_IDS)
def test_a_line_break_character_inside_a_statement_is_located(brk):
    e = err(f"theory quantum\nsystem Q dim=2\ncircuit c = id(Q){brk}circuit d = id(Q)\n")
    assert (e.line, e.column) == (3, 18)
    assert e.message.startswith(f"unexpected trailing text {brk + 'circuit d = id(Q)'!r}")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_newline_conventions_number_lines_alike(newline):
    e = err(newline.join(["theory quantum", "system Q dim=2", "", "circuit c = id(R)", ""]))
    assert (e.line, e.column) == (4, 1)


def test_duplicate_outcome_label():
    e = err(
        "theory quantum\nsystem Q dim=2\n"
        "test t : Q -> Q outcomes={a,a} { a: choi=[[1,0],[0,1]] }\n"
    )
    assert e.line == 3
    assert "duplicate" in e.message


def test_unknown_name_is_reported_with_its_line():
    e = err("theory quantum\nsystem Q dim=2\ncircuit c = nosuch\n")
    assert e.line == 3
    assert "nosuch" in e.message


def test_classical_payloads_must_be_real():
    e = err("theory classical\nsystem B dim=2\nstate s : B = vec=[[0,1],[1,0]]\n")
    assert e.line == 3


def test_unphysical_payloads_fail_at_load_with_a_line():
    bad = (
        "theory quantum\nsystem Q dim=2\n"
        "box broken : Q -> Q = choi=[[1,0,0,0],[0,-0.5,0,0],[0,0,1,0],[0,0,0,0.5]]\n"
    )
    with pytest.raises(NotPhysicalError, match="line 3"):
        load(bad)


def test_undeclared_system_in_signature():
    e = err("theory quantum\nsystem Q dim=2\nstate s : R = vec=[1, 0]\n")
    assert e.line == 3


GOOD = "box ok : Q -> Q = kraus=[[[1,0],[0,1]]]"
BAD_CHOI = [[1, 0, 0, 0], [0, -0.5, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0.5]]
BAD = f"box broken : Q -> Q = choi={BAD_CHOI}"
BAD_BRANCH = f"test t : Q -> Q outcomes={{a,b}} {{ a: kraus=[[[1,0],[0,0]]]; b: choi={BAD_CHOI} }}"
UNDECLARED = "state s : R = vec=[1, 0]"


@pytest.mark.parametrize("lines, fault, line", [
    ([BAD, GOOD, GOOD], NotPhysicalError, 3),
    ([GOOD, GOOD, BAD], DslParseError, 4),
    ([BAD, UNDECLARED], NotPhysicalError, 3),
    ([UNDECLARED, BAD], DslParseError, 3),
    ([GOOD, BAD_BRANCH, UNDECLARED, BAD], NotPhysicalError, 4),
    ([GOOD, UNDECLARED, BAD_BRANCH], DslParseError, 4),
], ids=["unphysical-then-duplicate", "duplicate-then-unphysical", "unphysical-then-undeclared",
        "undeclared-then-unphysical", "unphysical-branch-first", "undeclared-before-branch"])
def test_the_first_faulty_statement_is_reported(lines, fault, line):
    with pytest.raises(fault) as e:
        load("theory quantum\nsystem Q dim=2\n" + "\n".join(lines) + "\n")
    if fault is DslParseError:
        assert e.value.line == line
    else:
        assert str(e.value) == f"line {line}: non-physical transformation: negative eigenvalue (margin 5.000e-01)"


HEAVY = "state heavy : Q = dens=[[1.2,0],[0,0.3]]"
LOUD = "box loud : Q -> Q = kraus=[[[2,0],[0,1]]]"
WIDE = "box wide : Q -> Q = kraus=[[[1,0,0],[0,1,0]]]"


@pytest.mark.parametrize("lines, message", [
    ([GOOD, HEAVY, LOUD], "line 4: non-physical state: trace condition (margin 5.000e-01)"),
    ([GOOD, HEAVY, WIDE, LOUD], "line 4: non-physical state: trace condition (margin 5.000e-01)"),
    ([GOOD, WIDE, HEAVY, LOUD], "line 4: kraus matrix has shape (2, 3), expected (2, 2)"),
    ([GOOD, LOUD, HEAVY], "line 4: non-physical transformation: trace condition (margin 3.000e+00)"),
], ids=["state-before-kraus", "state-before-wide-kraus", "wide-kraus-first", "kraus-first"])
def test_the_first_faulty_statement_is_reported_across_payload_groups(lines, message):
    """Payloads are compiled in groups of one kind, the kraus group (first
    seen on line 3) before the dens one; the error reported is still the one
    of the first faulty line, though a later group holds it."""
    with pytest.raises(OptlabError) as e:
        load("theory quantum\nsystem Q dim=2\n" + "\n".join(lines) + "\n")
    assert str(e.value) == message


def test_a_failing_payload_carries_its_eigenvector_witness():
    with pytest.raises(NotPhysicalError) as e:
        load(f"theory quantum\nsystem Q dim=2\n{GOOD}\n{BAD}\n")
    witness = e.value.certificate.witness
    vals, vecs = la.sorted_eigh(np.array(BAD_CHOI, dtype=complex))
    assert witness["eigenvalue"] == vals[-1] == -0.5
    assert np.array_equal(witness["eigenvector"], vecs[:, -1])
    assert np.allclose(np.array(BAD_CHOI) @ witness["eigenvector"], -0.5 * witness["eigenvector"])


# ---------------------------------------------------------------------------
# corruption fuzzing
# ---------------------------------------------------------------------------

def mutate(text, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "replace", "dup"))
        if not chars:
            op = "insert"
        i = rng.randrange(len(chars) + (op == "insert"))
        if op == "delete":
            del chars[i]
        elif op == "insert":
            chars.insert(i, rng.choice(ALPHABET))
        elif op == "replace":
            chars[i] = rng.choice(ALPHABET)
        else:
            chars.insert(i, chars[i])
    return "".join(chars)


def test_corrupted_corpus_always_yields_located_errors(fixture_dir):
    texts = [Path(p).read_text() for p in corpus(fixture_dir)]
    rng = random.Random(404)
    for _ in range(300):
        mutant = mutate(rng.choice(texts), rng)
        try:
            load(mutant)
        except DslParseError as e:
            assert e.line >= 1 and e.column >= 1
        except OptlabError as e:
            assert "line" in str(e)
        # any other exception type fails the test by propagating
