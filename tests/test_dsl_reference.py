"""The one-pass parser against the character-level parser it replaced
(``dsl_reference.py``): equal documents on valid text, and on broken text the
same exception type, message, line, column and ``expected`` field."""

import random
from pathlib import Path

import numpy as np
import pytest

import dsl_reference
from optlab import dsl
from test_dsl import SPLITLINES_BREAKS, corpus, mutate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# str.splitlines breaks a line at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029,
# and dsl.parse does not (test_dsl.py tests them); a text that holds one is left
# out of the comparison, and no fixture and no mutation alphabet does


def outcome(parse, text):
    """The document's repr (payload floats bit for bit, and each statement's
    line), or the error's type and located fields."""
    try:
        return repr(parse(text))
    except dsl.DslParseError as e:
        return type(e), str(e), e.message, e.line, e.column, e.expected


def assert_same(text):
    assert not any(c in text for c in SPLITLINES_BREAKS)
    assert outcome(dsl.parse, text) == outcome(dsl_reference.parse, text), text


@pytest.fixture
def ladder_texts(monkeypatch):
    """The benchmark's ladders, open and closed, on every theory for n = 2..5."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from ladders import THEORIES, Ladder

    rng = np.random.default_rng(27)
    return [Ladder(rng, theory, n, closed).text()
            for theory in THEORIES for n in range(2, 6) for closed in (False, True)]


def test_fixtures_parse_to_equal_documents(fixture_dir):
    for path in corpus(fixture_dir):
        text = Path(path).read_text()
        assert dsl.parse(text) == dsl_reference.parse(text), path
        assert_same(text)


def test_ladders_parse_to_equal_documents(ladder_texts):
    assert len(ladder_texts) == 24
    for text in ladder_texts:
        assert_same(text)


HEAD = "theory quantum\nsystem Q dim=2\nsystem Q0 dim=2\nsystem Q1 dim=2\n"


@pytest.mark.parametrize("line", [
    "box g : Q0->Q1 = kraus=[[[1,0],[0,1]]]",
    "box g:Q0*Q1->Q1*Q0=kraus=[[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]]",
    "box my-gate : Q -> Q = kraus=[[[1,0],[0,1]]]",
    "box g : Q - > Q = kraus=[[[1,0],[0,1]]]",
    "box-g : Q -> Q = kraus=[[[1,0],[0,1]]]",
    "circuit c-d = id(Q)",
    "circuit c = id(Q-1)",
    "state s : Q = vec=[1, 0] [2]",
    "state s : Q = vec=[1, 0]]",
    "state s : Q = vec=[[1, 0]",
    "state s : Q = vec=[1, 2e400]",
    "state s : Q = vec=[1, -0, -0.0, 1E+02]",
    "state s : Q = vec=[1., 0]",
    "state s : Q = vec=[01, 0]",
    "state s : Q = vec=[+1, 0]",
    "state s : Q = vec=[1 2]",
    "state s : Q = vec=[1,,2]",
    "state s : Q = vec=[]",
    "state s : Q = vec=[[]]",
    "state s : Q = vec=[[1], [0]]",
    "state s : Q = vec=[[1, 0, 0], [0, 1, 0]]",
    "state s : Q = vec=[[1, 0], 0]",
    "state s : Q = vec=[1, [0, 1]]",
    "state s : Q = vec=[\t1 ,\t0 ]",
    "state s : Q = vec=[" + "1" * 400 + ", 0]",
    "state s : Q = vec=[" + "1" * 5000 + ", 0]",
    "state s : Q = vec=[1e308, 1e308]",
    "state s : Q = vec=[[1e308, 1e308], [0, 0]]",
    "state s : Q = vec=" + "[" * 101 + "1" + "]" * 101,
    "state s : Q = vec=" + "[" * 5000 + "1" + "]" * 5000,
    "state s : Q = dens=[[1,0],[0]]",
    "state s : Q = dens=[[[1,0],[0,0]],[[0,0],[0,0]]]",
    "state s : Q = dens=[[[1,0],[0,0]],[[0,0],[0,0,0]]]",
    "state s : Q = dens=[[[1,0],[0,0]],[0,[0,0]]]",
    "state s : Q = vex=[1, 0]",
    "state s : Q = [1, 0]",
    "state s : Q = vec=(1, 0)",
    "box k : Q -> Q = kraus=[[[1,0],[0,1]],[[1,0]]]",
    "box k : Q -> Q = kraus=[[[1,0],[0,1]],[[1,0],[0]]]",
    "box k : Q -> Q = kraus=[[1,0],[0,1]]",
    "box k : Q -> Q = kraus=[[[[1,0],[0,0]],[[0,0],[1,0]]]]",
    "box k : Q -> Q = stoch=[[1,0],[0,1]]",
    "test t : Q -> Q outcomes={a,b} { a: kraus=[[[1,0],[0,0]]]; b: kraus=[[[0,0],[0,1]]]; }",
    "test t : Q -> Q outcomes={a,b} { a: kraus=[[[1,0],[0,0]]] ; }",
    "test t : Q -> Q outcomes={a,b} { a: kraus=[[[1,0],[0,0]]]; c: vec=[1] }",
    "test t : Q -> Q outcomes={a,a} { a: kraus=[[[1,0],[0,0]]] }",
    "test t : Q -> Q outcomes={a,b} { a: kraus=[[[1,0],[0,0]]]; a: vec=[1] }",
    "test t : Q -> Q outcomes={1a,2} { 1a: kraus=[[[1,0],[0,0]]]; 2: kraus=[[[0,0],[0,1]]] }",
    "test t : Q -> Q outcome={a} { a: vec=[1] }",
    "test t : Q -> Q { a: vec=[1] }",
    "system R dim=12ab",
    "system R dim=0",
    "system R dim=-1",
    "system R dim=" + "9" * 19,
    "system R dim=" + "9" * 5000,
    "system R dim=2 extra",
    "system R size=2",
    "system R",
    "system I dim=2",
    "circuit c = (id(Q) ; id(Q)",
    "circuit c = id(Q) ; ; id(Q)",
    "circuit c = swap(Q, Q * Q) * id(I)",
    "circuit c = swap(Q Q)",
    "circuit c = " + "(" * 101 + "id(Q)" + ")" * 101,
    "circuit c = (id(Q) * id(Q)) * id(Q) ; (id(Q) ; id(Q)) ; id(Q)",
    "circuit c = [1]",
    "circuit c = id(Q)  ",
    "circuit c = id(Q)　; id(Q)",
    "circuit c = id(Q²)",
    "circuit c = id(Q)\x00",
    "  \t circuit c = id(Q)",
    "theory quantum",
    "[x]",
    "9 lives",
    "-",
])
def test_crafted_lines_agree(line):
    assert_same(HEAD + line + "\n")


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment\n", "theory\n", "theory sorcery\n", "theory quantum-real\n",
    "theory quantum-real extra\n", "theory quantum-\n", "theory 9\n", "theory quantum # note\n",
    "theory quantum\ntheory quantum\n", "system Q dim=2\ntheory quantum\n",
    "theory quantum\r\nsystem Q dim=2\r\ncircuit c = id(Q\r\n",
    "theory quantum\rsystem Q dim=2\rcircuit c = id(Q\r",
    "theory quantum\nsystem Q dim=2\ncircuit c = id(Q) # ; (\n",
])
def test_crafted_files_agree(text):
    assert_same(text)


def test_mutants_agree(fixture_dir, ladder_texts):
    """2 000 mutants of the fixtures and 1 000 of small ladders, as the
    corruption test draws them."""
    texts = [Path(p).read_text() for p in corpus(fixture_dir)]
    ladders = [t for t in ladder_texts if t.count("\n") < 40]
    rng = random.Random(2727)
    for _ in range(2000):
        assert_same(mutate(rng.choice(texts), rng))
    for _ in range(1000):
        assert_same(mutate(rng.choice(ladders), rng))


def test_criterion_12_fuzz_stream_agrees(fixture_dir):
    """The 1 000 mutants of criterion 12, drawn as it draws them."""
    texts = [Path(p).read_text() for p in sorted(fixture_dir.glob("*.opt"))]
    alphabet = list("abcXYZ019{}[]()=:;,*->#@.\"' \t")
    rng = random.Random(1212)
    for _ in range(1000):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("delete", "insert", "replace", "dup"))
            if not chars:
                op = "insert"
            i = rng.randrange(len(chars) + (op == "insert"))
            if op == "delete":
                del chars[i]
            elif op == "insert":
                chars.insert(i, rng.choice(alphabet))
            elif op == "replace":
                chars[i] = rng.choice(alphabet)
            else:
                chars.insert(i, chars[i])
        assert_same("".join(chars))
