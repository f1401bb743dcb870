"""Byte-identity of the command line: one digest per command and input.

``tests/data/cli_golden.json`` maps every applicable command on every
``tests/fixtures/*.opt`` file, and ``eval`` of two generated gate ladders, to
the sha256 of its exit code and standard output.  A change that is meant to
keep the output byte-for-byte (a refactor, a faster writer) must leave every
digest in place.

A change that alters the output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in CHANGES.md which commands changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pytest

from optlab import dsl
from optlab.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "data" / "cli_golden.json"

AXIOMS = ("causality", "purification", "faithfulness", "local-tomography", "niwd")
SAMPLED = ("--trials", "8", "--seed", "1")

# Four-layer brick-wall ladders of random two-system gates (Haar unitary on
# the complex theory, Haar orthogonal on the real one), frozen as text so the
# digests do not depend on a random generator.
LADDERS = {
    "ladder_quantum_n3": """\
theory quantum
system Q0 dim=2
system Q1 dim=2
system Q2 dim=2
box g0 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[[-0.21421884032669825,0.43796987847002955],[0.42247527549061126,0.4036106416821098],[-0.2966816949371897,0.2933584468467203],[0.279854539708755,-0.410497254167914]],[[0.2711602354000566,0.16103927854540023],[-0.2342880306953605,-0.1265656739540946],[0.44421282901269066,0.25963701521811156],[0.7504806356696442,0.04087939220263783]],[[0.21832235105163936,-0.08984627638351761],[0.5758670332137743,-0.2948361403940486],[-0.24090491738800407,-0.5404796257134379],[0.3919616890272479,0.14806902892994003]],[[-0.7639637539205713,0.1531454597834542],[0.12369765692178386,-0.392238499406535],[0.4221868926362523,-0.18107788124211777],[0.03424229209144888,-0.10747182952759556]]]]
box g1 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[[0.0936000646148929,-0.5782173758198621],[-0.050570842514847454,0.6984803647854827],[-0.34896518246602953,0.14286462540837275],[0.10314406572458201,-0.116815093372975]],[[0.17662653960325989,-0.24091928322704032],[0.22796878959088132,0.20305491836815032],[0.4357173631928246,-0.25274251145827636],[-0.10842527135227295,0.7430178049161138]],[[0.46459109928727776,0.5019182964490577],[0.3361944736001168,0.2872210545178562],[0.09105173642584441,0.31165036663241075],[0.48088586414223744,-0.006549187354299914]],[[0.12268854272244842,0.2912821901843367],[0.41072987130046507,0.2283528313363859],[-0.35630621555291087,-0.6096836176063094],[-0.3859281976098589,-0.1779026640572564]]]]
box g2 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[[-0.24135435292498109,0.34533550139042973],[0.2275905980463046,-0.7587685287048911],[0.11006552096204303,-0.26389434242992577],[0.29159718542523944,-0.16787121823717888]],[[-0.12072233155004836,0.4258406939509373],[0.1216446428528499,0.23027769020180544],[-0.4866489405010504,0.5182873188982727],[0.39701275747482917,-0.2705411659650084]],[[-0.14847532883888656,0.316620334626486],[-0.45896051562615425,0.09115582102270703],[0.5506215723530653,0.2409183693828717],[0.3490510351907727,0.4191540289710143]],[[0.07167485259503009,-0.7065031109462759],[-0.20015023003467936,-0.21361964468508116],[0.03349036103807941,0.22460863736319697],[0.5473748006554432,-0.2425547070192625]]]]
box g3 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[[0.20271144059555857,-0.4178153383591093],[-0.11184682280614813,-0.6030888662498369],[-0.06937094778161436,0.34203182047979197],[-0.3874791644205582,0.3690180551684413]],[[-0.23255182738804353,0.4387468445754732],[0.005262299995102276,0.4042672938246835],[-0.2379876993962741,0.296295182970417],[-0.46950949373281525,0.4744396400758766]],[[-0.664745162845116,-0.08346083087937842],[0.5517069303046593,-0.32695676923835887],[-0.17092064835776222,-0.18743428618568017],[0.16576405047468537,0.21918871363102005]],[[0.2321665981146348,-0.18709916552434208],[-0.16830740855224482,0.14389482723690006],[-0.8034704148518215,-0.15447568628306826],[0.37402253842627087,0.22965008916882468]]]]
circuit ladder = (g0 * id(Q2)) ; (id(Q0) * g1) ; (g2 * id(Q2)) ; (id(Q0) * g3)
""",
    "ladder_quantum_real_n4": """\
theory quantum-real
system Q0 dim=2
system Q1 dim=2
system Q2 dim=2
system Q3 dim=2
box g0 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[-0.24723949405916534,0.49512072768048593,-0.19616079653058466,-0.8094745453088693],[0.31295809139397496,-0.2711738638984323,0.7896157489030103,-0.45280121207188984],[0.25197553834898384,0.8254208373274552,0.37664616069710183,0.3366399248626271],[-0.8817245565833745,0.0008011648913124326,0.4429058371944957,0.16246717770587213]]]
box g1 : Q2 * Q3 -> Q2 * Q3 = kraus=[[[0.8772088577263852,0.31338683196442774,-0.0758750476045844,-0.35571939872415237],[0.3225451989423938,-0.30112183424686534,-0.6081931264000091,0.6598419178703318],[-0.17995289939270978,-0.39318349009768955,-0.6155742460538144,-0.6588566192351983],[0.3067346875815316,-0.8102598827571947,0.4953912047524284,-0.0630896828530206]]]
box g2 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[0.17984878152165584,-0.27925225937347686,-0.8173984492455973,-0.4706722496503026],[0.3393808333651341,0.28462626840874095,0.4303300285856212,-0.7865269250150313],[0.8926932204203699,-0.2823598534402365,0.0987927449237642,0.3370633782111982],[0.23574112909094155,0.8725130234739946,-0.37002139832558195,0.21501467090498103]]]
box g3 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[-0.6771490431919824,0.6590051885949165,0.21904167353225706,-0.24331477547684896],[-0.28214002025167895,0.1750366319485246,-0.5387243723415194,0.7742966079570119],[0.5877953662653567,0.6023121003812839,0.4036480291827613,0.358866283827464],[0.3411199051265407,0.41508369350696184,-0.7063038046324658,-0.46095300549273127]]]
box g4 : Q2 * Q3 -> Q2 * Q3 = kraus=[[[-0.763198902330668,0.2901733165380906,0.41815573960265745,-0.39808624604211496],[-0.3817422383694639,0.20161684705893565,-0.8995848891884872,-0.06611004137362464],[-0.469501405795008,-0.837165107971946,-0.009001295245680241,0.28043178962936993],[0.22664670498916653,-0.41749811418211064,-0.1257449055230145,-0.8709275598503835]]]
box g5 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[0.3640172008788305,-0.9250422880476082,0.10290611696735812,-0.03462042574388426],[0.4488775026262468,0.27615368525117123,0.7850298138762875,-0.3255400452841137],[0.3337486226814158,0.11369442514566322,0.15206508394584287,0.9233426475548495],[-0.7447229833694021,-0.23475409503699943,0.591620429549729,0.20065756961582748]]]
circuit ladder = (g0 * g1) ; (id(Q0) * g2 * id(Q3)) ; (g3 * g4) ; (id(Q0) * g5 * id(Q3))
""",
}


def commands(text: str) -> list[list[str]]:
    """The arguments (after the file) of every command that applies to ``text``."""
    wb = dsl.load(text)
    kinds = wb.kinds

    def named(*wanted: str) -> list[str]:
        return [n for n, k in kinds.items() if k in wanted]

    out = [["eval", "--circuit", n] for n in named("circuit")]
    for n in named("circuit", "test"):
        piece = wb.circuits[n] if kinds[n] == "circuit" else wb.tests[n].branches[0]
        if piece.input_type.is_unit and piece.output_type.is_unit:
            out.append(["prob", "--test-circuit", n])
    out += [["audit", "--axiom", a, *SAMPLED] for a in AXIOMS]
    out += [["purify", "--state", n] for n in named("state")]
    out += [["dilate", "--box", n] for n in named("box")]
    for a, b in combinations(named("box", "circuit"), 2):
        da, db = wb.diagram(a), wb.diagram(b)
        if (da.input_type, da.output_type) == (db.input_type, db.output_type):
            out.append(["equiv", "--box", a, "--box2", b])
    # steer: a declared preparation test on a proper prefix of a state's systems
    declared = {s.name for s in wb.document.statements if isinstance(s, dsl.TestDef)}
    for s in named("state"):
        joint = wb.bindings[s].output_type.word
        for t in sorted(declared):
            first = wb.tests[t].branches[0]
            prepared = first.output_type.word
            if first.input_type.is_unit and 0 < len(prepared) < len(joint) \
                    and joint[:len(prepared)] == prepared:
                out.append(["steer", "--state", s, "--test", t])
    return out


def digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


def sources() -> dict[str, str]:
    """Input name -> theory text: the fixtures, then the ladders."""
    texts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.opt"))}
    texts.update(LADDERS)
    return texts


def digests(name: str, text: str, workdir: Path) -> dict[str, str]:
    path = workdir / f"{name}.opt"
    path.write_text(text, encoding="utf-8")
    argvs = [["eval", "--circuit", "ladder"]] if name in LADDERS else commands(text)
    return {" ".join([name, *a]): digest([a[0], str(path), *a[1:]]) for a in argvs}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(sources()))
def test_output_matches_golden(name, golden, tmp_path):
    got = digests(name, sources()[name], tmp_path)
    want = {k: v for k, v in golden.items() if k.split(" ", 1)[0] == name}
    assert sorted(got) == sorted(want), "command set changed; regenerate the table"
    changed = [k for k in got if got[k] != want[k]]
    assert not changed, f"output changed for {changed}"


def test_golden_covers_every_input(golden):
    assert {k.split(" ", 1)[0] for k in golden} == set(sources())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table: dict[str, str] = {}
        for name, text in sources().items():
            table.update(digests(name, text, Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
