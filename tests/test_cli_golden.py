"""Byte-identity of the command line: one digest per command and input.

``tests/data/cli_golden.json`` maps every applicable command on every
``tests/fixtures/*.opt`` file, ``eval`` of two generated gate ladders and
``prob`` of two closed ones, and the sampled audits at scale
(``SAMPLED_AT_SCALE``), to the sha256 of its exit code and standard output.
A change that is meant to
keep the output byte-for-byte (a refactor, a faster writer) must leave every
digest in place.

``tests/data/cli_verdicts.json`` keeps, beside each digest, the command's
exit code and the top-level ``verdict`` of its report (``null`` where the
report has none) in plain form, so that a regenerated digest cannot move an
exit code or a verdict unseen.

A change that alters the output on purpose regenerates both tables with

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
VERDICTS = HERE / "data" / "cli_verdicts.json"

AXIOMS = ("causality", "purification", "faithfulness", "local-tomography", "niwd")
SAMPLED = ("--trials", "8", "--seed", "1")

# Sampled audits with enough trials to group many of them by word and outcome
# count: (fixture, arguments after the file, exit code, the witness of the
# violated check or None).  Neither fixture declares a state, so purification
# audits random states.  The last row's tolerance sits inside the spread of the
# residuals, so its witness pins which test fails first and the residual's
# last bits.
SAMPLED_AT_SCALE = [
    ("three_systems", ["audit", "--axiom", "causality", "--trials", "200", "--seed", "5"], 0, None),
    ("three_systems", ["audit", "--axiom", "purification", "--trials", "200", "--seed", "5"], 0, None),
    ("rebit", ["audit", "--axiom", "causality", "--trials", "200", "--seed", "5"], 0, None),
    ("rebit", ["audit", "--axiom", "purification", "--trials", "200", "--seed", "5"], 0, None),
    ("three_systems",
     ["audit", "--axiom", "causality", "--trials", "50", "--seed", "2", "--tol", "5e-16"], 1,
     "effect sum differs from the trace effect by 8.743006318923108e-16 (test 'test #0 on C*C')"),
]

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

# The same kind of ladder on three systems, closed by a two-branch preparation
# test and a two-outcome measurement test per system (``run``), for ``prob``.
CLOSED_LADDERS = {
    "closed_ladder_quantum_n3": """\
theory quantum
system Q0 dim=2
system Q1 dim=2
system Q2 dim=2
box g0 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[[0.011753506922534296,0.2834203321945485],[0.375117802816665,-0.14430341376176428],[0.6696295335934744,-0.3012044144604788],[-0.30932745218261104,0.35097955059457897]],[[-0.1024247814036649,-0.2991730585694664],[0.038427046561902795,-0.7144078801909411],[-0.2286824318858957,0.16443615916432652],[-0.5557067419195553,-0.002121293333552411]],[[0.2567363207549419,-0.6601026542381978],[-0.33292198534945183,-0.007201926426025629],[0.5408972167093026,-0.15549326563817234],[0.0267038544704081,-0.2645769847385919]],[[0.23387498301285164,-0.5130232502996289],[0.32719929260416886,0.32963556914625997],[-0.1639054961202538,0.1947416673283428],[-0.04539944557938108,0.6320919340843789]]]]
box g1 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[[-0.4684224269443624,0.33248608163213783],[0.2896692494918865,-0.6621270761263448],[-0.17269563703072216,-0.27523682226651275],[-0.20399613013110507,-0.022789996190514937]],[[0.34310916995252155,0.39521084185731836],[0.36806605778783663,0.18608948002313244],[-0.18417058685147059,0.2823135727839875],[-0.38987298946307547,-0.5388523583970032]],[[0.21899973994328342,0.38674012377456335],[-0.03958719107758879,0.2696717069770417],[0.40873120416746156,-0.705400708747425],[-0.21331948940040885,0.13425592577864337]],[[-0.4167778232215948,-0.1577509431593378],[-0.29083351118412204,0.38562084619405135],[-0.33993061512493866,-0.024432967874126577],[-0.6588925608128327,0.13354444220205458]]]]
box g2 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[[0.140363462610819,-0.41212877535951453],[-0.15284031565707762,0.22159332091956702],[0.5167440972575501,-0.5152213776466464],[0.4406683088446991,0.10638665547696718]],[[0.20162245999697,0.5329849528999242],[-0.2154587237419695,-0.1450854911134566],[0.18562218086549676,0.009657262866275551],[0.3836776049148789,-0.6527218404269428]],[[-0.07288347182034176,0.09991578843320423],[0.20870112798909915,0.8711595469230463],[0.1047345939910217,0.3859344048121913],[0.10503245999024616,-0.1062224086070736]],[[-0.6442224020636704,-0.23538420917322214],[-0.20612510240261328,-0.12288735413359027],[0.4882298964199865,0.18625380923772938],[-0.2996295652964418,-0.3303727008867399]]]]
box g3 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[[-0.26767163584457965,0.7562468575798128],[0.017470341899269434,-0.3178713274766068],[0.14048837182516657,0.12046868206887422],[-0.045378444439348777,-0.4677459811584645]],[[-0.26348127601823274,0.4749085752675236],[0.10771732280261187,0.5591694429978505],[-0.15367216145462992,0.062151313710439804],[-0.2544435690913084,0.5371652686621607]],[[-0.07952746043473403,0.21387442709813292],[-0.41592451708433215,-0.3523478065366613],[-0.41944248185426664,-0.4870735721473494],[0.35979884394477846,0.32888153401304027]],[[-0.06836012032899566,0.06886257698468969],[-0.43477168252964715,0.2970025624387815],[0.7230902694071334,-0.047330719841387134],[0.4230470770019731,0.09632931694386856]]]]
circuit ladder = (g0 * id(Q2)) ; (id(Q0) * g1) ; (g2 * id(Q2)) ; (id(Q0) * g3)
test prep0 : I -> Q0 outcomes={0,1} { 0: dens=[[[0.23120191552597125,-4.971981357150788e-18],[-0.07458355932259376,0.17097780986769284]],[[-0.07458355932259376,-0.17097780986769284],[0.20595902022632057,5.048459694620769e-18]]]; 1: dens=[[[0.30560735752125917,-4.631968281601598e-19],[0.03628775185056568,0.23495796050932521]],[[0.03628775185056568,-0.2349579605093252],[0.2572317067264491,-1.6386312908981801e-18]]] }
test meas0 : Q0 -> I outcomes={0,1} { 0: dens=[[[0.5820307178616436,5.003361851333544e-18],[-9.453693785277125e-05,0.0002510987468847127]],[[-9.453693785277143e-05,-0.00025109874688471797],[0.584598589149006,-9.323768427517368e-19]]]; 1: dens=[[[0.4179692821383564,-5.003361851333544e-18],[9.453693785277125e-05,-0.0002510987468847127]],[[9.453693785277143e-05,0.00025109874688471797],[0.415401410850994,9.323768427517368e-19]]] }
test prep1 : I -> Q1 outcomes={0,1} { 0: dens=[[[0.14596189095920922,-4.321376150255143e-19],[0.01964874195367796,-0.03305140819040266]],[[0.01964874195367796,0.03305140819040266],[0.1979287039693806,-2.2606365228767694e-18]]]; 1: dens=[[[0.11999784435904387,1.246266705539672e-18],[0.017674428487044227,0.20233273614275993]],[[0.017674428487044227,-0.20233273614276],[0.5361115607123663,-5.882409649813491e-18]]] }
test meas1 : Q1 -> I outcomes={0,1} { 0: dens=[[[0.7588957721245299,-1.9209359906149113e-17],[0.05881491081624042,0.03233462853128775]],[[0.05881491081624049,-0.0323346285312877],[0.6945938722989194,4.431646538740982e-18]]]; 1: dens=[[[0.24110422787547015,1.9209359906149113e-17],[-0.05881491081624042,-0.03233462853128775]],[[-0.05881491081624049,0.0323346285312877],[0.30540612770108055,-4.431646538740982e-18]]] }
test prep2 : I -> Q2 outcomes={0,1} { 0: dens=[[[0.29975586344678584,2.4252885560725054e-18],[-0.08274816500673629,0.008499932075669332]],[[-0.08274816500673629,-0.008499932075669351],[0.34705138004580166,8.353268865579837e-19]]]; 1: dens=[[[0.1460256449246681,2.1570036633218907e-18],[0.02458301616114605,0.16024347711184928]],[[0.02458301616114605,-0.16024347711184928],[0.20716711158274437,-8.283191559145894e-19]]] }
test meas2 : Q2 -> I outcomes={0,1} { 0: dens=[[[0.6887230119257073,1.2960493463411914e-17],[0.0358045332054059,0.1296198270500917]],[[0.0358045332054059,-0.12961982705009176],[0.6105736860744411,-2.885976338807563e-18]]]; 1: dens=[[[0.3112769880742927,-1.2960493463411914e-17],[-0.0358045332054059,-0.1296198270500917]],[[-0.0358045332054059,0.12961982705009176],[0.38942631392555893,2.885976338807563e-18]]] }
circuit run = (prep0 * prep1 * prep2) ; ladder ; (meas0 * meas1 * meas2)
""",
    "closed_ladder_quantum_real_n3": """\
theory quantum-real
system Q0 dim=2
system Q1 dim=2
system Q2 dim=2
box g0 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[-0.0027235029933274646,0.6362869842031991,0.12697587261691431,0.7609261357308059],[0.6458010916747091,-0.3663153261124334,-0.538485243379834,0.39848171163687884],[-0.0429872185299354,0.5844104805693372,-0.7217310893414083,-0.36840293690718645],[-0.7622897294115007,-0.34556670237373316,-0.4159507243813845,0.3556445100530672]]]
box g1 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[0.6015957368394238,0.5324801138332327,0.04113048548984763,-0.5940166503997575],[0.44628102718554874,-0.13652269463969055,-0.8417753944298056,0.2713097564686431],[-0.4107095078009126,-0.3362640289181272,-0.40342684348464974,-0.7453126760049723],[0.5198398930370526,-0.7646914312820657,0.35632744835604,-0.1343288877311396]]]
box g2 : Q0 * Q1 -> Q0 * Q1 = kraus=[[[-0.5905338342657716,-0.590910716056866,-0.41047222308430226,-0.36552273569883315],[0.2070944698605724,-0.4830440902501642,-0.30856091953488596,0.792824347736209],[0.4424079154861098,-0.6437196661699929,0.5513030680498253,-0.2931981494826967],[0.642383769607989,0.05583837309186189,-0.6575466828833266,-0.3896890150669095]]]
box g3 : Q1 * Q2 -> Q1 * Q2 = kraus=[[[-0.2302772754617024,0.4673046285000576,0.24212109884084826,0.8185206986292152],[0.648823636235167,-0.5710615131360418,0.020533189227246028,0.5024888311370791],[0.714733699027496,0.6742257320913939,-0.10670092420121005,-0.15228366437311727],[0.12310972724762086,-0.030574410591562313,0.9641424554550359,-0.23310625487774694]]]
circuit ladder = (g0 * id(Q2)) ; (id(Q0) * g1) ; (g2 * id(Q2)) ; (id(Q0) * g3)
test prep0 : I -> Q0 outcomes={0,1} { 0: dens=[[0.14922906053867702,-0.16109387274228834],[-0.16109387274228834,0.42065703262544846]]; 1: dens=[[0.4257037209463478,0.04315557342274426],[0.04315557342274426,0.004410185889526819]] }
test meas0 : Q0 -> I outcomes={0,1} { 0: dens=[[0.16661421089785142,-0.035041839001267866],[-0.03504183900126786,0.25645140879401274]]; 1: dens=[[0.8333857891021486,0.035041839001267866],[0.03504183900126786,0.7435485912059873]] }
test prep1 : I -> Q1 outcomes={0,1} { 0: dens=[[0.1568450889605208,0.15591751450962524],[0.15591751450962524,0.15637010279989774]]; 1: dens=[[0.5721959278198493,-0.2137797702210396],[-0.2137797702210396,0.11458888041973221]] }
test meas1 : Q1 -> I outcomes={0,1} { 0: dens=[[0.45526297931444426,-0.12151950530128365],[-0.12151950530128366,0.27816506555651266]]; 1: dens=[[0.5447370206855557,0.12151950530128365],[0.12151950530128366,0.7218349344434873]] }
test prep2 : I -> Q2 outcomes={0,1} { 0: dens=[[0.22779761844727411,-0.06561233699506107],[-0.06561233699506107,0.04506225332775147]]; 1: dens=[[0.6651308399321127,-0.030059455608127714],[-0.030059455608127714,0.06200928829286172]] }
test meas2 : Q2 -> I outcomes={0,1} { 0: dens=[[0.17931315690005778,-0.10796260983023949],[-0.10796260983023952,0.6785644641657607]]; 1: dens=[[0.8206868430999422,0.10796260983023949],[0.10796260983023952,0.32143553583423934]] }
circuit run = (prep0 * prep1 * prep2) ; ladder ; (meas0 * meas1 * meas2)
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


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def outcome(argv: list[str]) -> tuple[str, dict]:
    """The digest of a command's exit code and stdout, and the two in plain form."""
    code, out = run(argv)
    report = json.loads(out) if out else None
    verdict = report.get("verdict") if isinstance(report, dict) else None
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest(), {"exit_code": code, "verdict": verdict}


def sources() -> dict[str, str]:
    """Input name -> theory text: the fixtures, then the ladders."""
    texts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.opt"))}
    texts.update(LADDERS)
    texts.update(CLOSED_LADDERS)
    return texts


def outcomes(name: str, text: str, workdir: Path) -> dict[str, tuple[str, dict]]:
    path = workdir / f"{name}.opt"
    path.write_text(text, encoding="utf-8")
    if name in LADDERS:
        argvs = [["eval", "--circuit", "ladder"]]
    elif name in CLOSED_LADDERS:
        argvs = [["prob", "--test-circuit", "run"]]
    else:
        argvs = commands(text) + [a for fixture, a, *_ in SAMPLED_AT_SCALE if fixture == name]
    return {" ".join([name, *a]): outcome([a[0], str(path), *a[1:]]) for a in argvs}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def verdicts() -> dict[str, dict]:
    return json.loads(VERDICTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(sources()))
def test_output_matches_golden(name, golden, verdicts, tmp_path):
    got = outcomes(name, sources()[name], tmp_path)
    want = {k: v for k, v in golden.items() if k.split(" ", 1)[0] == name}
    assert sorted(got) == sorted(want), "command set changed; regenerate the table"
    assert sorted(got) == sorted(k for k in verdicts if k.split(" ", 1)[0] == name)
    moved = {k: (verdicts[k], got[k][1]) for k in got if got[k][1] != verdicts[k]}
    assert not moved, f"exit code or verdict changed (pinned, got): {moved}"
    changed = [k for k in got if got[k][0] != want[k]]
    assert not changed, f"output changed for {changed}"


@pytest.mark.parametrize("fixture, args, code, witness", SAMPLED_AT_SCALE)
def test_sampled_audits_at_scale_reach_their_verdicts(fixture, args, code, witness):
    got, out = run([args[0], str(FIXTURES / f"{fixture}.opt"), *args[1:]])
    assert got == code
    report = json.loads(out)
    assert report["verdict"] == ("Violated" if code else "Holds")
    if witness is not None:
        assert [c["witness"] for c in report["checks"]] == [witness]


def test_a_declared_leaky_test_violates_causality():
    code, out = run(["audit", str(FIXTURES / "leaky_test.opt"), "--axiom", "causality"])
    assert code == 1
    declared, sampled = json.loads(out)["checks"]
    assert declared == {
        "source": "declared tests", "verdict": "Violated",
        "witness": "effect sum differs from the trace effect by 0.7071067811865475 "
                   "(test 'test #0 on Q')",
    }
    assert sampled["verdict"] == "Holds"


def test_golden_covers_every_input(golden, verdicts):
    assert {k.split(" ", 1)[0] for k in golden} == set(sources())
    assert sorted(verdicts) == sorted(golden)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table: dict[str, tuple[str, dict]] = {}
        for name, text in sources().items():
            table.update(outcomes(name, text, Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, column in ((GOLDEN, 0), (VERDICTS, 1)):
        plain = {k: v[column] for k, v in table.items()}
        path.write_text(json.dumps(plain, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN} and their verdicts to {VERDICTS}", file=sys.stderr)
