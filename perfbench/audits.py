"""Generated three-system theories for the ``audit-sampled`` workload.

Every file declares systems A, B, C of dimensions 2, 3, 2 on one theory, plus
one seeded observation test on a random system, so that the causality audit
has a declared test besides its random ones.  The known answers are the
contrasts the workbench exists to show: complex quantum passes every audit,
classical probability fails purification and real-amplitude quantum fails
local tomography.
"""

from __future__ import annotations

import numpy as np

DIMS = {"A": 2, "B": 3, "C": 2}

# theory -> axiom -> (exit code, verdict); written from the theory, not from a run
KNOWN = {
    "quantum": {
        "faithfulness": (0, "Holds"), "causality": (0, "Holds"),
        "purification": (0, "Holds"), "local-tomography": (0, "Holds"),
    },
    "quantum-real": {
        "faithfulness": (0, "Holds"), "causality": (0, "Holds"),
        "purification": (0, "Holds"), "local-tomography": (1, "Fails"),
    },
    "classical": {
        "faithfulness": (0, "Holds"), "causality": (0, "Holds"),
        "purification": (1, "Violated"), "local-tomography": (0, "Holds"),
    },
}


def _state_dim(theory: str, d: int) -> int:
    return {"quantum": d * d, "quantum-real": d * (d + 1) // 2, "classical": d}[theory]


def theory_text(rng: np.random.Generator, theory: str) -> str:
    """Three systems plus a random k-outcome observation test on one of them."""
    lines = [f"theory {theory}"] + [f"system {s} dim={d}" for s, d in DIMS.items()]
    system = str(rng.choice(list(DIMS)))
    d, k = DIMS[system], int(rng.integers(2, 4))
    if theory == "classical":
        rows = rng.dirichlet(np.ones(k), size=d).T  # k responses summing to one
        branches = [f"vec=[{','.join(repr(float(x)) for x in r)}]" for r in rows]
    else:
        cplx = theory == "quantum"
        raw = []
        for _ in range(k):
            g = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if cplx else 0)
            raw.append(g @ g.conj().T)
        vals, vecs = np.linalg.eigh(sum(raw))
        corr = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
        branches = []
        for e in raw:
            e = corr @ e @ corr.conj().T
            if cplx:
                body = "[" + ",".join(
                    "[" + ",".join(f"[{z.real!r},{z.imag!r}]" for z in map(complex, row)) + "]"
                    for row in e
                ) + "]"
            else:
                e = (e + e.T) / 2  # exact symmetry, as the real theory demands
                body = "[" + ",".join("[" + ",".join(repr(float(x)) for x in row) + "]"
                                      for row in e) + "]"
            branches.append(f"dens={body}")
    body = "; ".join(f"o{i}: {b}" for i, b in enumerate(branches))
    labels = ",".join(f"o{i}" for i in range(k))
    lines.append(f"test probe : {system} -> I outcomes={{{labels}}} {{ {body} }}")
    return "\n".join(lines) + "\n"


def check(theory: str, axiom: str, trials: int, report: dict) -> str | None:
    """Compare one audit report with the known answer; None when it agrees.

    The exit code, ``KNOWN[theory][axiom][0]``, is checked by the caller.
    """
    want = KNOWN[theory][axiom][1]
    if report.get("verdict") != want:
        return f"verdict {report.get('verdict')!r}, expected {want!r}"
    if axiom == "faithfulness":
        systems = report["systems"]
        if [r["system"] for r in systems] != sorted(DIMS):
            return "faithfulness did not report every system"
        bad = [r["system"] for r in systems if r["trials"] != trials or r["failures"]]
        return f"faithfulness trials or failures off on {bad}" if bad else None
    if axiom == "causality":
        checks = report["checks"]
        if [c["verdict"] for c in checks] != ["Holds", "Holds"]:
            return "causality checks are not both Holds"
        return None if checks[1]["tests_checked"] == trials else "causality checked a wrong count"
    if axiom == "purification":
        verdicts = [s["verdict"] for s in report["states"]]
        if len(verdicts) != trials:
            return f"purification audited {len(verdicts)} states, expected {trials}"
        if theory != "classical" and set(verdicts) != {"Purified"}:
            return "a matrix-theory state failed to purify"
        return None
    if len(report["pairs"]) != 6:
        return f"local tomography reported {len(report['pairs'])} pairs, expected 6"
    for pair in report["pairs"]:
        da, db = DIMS[pair["left"]], DIMS[pair["right"]]
        na, nb = _state_dim(theory, da), _state_dim(theory, db)
        joint = _state_dim(theory, da * db)
        got = (pair["left_dim"], pair["right_dim"], pair["product_dim"], pair["joint_dim"],
               pair["product_span_rank"])
        if got != (na, nb, na * nb, joint, min(na * nb, joint)):
            return f"local tomography dims {got} on {pair['left']}{pair['right']}"
    return None
