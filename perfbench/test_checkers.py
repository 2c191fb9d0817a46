"""Tests of the benchmark's own checkers: right answers pass, and a tampered
certificate, a wrong member of R and an out-of-range gamma are rejected.

    python3 -m pytest perfbench/test_checkers.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402
import workloads  # noqa: E402
from ipstar import cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# certificates


def test_counterexample_checker_accepts_and_rejects(tmp_path):
    _cli(["hj", "k=3", "t=2", "m_max=2", f"output={tmp_path}"])
    path = tmp_path / "hj-k3-t2-m2-counterexample.txt"
    check = workloads._cert_check(path, "counterexample", (3, 2, 2))
    assert check(*_cli(["--check", path])) is None

    # colour every word 1: every line is monochromatic
    text = path.read_text()
    kind, params, coloring = ck.parse_coloring(text)
    tampered = text.replace("".join(map(str, coloring)), "1" * len(coloring))
    assert ck.check_hj_counterexample(3, 2, 2, ck.parse_coloring(tampered)[2]) is not None
    path.write_text(tampered)
    assert check(*_cli(["--check", path])) is not None


def test_fu_counterexample_checker_rejects_a_monochromatic_family():
    good = None
    for coloring in product((1, 2), repeat=7):
        if ck.check_fu_counterexample(3, 2, 2, coloring) is None:
            good = coloring
            break
    assert good is not None  # F_3 has a 2-colouring with no monochromatic a, b, a|b
    assert ck.check_fu_counterexample(3, 2, 2, (1,) * 7) is not None


def test_tampered_cover_certificate_is_rejected(tmp_path):
    _cli(["hj", "k=2", "t=2", "m_max=2", f"output={tmp_path}"])
    path = tmp_path / "hj-k2-t2-m2-cover.txt"
    check = workloads._cert_check(path, "cover", (2, 2, 2))
    assert check(*_cli(["--check", path])) is None
    lines = path.read_text().splitlines()
    leaves = [i for i, ln in enumerate(lines) if ln.startswith("leaf ")]
    del lines[leaves[-1]]  # drop one leaf: the tree no longer covers every colouring
    path.write_text("\n".join(lines) + "\n")
    assert check(*_cli(["--check", path])) is not None


def test_fk_checker_rejects_a_non_blocking_witness():
    rc, out = _cli(["fk-density", "r=2", "N=8"])
    assert rc == 0 and ck.check_fk(2, 8, out) is None
    witness = next(ln for ln in out.splitlines() if ln.startswith("witness:"))
    # the complement {1,2,3,4} holds FS(1,1) = {1,2}
    assert ck.check_fk(2, 8, out.replace(witness, "witness: {5,6,7,8}")) is not None


# ---------------------------------------------------------------------------
# return sets


def _f7_model():
    # one 7-cycle plus two fixed points; B meets the cycle in an arc of three,
    # so the shift by 4 = 2^2 moves that arc off itself and u = 2, 5 leave R
    pts = list(range(9))
    weights = {x: Fraction(1, 9) for x in pts}
    return ck.PermModel(7, pts, weights, [list(range(7))], {0, 1, 2, 7})


def test_R_checker_rejects_a_wrong_member(tmp_path):
    model, terms, eps, window = _f7_model(), [(1, 2)], Fraction(1, 100), "full"
    sysf = tmp_path / "sys.txt"
    sysf.write_text(model.text())
    elems, R = ck.expected_R(model, terms, eps, window)
    assert R == {0, 1, 3, 4, 6}
    rc, _out = _cli(["classify", f"system={sysf}", "phi=u^2", "epsilon=1/100", "window=full",
                     "r_max=3", f"output={tmp_path}"])
    tree = json.loads((tmp_path / "classify.json").read_text())
    assert rc == 0 and ck.check_R(model.dom, tree["R"]["members"], R) is None
    assert ck.check_classification(model.dom, tree["classification"], R, elems) is None

    outsider = next(u for u in elems if u not in R)
    assert ck.check_R(model.dom, tree["R"]["members"] + [str(outsider)], R) is not None
    assert ck.check_R(model.dom, tree["R"]["members"][1:], R) is not None


def test_csv_checker_rejects_a_flipped_flag(tmp_path):
    model, terms, eps, window = _f7_model(), [(1, 2)], Fraction(1, 100), "full"
    sysf = tmp_path / "sys.txt"
    sysf.write_text(model.text())
    _cli(["recurrence", f"system={sysf}", "phi=u^2", "epsilon=1/100", "window=full", f"output={tmp_path}"])
    text = (tmp_path / "recurrence.csv").read_text()
    assert ck.check_csv_rows(model, terms, eps, window, text) is None
    flipped = text.replace("true", "TMP").replace("false", "true").replace("TMP", "false")
    assert ck.check_csv_rows(model, terms, eps, window, flipped) is not None


def test_classification_checker_rejects_a_witness_inside_R():
    dom = ck.Domain("field", 7)
    R = {0, 1, 6}
    ok = {"1": {"kind": "fails", "witness": ["2"]}, "2": {"kind": "holds", "witness": None}}
    assert ck.check_classification(dom, ok, R, range(7)) is None
    bad = {"1": {"kind": "fails", "witness": ["1"]}}
    assert ck.check_classification(dom, bad, R, range(7)) is not None
    not_monotone = {"1": {"kind": "holds", "witness": None}, "2": {"kind": "fails", "witness": ["2", "2"]}}
    assert ck.check_classification(dom, not_monotone, R, range(7)) is not None


def test_correlations_match_the_definitions():
    rot = ck.RotModel(Fraction(1, 4), [(0, Fraction(1, 2))])
    assert rot.mu() == Fraction(1, 2)
    assert rot.corr(1) == Fraction(1, 4)  # [0,1/2) cap [1/4,3/4)
    assert rot.corr(2) == 0
    bern = ck.BernModel(2, [Fraction(1, 2)] * 2, {(): {0}, (0, 1): {1}})
    assert bern.mu() == Fraction(1, 4)
    assert bern.corr((0, 1)) == 0  # moves coordinate 0 onto t, whose letter differs
    assert bern.corr((1,)) == Fraction(1, 16)  # disjoint supports


# ---------------------------------------------------------------------------
# cover search


def test_search_checker_rejects_out_of_range_gamma(tmp_path):
    sysf = tmp_path / "rot.txt"
    sysf.write_text("backend rotation\nrho 1/7\n")
    gens = [3, 10, 5, 8, 12, 1, 9]
    rc, out = _cli(["search", f"system={sysf}", "x=0", "m=u^2", "epsilon=1/100",
                    "gens=" + ",".join(map(str, gens))])
    model = ck.RotModel(Fraction(1, 7), [])
    args = (model, 1, 2, Fraction(0), Fraction(1, 100), [Fraction(g) for g in gens])
    assert rc == 0 and ck.check_search(*args, out) is None
    gamma = next(ln for ln in out.splitlines() if ln.startswith("gamma:"))
    for bad in ("{0}", "{8}", "{}", "{1,1}"):
        assert ck.check_search(*args, out.replace(gamma, f"gamma: {bad}")) is not None


def test_search_checker_demands_a_witness_at_the_pigeonhole_length():
    model = ck.RotModel(Fraction(1, 5), [])
    absent = "status: absent\nsufficient length: 5\n"
    args = (model, 1, 2, Fraction(0), Fraction(1, 100))
    assert ck.check_search(*args, [Fraction(g) for g in range(1, 5)], absent) is None
    assert ck.check_search(*args, [Fraction(g) for g in range(1, 6)], absent) is not None
    assert ck.check_search(*args, [Fraction(1)] * 5, "status: absent\nsufficient length: 7\n") is not None
