"""Golden outputs of `ipstar search`.

Each case writes its own system file, runs ``search`` through
``ipstar.cli.main`` and compares the exit code and the sha256 of standard
output with the pin below.  Standard output carries the status, ``words
scanned``, the cells, and for a hit ``gamma``, ``u_gamma``, the exponents,
``distance_sq``, ``config`` and ``sufficient length``, so a pin fixes the
first monochromatic configuration the line scan finds.  The pins were
captured from the code that scanned lines through a dictionary colour table
and ``Fraction`` cells; any change to them has to be deliberate.
"""

import contextlib
import hashlib
import io

import pytest

from ipstar import cli

PERM_7 = """backend finite-perm
p 7
points 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
weights 1/33 1/33 1/33 1/33 1/33 1/33 1/33 3/33 3/33 3/33 3/33 3/33 3/33 3/33 2/33 3/33
gen (0 3 5 1 6 2 4)(7 9 11 13 8 10 12)
set B 0 2 3 8 9 13 14 15
"""

PERM_5 = """backend finite-perm
p 5
points 0 1 2 3 4 5 6 7 8 9 10 11
weights 2/27 2/27 2/27 2/27 2/27 3/27 3/27 3/27 3/27 3/27 1/27 1/27
gen (0 2 4 1 3)(5 6 7 8 9)
set B 1 2 5 6 10 11
"""


def _rot(rho: str) -> str:
    return f"backend rotation\nrho {rho}\n"


# name -> (system text, search arguments after system=)
CASES = {
    "rot7-r7": (_rot("1/7"), ["x=0", "m=u^2", "epsilon=1/100", "gens=1,2,3,4,5,6,7"]),
    "rot6-r7": (_rot("1/6"), ["x=5/12", "m=2*u^2", "epsilon=1/50", "gens=13,4,27,5,2,36,1"]),
    "rot5-r7": (_rot("1/5"), ["x=7/12", "m=3*u^2", "epsilon=1/100", "gens=3,14,5,21,2,43,4"]),
    "rot11-r6": (_rot("1/11"), ["x=1/12", "m=u^2", "epsilon=1/100", "gens=4,9,57,1,30,7"]),
    "rot2of7-r6-rational": (
        _rot("2/7"),
        ["x=1/3", "m=3/2*u^2", "epsilon=1/30", "gens=1/2,-3/4,5/3,2,-7,1/6"],
    ),
    "rot3of13-r6-negative": (
        _rot("3/13"),
        ["x=0", "m=-2*u^2", "epsilon=1/40", "gens=-1,-5,12,-8,3,-2"],
    ),
    # coarse cells: the first line has a non-empty base and a non-zero distance
    "rot97-r6-coarse": (_rot("1/97"), ["x=0", "m=u^2", "epsilon=1/3", "gens=5,11,23,31,2,17"]),
    "rot97-r7-coarse": (
        _rot("1/97"),
        ["x=1/5", "m=u^2", "epsilon=1/4", "gens=5,11,23,31,2,17,40"],
    ),
    "rot5of101-r6-coarse": (
        _rot("5/101"),
        ["x=1/2", "m=2*u^2", "epsilon=1/5", "gens=3,8,13,29,44,71"],
    ),
    "rot7of61-r6-rational-coarse": (
        _rot("7/61"),
        ["x=1/7", "m=u^2", "epsilon=1/6", "gens=1/3,5/2,7,-4,9/5,2"],
    ),
    "rot-cubic-r4": (_rot("3/89"), ["x=0", "m=u^3", "epsilon=1/3", "gens=2,5,9,13"]),
    "rot7-absent": (_rot("1/7"), ["x=0", "m=u^2", "epsilon=1/100", "gens=1,2"]),
    "rot-two-variable-r6": (
        _rot("1/7"),
        ["x=0", "m=x1*x2", "epsilon=1/20", "gens=(1,2),(3,1),(2,5),(4,4),(6,1),(1,3)"],
    ),
    "rot-two-variable-r6-coarse": (
        _rot("1/53"),
        ["x=0", "m=x1*x2", "epsilon=1/4", "gens=(1,2),(3,5),(7,1),(2,9),(4,4),(6,1)"],
    ),
    "rot7-zero-coefficient": (_rot("1/7"), ["x=0", "m=0*u^2", "epsilon=1/10", "gens=1,2"]),
    "rot0": (_rot("0"), ["x=0", "m=u^2", "epsilon=1/10", "gens=1,2"]),
    "rot-negative-rho": (_rot("-3/7"), ["x=1/3", "m=u^2", "epsilon=1/10", "gens=1,2,4"]),
    "rot7-one-cell": (_rot("1/7"), ["x=0", "m=u^2", "epsilon=3", "gens=1,2"]),
    # refused inputs: exit 1 and a message on standard error
    "rot7-too-large": (_rot("1/7"), ["x=0", "m=u^2", "epsilon=1/100", "gens=" + "1," * 10 + "1"]),
    "rot7-x-above-one": (_rot("1/7"), ["x=3/2", "m=u^2", "epsilon=1/10", "gens=1,2"]),
    "rot7-x-negative": (_rot("1/7"), ["x=-1/7", "m=u^2", "epsilon=1/10", "gens=1,2"]),
    "perm7-r7": (PERM_7, ["x=B", "m=u^2", "epsilon=1/2", "gens=3,1,6,2,5,4,1"]),
    "perm7-r6": (PERM_7, ["x=B", "m=2*u^2", "epsilon=1/3", "gens=1,1,2,1,1,3"]),
    "perm5-r6": (PERM_5, ["x=B", "m=3*u^2", "epsilon=1/2", "gens=2,2,1,2,2,1"]),
    "perm5-r7-two-variable": (
        PERM_5,
        ["x=B", "m=x1*x2", "epsilon=1/2", "gens=(1,2),(3,4),(2,2),(4,1),(0,3),(1,1),(2,4)"],
    ),
}


def run_case(tmp_path, name):
    """(exit code, sha256 of stdout, first line of stderr) of one case."""
    text, args = CASES[name]
    sysf = tmp_path / f"{name}.txt"
    sysf.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["search", f"system={sysf}", *args])
    first_err = err.getvalue().partition("\n")[0]
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), first_err


# name -> (exit code, sha256 of stdout, first line of stderr)
GOLDEN = {
    "perm5-r6": (
        0,
        "ac886a75499e753a01fc1c05be41fbd1563a9bfc02effa94f473f58903894378",
        "",
    ),
    "perm5-r7-two-variable": (
        0,
        "1de566761e7be46e4d8645901c1a1c63928040e593a33d2afeaa4239e9665328",
        "",
    ),
    "perm7-r6": (
        0,
        "9b4b618d0d7832d2322218c9295935c544900824e7aef41f0d91280310006044",
        "",
    ),
    "perm7-r7": (
        0,
        "c4e4bff9b585b07657e08662e4e0bef174b96925c498f379ee801943ecfb9cab",
        "",
    ),
    "rot-cubic-r4": (
        0,
        "fa82d89b28a8dc82c578661a4307dcef1a53d64141aad9a12444d189c0bba914",
        "",
    ),
    "rot-negative-rho": (
        0,
        "5620dc85c577a5252ae73bdf8f489c52204029a553c7b9d9b36e169fc9a06b0f",
        "",
    ),
    "rot-two-variable-r6": (
        0,
        "eeb800d4365a14dabf85f274937c68d7649b363f2ba11b81e2339f2d018c25d3",
        "",
    ),
    "rot-two-variable-r6-coarse": (
        0,
        "ce5bd165a8960d2d27916199960bc077f96a95901e47d8768dae15bf124153ac",
        "",
    ),
    "rot0": (
        0,
        "e55b7ae1f07e7a7e887b3c7bde3aba14bdfffe3caa383b6b36401696bb5a4c99",
        "",
    ),
    "rot11-r6": (
        0,
        "858e49d445a515db52190edbb2a174d5b01293a0c25dde39537a89370f0de558",
        "",
    ),
    "rot2of7-r6-rational": (
        0,
        "5313ecfbd0b67a5da3cff068b28e608601394a2d2a90e5cc9f288eb09ef5be8c",
        "",
    ),
    "rot3of13-r6-negative": (
        0,
        "df9ed8b1e8bb9bc35e639ec27d821de4aaa4b40b4efdf1c3d2114295c94e241c",
        "",
    ),
    "rot5-r7": (
        0,
        "ae2a2a2acc990b69a550769742ffe2e7fc84a7411b0c9eac6c33e7cd919c6052",
        "",
    ),
    "rot5of101-r6-coarse": (
        0,
        "942f366cfbb4dcc82cdac3a3325f0b2f5788442462e9fe2206546c0b30e8f69e",
        "",
    ),
    "rot6-r7": (
        0,
        "3b8c848d7da8847e80a6bba1490ad5f539657ec6c483c650e3a6024035b9aefa",
        "",
    ),
    "rot7-absent": (
        0,
        "72d9953634a2082271f72f5a0b4653aa198ac3b1918188124cd1a077d706d472",
        "",
    ),
    "rot7-one-cell": (
        0,
        "c71f0d2c59916a631ea8b4fcf38a8ff4cec7940d5512318f991569df00551440",
        "",
    ),
    "rot7-r7": (
        0,
        "6c4e78f6d45d6916a86c2d2c826bb26078844a89789b06aed25f64fbe2de1bc0",
        "",
    ),
    "rot7-too-large": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: search space too large; fewer generators or lower degree",
    ),
    "rot7-x-above-one": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: tracked point must lie in [0, 1)",
    ),
    "rot7-x-negative": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: tracked point must lie in [0, 1)",
    ),
    "rot7-zero-coefficient": (
        0,
        "9213a154ce045f46a66ac832251e3fdd424b231f1cb60433ffbf39115ec7422e",
        "",
    ),
    "rot7of61-r6-rational-coarse": (
        0,
        "11715bcb2f49296747e1a22f8d17bf9499a160cdfe9eb6b6f87db4493d2757dc",
        "",
    ),
    "rot97-r6-coarse": (
        0,
        "af7b1a278be499f4d9129e0f0d7a29c77cceedc6f24a84181e8c79513f2fa43e",
        "",
    ),
    "rot97-r7-coarse": (
        0,
        "e8fa788350a2b01258a91bfdd05f39bcd71bfc4500f7154535e49d822f38f3ac",
        "",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_output_is_pinned(tmp_path, name):
    assert run_case(tmp_path, name) == GOLDEN[name]
