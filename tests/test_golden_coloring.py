"""Golden outputs of the `hj`, `fu-ramsey` and `fk-density` runs.

Each instance is a list of command lines run in order through
``ipstar.cli.main`` in a fresh directory, with ``output=out``; ``{ckpt}``
stands for the checkpoint the previous step wrote.  After each step the
exit code, standard output and the sha256 of every file under ``out`` are
compared with the values pinned below.  At the end every certificate is
replayed with ``--check``.  The pins were captured from the code before the
two claims shared one search, one stage loop and one certificate path; any
change to them has to be a deliberate format change.  The `fk-density` pins
were captured from the (size, subset) brute force that the pruned search
replaced.  The cover pins, the checkpoints and the split budgets were
re-captured when the search started propagating forced colors and each
cover leaf started listing its reasons; counterexamples and ``--check``
output kept their pins.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from ipstar import cli

INSTANCES = {
    # the eight hj / fu-ramsey runs of the benchmark's coloring workload
    "hj-k4-t2": [["hj", "k=4", "t=2", "m_max=3"]],
    "hj-k2-t5": [["hj", "k=2", "t=5", "m_max=5"]],
    "hj-k2-t4": [["hj", "k=2", "t=4", "m_max=4"]],
    "hj-k3-t2": [["hj", "k=3", "t=2", "m_max=3"]],
    "fu-r7-s2-k2": [["fu-ramsey", "r=7", "s=2", "k=2"]],
    "fu-upto6-s2-k2": [["fu-ramsey", "r_limit=6", "s=2", "k=2"]],
    "fu-r4-s2-k3": [["fu-ramsey", "r=4", "s=2", "k=3"]],
    "fu-r5-s3-k2": [["fu-ramsey", "r=5", "s=3", "k=2"]],
    # budget splits, then a resume without the budget
    "hj-k4-t2-split": [
        ["hj", "k=4", "t=2", "m_max=3", "budget=60"],
        ["hj", "--resume", "{ckpt}", "k=4", "t=2", "m_max=3"],
    ],
    "fu-r7-s2-k2-split": [
        ["fu-ramsey", "r=7", "s=2", "k=2", "budget=100"],
        ["fu-ramsey", "--resume", "{ckpt}", "r=7", "s=2", "k=2"],
    ],
    # the four fk-density runs of the benchmark's coloring workload, and two small ones
    **{
        f"fk-r{r}-N{N}": [["fk-density", f"r={r}", f"N={N}"]]
        for r, N in [(2, 16), (2, 17), (2, 18), (3, 12), (2, 8), (3, 6)]
    },
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def play(steps):
    """Run the steps in the current directory; returns one record per step
    (exit code, stdout, {file: sha256}) and the ``--check`` replays."""
    out = Path("out")
    records = []
    for argv in steps:
        ckpts = sorted(str(p) for p in out.glob("checkpoint-*.txt"))
        argv = [a.replace("{ckpt}", ckpts[0] if ckpts else "") for a in argv]
        rc, stdout = _main([*argv, "output=out"])
        files = {p.name: _sha(p) for p in sorted(out.iterdir())} if out.exists() else {}
        records.append((rc, stdout, files))
    checks = [_main(["--check", str(p)]) for p in sorted(out.glob("*-*-*.txt")) if "checkpoint" not in p.name]
    return records, checks


# name -> ([(exit code, stdout, {file: sha256}) per step], [(exit code, stdout) per --check])
GOLDEN = {
 'fk-r2-N16': ([(0,
                 'fk r=2 N=16: minimum blocking density 1/2\n'
                 'witness: {1,2,3,4,5,6,7,8}\n'
                 'even-blocker certificate: density 1/2, complement sum-free: true\n',
                 {})],
               []),
 'fk-r2-N17': ([(0,
                 'fk r=2 N=17: minimum blocking density 8/17\n'
                 'witness: {1,2,3,4,5,6,7,8}\n'
                 'even-blocker certificate: density 8/17, complement sum-free: true\n',
                 {})],
               []),
 'fk-r2-N18': ([(0,
                 'fk r=2 N=18: minimum blocking density 1/2\n'
                 'witness: {1,2,3,4,5,6,7,8,9}\n'
                 'even-blocker certificate: density 1/2, complement sum-free: true\n',
                 {})],
               []),
 'fk-r2-N8': ([(0,
                'fk r=2 N=8: minimum blocking density 1/2\n'
                'witness: {1,2,3,4}\n'
                'even-blocker certificate: density 1/2, complement sum-free: true\n',
                {})],
              []),
 'fk-r3-N12': ([(0, 'fk r=3 N=12: minimum blocking density 1/4\nwitness: {2,4,6}\n', {})], []),
 'fk-r3-N6': ([(0, 'fk r=3 N=6: minimum blocking density 1/6\nwitness: {2}\n', {})], []),
 'fu-r4-s2-k3': ([(0,
                   'fu r=4 s=2 k=3: counterexample -> out/fu-r4-s2-k3-counterexample.txt\n',
                   {'fu-r4-s2-k3-counterexample.txt': 'b7ea714637c100dd37ef88b8d3dc2c51606ee4126366ed71d7f0f6489ea3b06c'})],
                 [(0, 'certificate valid: fu-counterexample r=4 s=2 k=3\n')]),
 'fu-r5-s3-k2': ([(0,
                   'fu r=5 s=3 k=2: counterexample -> out/fu-r5-s3-k2-counterexample.txt\n',
                   {'fu-r5-s3-k2-counterexample.txt': '1e8976f02086d8715af6acdf9582bcfdcc6a582d28aac3d662ae9772783ee743'})],
                 [(0, 'certificate valid: fu-counterexample r=5 s=3 k=2\n')]),
 'fu-r7-s2-k2': ([(0,
                   'fu r=7 s=2 k=2: every coloring contains a monochromatic family -> '
                   'out/fu-r7-s2-k2-cover.txt\n',
                   {'fu-r7-s2-k2-cover.txt': 'ca765fa653ee1a327a36c2387547beb1125beb8da34f75c4237da8382c2837a2'})],
                 [(0, 'certificate valid: fu-cover r=7 s=2 k=2\n')]),
 'fu-r7-s2-k2-split': ([(2,
                         'fu r=7 s=2 k=2: budget exceeded after 100 candidates\n'
                         'checkpoint -> out/checkpoint-351420c92656.txt\n',
                         {'checkpoint-351420c92656.txt': 'bccc403e6fe7a9aa9d3010ab8037527e200b46da478fac3c2bdce69789316981'}),
                        (0,
                         'resumed at r=7\n'
                         'fu r=7 s=2 k=2: every coloring contains a monochromatic family -> '
                         'out/fu-r7-s2-k2-cover.txt\n',
                         {'fu-r7-s2-k2-cover.txt': 'ca765fa653ee1a327a36c2387547beb1125beb8da34f75c4237da8382c2837a2'})],
                       [(0, 'certificate valid: fu-cover r=7 s=2 k=2\n')]),
 'fu-upto6-s2-k2': ([(0,
                      'fu r=1 s=2 k=2: counterexample -> out/fu-r1-s2-k2-counterexample.txt\n'
                      'fu r=2 s=2 k=2: counterexample -> out/fu-r2-s2-k2-counterexample.txt\n'
                      'fu r=3 s=2 k=2: counterexample -> out/fu-r3-s2-k2-counterexample.txt\n'
                      'fu r=4 s=2 k=2: counterexample -> out/fu-r4-s2-k2-counterexample.txt\n'
                      'fu r=5 s=2 k=2: every coloring contains a monochromatic family -> '
                      'out/fu-r5-s2-k2-cover.txt\n'
                      'minimal r = 5\n',
                      {'fu-r1-s2-k2-counterexample.txt': '13adaa36564d477d1959fadd1adcb8cddbd525328fe48576e7a53755a1ed1b45',
                       'fu-r2-s2-k2-counterexample.txt': 'be96bb0e7441ee353d5fa6c115776fc2693d61ef4ec09c5cd2f6e901cf4ba7a8',
                       'fu-r3-s2-k2-counterexample.txt': '2c67e8cc334144b7232e153568b8bece557d7e5cb23f0a1971b27cbaabc998d8',
                       'fu-r4-s2-k2-counterexample.txt': '9f35e7faef22ddd01fe183834427f4653d1816f3dea8089abc92161cf477246c',
                       'fu-r5-s2-k2-cover.txt': 'f70e9ca50cb16d5077307ae7435426cf1b8721a3174a437137ee4629f71ac22f'})],
                    [(0, 'certificate valid: fu-counterexample r=1 s=2 k=2\n'),
                     (0, 'certificate valid: fu-counterexample r=2 s=2 k=2\n'),
                     (0, 'certificate valid: fu-counterexample r=3 s=2 k=2\n'),
                     (0, 'certificate valid: fu-counterexample r=4 s=2 k=2\n'),
                     (0, 'certificate valid: fu-cover r=5 s=2 k=2\n')]),
 'hj-k2-t4': ([(0,
                'stage m=1: counterexample -> out/hj-k2-t4-m1-counterexample.txt\n'
                'stage m=2: counterexample -> out/hj-k2-t4-m2-counterexample.txt\n'
                'stage m=3: counterexample -> out/hj-k2-t4-m3-counterexample.txt\n'
                'stage m=4: all colorings forced a line -> out/hj-k2-t4-m4-cover.txt\n'
                'HJ(2,4) = 4\n',
                {'hj-k2-t4-m1-counterexample.txt': 'a69ee667d7b992c5d25c13b292ebf85492b5e7efd4d87c9feb38fb060469750f',
                 'hj-k2-t4-m2-counterexample.txt': 'a8ecfbb75532db8733792ee7fb3d0aa0d13d7691c8876aa8066b22fb9adc3c49',
                 'hj-k2-t4-m3-counterexample.txt': '5d52e00577c3e0021571305dfa88cbce54374d57fea16e7a0d5eab219605bdef',
                 'hj-k2-t4-m4-cover.txt': '555ae0ea2b4d91810571cf5dc07899950ee244b488160846bcd5b626440d8c86'})],
              [(0, 'certificate valid: hj-counterexample k=2 t=4 m=1\n'),
               (0, 'certificate valid: hj-counterexample k=2 t=4 m=2\n'),
               (0, 'certificate valid: hj-counterexample k=2 t=4 m=3\n'),
               (0, 'certificate valid: hj-cover k=2 t=4 m=4\n')]),
 'hj-k2-t5': ([(0,
                'stage m=1: counterexample -> out/hj-k2-t5-m1-counterexample.txt\n'
                'stage m=2: counterexample -> out/hj-k2-t5-m2-counterexample.txt\n'
                'stage m=3: counterexample -> out/hj-k2-t5-m3-counterexample.txt\n'
                'stage m=4: counterexample -> out/hj-k2-t5-m4-counterexample.txt\n'
                'stage m=5: all colorings forced a line -> out/hj-k2-t5-m5-cover.txt\n'
                'HJ(2,5) = 5\n',
                {'hj-k2-t5-m1-counterexample.txt': '238120ed13d07debc3b18b581f641dff4a40e6eae1d7997108fe53d025fc7bbb',
                 'hj-k2-t5-m2-counterexample.txt': '6465519953771210f4c5182f2b9066ff23a631c94270607f08a4826538d584dc',
                 'hj-k2-t5-m3-counterexample.txt': '68d980586a04060573b1ed49269d5a315918b393e6bed98310e61d22b378ac74',
                 'hj-k2-t5-m4-counterexample.txt': '3166d0b552619020f7e514f2fee419abcaadd010ae037f7e0bb5ebd2fa105e16',
                 'hj-k2-t5-m5-cover.txt': '7567ed109b3bccb7cad7975afa1a4e058b49e38fbcb21505a6f5f9cf4dfbd325'})],
              [(0, 'certificate valid: hj-counterexample k=2 t=5 m=1\n'),
               (0, 'certificate valid: hj-counterexample k=2 t=5 m=2\n'),
               (0, 'certificate valid: hj-counterexample k=2 t=5 m=3\n'),
               (0, 'certificate valid: hj-counterexample k=2 t=5 m=4\n'),
               (0, 'certificate valid: hj-cover k=2 t=5 m=5\n')]),
 'hj-k3-t2': ([(0,
                'stage m=1: counterexample -> out/hj-k3-t2-m1-counterexample.txt\n'
                'stage m=2: counterexample -> out/hj-k3-t2-m2-counterexample.txt\n'
                'stage m=3: counterexample -> out/hj-k3-t2-m3-counterexample.txt\n'
                'HJ(3,2) > 3 (m_max reached)\n',
                {'hj-k3-t2-m1-counterexample.txt': 'd6ff2496de35612f59b091bc221d2f603040b709d68d321b480a988f9c0008f9',
                 'hj-k3-t2-m2-counterexample.txt': '291cae3382be8bf921176f0e18f24469eb730db08ee53798fbe14a4fd15bab2e',
                 'hj-k3-t2-m3-counterexample.txt': '27949bbb9a5ac6d10ce90a27090500e1f95376336efeb29138d174f04039c271'})],
              [(0, 'certificate valid: hj-counterexample k=3 t=2 m=1\n'),
               (0, 'certificate valid: hj-counterexample k=3 t=2 m=2\n'),
               (0, 'certificate valid: hj-counterexample k=3 t=2 m=3\n')]),
 'hj-k4-t2': ([(0,
                'stage m=1: counterexample -> out/hj-k4-t2-m1-counterexample.txt\n'
                'stage m=2: counterexample -> out/hj-k4-t2-m2-counterexample.txt\n'
                'stage m=3: counterexample -> out/hj-k4-t2-m3-counterexample.txt\n'
                'HJ(4,2) > 3 (m_max reached)\n',
                {'hj-k4-t2-m1-counterexample.txt': '2110c9ee5abbf586d9d5ee8e042ff4fb8570cf436e7656f651e2c4f6973c0e4c',
                 'hj-k4-t2-m2-counterexample.txt': 'df558a6c6417177052eeb712fc32350da6451cb4468a92e91cbe413625f10595',
                 'hj-k4-t2-m3-counterexample.txt': '0204c465edbafd7db50ae7969d495cf2d2a6cebce6981c7ebd0b83bdc090a4a9'})],
              [(0, 'certificate valid: hj-counterexample k=4 t=2 m=1\n'),
               (0, 'certificate valid: hj-counterexample k=4 t=2 m=2\n'),
               (0, 'certificate valid: hj-counterexample k=4 t=2 m=3\n')]),
 'hj-k4-t2-split': ([(2,
                      'stage m=1: counterexample -> out/hj-k4-t2-m1-counterexample.txt\n'
                      'stage m=2: counterexample -> out/hj-k4-t2-m2-counterexample.txt\n'
                      'stage m=3: budget exceeded after 34 candidates\n'
                      'checkpoint -> out/checkpoint-357ba595ca94.txt\n',
                      {'checkpoint-357ba595ca94.txt': '3fc55ab3a6fa31e3e59e7e4d8f3fe4c8f29aed0a2a4bc25284fe1b1661c28640',
                       'hj-k4-t2-m1-counterexample.txt': '2110c9ee5abbf586d9d5ee8e042ff4fb8570cf436e7656f651e2c4f6973c0e4c',
                       'hj-k4-t2-m2-counterexample.txt': 'df558a6c6417177052eeb712fc32350da6451cb4468a92e91cbe413625f10595'}),
                     (0,
                      'resumed at stage m=3\n'
                      'stage m=3: counterexample -> out/hj-k4-t2-m3-counterexample.txt\n'
                      'HJ(4,2) > 3 (m_max reached)\n',
                      {'hj-k4-t2-m1-counterexample.txt': '2110c9ee5abbf586d9d5ee8e042ff4fb8570cf436e7656f651e2c4f6973c0e4c',
                       'hj-k4-t2-m2-counterexample.txt': 'df558a6c6417177052eeb712fc32350da6451cb4468a92e91cbe413625f10595',
                       'hj-k4-t2-m3-counterexample.txt': '0204c465edbafd7db50ae7969d495cf2d2a6cebce6981c7ebd0b83bdc090a4a9'})],
                    [(0, 'certificate valid: hj-counterexample k=4 t=2 m=1\n'),
                     (0, 'certificate valid: hj-counterexample k=4 t=2 m=2\n'),
                     (0, 'certificate valid: hj-counterexample k=4 t=2 m=3\n')])}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert play(INSTANCES[name]) == GOLDEN[name]
