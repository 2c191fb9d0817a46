"""End-to-end checks of the command line front door."""

import json

import pytest

from ipstar import cli
from ipstar.cli import ExperimentConfig, config_hash, parse_config, render_config

F5_SYSTEM = """backend finite-perm
p 5
points 0 1 2 3 4
gen (0 1 2 3 4)
set B 0 1
set S 0
"""

ROT_SYSTEM = """backend rotation
rho 1/7
"""

BERN_SYSTEM = """backend bernoulli
p 2
probs 1/2 1/2
set B []:0
"""


def _sys_file(tmp_path, text=F5_SYSTEM, name="sys.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_roundtrip():
    text = """# comment
command = recurrence

[files]
system = f5.txt   # trailing comment
[map]
phi = u^2
epsilon = 1/100
window = full
"""
    cfg, errors = parse_config(text)
    assert not errors
    assert cfg.command == "recurrence"
    assert cfg.values["system"] == "f5.txt"
    assert cfg.values["set"] == "B"  # default filled
    assert cfg.values["format"] == "csv"
    assert cfg.lines["epsilon"] == 8
    # canonical form reparses to the same config
    cfg2, errors2 = parse_config(render_config(cfg))
    assert not errors2
    assert cfg2.values == cfg.values


def test_parse_config_collects_every_error_in_line_order():
    text = """command = recurrence
system = f5.txt
epsilon = 1/0
phi = u^2
bogus = 3
epsilon = 2
[half section
"""
    cfg, errors = parse_config(text)
    assert cfg is None
    msgs = [(e.line, e.message) for e in errors]
    assert msgs[0][0] == 3 and "zero denominator" in msgs[0][1]
    assert msgs[1][0] == 5 and "unknown key" in msgs[1][1]
    assert msgs[2][0] == 6 and "duplicate key" in msgs[2][1]
    assert msgs[3][0] == 7 and "section" in msgs[3][1]
    # a key that failed conversion is not also reported missing
    assert [e for e in errors if e.line is None] == [
        e for e in errors if "missing required" in e.message
    ]
    assert sum("missing required" in e.message for e in errors) == 1  # window only


def test_parse_config_command_rules():
    _, errors = parse_config("command = hj\n", command="recurrence")
    assert any("invoked as recurrence" in e.message for e in errors)
    _, errors = parse_config("k = 2\n")
    assert any("no command given" in e.message for e in errors)
    _, errors = parse_config("command = frobnicate\n")
    assert any("unknown command" in e.message for e in errors)


def test_overrides_beat_file_and_must_be_pairs():
    cfg, errors = parse_config(
        "command = hj\nk = 2\nt = 2\n", overrides=("k=3", "m_max=4")
    )
    assert not errors
    assert cfg.values["k"] == 3 and cfg.values["m_max"] == 4
    _, errors = parse_config("command = hj\nk = 2\nt = 2\n", overrides=("k3",))
    assert any("expected key=value" in e.message for e in errors)


def test_fu_needs_exactly_one_of_r_and_r_limit():
    _, errors = parse_config("command = fu-ramsey\ns = 2\nk = 2\n")
    assert any("exactly one" in e.message for e in errors)
    _, errors = parse_config("command = fu-ramsey\ns = 2\nk = 2\nr = 1\nr_limit = 3\n")
    assert any("exactly one" in e.message for e in errors)


def test_config_hash_ignores_operational_knobs():
    base, _ = parse_config("command = hj\nk = 2\nt = 3\n")
    tuned, _ = parse_config("command = hj\nk = 2\nt = 3\nbudget = 7\noutput = elsewhere\n")
    other, _ = parse_config("command = hj\nk = 2\nt = 2\n")
    assert config_hash(base) == config_hash(tuned)
    assert config_hash(base) != config_hash(other)


# ---------------------------------------------------------------------------
# word-length threshold runs


def test_hj_full_run(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["hj", "k=2", "t=2", f"output={tmp_path}"])
    assert rc == 0
    assert "HJ(2,2) = 2" in out
    assert (tmp_path / "hj-k2-t2-m1-counterexample.txt").exists()
    assert (tmp_path / "hj-k2-t2-m2-cover.txt").exists()


def test_hj_budget_checkpoint_resume_cycle(tmp_path, capsys):
    argv = ["hj", "k=2", "t=3", "m_max=4", f"output={tmp_path}"]
    rc, out, _ = _run(capsys, argv + ["budget=5"])
    assert rc == 2
    assert "budget exceeded" in out
    cks = list(tmp_path.glob("checkpoint-*.txt"))
    assert len(cks) == 1
    body = cks[0].read_text()
    assert body.startswith("checkpoint hj\n")
    # raising the budget is allowed; semantic changes are not
    rc, out, err = _run(capsys, ["hj", "--resume", str(cks[0]), "k=2", "t=3", "m_max=5"])
    assert rc == 1 and "different config" in err
    rc, out, _ = _run(capsys, argv + ["budget=100000", "--resume", str(cks[0])])
    assert rc == 0
    assert "resumed at stage m=" in out
    assert "HJ(2,3) = 3" in out
    assert not cks[0].exists()  # consumed on success


@pytest.mark.parametrize(
    "argv, budget, cert",
    [
        (["hj", "k=2", "t=5", "m_max=5"], 3000, "hj-k2-t5-m5-cover.txt"),
        (["fu-ramsey", "r=7", "s=2", "k=2"], 1000, "fu-r7-s2-k2-cover.txt"),
    ],
)
def test_resumed_cover_certificate_matches_unsplit_run(tmp_path, capsys, argv, budget, cert):
    full, split = tmp_path / "full", tmp_path / "split"
    assert _run(capsys, argv + [f"output={full}"])[0] == 0
    assert _run(capsys, argv + [f"output={split}", f"budget={budget}"])[0] == 2
    ck = next(split.glob("checkpoint-*.txt"))
    assert _run(capsys, argv + [f"output={split}", "--resume", str(ck)])[0] == 0
    assert (split / cert).read_bytes() == (full / cert).read_bytes()
    rc, out, _ = _run(capsys, ["--check", str(split / cert)])
    assert rc == 0 and "certificate valid" in out


def test_budget_spent_at_a_stage_boundary(tmp_path, capsys):
    # r = 1, 2, 3 take all 15 candidates, so r = 4 starts with none left
    argv = ["fu-ramsey", "r_limit=6", "s=2", "k=2"]
    full, split = tmp_path / "full", tmp_path / "split"
    assert _run(capsys, argv + [f"output={full}"])[0] == 0
    rc, out, _ = _run(capsys, argv + [f"output={split}", "budget=15"])
    assert rc == 2
    assert "fu r=4 s=2 k=2: budget exceeded after 0 candidates\n" in out
    ck = next(split.glob("checkpoint-*.txt"))
    assert "candidates 0\n" in ck.read_text()
    rc, out, _ = _run(capsys, argv + [f"output={split}", "--resume", str(ck)])
    assert rc == 0 and out.startswith("resumed at r=4\n") and out.endswith("minimal r = 5\n")
    files = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}  # noqa: E731
    assert files(split) == files(full)


def test_checkpoint_outside_the_run_refused(tmp_path, capsys):
    argv = ["hj", "k=2", "t=3", "m_max=4", f"output={tmp_path}"]
    _run(capsys, argv + ["budget=5"])
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    ck.write_text(ck.read_text().replace("\nm 2\n", "\nm 9\n"))
    rc, _, err = _run(capsys, argv + ["--resume", str(ck)])
    assert rc == 1 and "checkpoint resumes m=9, outside this run" in err
    ck.write_text(ck.read_text().replace("\nm 9\n", "\n"))  # no stage at all
    rc, _, err = _run(capsys, argv + ["--resume", str(ck)])
    assert rc == 1 and "not an integer" in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (["hj", "k=2", "t=2"], "hj-k2-t2-m1-counterexample.txt"),
        (["hj", "k=2", "t=3", "m_max=4", "budget=1"], None),  # only the checkpoint
        (["recurrence", "phi=u^2", "epsilon=1/10", "window=full"], "recurrence.csv"),
    ],
    ids=["certificate", "checkpoint", "report"],
)
def test_writes_replace_the_target_whole_or_not_at_all(tmp_path, capsys, monkeypatch, argv, target):
    out = tmp_path / "out"
    if argv[0] == "recurrence":
        argv = argv + [f"system={_sys_file(tmp_path)}"]
    assert _run(capsys, argv + [f"output={out}"])[0] in (0, 2)
    path = out / target if target else next(out.glob("checkpoint-*.txt"))
    path.write_text("old\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        cli.main(argv + [f"output={out}"])
    capsys.readouterr()
    assert path.read_text() == "old\n"
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


def test_checkpoint_for_wrong_command_refused(tmp_path, capsys):
    _run(capsys, ["hj", "k=2", "t=3", "m_max=4", "budget=5", f"output={tmp_path}"])
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    rc, _, err = _run(
        capsys, ["fu-ramsey", "--resume", str(ck), "r=2", "s=2", "k=2", f"output={tmp_path}"]
    )
    assert rc == 1 and "for command 'hj'" in err


# ---------------------------------------------------------------------------
# coloring claims and certificates


def test_fu_counterexample_and_check_cycle(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["fu-ramsey", "r=3", "s=2", "k=2", f"output={tmp_path}"])
    assert rc == 0
    cert = tmp_path / "fu-r3-s2-k2-counterexample.txt"
    assert cert.exists()
    rc, out, _ = _run(capsys, ["--check", str(cert)])
    assert rc == 0 and "certificate valid" in out
    tampered = tmp_path / "tampered.txt"
    tampered.write_text(cert.read_text().replace("coloring 1121221", "coloring 1111111"))
    rc, out, _ = _run(capsys, ["--check", str(tampered)])
    assert rc == 1 and "INVALID" in out


def test_check_unreadable_and_malformed(tmp_path, capsys):
    rc, _, err = _run(capsys, ["--check", str(tmp_path / "nope.txt")])
    assert rc == 1 and "cannot read certificate" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("certificate upside-down\n")
    rc, _, err = _run(capsys, ["--check", str(bad)])
    assert rc == 1 and "unknown certificate kind" in err


def test_one_letter_hj_cover_checks(tmp_path, capsys):
    # HJ(1, t) = 1: the one word of length 1 is a line by itself
    rc, out, _ = _run(capsys, ["hj", "k=1", "t=3", "m_max=2", f"output={tmp_path}"])
    assert rc == 0 and "HJ(1,3) = 1" in out
    rc, out, _ = _run(capsys, ["--check", str(tmp_path / "hj-k1-t3-m1-cover.txt")])
    assert rc == 0 and "certificate valid: hj-cover k=1 t=3 m=1" in out


@pytest.mark.parametrize(
    "text, field",
    [
        ("certificate fu-cover\nr -1\ns 2\nk 2\nleaf 1 {1}\n", "r"),
        ("certificate hj-cover\nk 0\nt 2\nm 1\nleaf 1 0\n", "k"),
        ("certificate hj-counterexample\nk 2\nt 2\nm 0\ncoloring 12\n", "m"),
    ],
)
def test_check_refuses_parameters_below_one(tmp_path, capsys, text, field):
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    rc, out, err = _run(capsys, ["--check", str(cert)])
    assert rc == 1 and out == ""
    assert f"{field} must be at least 1" in err


def test_fu_minimal_mode_reports_absence(tmp_path, capsys):
    rc, out, _ = _run(capsys, ["fu-ramsey", "r_limit=2", "s=2", "k=2", f"output={tmp_path}"])
    assert rc == 0
    assert "no universal r found up to r_limit 2" in out


def test_fk_density_with_even_blocker(capsys, tmp_path):
    rc, out, _ = _run(capsys, ["fk-density", "r=2", "N=8", f"output={tmp_path}"])
    assert rc == 0
    assert "minimum blocking density 1/2" in out
    assert "witness: {1,2,3,4}" in out
    assert "complement sum-free: true" in out
    rc, _, err = _run(
        capsys, ["fk-density", "--resume", "x", "r=2", "N=8", f"output={tmp_path}"]
    )
    assert rc == 1 and "not resumable" in err


def test_example_a(capsys):
    rc, out, _ = _run(capsys, ["example-a", "r_max=3"])
    assert rc == 0
    assert "block 1: 4" in out
    assert out.count(": pass") == 3


# ---------------------------------------------------------------------------
# measure-system experiments


def test_recurrence_csv_run_is_reproducible(tmp_path, capsys):
    sysf = _sys_file(tmp_path)
    argv = [
        "recurrence",
        f"system={sysf}",
        "phi=u^2",
        "epsilon=1/100",
        "window=full",
        f"output={tmp_path}",
    ]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert "mu(B) = 2/5" in out
    assert "R: 5 of 5 window elements" in out
    body = (tmp_path / "recurrence.csv").read_text().splitlines()
    assert body[0].startswith("# generated: ")
    assert body[1] == "w,mu_B,corr,threshold,in_R"
    assert body[2] == "0,2/5,2/5,3/20,true"
    assert len(body) == 7 and all(line.endswith("true") for line in body[2:])
    first = body[1:]
    rc, _, _ = _run(capsys, argv)
    assert rc == 0
    again = (tmp_path / "recurrence.csv").read_text().splitlines()
    assert again[1:] == first  # identical modulo the timestamp line


def test_recurrence_report_format(tmp_path, capsys):
    sysf = _sys_file(tmp_path)
    rc, _, _ = _run(
        capsys,
        [
            "recurrence",
            f"system={sysf}",
            "phi=u^2",
            "epsilon=1/100",
            "window=full",
            "format=report",
            f"output={tmp_path}",
        ],
    )
    assert rc == 0
    tree = json.loads((tmp_path / "recurrence.json").read_text())
    assert tree["R"]["members"] == ["0", "1", "2", "3", "4"]
    assert tree["R"]["exact"] is True
    assert tree["bounds"]["khintchine"] == "2/5"


def test_classify_run_with_witness(tmp_path, capsys):
    sysf = _sys_file(tmp_path)
    rc, out, _ = _run(
        capsys,
        [
            "classify",
            f"system={sysf}",
            "set=S",
            "phi=u^2",
            "epsilon=1/50",
            "window=full",
            "r_max=2",
            f"output={tmp_path}",
        ],
    )
    assert rc == 0
    assert "r=1: fails witness=1" in out
    assert "r=2: fails witness=1,1" in out
    tree = json.loads((tmp_path / "classify.json").read_text())
    assert tree["classification"]["2"]["kind"] == "fails"


def test_classify_budget_checkpoint_resume(tmp_path, capsys):
    sysf = _sys_file(tmp_path)
    argv = [
        "classify",
        f"system={sysf}",
        "phi=u^2",
        "epsilon=1/100",
        "window=full",
        "r_max=2",
        f"output={tmp_path}",
    ]
    rc, out, _ = _run(capsys, argv + ["budget=3"])
    assert rc == 2
    assert "r=1: budget exceeded after 3 candidates" in out
    assert (tmp_path / "classify.json").exists()  # partial report still lands
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    assert "r 1" in ck.read_text()
    rc, out, _ = _run(capsys, argv + ["budget=100000", "--resume", str(ck)])
    assert rc == 0
    assert "resumed at r=1" in out
    assert "r=1: holds" in out and "r=2: holds" in out


def test_search_on_the_cycle(tmp_path, capsys):
    sysf = _sys_file(tmp_path)
    rc, out, _ = _run(
        capsys,
        ["search", f"system={sysf}", "x=B", "m=u^2", "epsilon=1/2", "gens=1,2,3,4,1"],
    )
    assert rc == 0
    assert "status: found" in out
    assert "distance_sq: 0" in out
    assert "sufficient length: 5" in out


def test_search_on_the_rotation(tmp_path, capsys):
    sysf = _sys_file(tmp_path, ROT_SYSTEM)
    rc, out, _ = _run(
        capsys,
        [
            "search",
            f"system={sysf}",
            "x=0",
            "m=u^2",
            "epsilon=1/100",
            "gens=1,2,3,4,5,6,7",
        ],
    )
    assert rc == 0
    assert "status: found" in out
    assert "exponents: 49" in out
    assert "sufficient length: 7" in out


@pytest.mark.parametrize(
    "text, x",
    [
        ("backend rotation\nrho 1/7 1/5\n", "0"),
        ("backend finite-perm\np 3\npoints 0 1 2 3 4 5 6 7 8\n"
         "gen (0 1 2)(3 4 5)(6 7 8)\ngen (0 3 6)(1 4 7)(2 5 8)\nset B 0 1 4\n", "B"),
    ],
)
def test_search_refuses_a_vector_acting_group(tmp_path, capsys, text, x):
    # a monomial's scalar exponent cannot drive two acting coordinates
    sysf = _sys_file(tmp_path, text)
    rc, out, err = _run(
        capsys, ["search", f"system={sysf}", f"x={x}", "m=u^2", "epsilon=1/2", "gens=1,2"]
    )
    assert rc == 1 and out == ""
    assert "acting element needs 2 coordinates" in err


def test_search_refuses_bernoulli(tmp_path, capsys):
    sysf = _sys_file(tmp_path, BERN_SYSTEM)
    rc, _, err = _run(
        capsys, ["search", f"system={sysf}", "x=B", "m=u", "epsilon=1/2", "gens=[1]"]
    )
    assert rc == 1 and "compact backend" in err
    # the line scan is serial; a workers key is a config error like any unknown key
    argv = ["search", f"system={_sys_file(tmp_path)}", "x=B", "m=u^2", "epsilon=1/2", "gens=1"]
    rc, _, err = _run(capsys, argv + ["workers=2"])
    assert rc == 1 and "unknown key 'workers'" in err


def test_density_decays(tmp_path, capsys):
    sysf = _sys_file(tmp_path, BERN_SYSTEM)
    rc, out, _ = _run(capsys, ["density", f"system={sysf}", "phi=u", "N=3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dlim over N=1..3"
    from fractions import Fraction

    vals = [Fraction(line.split(": ")[1]) for line in lines[1:]]
    assert vals[0] > vals[1] > vals[2]


def test_probe_hits_full_return_set(tmp_path, capsys):
    sysf = _sys_file(tmp_path)
    rc, out, _ = _run(
        capsys,
        [
            "probe",
            f"system={sysf}",
            "phi=u^2",
            "epsilon=1/100",
            "window=full",
            "gens=1,2",
        ],
    )
    assert rc == 0
    assert "products: 1,2,2" in out
    assert "intersects: true" in out


# ---------------------------------------------------------------------------
# environment and error surfaces


def test_env_budget_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "2")
    rc, out, _ = _run(capsys, ["hj", "k=2", "t=3", "m_max=4", f"output={tmp_path}"])
    assert rc == 2 and "budget exceeded" in out
    # an explicit key still wins
    rc, out, _ = _run(
        capsys, ["hj", "k=2", "t=3", "m_max=4", "budget=100000", f"output={tmp_path}"]
    )
    assert rc == 0
    monkeypatch.setenv(cli.BUDGET_ENV, "soon")
    rc, _, err = _run(capsys, ["hj", "k=2", "t=2", f"output={tmp_path}"])
    assert rc == 1 and "must be an integer" in err


def test_bad_system_file_and_bad_window(tmp_path, capsys):
    sysf = tmp_path / "broken.txt"
    sysf.write_text("backend finite-perm\np 5\n")
    rc, _, err = _run(
        capsys,
        ["recurrence", f"system={sysf}", "phi=u", "epsilon=1/2", "window=full"],
    )
    assert rc == 1 and "line" in err
    sysf2 = _sys_file(tmp_path)
    rc, _, err = _run(
        capsys,
        ["recurrence", f"system={sysf2}", "phi=u", "epsilon=1/2", "window=sideways"],
    )
    assert rc == 1 and "unknown window" in err
    errors = json.loads(err.strip().splitlines()[-1])["errors"]
    assert errors and "window" in errors[0]["message"]


def test_missing_config_file_and_no_command(capsys):
    rc, _, err = _run(capsys, ["hj", "-c", "/does/not/exist.conf"])
    assert rc == 1 and "cannot read config" in err
    rc, _, err = _run(capsys, [])
    assert rc == 1 and "no command given" in err


def test_mentioning_phi_line_in_late_errors(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "command = recurrence\n"
        f"system = {_sys_file(tmp_path)}\n"
        "phi = q^2\n"
        "epsilon = 1/100\n"
        "window = full\n"
    )
    rc, _, err = _run(capsys, ["recurrence", "-c", str(conf)])
    assert rc == 1
    assert "config key 'phi' (line 3)" in err
