"""End-to-end checks of the command line front door."""

import io
import json
import re
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ipstar import algebra, cli, systems
from ipstar.algebra import FullWindow, PrimeField, VectorSpace, window_enumerate
from ipstar.cli import ExperimentConfig, config_hash, parse_config, render_config
from ipstar.ipsets import fk_density_experiment
from ipstar.textio import _split_top, parse_element

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

# classify to r_max = 4 on it (phi=u^2, epsilon=1/100) takes 23 nodes; the
# first two reach levels 1 and 2
F7_SYSTEM = """backend finite-perm
p 7
points 0 1 2 3 4 5 6
gen (0 1 2 3 4 5 6)
set B 0 1
"""


F13_SYSTEM = """backend finite-perm
p 13
points 0 1 2 3 4 5 6 7 8 9 10 11 12
gen (0 1 2 3 4 5 6 7 8 9 10 11 12)
set B 0 1 2 3
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


# where the overrides go around the options: all before them, all after,
# split by them, and split with an earlier t=2 that the later t=3 replaces
OVERRIDE_ORDERS = {
    "before": lambda opts, kv: [*kv, *opts],
    "after": lambda opts, kv: [*opts, *kv],
    "split": lambda opts, kv: [kv[0], *opts[:2], *kv[1:], *opts[2:]],
    "replaced": lambda opts, kv: ["t=2", *opts[:2], *kv, *opts[2:]],
}


def _budgeted_hj_then_resumed(capsys, monkeypatch, where, order):
    """stdout and written files of a budgeted `hj -c FILE` run and its
    `--resume`, with the overrides placed by ``order``."""
    where.mkdir()
    monkeypatch.chdir(where)
    (where / "hj.conf").write_text("command = hj\nm_max = 4\n")
    place = OVERRIDE_ORDERS[order]
    outs = [_run(capsys, ["hj", *place(["-c", "hj.conf"], ["k=2", "t=3", "budget=5"])])]
    ck = next(where.glob("checkpoint-*.txt")).name
    outs.append(_run(capsys, ["hj", *place(["-c", "hj.conf", "--resume", ck], ["k=2", "t=3"])]))
    return outs, {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def test_overrides_may_come_before_after_or_between_the_options(tmp_path, capsys, monkeypatch):
    runs = {o: _budgeted_hj_then_resumed(capsys, monkeypatch, tmp_path / o, o) for o in OVERRIDE_ORDERS}
    (first, second), files = runs["before"]
    assert first[0] == 2 and second[0] == 0 and second[1].endswith("HJ(2,3) = 3\n")
    assert "hj-k2-t3-m3-cover.txt" in files
    for order, run in runs.items():
        assert run == runs["before"], order


@pytest.mark.parametrize(
    "argv, budget, cert",
    [
        (["hj", "k=2", "t=5", "m_max=5"], 100, "hj-k2-t5-m5-cover.txt"),
        (["fu-ramsey", "r=7", "s=2", "k=2"], 100, "fu-r7-s2-k2-cover.txt"),
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


def test_hj_refuses_a_checkpoint_path_its_search_never_reaches(tmp_path, capsys):
    # (1, 1, 1) lies below (1,), which m=2 cuts: colouring word 0 forces
    # the other three words into a monochromatic line
    argv = ["hj", "k=2", "t=2", "m_max=2", f"output={tmp_path}"]
    assert _run(capsys, argv + ["budget=3"])[0] == 2
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    lines = [ln for ln in ck.read_text().splitlines() if not ln.startswith("path ")]
    ck.write_text("\n".join([*lines, "path 1,1,1"]) + "\n")
    rc, out, err = _run(capsys, argv + ["--resume", str(ck)])
    assert rc == 1 and "is never reached by this search" in err and "resumed" not in out


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


@pytest.mark.parametrize("line", ["checkpoint hj", "m 2", "path 0", "candidates 5"])
def test_checkpoint_with_a_repeated_line_refused(tmp_path, capsys, line):
    argv = ["hj", "k=2", "t=3", "m_max=4", f"output={tmp_path}"]
    _run(capsys, argv + ["budget=5"])
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines + [line]) + "\n")
    rc, out, err = _run(capsys, argv + ["--resume", str(ck)])
    name = line.split()[0]
    assert rc == 1 and f"line {len(lines) + 1}: duplicate '{name}'" in err
    assert "resumed" not in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: expected 'checkpoint', got ''"),
        ("config 0\n", "line 1: expected 'checkpoint', got 'config'"),
    ],
)
def test_a_checkpoint_without_its_head_line_is_refused(tmp_path, capsys, text, message):
    ck = tmp_path / "checkpoint.txt"
    ck.write_text(text)
    rc, out, err = _run(capsys, ["hj", "k=2", "t=3", f"output={tmp_path}", "--resume", str(ck)])
    assert rc == 1 and out == "" and f"checkpoint {str(ck)!r}: {message}" in err


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


@pytest.mark.parametrize(
    "text",
    [
        "certificate hj-counterexample\nk 2\nt 2\nm 2\ncoloring 1\u00b2\n",
        "certificate fu-cover\nr 1\ns 2\nk 2\nleaf 1\u00b2 {1}\n",
    ],
    ids=["coloring", "leaf"],
)
def test_check_refuses_a_non_ascii_digit(tmp_path, capsys, text):
    cert = tmp_path / "cert.txt"
    cert.write_text(text, encoding="utf-8")
    rc, out, err = _run(capsys, ["--check", str(cert)])
    assert rc == 1 and out == ""
    assert "not a word" in err


def test_fu_with_more_blocks_than_elements_certifies_the_all_ones_coloring(tmp_path, capsys):
    # no set of F_4 splits into s blocks; asking combinations for s - 1 of
    # at most 3 cut points ended in a MemoryError
    s = 2999999999999
    rc, out, err = _run(capsys, ["fu-ramsey", "r=4", f"s={s}", "k=2", f"output={tmp_path}"])
    cert = tmp_path / f"fu-r4-s{s}-k2-counterexample.txt"
    assert rc == 0 and err == "" and f"fu r=4 s={s} k=2: counterexample -> {cert}" in out
    assert "coloring 111111111111111\n" in cert.read_text()
    rc, out, _ = _run(capsys, ["--check", str(cert)])
    assert rc == 0 and f"certificate valid: fu-counterexample r=4 s={s} k=2" in out


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
    assert rc == 1 and "cannot read checkpoint" in err


@pytest.mark.parametrize("r, N, budget", [(2, 12, 40), (3, 16, 100), (2, 8, 1)])
def test_fk_density_split_run_resumes_to_the_unsplit_stdout(capsys, tmp_path, r, N, budget):
    keys = [f"r={r}", f"N={N}", f"output={tmp_path}"]
    rc, whole, _ = _run(capsys, ["fk-density", *keys])
    assert rc == 0
    rc, out, _ = _run(capsys, ["fk-density", *keys, f"budget={budget}"])
    assert rc == 2 and f"budget exceeded after {budget} candidates" in out
    (ckpt,) = tmp_path.glob("checkpoint-*.txt")
    path = fk_density_experiment(r, N, budget=budget).resume_path
    assert ckpt.read_text().endswith(f"\npath {','.join(map(str, path))}\n")  # no stage line
    # just enough budget to finish from that path, not from the start
    rest = fk_density_experiment(r, N).candidates - budget
    resume = ["fk-density", "--resume", str(ckpt), *keys, f"budget={rest}"]
    rc, resumed, _ = _run(capsys, resume)
    assert rc == 0 and resumed == whole
    assert not ckpt.exists()  # consumed


def test_fk_density_resumes_progress_under_a_budget_below_one_size(capsys, tmp_path):
    # the search takes 1,052 nodes, so a run with this budget finishes only
    # because each resume goes on from the checkpoint's path
    keys = ["r=3", "N=30", f"output={tmp_path}", "budget=400"]
    rc, out, _ = _run(capsys, ["fk-density", *keys])
    resumes = 0
    for _ in range(4):
        if rc != 2:
            break
        (ckpt,) = tmp_path.glob("checkpoint-*.txt")
        rc, out, _ = _run(capsys, ["fk-density", "--resume", str(ckpt), *keys])
        resumes += 1
    assert rc == 0 and resumes == 2
    assert out == "fk r=3 N=30: minimum blocking density 3/10\nwitness: {2,4,6,8,10,12,14,16,18}\n"


def test_fk_density_checkpoint_at_a_node_the_packing_bound_cuts_is_refused(capsys, tmp_path):
    # the search without the packing bound stopped here under budget=1000;
    # the bound cuts a prefix of this path, so the resume cannot replay to it
    keys = ["r=3", "N=30", f"output={tmp_path}"]
    rc, _, _ = _run(capsys, ["fk-density", *keys, "budget=1"])
    (ckpt,) = tmp_path.glob("checkpoint-*.txt")
    head = ckpt.read_text().split("\npath ")[0]
    ckpt.write_text(f"{head}\npath 0,0,0,0,0,0,0,1,0,1,1,1,1,1,1,1,0,1\n")
    rc, out, err = _run(capsys, ["fk-density", "--resume", str(ckpt), *keys])
    assert rc == 1 and out == "" and "is never reached by this search" in err


@pytest.mark.parametrize(
    "path, resumes", [("0,0,0,0,1", True), ("1,1,1", False)], ids=["reached", "never-reached"]
)
def test_fk_density_checkpoint_with_a_size_line_replays_its_path(capsys, tmp_path, path, resumes):
    # checkpoints of the per-size search carried a size line: it is ignored,
    # and the path resumes the one search if the search reaches it
    keys = ["r=2", "N=8", f"output={tmp_path}"]
    rc, whole, _ = _run(capsys, ["fk-density", *keys])
    rc, _, _ = _run(capsys, ["fk-density", *keys, "budget=1"])
    (ckpt,) = tmp_path.glob("checkpoint-*.txt")
    head = ckpt.read_text().split("\npath ")[0]
    ckpt.write_text(f"{head}\npath {path}\nsize 3\n")
    rc, out, err = _run(capsys, ["fk-density", "--resume", str(ckpt), *keys])
    if resumes:
        assert rc == 0 and out == whole
    else:
        assert rc == 1 and "never reached" in err and ckpt.exists()


def test_example_a(capsys):
    rc, out, _ = _run(capsys, ["example-a", "r_max=3"])
    assert rc == 0
    assert "block 1: 4" in out
    assert out.count(": pass") == 3


def test_example_a_too_large_to_print_or_build_is_refused_before_any_block(capsys, monkeypatch):
    rc, out, _ = _run(capsys, ["example-a", "r_max=3"])
    assert rc == 0 and out == (
        "block 1: 4\nblock 2: 16 32\nblock 3: 256 512 768\n"
        "in_block_fs: pass\ncross_block_free: pass\nfs_depth: pass\n"
    )
    # 14 * 2^(2^14) has 4934 digits, over Python's default limit of 4300
    rc, out, err = _run(capsys, ["example-a", "r_max=14"])
    assert rc == 1 and out == ""
    assert "example-a r_max=14: its largest value has 4934 digits, more than the limit of 4300" in err
    # with no digit limit, 2^(2^21) is refused by its size alone, unbuilt
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    for r_max in (21, 10**9):
        rc, out, err = _run(capsys, ["example-a", f"r_max={r_max}"])
        assert rc == 1 and out == ""
        assert f"example-a r_max={r_max}: 2^(2^{r_max}) has more than 1048576 bits" in err


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


def test_classify_of_a_two_variable_map(tmp_path, capsys):
    # phi = x1*x2 has domain F_7^2, so the scan adds in the vector space
    sysf = _sys_file(tmp_path, F7_SYSTEM + "set C 0 1 2\n")
    argv = ["classify", f"system={sysf}", "set=C", "phi=x1*x2", "epsilon=1/10", "window=full"]
    rc, out, _ = _run(capsys, [*argv, "r_max=3", f"output={tmp_path}"])
    assert rc == 0
    V = VectorSpace(PrimeField(7), 2)
    window = window_enumerate(V, FullWindow())
    tree = json.loads((tmp_path / "classify.json").read_text())
    R = {parse_element(V, u) for u in tree["R"]["members"]}
    verdicts = [line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("r=")]
    assert [v.split()[0] for v in verdicts] == ["fails", "fails", "holds"]
    for r, verdict in enumerate(verdicts, 1):
        if verdict == "holds":
            assert oracles.naive_meets_every_ip_r(V, R, r, window) == (True, None)
            continue
        witness = [parse_element(V, g) for g in _split_top(verdict.split("=", 1)[1], ",")]
        sums = oracles.naive_fs_set(V, witness)
        assert len(witness) == r and sums <= set(window) and not sums & R


def _classify_argv(tmp_path, r_max):
    sysf = _sys_file(tmp_path, F7_SYSTEM)
    argv = ["classify", f"system={sysf}", "phi=u^2", "epsilon=1/100", "window=full"]
    return argv + [f"r_max={r_max}", f"output={tmp_path}"]


def test_classify_budget_checkpoint_resume(tmp_path, capsys):
    argv = _classify_argv(tmp_path, 3)
    rc, out, _ = _run(capsys, argv + ["budget=1"])
    assert rc == 2
    assert "r=1: fails witness=2" in out
    assert "r=2: budget exceeded after 1 candidates" in out
    assert (tmp_path / "classify.json").exists()  # partial report still lands
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    assert "r 2" in ck.read_text().splitlines()
    rc, out, _ = _run(capsys, argv + ["budget=100000", "--resume", str(ck)])
    assert rc == 0
    assert "resumed at r=2" in out
    assert "r=2: fails witness=2,2" in out and "r=3: holds" in out


def test_checkpoint_hash_covers_the_system_contents(tmp_path, capsys):
    # F_13 and then F_7 at one path: the F_13 run's checkpoint is refused
    # for the F_7 run by its config hash
    argv = _classify_argv(tmp_path, 4)
    _sys_file(tmp_path, F13_SYSTEM)
    assert _run(capsys, argv + ["budget=50"])[0] == 2
    (ck,) = tmp_path.glob("checkpoint-*.txt")
    f13_hash = config_hash(parse_config("", "classify", argv[1:])[0])
    _sys_file(tmp_path, F7_SYSTEM)
    assert config_hash(parse_config("", "classify", argv[1:])[0]) != f13_hash
    rc, out, err = _run(capsys, argv + ["--resume", str(ck)])
    assert rc == 1 and "different config" in err and "resumed" not in out


@pytest.mark.parametrize("what", ["certificate", "config", "system file", "checkpoint"])
def test_a_file_that_cannot_be_decoded_exits_1_naming_it(tmp_path, capsys, what):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"certificate hj-cover\ncommand = hj\n\xff\n")
    argv = {
        "certificate": ["--check", str(bad)],
        "config": ["hj", "-c", str(bad)],
        "system file": [*_classify_argv(tmp_path, 2), f"system={bad}"],
        "checkpoint": ["hj", "--resume", str(bad), "k=2", "t=2", f"output={tmp_path}"],
    }[what]
    rc, out, err = _run(capsys, argv)
    assert rc == 1 and out == ""
    assert f"cannot read {what} {str(bad)!r}: " in err and "can't decode byte 0xff" in err


def test_classify_resume_refuses_a_checkpoint_it_cannot_continue(tmp_path, capsys):
    argv = _classify_argv(tmp_path, 3)
    assert _run(capsys, argv + ["budget=2"])[0] == 2
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    head = ck.read_text().splitlines()[:2]  # the command and config lines
    for lines, message in [
        (["index 3", "r 9"], "checkpoint resumes r=9, outside this run"),
        (["path 1"], "not an integer"),  # no level line
        (["index 3", "r 1"], "has no 'path' line"),  # a scan index, not a path
        (["r 1"], "has no 'path' line"),
        (["path 0,0,0", "r 1"], "path (0, 0, 0) is longer than its level r=1"),
    ]:
        ck.write_text("\n".join([*head, "candidates 3", *lines]) + "\n")
        rc, out, err = _run(capsys, argv + ["--resume", str(ck)])
        assert rc == 1 and message in err and "resumed" not in out


def test_classify_refuses_a_path_of_the_full_tuple_scan(tmp_path, capsys):
    # the scan runs over nondecreasing positions in R's complement, so a
    # decreasing path, as the full r-tuple scan could write, is never reached
    argv = _classify_argv(tmp_path, 3)
    assert _run(capsys, argv + ["budget=2"])[0] == 2
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    head = ck.read_text().splitlines()[:2]
    ck.write_text("\n".join([*head, "candidates 3", "path 2,1", "r 2"]) + "\n")
    rc, _, err = _run(capsys, argv + ["--resume", str(ck)])
    assert rc == 1 and "is never reached by this search" in err


def test_classify_resume_never_moves_back_a_level(tmp_path, capsys):
    argv = _classify_argv(tmp_path, 4)
    rc, out, _ = _run(capsys, argv + ["budget=10"])
    assert rc == 2 and "r=3: budget exceeded" in out
    ck = next(tmp_path.glob("checkpoint-*.txt"))
    assert "r 3" in ck.read_text().splitlines()
    # the nodes before the path are replayed without charge, so the 5 nodes
    # all go to r = 3
    rc, out, _ = _run(capsys, argv + ["budget=5", "--resume", str(ck)])
    assert rc == 2
    assert "r=1: fails witness=2" in out and "r=2: fails witness=2,2" in out
    assert "r=3: budget exceeded after 5 candidates" in out
    assert "r 3" in ck.read_text().splitlines()
    rc, out, _ = _run(capsys, argv + ["budget=1000", "--resume", str(ck)])
    assert rc == 0 and "r=3: holds" in out and "r=4: holds" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["example-a", "r_max=1"],
        ["recurrence", "phi=u^2", "epsilon=1/100", "window=full"],
        ["search", "x=B", "m=u^2", "epsilon=1/2", "gens=1"],
        ["density", "phi=u", "N=1"],
        ["probe", "phi=u^2", "epsilon=1/100", "window=full", "gens=1"],
    ],
)
def test_commands_without_a_budget_refuse_resume(tmp_path, capsys, argv):
    # a command resumes exactly when it takes a budget
    without = {c for c, spec in cli._SPECS.items() if "budget" not in spec}
    assert without == {"example-a", "recurrence", "search", "density", "probe"}
    if argv[0] != "example-a":
        argv = [*argv, f"system={_sys_file(tmp_path)}"]
    rc, out, err = _run(capsys, [*argv, "--resume", str(tmp_path / "checkpoint.txt")])
    assert rc == 1 and out == ""
    assert f"error: {argv[0]} does not support --resume" in err


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


@pytest.mark.parametrize("points", ["points", "points # c"])
def test_a_system_without_points_exits_1_naming_the_points_line(tmp_path, capsys, points):
    sysf = _sys_file(tmp_path, f"backend finite-perm\np 5\n{points}\ngen ()\nset B\n")
    argv = ["recurrence", f"system={sysf}", "phi=u", "epsilon=1/2", "window=full", f"output={tmp_path}"]
    rc, out, err = _run(capsys, argv)
    assert rc == 1 and out == "" and "Traceback" not in err
    assert f"system file {sysf!r}: line 3: points needs at least one point" in err


def test_a_system_over_a_prime_past_the_cap_exits_1_naming_the_cap(tmp_path, capsys):
    # 2^40 + 15, the least prime past the cap: trial division would try
    # more than 2^20 divisors (10^9 for p = 10^18 + 3)
    sysf = _sys_file(tmp_path, "backend bernoulli\np 1099511627791\nprobs 1/2 1/2\nset B []:0\n")
    rc, out, err = _run(capsys, ["density", f"system={sysf}", "phi=u", "N=1"])
    assert rc == 1 and out == ""
    assert "p = 1099511627791 is at least the cap of 1048576^2" in err


def test_integer_windows_are_not_in_the_window_grammar(tmp_path, capsys):
    # no backend's domain ring is Z, so 'int N' named no usable window
    for text in (F5_SYSTEM, ROT_SYSTEM + "set B 0 1/3\n", BERN_SYSTEM):
        sysf = _sys_file(tmp_path, text)
        for cmd in (["recurrence"], ["classify"], ["probe", "gens=1"]):
            argv = [*cmd, f"system={sysf}", "phi=u", "epsilon=1/2", "window=int 3"]
            rc, _, err = _run(capsys, argv)
            assert rc == 1 and "unknown window 'int 3'" in err, (text, cmd)
            assert "'int N'" not in err


def test_a_window_too_large_to_list_exits_1_naming_its_size(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("listed a window over the cap")

    # a scan lists its window through algebra (a Q window as integer pairs),
    # a density's through systems
    for module in (algebra, systems):
        monkeypatch.setattr(module, "window_enumerate", refuse)
    monkeypatch.setattr(algebra.Rationals, "window_pairs", refuse)
    bern = _sys_file(tmp_path, BERN_SYSTEM, "bern.txt")
    rot = _sys_file(tmp_path, ROT_SYSTEM + "set B 0 1/3\n", "rot.txt")
    keys = ["epsilon=1/2", f"output={tmp_path}"]
    for argv, size in [
        (["recurrence", f"system={bern}", "phi=u", "window=deg 30", *keys], 1 << 30),
        (["classify", f"system={bern}", "phi=u", "window=deg 30", *keys], 1 << 30),
        (["recurrence", f"system={bern}", "phi=x1*x2", "window=deg 11", *keys], 1 << 22),
        (["classify", f"system={rot}", "phi=u", "window=rat 1024 1024", *keys], 2049 * 1024),
        (["density", f"system={bern}", "phi=u", "N=30"], 1 << 30),
    ]:
        rc, out, err = _run(capsys, argv)
        assert rc == 1 and f"holds up to {size} elements, more than the cap of 1048576" in err, argv
        assert out == "" and not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.csv"))


def test_density_over_the_cap_exits_1_on_a_compact_backend(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a profile over the cap")

    monkeypatch.setattr(systems, "DensityProfile", refuse)
    rot = _sys_file(tmp_path, ROT_SYSTEM + "set B 0 1/3\n", "rot.txt")
    for system in (_sys_file(tmp_path), rot):
        rc, out, err = _run(capsys, ["density", f"system={system}", "phi=u", f"N={(1 << 20) + 1}"])
        assert rc == 1 and out == ""
        assert "averaging window index 1048577 is more than the cap of 1048576" in err


def test_stages_decided_before_a_stage_over_the_cap_keep_their_certificates(tmp_path, capsys):
    out_dir = tmp_path / "D"
    rc, out, err = _run(capsys, ["hj", "k=1025", "t=2", "m_max=2", f"output={out_dir}"])
    cert = out_dir / "hj-k1025-t2-m1-counterexample.txt"
    assert rc == 1 and out == f"stage m=1: counterexample -> {cert}\n"
    assert "hj k=1025 m=2 has 1025^2 words, more than the cap of 1048576" in err
    assert sorted(out_dir.iterdir()) == [cert]
    rc, out, _ = _run(capsys, ["--check", str(cert)])
    assert rc == 0 and out == "certificate valid: hj-counterexample k=1025 t=2 m=1\n"


def test_a_coloring_claim_over_the_cap_exits_1_naming_it(tmp_path, capsys):
    for argv, message in [
        (["hj", "k=2000000", "t=2", "m_max=1"], "hj k=2000000 m=1 has 2000000^1 words"),
        (["fu-ramsey", "r=100000000", "s=2", "k=2"],
         "fu r=100000000 has 2^100000000 - 1 positions"),
    ]:
        rc, out, err = _run(capsys, [*argv, f"output={tmp_path}"])
        assert rc == 1 and out == "" and f"{message}, more than the cap of 1048576" in err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, message",
    [
        ("certificate hj-counterexample\nk 2\nt 2\nm 100000000\ncoloring 1\n",
         "hj k=2 m=100000000 has 2^100000000 words"),
        ("certificate hj-cover\nk 1025\nt 2\nm 2\nleaf 1 0\n", "hj k=1025 m=2 has 1025^2 words"),
        ("certificate fu-cover\nr 21\ns 2\nk 2\nleaf 1 {1}\n", "fu r=21 has 2^21 - 1 positions"),
        ("certificate fu-counterexample\nr 100000000\ns 2\nk 2\ncoloring 1\n",
         "fu r=100000000 has 2^100000000 - 1 positions"),
    ],
)
def test_check_of_a_certificate_over_the_cap_exits_1_naming_it(tmp_path, capsys, text, message):
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    rc, out, err = _run(capsys, ["--check", str(cert)])
    assert rc == 1 and out == ""
    assert f"certificate {str(cert)!r}: {message}, more than the cap of 1048576" in err


def test_a_color_count_over_the_cap_exits_1_naming_it(tmp_path, capsys):
    # positions times colors bound the search's per-color tables and a
    # replay's open colors, whatever the words or positions alone allow
    out_dir = tmp_path / "D"
    rc, out, err = _run(capsys, ["hj", "k=2", "t=1000000", "m_max=2", f"output={out_dir}"])
    cert = out_dir / "hj-k2-t1000000-m1-counterexample.txt"
    assert rc == 1 and out == f"stage m=1: counterexample -> {cert}\n"  # 2 words: 2 * 10^6 entries
    assert ("4 positions in 1000000 colors make more (position, color) entries "
            "than twice the cap of 1048576") in err
    assert sorted(out_dir.iterdir()) == [cert]
    rc, out, err = _run(capsys, ["fu-ramsey", "r=3", "s=2", "k=1000000", f"output={tmp_path}"])
    assert rc == 1 and out == ""
    assert "7 positions in 1000000 colors make more (position, color) entries" in err
    assert sorted(tmp_path.iterdir()) == [out_dir]
    for text, message in [
        ("certificate hj-cover\nk 2\nt 1000000\nm 2\nleaf 1 0,1\n", "4 positions in 1000000 colors"),
        ("certificate fu-cover\nr 3\ns 2\nk 1000000\nleaf 1 {1}\n", "7 positions in 1000000 colors"),
    ]:
        cert = tmp_path / "cert.txt"
        cert.write_text(text)
        rc, out, err = _run(capsys, ["--check", str(cert)])
        assert rc == 1 and out == ""
        assert f"certificate {str(cert)!r}: {message}" in err and "twice the cap of 1048576" in err


def test_generated_stamp_is_utc_iso_seconds(tmp_path, capsys):
    argv = ["recurrence", f"system={_sys_file(tmp_path)}", "phi=u^2", "epsilon=1/100", "window=full"]
    before = datetime.now(timezone.utc).replace(microsecond=0)
    assert _run(capsys, [*argv, f"output={tmp_path}"])[0] == 0
    assert _run(capsys, [*argv, "format=report", f"output={tmp_path}"])[0] == 0
    after = datetime.now(timezone.utc)
    head = (tmp_path / "recurrence.csv").read_text().splitlines()[0]
    assert head.startswith("# generated: ")
    tree = json.loads((tmp_path / "recurrence.json").read_text())
    for stamp in (head.removeprefix("# generated: "), tree["generated"]):
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        # the text datetime's isoformat writes for the same instant
        when = datetime.fromisoformat(stamp)
        assert before <= when <= after and stamp == when.isoformat(timespec="seconds")


def test_two_colors_of_a_stage_at_the_word_cap_are_searched(tmp_path, capsys):
    # 1024^2 words, exactly the cap, in two colors: the stage runs to its budget
    rc, out, err = _run(capsys, ["hj", "k=1024", "t=2", "m_max=2", "budget=1100", f"output={tmp_path}"])
    assert rc == 2 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"stage m=1: counterexample -> {tmp_path / 'hj-k1024-t2-m1-counterexample.txt'}"
    assert lines[1] == "stage m=2: budget exceeded after 75 candidates"
    assert lines[2].startswith(f"checkpoint -> {tmp_path}") and len(lines) == 3


def test_fk_density_over_the_cap_exits_1_before_listing_a_tuple(tmp_path, capsys):
    rc, out, err = _run(capsys, ["fk-density", "r=2", "N=5000", f"output={tmp_path}"])
    assert rc == 1 and out == ""
    assert "fk r=2 N=5000 has more than 13273 generator tuples" in err
    assert "exceed the cap of 1048576 words" in err
    assert not list(tmp_path.iterdir())


def test_fk_density_with_more_generators_than_n_blocks_with_the_empty_set(tmp_path, capsys):
    # r generators from {1..N} sum to more than N when r > N, so every set
    # blocks, and the witness check runs no scan of r levels
    rc, out, err = _run(capsys, ["fk-density", "r=1000000000", "N=5", f"output={tmp_path}"])
    assert rc == 0 and err == ""
    assert out == "fk r=1000000000 N=5: minimum blocking density 0\nwitness: {}\n"


# the cap is lowered so that each run below is cheap whether or not it is refused

def test_classify_and_probe_over_the_cap_exit_1_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(algebra, "SIZE_CAP", 8)  # F_5 is a window of 5 elements
    base = [f"system={_sys_file(tmp_path)}", "phi=u^2", "epsilon=1/100", "window=full"]
    for argv, message in [
        (["classify", "r_max=8", f"output={tmp_path / 'ok'}"], None),
        (["classify", "r_max=9", f"output={tmp_path / 'no'}"],
         "an IP_r scan to r=9 has more levels than the cap of"),
        (["probe", "gens=1,2,3"], None),
        (["probe", "gens=1,2,3,4"], "4 generators have 2^4 - 1 products, more than the cap of"),
    ]:
        rc, out, err = _run(capsys, [*argv, *base])
        if message is None:
            assert rc == 0 and out.startswith(("system:", "products:"))
        else:
            assert rc == 1 and out == "" and message in err
    assert (tmp_path / "ok" / "classify.json").exists() and not (tmp_path / "no").exists()


def test_a_stage_with_a_hyperedge_table_over_the_cap_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(algebra, "SIZE_CAP", 100)
    # hj k=2: 2^m words and 3^m - 2^m lines, 211 at m=5; fu r=6: 63 positions
    # and 20*1 + 15*3 + 6*6 + 1*10 = 111 splits into s=3 blocks (31 at r=5)
    rc, out, err = _run(capsys, ["hj", "k=2", "t=5", "m_max=5", f"output={tmp_path / 'hj'}"])
    assert rc == 1 and "hj k=2 m=5 has 3^5 - 2^5 lines, more than the cap of" in err
    assert len(out.splitlines()) == 4 and len(list((tmp_path / "hj").iterdir())) == 4
    rc, out, err = _run(capsys, ["fu-ramsey", "r=6", "s=3", "k=2", f"output={tmp_path / 'fu'}"])
    assert rc == 1 and out == "" and "fu r=6 s=3 has 111 splits, more than the cap of" in err
    assert not (tmp_path / "fu").exists() or not list((tmp_path / "fu").iterdir())
    rc, _, _ = _run(capsys, ["fu-ramsey", "r=5", "s=3", "k=2", f"output={tmp_path / 'fu'}"])
    assert rc == 0
    # the replays of a counterexample build the same tables
    for text, message in [
        ("certificate hj-counterexample\nk 2\nt 5\nm 5\ncoloring " + "1" * 32 + "\n",
         "hj k=2 m=5 has 3^5 - 2^5 lines"),
        ("certificate fu-counterexample\nr 6\ns 3\nk 2\ncoloring " + "1" * 63 + "\n",
         "fu r=6 s=3 has 111 splits"),
    ]:
        cert = tmp_path / "cert.txt"
        cert.write_text(text)
        rc, out, err = _run(capsys, ["--check", str(cert)])
        assert rc == 1 and out == "" and f"{message}, more than the cap of" in err


def test_missing_config_file_and_no_command(capsys):
    rc, _, err = _run(capsys, ["hj", "-c", "/does/not/exist.conf"])
    assert rc == 1 and "cannot read config" in err
    rc, _, err = _run(capsys, [])
    assert rc == 1 and "no command given" in err


@pytest.mark.parametrize("argv, message", [
    (["hj", "--bogus"], "unrecognized arguments: --bogus"),
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    (["--check"], "argument --check: expected one argument"),
])
def test_a_refused_argument_list_exits_1_with_a_json_line(capsys, argv, message):
    # an input error, reported as every other one: exit 2 means a budget ran out
    rc, out, err = _run(capsys, argv)
    assert rc == 1 and out == ""
    human, record = err.splitlines()
    assert human.startswith(f"error: {message}") and human.endswith("(see ipstar --help)")
    assert json.loads(record) == {"errors": [{"line": None, "message": human.removeprefix("error: ")}]}


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["hj", "-h"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ipstar")


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


@pytest.mark.parametrize(
    "command, keys",
    [
        ("recurrence", ["phi=u^100000", "epsilon=1/100", "output={tmp}"]),
        ("recurrence", ["phi=u", "epsilon=1/1{zeros4299}", "output={tmp}"]),
        ("probe", ["phi=u", "epsilon=1/100", "gens=1{zeros3000},1{zeros3000}"]),
    ],
)
def test_a_rational_past_the_int_text_limit_exits_1_naming_the_limit(tmp_path, capsys, command, keys):
    # (1/2)^100000, the threshold 1/49 - 10^-4299 and (10^3000)^2 have more
    # digits than Python writes as text
    sysf = _sys_file(tmp_path, ROT_SYSTEM + "set B 0 1/7\n")
    keys = [k.format(tmp=tmp_path, zeros4299="0" * 4299, zeros3000="0" * 3000) for k in keys]
    rc, out, err = _run(capsys, [command, f"system={sysf}", "window=rat 2 2", *keys])
    assert rc == 1 and out == "" and "Traceback" not in err
    assert f"a rational with more than {sys.get_int_max_str_digits()} digits has no text form" in err
    assert "set_int_max_str_digits" not in err
    assert not (tmp_path / "recurrence.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hj", "k=0", "t=2"], "k: must be >= 1"),
        (["recurrence", "{system}", "phi=u", "epsilon=-1/2", "window=full"], "epsilon: must be positive"),
        (["recurrence", "{system}", "phi=u", "epsilon=1/2", "window=full", "output="], "output: empty value"),
        (
            ["recurrence", "{system}", "phi=u", "epsilon=1/2", "window=full", "format=xml"],
            "format: must be one of csv, report",
        ),
        (["recurrence", "-c", "{config}"], "line 2: expected 'key = value', got 'system sys.txt'"),
        (
            ["recurrence", "{system}", "set=Z", "phi=u", "epsilon=1/2", "window=full"],
            "system file defines no set named 'Z' (sets: B, S)",
        ),
        (["probe", "{system}", "phi=u", "epsilon=1/2", "window=full", "gens=,"], "config key 'gens': empty generator list"),
        (
            ["probe", "{system}", "phi=x1*x2", "epsilon=1/2", "window=full", "gens=1"],
            "finite products need a one-variable map",
        ),
    ],
)
def test_refused_inputs_exit_1_with_their_message(tmp_path, capsys, argv, message):
    conf = tmp_path / "exp.conf"
    conf.write_text("command = recurrence\nsystem sys.txt\n")
    fill = {"system": f"system={_sys_file(tmp_path)}", "config": str(conf)}
    rc, out, err = _run(capsys, [a.format(**fill) for a in argv])
    assert rc == 1 and out == "" and "Traceback" not in err
    assert f"error: {message}" in err


# ---------------------------------------------------------------------------
# metamorphic relations


@st.composite
def arc_rotations_and_cycles(draw):
    """p, a, a non-empty set M of residues mod p, integer coefficients c_k of
    u^k (none divisible by p) and epsilon."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    a = draw(st.integers(1, p - 1))
    M = draw(st.sets(st.integers(0, p - 1), min_size=1))
    coeffs = draw(st.dictionaries(st.integers(1, 3), st.integers(-9, 9).filter(lambda c: c % p), min_size=1))
    epsilon = draw(st.builds(Fraction, st.integers(1, 20), st.integers(1, 100)))
    return p, a, M, coeffs, epsilon


def _csv_rows(argv, system_text):
    """The per-element rows of a ``recurrence`` run, each split at its commas."""
    with tempfile.TemporaryDirectory() as tmp:
        system = Path(tmp) / "sys.txt"
        system.write_text(system_text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["recurrence", f"system={system}", f"output={tmp}", *argv]) == 0
        lines = (Path(tmp) / "recurrence.csv").read_text().splitlines()
    assert lines[1] == "w,mu_B,corr,threshold,in_R"
    return [line.split(",") for line in lines[2:]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(arc_rotations_and_cycles())
def test_a_rotation_by_a_over_p_on_arcs_is_the_p_cycle_on_points(case):
    # rotating by a/p maps the arc [x/p, (x+1)/p) onto the arc of x + a, so
    # on the integers the rotation's return set is the p-cycle's at a*phi(u)
    # mod p, with no oracle for either
    p, a, M, coeffs, epsilon = case
    arcs = " ".join(f"{x}/{p} {x + 1}/{p}" for x in sorted(M))
    rotation = f"backend rotation\nrho {a}/{p}\nset B {arcs}\n"
    cycle = (
        f"backend finite-perm\np {p}\npoints {' '.join(map(str, range(p)))}\n"
        f"gen ({' '.join(map(str, range(p)))})\nset B {' '.join(map(str, sorted(M)))}\n"
    )
    eps = f"epsilon={epsilon.numerator}/{epsilon.denominator}"
    phi = " + ".join(f"{c}*u^{k}" for k, c in sorted(coeffs.items()))
    on_arcs = _csv_rows([f"phi={phi}", eps, f"window=rat {2 * p} 1"], rotation)
    phi = " + ".join(f"{a * c % p}*u^{k}" for k, c in sorted(coeffs.items()))
    on_points = _csv_rows([f"phi={phi}", eps, "window=full"], cycle)
    assert len(on_arcs) == 4 * p + 1 and len(on_points) == p
    for i, row in enumerate(on_arcs):
        u = -2 * p + i
        assert row[1:] == on_points[u % p][1:], (u, row, on_points[u % p])
        assert int(row[0]) * a % p == int(on_points[u % p][0])


def _classify_tree(argv, system_text):
    """The ``classify.json`` tree of a ``classify`` run."""
    with tempfile.TemporaryDirectory() as tmp:
        system = Path(tmp) / "sys.txt"
        system.write_text(system_text)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(["classify", f"system={system}", f"output={tmp}", *argv]) == 0
        return json.loads((Path(tmp) / "classify.json").read_text())


@st.composite
def cycle_events(draw):
    """A p-cycle system with a non-empty event B, an exponent e of u^e and
    two epsilons, the first no larger than the second."""
    p = draw(st.sampled_from([3, 5, 7]))
    B = draw(st.sets(st.integers(0, p - 1), min_size=1))
    cycle = (
        f"backend finite-perm\np {p}\npoints {' '.join(map(str, range(p)))}\n"
        f"gen ({' '.join(map(str, range(p)))})\nset B {' '.join(map(str, sorted(B)))}\n"
    )
    e = draw(st.integers(1, 3))
    eps = sorted(draw(st.lists(st.builds(Fraction, st.integers(1, 10), st.integers(10, 200)),
                               min_size=2, max_size=2)))
    return p, cycle, e, [f"epsilon={x.numerator}/{x.denominator}" for x in eps]


# B = {0, 1, 3} in the 7-cycle under u^2: epsilon 1/50 leaves R = {0} and
# fails at every level, epsilon 1/20 takes all 7 elements and holds from r = 1
SEVEN_CYCLE_CASE = (7, F7_SYSTEM.replace("set B 0 1", "set B 0 1 3"), 2, ["epsilon=1/50", "epsilon=1/20"])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(cycle_events())
@example(SEVEN_CYCLE_CASE)
def test_a_map_that_ignores_a_variable_has_its_return_set_times_the_field(case):
    # phi(x1, x2) = x1^e takes x2 nowhere, so R is R(u^e) x F_p, and an IP_r
    # set avoids one exactly when its projection to x1 avoids the other
    p, cycle, e, (eps, _) = case
    one = _classify_tree([f"phi=u^{e}", eps, "window=full", "r_max=4"], cycle)
    two = _classify_tree([f"phi=x1^{e} + 0*x2", eps, "window=full", "r_max=4"], cycle)
    assert set(two["R"]["members"]) == {f"({x},{y})" for x in one["R"]["members"] for y in range(p)}
    kinds = [{r: v["kind"] for r, v in tree["classification"].items()} for tree in (one, two)]
    assert kinds[0] == kinds[1] and len(kinds[0]) == 4


def _least_holding_level(tree) -> int:
    """The least r whose verdict is "holds", or one past r_max when none is."""
    levels = tree["classification"]
    return min((int(r) for r, v in levels.items() if v["kind"] == "holds"), default=len(levels) + 1)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(cycle_events())
@example(SEVEN_CYCLE_CASE)
def test_a_larger_epsilon_keeps_every_element_of_the_return_set(case):
    # the threshold mu(B)^2 - epsilon falls as epsilon grows, so R grows, and
    # a superset of an IP*_r set is IP*_r: the least "holds" r cannot rise
    _p, cycle, e, (small, large) = case
    trees = [_classify_tree([f"phi=u^{e}", eps, "window=full", "r_max=6"], cycle) for eps in (small, large)]
    assert set(trees[0]["R"]["members"]) <= set(trees[1]["R"]["members"])
    assert _least_holding_level(trees[0]) >= _least_holding_level(trees[1])


@st.composite
def unit_scalings(draw):
    """A p-cycle system with a non-empty event B, a map sum c_k u^k (k <= 3,
    no c_k divisible by p), a unit a mod p and an epsilon."""
    p = draw(st.sampled_from([5, 7, 11]))
    B = draw(st.sets(st.integers(0, p - 1), min_size=1))
    cycle = (
        f"backend finite-perm\np {p}\npoints {' '.join(map(str, range(p)))}\n"
        f"gen ({' '.join(map(str, range(p)))})\nset B {' '.join(map(str, sorted(B)))}\n"
    )
    coeffs = draw(st.dictionaries(st.integers(1, 3), st.integers(1, p - 1), min_size=1))
    a = draw(st.integers(1, p - 1))
    eps = draw(st.builds(Fraction, st.integers(1, 10), st.integers(10, 200)))
    return p, cycle, coeffs, a, f"epsilon={eps.numerator}/{eps.denominator}"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(unit_scalings())
def test_a_unit_scaling_of_the_domain_scales_the_return_set_by_its_inverse(case):
    # u -> a*u is an additive automorphism of F_p, so phi(a*u) returns at u
    # exactly when phi returns at a*u: R(phi(a*u)) = a^-1 R(phi), and the
    # automorphism maps IP_r sets avoiding one R onto those avoiding the other
    p, cycle, coeffs, a, eps = case
    phi = " + ".join(f"{c}*u^{k}" for k, c in sorted(coeffs.items()))
    scaled = " + ".join(f"{c * a**k % p}*u^{k}" for k, c in sorted(coeffs.items()))
    trees = [_classify_tree([f"phi={f}", eps, "window=full", "r_max=4"], cycle) for f in (phi, scaled)]
    inverse = pow(a, -1, p)
    assert {str(int(x) * inverse % p) for x in trees[0]["R"]["members"]} == set(trees[1]["R"]["members"])
    kinds = [{r: v["kind"] for r, v in tree["classification"].items()} for tree in trees]
    assert kinds[0] == kinds[1] and len(kinds[0]) == 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recurrence", "{bern}", "phi=u^8000", "epsilon=1/100", "window=deg 2", "output={tmp}"],
         "4 values of the map take up to 256128016 coefficient products"),
        (["density", "{bern}", "phi=u^8000", "N=2"],
         "4 values of the map take up to 256128016 coefficient products"),
        (["recurrence", "{rot}", "phi=u^100000000", "epsilon=1/100", "window=rat 2 2", "output={tmp}"],
         "7 values of the map take up to 1400000028 bits"),
    ],
)
def test_a_huge_power_is_refused_before_its_values_are_built(tmp_path, capsys, argv, message):
    # u^8000 on four F_2[t] elements took seconds and u^100000000 over Q built
    # its values before the text limit refused them
    rot = _sys_file(tmp_path, ROT_SYSTEM + "set B 0 1/4\n", "rot.txt")
    fill = {"bern": f"system={_sys_file(tmp_path, BERN_SYSTEM, 'bern.txt')}", "rot": f"system={rot}",
            "tmp": str(tmp_path)}
    start = time.perf_counter()
    rc, out, err = _run(capsys, [a.format(**fill) for a in argv])
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == "" and "Traceback" not in err
    assert f"error: {message}, more than the cap of {algebra.VALUE_CAP}" in err
    assert not list(tmp_path.glob("recurrence.*"))


def test_a_large_power_within_the_cap_still_runs(tmp_path, capsys):
    # 2^100000 and (1/2)^100000, the values at +-2 and +-1/2, have 100,001
    # bits, well within the cap; the report holds no value, so it renders
    sysf = _sys_file(tmp_path, ROT_SYSTEM + "set B 0 1/4\n")
    rc, out, err = _run(capsys, ["recurrence", f"system={sysf}", "phi=u^100000", "epsilon=1/100",
                                 "window=rat 2 2", "format=report", f"output={tmp_path}"])
    assert rc == 0 and err == "" and "R: 5 of 7 window elements" in out
    assert json.loads((tmp_path / "recurrence.json").read_text())["phi"] == "u^100000"
