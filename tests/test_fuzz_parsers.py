"""Mutated system files, certificates and checkpoints.

Each case takes a valid file, drops, repeats, swaps or truncates some of
its lines and swaps some tokens for drawn ones.  The parsers may read the
result or refuse it, but only with ``TextFormatError`` or another
``ValueError``; a run resumed from a mutated checkpoint exits 0, 1 or 2
with no traceback.  Every case must finish within two seconds."""

import io
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar import cli
from ipstar.halesjewett import hj_stage
from ipstar.ipsets import fu_ramsey_check
from ipstar.textio import (
    check_certificate,
    coloring_certificate,
    parse_certificate,
    parse_system_text,
    render_certificate,
)

SYSTEMS = [
    "backend finite-perm\np 3\npoints 0 1 2\nweights 1/3 1/3 1/3\ngen (0 1 2)\nset B 0 1\n",
    "backend finite-perm\np 2\npoints a b\ngen (a b)\nset B a\n",
    "backend rotation\nrho 1/7 2/5\nset B 0 1/2 3/4 7/8\n",
    "backend bernoulli\np 3\nprobs 1/2 1/4 1/4\nset B []:0,2 [0,1]:1\n",
]

CERTIFICATES = [
    render_certificate(coloring_certificate("hj", {"k": 2, "t": 2, "m": 1}, hj_stage(2, 2, 1))),
    render_certificate(coloring_certificate("hj", {"k": 2, "t": 2, "m": 2}, hj_stage(2, 2, 2))),
    render_certificate(coloring_certificate("fu", {"r": 3, "s": 2, "k": 2}, fu_ramsey_check(3, 2, 2))),
    render_certificate(coloring_certificate("fu", {"r": 2, "s": 1, "k": 2}, fu_ramsey_check(2, 1, 2))),
]

# empty, long digit runs, a prime past the cap on p, more blocks than any
# set has elements, exponents, non-ASCII digits, comment marks, and the
# pieces and keys of the three formats
SPECIAL = [
    "", "0", "-1", "2", "9" * 40, "1" + "0" * 5000, "1000000000000000003", "2999999999999",
    "1e10000000", "1E-4301", "1e4300", "2.5e3",
    "١٢", "²", "#", "# c", "()", "(0 1)", "((0", "[]", "[0,1]:1", "{}", "{1}",
    "{1};{2}", "1,2", "1/0", "1/3", ",", ";", ":", "k", "m", "s", "set", "gen", "leaf", "path",
]
TOKENS = st.sampled_from(SPECIAL) | st.text("0123456789e-/,;:{}()[] #", max_size=12)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _mutate(data, text: str) -> str:
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["drop", "repeat", "swap", "truncate", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split(" ")
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _with_each_value(text: str):
    """The text with one line's value, all but its key, replaced by one of
    the special tokens: every line with every token."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        for token in SPECIAL:
            yield "\n".join([*lines[:i], line.split(" ")[0] + " " + token, *lines[i + 1:]]) + "\n"


@contextmanager
def _deadline(seconds: int = 2):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _read_system(text: str) -> None:
    try:
        parse_system_text(text)
    except ValueError:  # TextFormatError is one
        pass


def _read_certificate(text: str) -> None:
    try:
        check_certificate(parse_certificate(text))
    except ValueError:
        pass


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Resumes the budgeted `hj` run that wrote a checkpoint from the given
    text in the checkpoint's place; the checkpoint's own text is its
    ``text``."""
    out = tmp_path_factory.mktemp("fuzz")
    argv = ["hj", "k=2", "t=3", "m_max=4", f"output={out}"]
    with redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "budget=5"]) == 2
    (path,) = out.glob("checkpoint-*.txt")

    def resume(text: str) -> None:
        path.write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main([*argv, "--resume", str(path)])
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    resume.text = path.read_text()
    return resume


@FUZZ
@given(st.sampled_from(SYSTEMS), st.data())
def test_a_mutated_system_file_is_read_or_refused(seed, data):
    text = _mutate(data, seed)
    with _deadline():
        _read_system(text)


@FUZZ
@given(st.sampled_from(CERTIFICATES), st.data())
def test_a_mutated_certificate_is_read_and_replayed_or_refused(seed, data):
    text = _mutate(data, seed)
    with _deadline():
        _read_certificate(text)


@FUZZ
@given(st.data())
def test_a_run_resumed_from_a_mutated_checkpoint_exits_0_1_or_2(checkpoint, data):
    text = _mutate(data, checkpoint.text)
    with _deadline():
        checkpoint(text)


@pytest.mark.parametrize("kind", ["system", "certificate", "checkpoint"])
def test_each_value_on_each_line_is_read_or_refused(checkpoint, kind):
    read, seeds = {
        "system": (_read_system, SYSTEMS),
        "certificate": (_read_certificate, CERTIFICATES),
        "checkpoint": (checkpoint, [checkpoint.text]),
    }[kind]
    for seed in seeds:
        for text in _with_each_value(seed):
            with _deadline():
                read(text)
