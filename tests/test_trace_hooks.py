"""The benchmark's tracer (``perfbench/tracing.py``) wraps ipstar functions
by name and calls some of them with positional arguments.  These checks keep
a rename or re-signature in ``src/`` from silently breaking ``--trace 1``."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

from ipstar import halesjewett
from ipstar.algebra import Monomial, PrimeField
from ipstar.ipsets import fk_density_experiment, is_ip_r_star
from ipstar.recurrence import _cover_color_search
from ipstar.search import universal_coloring_search
from ipstar.systems import regular_system
from ipstar.textio import coloring_certificate, render_certificate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # standard library only, imports no ipstar
    return mod


def _resolve(mod: str, attr: str):
    obj = importlib.import_module(f"ipstar.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_wrapped_name_resolves(tracing):
    for mod, attr, _name in tracing.SPANS + tracing.COUNTS:
        assert callable(_resolve(mod, attr)), f"ipstar.{mod}.{attr}"


def test_every_traced_command_has_a_runner(tracing):
    runners = importlib.import_module("ipstar.cli")._RUNNERS
    assert set(tracing.COMMANDS) <= set(runners)


def test_positional_arguments_the_tracer_rewrites():
    # _count_probes replaces args[1]; _record_words replaces args[2]
    first_hit = _resolve("search", "first_hit")
    mono = _resolve("halesjewett", "mono_config_search")
    assert list(inspect.signature(first_hit).parameters)[:2] == ["count", "probe"]
    assert list(inspect.signature(mono).parameters)[:3] == ["d", "r", "coloring"]


def test_count_hooks_read_real_return_values(tracing):
    # each hook reads a field of the wrapped function's return value
    calls = [
        ("ipsets.fk", "ipsets.fk_subsets", (2, 4), fk_density_experiment(2, 4)),
        # {0, 1}'s complement in F_5, in window order
        ("ipsets.ip_scan", "ipsets.ip_tuples", (None, None, 2),
         is_ip_r_star(PrimeField(5), [2, 3, 4], 2)),
        ("search.dfs", "search.dfs_nodes", (2, None),
         universal_coloring_search(2, [[], [], [(None, (0, 1, 2))]])),
    ]
    for span, counter, args, res in calls:
        counts = Counter()
        tracing.HOOKS[span](counts, args, res)
        assert counts[counter] == res.candidates > 0, span


def test_cover_table_hook_reads_a_real_search_result(tracing):
    # the search takes (sys, x, m, epsilon, gens); the hook reads words_scanned
    s = regular_system(5)
    args = (s, s.event({0, 1}), Monomial(s.ring, 1, (2,)), 1, (1, 2))
    res = _cover_color_search(*args)
    counts = Counter()
    tracing.HOOKS["recurrence.cover_table"](counts, args, res)
    assert counts["recurrence.words_scanned"] == res.words_scanned == (1 << 2) ** 2


def test_cover_hooks_read_real_arguments_and_text(tracing, monkeypatch):
    # the replay hook takes the length of check_cover_tree's third argument,
    # the render hook the length of the certificate text
    out = halesjewett.hj_stage(2, 2, 2)
    calls = []
    replay = halesjewett.check_cover_tree
    monkeypatch.setattr(
        halesjewett, "check_cover_tree", lambda *args: calls.append(args) or replay(*args)
    )
    assert halesjewett.hj_check_cover(2, 2, 2, out.cover)
    counts = Counter()
    tracing.HOOKS["search.cover_replay"](counts, calls[0], True)
    assert counts["search.cover_leaves"] == len(out.cover) > 0
    cert = coloring_certificate("hj", {"k": 2, "t": 2, "m": 2}, out)
    text = render_certificate(cert)
    tracing.HOOKS["textio.cert_render"](counts, (cert,), text)
    assert counts["textio.cert_bytes"] == len(text) > 0
