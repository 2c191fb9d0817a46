"""Per-layer tracing done from the benchmark's side, with no program change.

``Tracer.install`` wraps public functions of the ``ipstar`` modules.  The
modules import each other's functions by name, so a wrapper is bound under
every module-level name that refers to the original, plus the CLI's runner
table; class methods are wrapped on the class.  ``uninstall`` puts the
originals back, so traced and untraced rounds can alternate in one process.

Spans (name, start, end, parent) are kept in memory and written out at the
end of the run.  A span's self time is its duration minus that of its direct
children.  Hot inner functions (probes, finite sums, the word encoding,
polynomial evaluation) are only counted, not spanned.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name); attribute "Class.method" wraps a method
SPANS = [
    ("search", "universal_coloring_search", "search.dfs"),
    ("search", "first_hit", "search.scan"),
    ("search", "check_cover_tree", "search.cover_replay"),
    ("halesjewett", "hj_stage", "halesjewett.stage"),
    ("halesjewett", "find_mono_line", "halesjewett.mono_line"),
    ("halesjewett", "mono_config_search", "halesjewett.mono_config"),
    ("halesjewett", "hj_check_cover", "halesjewett.verify"),
    ("halesjewett", "hj_coloring_is_counterexample", "halesjewett.verify"),
    ("ipsets", "is_ip_r_star", "ipsets.ip_scan"),
    ("ipsets", "fu_ramsey_check", "ipsets.fu"),
    ("ipsets", "fk_density_experiment", "ipsets.fk"),
    ("ipsets", "fu_check_cover", "ipsets.verify"),
    ("ipsets", "fu_coloring_is_counterexample", "ipsets.verify"),
    ("recurrence", "recurrence_set", "recurrence.return_set"),
    ("recurrence", "classify_ipstar", "recurrence.classify"),
    ("recurrence", "_cover_color_search", "recurrence.cover_table"),
    ("systems", "FinitePermSystem.correlation", "systems.correlation.finite-perm"),
    ("systems", "RotationSystem.correlation", "systems.correlation.rotation"),
    ("systems", "BernoulliSystem.correlation", "systems.correlation.bernoulli"),
    ("systems", "dlim_probe", "systems.dlim"),
    ("algebra", "window_enumerate", "algebra.window"),
    ("textio", "render_certificate", "textio.cert_render"),
    ("textio", "parse_certificate", "textio.cert_parse"),
    ("textio", "report_tree", "textio.report_render.tree"),
    ("textio", "render_report_json", "textio.report_render.json"),
    ("textio", "render_recurrence_csv", "textio.report_render.csv"),
    ("textio", "parse_system_text", "textio.system_parse"),
    ("cli", "parse_config", "cli.config"),
    ("cli", "_run_check", "cli.run.check"),
]
# (module, attribute, counter name): call counts only
COUNTS = [
    ("halesjewett", "psi_encode", "halesjewett.psi_encode_calls"),
    ("ipsets", "finite_sums", "ipsets.finite_sums_calls"),
    ("systems", "orbit_metric", "systems.orbit_metric_calls"),
    ("algebra", "eval_poly", "algebra.poly_eval_calls"),
]
COMMANDS = ["hj", "fu-ramsey", "fk-density", "recurrence", "classify", "search", "density", "probe"]

# every per-layer metric, with its unit, in report order
LAYER_METRICS = [
    ("search.dfs_nodes", "count"), ("search.dfs_s", "s"), ("search.dfs_nodes_per_s", "1/s"),
    ("search.scan_probes", "count"), ("search.scan_probe_calls", "count"),
    ("search.scan_useful", "ratio"), ("search.scan_s", "s"),
    ("search.cover_replay_s", "s"), ("search.cover_leaves", "count"),
    ("halesjewett.stage_s", "s"), ("halesjewett.table_s", "s"), ("halesjewett.mono_line_s", "s"),
    ("halesjewett.psi_encode_calls", "count"), ("halesjewett.verify_s", "s"),
    ("ipsets.ip_tuples", "count"), ("ipsets.ip_scan_s", "s"), ("ipsets.finite_sums_calls", "count"),
    ("ipsets.fu_s", "s"), ("ipsets.fk_subsets", "count"), ("ipsets.fk_s", "s"), ("ipsets.verify_s", "s"),
    ("recurrence.return_set_s", "s"), ("recurrence.cover_table_s", "s"),
    ("recurrence.words_scanned", "count"), ("recurrence.table_use", "ratio"),
    ("systems.correlation_calls", "count"), ("systems.correlation_s.finite-perm", "s"),
    ("systems.correlation_s.rotation", "s"), ("systems.correlation_s.bernoulli", "s"),
    ("systems.dlim_s", "s"), ("systems.orbit_metric_calls", "count"),
    ("algebra.window_elems", "count"), ("algebra.window_s", "s"), ("algebra.poly_eval_calls", "count"),
    ("textio.cert_bytes", "bytes"), ("textio.cert_render_s", "s"), ("textio.cert_parse_s", "s"),
    ("textio.report_bytes", "bytes"), ("textio.report_render_s", "s"), ("textio.system_parse_s", "s"),
    ("cli.config_s", "s"),
    *[(f"cli.run_s.{c}", "s") for c in COMMANDS + ["check"]],
    ("bench.spans", "count"), ("bench.trace_overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.distinct_words = 0
        self._local = threading.local()
        self._patches: list = []
        self._counters: dict = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("ipstar.")}
        for mod, attr, name in SPANS:
            self._wrap(mods, mod, attr, lambda fn, name=name: self._spanned(fn, name))
        for mod, attr, name in COUNTS:
            self._wrap(mods, mod, attr, lambda fn, name=name: self._counted(fn, name))
        cli = mods["cli"]
        for cmd, fn in list(cli._RUNNERS.items()):
            self._set(cli._RUNNERS, cmd, self._spanned(fn, f"cli.run.{cmd}"), item=True)

    def uninstall(self) -> None:
        for owner, key, original, item in reversed(self._patches):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _set(self, owner, key, value, item=False):
        original = owner[key] if item else getattr(owner, key)
        self._patches.append((owner, key, original, item))
        if item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _wrap(self, mods, mod, attr, make) -> None:
        if "." in attr:  # a method: wrap it on the class
            cls = getattr(mods[mod], attr.split(".")[0])
            meth = attr.split(".")[1]
            self._set(cls, meth, make(getattr(cls, meth)))
            return
        original = getattr(mods[mod], attr)
        wrapper = make(original)
        # rebind every module-level name that refers to the original
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is original:
                    self._set(m, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _spanned(self, fn, name):
        spans, hook, rewrap = self.spans, HOOKS.get(name), REWRAP.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if rewrap is not None:
                args, finish = rewrap(self, args)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if rewrap is not None:
                finish()
            if hook is not None:
                hook(self.counts, args, res)
            return res

        return wrapper

    def _counted(self, fn, name):
        counter = self._counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)  # atomic under the interpreter lock: scan threads call these too
            return fn(*args, **kwargs)

        return wrapper

    # -- reduction -----------------------------------------------------------

    def totals(self):
        """(total time, self time) per span name and every counter; call once,
        since reading a call counter consumes a tick."""
        total, self_t = defaultdict(float), defaultdict(float)
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            self_t[name] += end - start - child[i]
        counts = Counter(self.counts)
        for name, counter in self._counters.items():
            counts[name] = next(counter)
        return total, self_t, counts

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _count_probes(tracer, args):
    """first_hit(count, probe, ...): count every probe call, including the
    ones a threaded scan makes past the hit."""
    calls, probe = itertools.count(), args[1]

    def counting(i):
        next(calls)  # atomic under the interpreter lock, safe from scan threads
        return probe(i)

    def finish():
        tracer.counts["search.scan_probe_calls"] += next(calls)

    return (args[0], counting, *args[2:]), finish


def _record_words(tracer, args):
    """mono_config_search(d, r, coloring, ...): the distinct words the line
    scan reads from the colour table."""
    seen, coloring = set(), args[2]

    def recording(alphas):
        seen.add(alphas)
        return coloring(alphas)

    def finish():
        tracer.distinct_words += len(seen)

    return (args[0], args[1], recording, *args[3:]), finish


# span name -> function replacing a call argument for the span's duration
REWRAP = {"search.scan": _count_probes, "halesjewett.mono_config": _record_words}


def _add(key, value_of):
    def hook(counts, args, res):
        counts[key] += value_of(args, res)
    return hook


HOOKS = {
    "search.dfs": _add("search.dfs_nodes", lambda a, r: r.candidates),
    "search.scan": _add("search.scan_probes", lambda a, r: r.candidates),
    "search.cover_replay": _add("search.cover_leaves", lambda a, r: len(a[2])),
    "ipsets.ip_scan": _add("ipsets.ip_tuples", lambda a, r: r.candidates),
    "ipsets.fk": _add("ipsets.fk_subsets", lambda a, r: r.candidates),
    "recurrence.cover_table": _add("recurrence.words_scanned", lambda a, r: r.words_scanned),
    "algebra.window": _add("algebra.window_elems", lambda a, r: len(r)),
    "textio.cert_render": _add("textio.cert_bytes", lambda a, r: len(r)),
    "textio.report_render.json": _add("textio.report_bytes", lambda a, r: len(r)),
    "textio.report_render.csv": _add("textio.report_bytes", lambda a, r: len(r)),
}
for _n in ("systems.correlation.finite-perm", "systems.correlation.rotation",
           "systems.correlation.bernoulli"):
    HOOKS[_n] = _add("systems.correlation_calls", lambda a, r: 1)


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> dict:
    """Per-layer metrics per traced round (the tracer is only installed
    during traced rounds, so everything it holds belongs to them)."""
    total, self_t, counts = tracer.totals()
    t = lambda n: total[n] / rounds  # noqa: E731
    c = lambda n: counts[n] / rounds  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "search.dfs_nodes": c("search.dfs_nodes"),
        "search.dfs_s": t("search.dfs"),
        "search.dfs_nodes_per_s": ratio(counts["search.dfs_nodes"], total["search.dfs"]),
        "search.scan_probes": c("search.scan_probes"),
        "search.scan_probe_calls": c("search.scan_probe_calls"),
        "search.scan_useful": ratio(counts["search.scan_probes"], counts["search.scan_probe_calls"]),
        "search.scan_s": t("search.scan"),
        "search.cover_replay_s": t("search.cover_replay"),
        "search.cover_leaves": c("search.cover_leaves"),
        "halesjewett.stage_s": t("halesjewett.stage"),
        "halesjewett.table_s": self_t["halesjewett.stage"] / rounds,
        "halesjewett.mono_line_s": t("halesjewett.mono_line"),
        "halesjewett.psi_encode_calls": c("halesjewett.psi_encode_calls"),
        "halesjewett.verify_s": t("halesjewett.verify"),
        "ipsets.ip_tuples": c("ipsets.ip_tuples"),
        "ipsets.ip_scan_s": t("ipsets.ip_scan"),
        "ipsets.finite_sums_calls": c("ipsets.finite_sums_calls"),
        "ipsets.fu_s": t("ipsets.fu"),
        "ipsets.fk_subsets": c("ipsets.fk_subsets"),
        "ipsets.fk_s": t("ipsets.fk"),
        "ipsets.verify_s": t("ipsets.verify"),
        "recurrence.return_set_s": t("recurrence.return_set"),
        "recurrence.cover_table_s": self_t["recurrence.cover_table"] / rounds,
        "recurrence.words_scanned": c("recurrence.words_scanned"),
        "recurrence.table_use": ratio(tracer.distinct_words, counts["recurrence.words_scanned"]),
        "systems.correlation_calls": c("systems.correlation_calls"),
        "systems.correlation_s.finite-perm": t("systems.correlation.finite-perm"),
        "systems.correlation_s.rotation": t("systems.correlation.rotation"),
        "systems.correlation_s.bernoulli": t("systems.correlation.bernoulli"),
        "systems.dlim_s": t("systems.dlim"),
        "systems.orbit_metric_calls": c("systems.orbit_metric_calls"),
        "algebra.window_elems": c("algebra.window_elems"),
        "algebra.window_s": t("algebra.window"),
        "algebra.poly_eval_calls": c("algebra.poly_eval_calls"),
        "textio.cert_bytes": c("textio.cert_bytes"),
        "textio.cert_render_s": t("textio.cert_render"),
        "textio.cert_parse_s": t("textio.cert_parse"),
        "textio.report_bytes": c("textio.report_bytes"),
        "textio.report_render_s": sum(t(f"textio.report_render.{k}") for k in ("tree", "json", "csv")),
        "textio.system_parse_s": t("textio.system_parse"),
        "cli.config_s": t("cli.config"),
        "bench.spans": len(tracer.spans) / rounds,
        "bench.trace_overhead_s": overhead,
    }
    for cmd in COMMANDS + ["check"]:
        m[f"cli.run_s.{cmd}"] = t(f"cli.run.{cmd}")
    return m
