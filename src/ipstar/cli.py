"""Experiment front door: config files in, reports and certificates out.

Experiments are described by a line-oriented ``key = value`` config (with
optional ``[section]`` headers, which group lines but do not rename keys)
and run through subcommands named after the config's ``command`` value.
Bare ``key=value`` arguments override the file.  Outputs land in the
``output`` directory and re-running a completed experiment reproduces them
byte for byte, except for one timestamp line in reports.

Exit codes: 0 for any completed verdict (counterexamples included), 2 when
a search ran out of budget (a checkpoint file is written), 1 for config or
system errors.  ``--resume <checkpoint>`` continues an interrupted search
of a command that takes a budget; a checkpoint names the config it came
from by hash, and resuming with a modified config is refused.  Budgets
count examined candidates; there is no wall-clock cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import namedtuple
from functools import cache, partial
from pathlib import Path

from .algebra import DegreeWindow, FullWindow, RationalWindow
from .halesjewett import hj_stage
from .ipsets import (
    example_a,
    example_a_checks,
    fk_density_experiment,
    fk_odds_certificate,
    fu_ramsey_check,
)
from .recurrence import (
    classify_ipstar,
    fp_probe,
    isometric_recurrence_search,
    recurrence_set,
)
from .search import ALL_OK, BUDGET_EXCEEDED, stages
from .systems import FinitePermSystem, RotationSystem, dlim_probe
from .textio import (
    TextFormatError,
    _content_lines,
    _parse_int,
    _records,
    _split_top,
    check_certificate,
    describe_system,
    coloring_certificate,
    parse_certificate,
    parse_element,
    parse_fraction,
    parse_monomial,
    parse_poly_map,
    parse_system_text,
    render_certificate,
    render_element,
    render_family,
    render_fraction,
    render_poly_map,
    render_recurrence_csv,
    render_report_json,
    render_subset_config,
    report_tree,
)


# ---------------------------------------------------------------------------
# config parsing


class ConfigError(namedtuple("ConfigError", "line message")):
    __slots__ = ()

    def __str__(self):
        return self.message if self.line is None else f"line {self.line}: {self.message}"


ExperimentConfig = namedtuple("ExperimentConfig", [
    "command",
    "values",
    "lines",  # key -> source line number (None for overrides/defaults)
])


def _posint(text: str) -> int:
    v = _parse_int(text)
    if v < 1:
        raise TextFormatError("must be >= 1")
    return v


def _posfrac(text: str):
    q = parse_fraction(text)
    if q <= 0:
        raise TextFormatError("must be positive")
    return q


def _str(text: str) -> str:
    if not text:
        raise TextFormatError("empty value")
    return text


def _csv_or_report(text: str) -> str:
    if text not in ("csv", "report"):
        raise TextFormatError("must be one of csv, report")
    return text


# key -> (converter, required, default); None default means "absent unless given"
_OUTPUT = {"output": (_str, False, ".")}
_BUDGETED = {"budget": (_posint, False, None), **_OUTPUT}
_MAPPED = {"system": (_str, True, None), "set": (_str, False, "B"), "phi": (_str, True, None)}
_WINDOWED = {**_MAPPED, "epsilon": (_posfrac, True, None), "window": (_str, True, None)}
_SPECS: dict[str, dict] = {
    "hj": {
        "k": (_posint, True, None),
        "t": (_posint, True, None),
        "m_max": (_posint, False, 6),
        **_BUDGETED,
    },
    "fu-ramsey": {
        "r": (_posint, False, None),
        "s": (_posint, True, None),
        "k": (_posint, True, None),
        "r_limit": (_posint, False, None),
        **_BUDGETED,
    },
    "fk-density": {
        "r": (_posint, True, None),
        "N": (_posint, True, None),
        **_BUDGETED,
    },
    "example-a": {
        "r_max": (_posint, True, None),
    },
    "recurrence": {**_WINDOWED, "format": (_csv_or_report, False, "csv"), **_OUTPUT},
    "classify": {**_WINDOWED, "r_max": (_posint, False, 4), **_BUDGETED},
    "search": {
        "system": (_str, True, None),
        "x": (_str, True, None),
        "m": (_str, True, None),
        "epsilon": (_posfrac, True, None),
        "gens": (_str, True, None),
    },
    "density": {**_MAPPED, "N": (_posint, True, None)},
    "probe": {**_WINDOWED, "gens": (_str, True, None)},
}


def _post_validate(command: str, values: dict) -> list[str]:
    if command == "fu-ramsey":
        if (values.get("r") is None) == (values.get("r_limit") is None):
            return ["give exactly one of 'r' (single check) or 'r_limit' (minimal-r search)"]
    return []


def parse_config(text: str, command: str | None = None, overrides=()):
    """Collect every problem, not just the first.

    Returns (config, errors); config is None whenever errors is non-empty.
    """
    errors: list[ConfigError] = []
    raw: dict[str, tuple[str, int | None]] = {}

    for no, line in _content_lines(text):
        if line.startswith("["):
            if not (line.endswith("]") and line[1:-1].strip()):
                errors.append(ConfigError(no, f"malformed section header {line!r}"))
            continue  # sections group lines visually; keys stay file-global
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            errors.append(ConfigError(no, f"expected 'key = value', got {line!r}"))
            continue
        if key in raw:
            errors.append(ConfigError(no, f"duplicate key {key!r}"))
            continue
        raw[key] = (value, no)

    for token in overrides:
        key, sep, value = token.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            errors.append(ConfigError(None, f"override {token!r}: expected key=value"))
            continue
        raw[key] = (value, None)  # overrides replace file entries

    file_command = None
    if "command" in raw:
        file_command, cmd_line = raw.pop("command")
        if command is not None and file_command != command:
            errors.append(
                ConfigError(cmd_line, f"config says command = {file_command}, invoked as {command}")
            )
    command = command or file_command
    if command is None:
        errors.append(ConfigError(None, "no command given"))
        return None, errors
    if command not in _SPECS:
        errors.append(ConfigError(None, f"unknown command {command!r}"))
        return None, errors

    spec = _SPECS[command]
    values: dict = {}
    lines: dict = {}
    broken: set[str] = set()
    for key, (value, no) in raw.items():
        if key not in spec:
            errors.append(ConfigError(no, f"unknown key {key!r} for command {command}"))
            continue
        try:
            values[key] = spec[key][0](value)
            lines[key] = no
        except TextFormatError as exc:
            errors.append(ConfigError(no, f"{key}: {exc}"))
            broken.add(key)
    for key, (_conv, required, default) in spec.items():
        if key in values or key in broken:
            continue
        if required:
            errors.append(ConfigError(None, f"missing required key {key!r}"))
        elif default is not None:
            values[key] = default
            lines[key] = None
    for msg in _post_validate(command, values):
        errors.append(ConfigError(None, msg))
    errors.sort(key=lambda e: (e.line is None, e.line or 0))
    if errors:
        return None, errors
    return ExperimentConfig(command, values, lines), errors


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical form: command first, remaining keys sorted, defaults filled."""
    out = [f"command = {cfg.command}"]
    for key in sorted(cfg.values):
        v = cfg.values[key]
        text = render_fraction(v) if not isinstance(v, (str, int)) else str(v)
        out.append(f"{key} = {text}")
    return "\n".join(out) + "\n"


# operational knobs: changing them changes how far or where a run goes, not
# what is being computed, so checkpoints stay valid across them (raising the
# budget to finish an interrupted search is the whole point of resuming)
_HASH_EXCLUDE = frozenset({"budget", "output"})


def config_hash(cfg: ExperimentConfig) -> str:
    keep = {k: v for k, v in cfg.values.items() if k not in _HASH_EXCLUDE}
    text = render_config(ExperimentConfig(cfg.command, keep, {}))
    if "system" in keep:  # by contents: two systems at one path hash apart
        system = _read_file("system file", keep["system"], binary=True)
        text += f"system_sha256 = {hashlib.sha256(system).hexdigest()}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# shared plumbing


def _read_file(what: str, path, binary=False):
    """A file's text (or bytes); one that cannot be read or decoded is a ValueError naming it."""
    try:
        return Path(path).read_bytes() if binary else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read {what} {path!r}: {reason}") from None


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _out_dir(cfg) -> Path:
    path = Path(cfg.values.get("output", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve(cfg, key, fn):
    # attach the config location to value errors surfacing at run time
    try:
        return fn(cfg.values[key])
    except ValueError as exc:
        line = cfg.lines.get(key)
        where = f"config key {key!r}" + (f" (line {line})" if line else "")
        raise ValueError(f"{where}: {exc}") from None


def _load_system(cfg):
    path = cfg.values["system"]
    try:
        return parse_system_text(_read_file("system file", path))
    except TextFormatError as exc:
        raise ValueError(f"system file {path!r}: {exc}")


def _named_event(cfg, events, key="set"):
    name = cfg.values[key]
    if name not in events:
        known = ", ".join(sorted(events)) or "none"
        raise ValueError(f"system file defines no set named {name!r} (sets: {known})")
    return events[name]


def _parse_window(text: str):
    parts = text.split()
    try:
        if parts[0] == "full" and len(parts) == 1:
            return FullWindow()
        if parts[0] == "deg" and len(parts) == 2:
            return DegreeWindow(_parse_int(parts[1]))
        if parts[0] == "rat" and len(parts) == 3:
            return RationalWindow(_parse_int(parts[1]), _parse_int(parts[2]))
    except IndexError:
        pass
    raise TextFormatError(
        f"unknown window {text!r}; use 'full', 'deg N', or 'rat A B'"
    )


def _parse_gens(group, text: str):
    parts = [p for p in (q.strip() for q in _split_top(text, ",")) if p]
    if not parts:
        raise TextFormatError("empty generator list")
    return tuple(parse_element(group, p) for p in parts)


def _mapped_inputs(cfg):
    """The system, the event its file names by ``set`` and the map ``phi``."""
    sys_, events = _load_system(cfg)
    B = _named_event(cfg, events)
    phi = _resolve(cfg, "phi", lambda t: parse_poly_map(sys_.ring, sys_.acting, t))
    return sys_, B, phi


def _experiment_inputs(cfg):
    return *_mapped_inputs(cfg), cfg.values["epsilon"], _resolve(cfg, "window", _parse_window)


def _write_text(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it
    over the target, so the target is always either the old file or the
    whole new one.  On failure the temporary file is removed."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_checkpoint(outd: Path, cfg, path, candidates: int, **stage) -> None:
    """Write where a search that ran out of budget restarts, its path and,
    for a staged search, its stage as one ``key=n`` keyword, and print the
    file's name."""
    h = config_hash(cfg)
    fields = {**stage, "path": ",".join(map(str, path)), "candidates": candidates}
    lines = [f"checkpoint {cfg.command}", f"config {h}"]
    lines += [f"{name} {fields[name]}" for name in sorted(fields)]
    ckpt = outd / f"checkpoint-{h}.txt"
    _write_text(ckpt, "\n".join(lines) + "\n")
    print(f"checkpoint -> {ckpt}")


def _load_checkpoint(path: str, cfg, key=None, stages=()) -> tuple[int | None, tuple[int, ...]]:
    """The (stage, path) a checkpoint resumes, refused unless it has a path
    line, repeats no line and, when ``key`` names the stage, has a stage
    line with one of this run's ``stages``.  Without a ``key`` the stage is
    None and any stage line is ignored."""
    text = _read_file("checkpoint", path)
    try:  # any key: a line no run reads, as an older checkpoint's, is skipped
        command, lines = _records(text, "checkpoint", "command", lambda command: (None, ()))
    except TextFormatError as exc:
        raise ValueError(f"checkpoint {path!r}: {exc}") from None
    fields = {name: rest for name, (_no, rest) in lines.items()}
    if command != cfg.command:
        raise ValueError(f"checkpoint is for command {command!r}, not {cfg.command!r}")
    if fields.get("config") != config_hash(cfg):
        raise ValueError("checkpoint was written by a different config; resume refused")
    start = None
    if key is not None:
        start = _parse_int(fields.get(key, ""))
        if start not in stages:
            raise ValueError(f"checkpoint resumes {key}={start}, outside this run")
    if "path" not in fields:  # as in checkpoints of a scan resumed by index
        raise ValueError(f"checkpoint {path!r} has no 'path' line")
    return start, tuple(_parse_int(c) for c in fields["path"].split(","))


# ---------------------------------------------------------------------------
# runners


# per coloring claim: certificate family, the stage's checkpoint key, the
# head of a stage's stdout line, the resume line, and the all-ok label
_CLAIMS = {
    "hj": ("hj", "m", "stage m={m}", "resumed at stage m={m}", "all colorings forced a line"),
    "fu-ramsey": (
        "fu",
        "r",
        "fu r={r} s={s} k={k}",
        "resumed at r={r}",
        "every coloring contains a monochromatic family",
    ),
}


def _run_stages(cfg, resume_file, stage_range, run_stage):
    """Decide the claim of an `hj` or `fu-ramsey` run at ascending stages
    under one budget, printing each stage's line and writing its
    certificate as the stage is decided, and a checkpoint when the budget
    runs out.  Returns (exit code, the first stage whose claim holds for
    every coloring or None)."""
    family, key, head, resumed, ok_label = _CLAIMS[cfg.command]
    outd = _out_dir(cfg)
    resume = None
    if resume_file is not None:
        resume = _load_checkpoint(resume_file, cfg, key, stage_range)
    done = stages(stage_range, run_stage, budget=cfg.values.get("budget"), resume=resume)
    for n, out in done:
        if resume is not None:  # printed once the search reached the checkpoint's path
            print(resumed.format(**{**cfg.values, key: resume[0]}))
            resume = None
        values = {**cfg.values, key: n}
        if out.kind == BUDGET_EXCEEDED:
            print(f"{head.format(**values)}: budget exceeded after {out.candidates} candidates")
            _write_checkpoint(outd, cfg, out.resume_path, out.candidates, **{key: n})
            return 2, None
        cover = out.kind == ALL_OK
        tag = "cover" if cover else "counterexample"
        cert = coloring_certificate(family, values, out)
        name = "-".join([family, *(f"{p}{v}" for p, v in cert.params), tag])
        path = outd / f"{name}.txt"
        _write_text(path, render_certificate(cert))
        print(f"{head.format(**values)}: {ok_label if cover else tag} -> {path}")
        if cover:
            return 0, n
    return 0, None


def _run_hj(cfg, resume_file) -> int:
    k, t, m_max = cfg.values["k"], cfg.values["t"], cfg.values["m_max"]
    rc, m = _run_stages(cfg, resume_file, range(1, m_max + 1), partial(hj_stage, k, t))
    if rc == 0:
        print(f"HJ({k},{t}) > {m_max} (m_max reached)" if m is None else f"HJ({k},{t}) = {m}")
    return rc


def _run_fu(cfg, resume_file) -> int:
    s, k, single = cfg.values["s"], cfg.values["k"], cfg.values.get("r")
    rs = range(1, cfg.values["r_limit"] + 1) if single is None else [single]
    rc, r = _run_stages(cfg, resume_file, rs, lambda r, **kw: fu_ramsey_check(r, s, k, **kw))
    if rc == 0 and single is None:
        limit = cfg.values["r_limit"]
        print(f"no universal r found up to r_limit {limit}" if r is None else f"minimal r = {r}")
    return rc


def _run_fk(cfg, resume_file) -> int:
    r, N = cfg.values["r"], cfg.values["N"]
    path = None
    if resume_file is not None:  # the search replays up to the path
        _, path = _load_checkpoint(resume_file, cfg)
    res = fk_density_experiment(r, N, budget=cfg.values.get("budget"), resume_path=path)
    if res.status == BUDGET_EXCEEDED:
        print(f"fk r={r} N={N}: budget exceeded after {res.candidates} candidates")
        _write_checkpoint(_out_dir(cfg), cfg, res.resume_path, res.candidates)
        return 2
    print(f"fk r={r} N={N}: minimum blocking density {render_fraction(res.value)}")
    print(f"witness: {render_family(res.witness)}")
    if r == 2:
        _A, dens, valid = fk_odds_certificate(N)
        print(
            f"even-blocker certificate: density {render_fraction(dens)}, "
            f"complement sum-free: {'true' if valid else 'false'}"
        )
    return 0


def _run_example_a(cfg, resume_file) -> int:
    ex = example_a(cfg.values["r_max"])
    for r, vals in ex.blocks:
        print(f"block {r}: " + " ".join(str(v) for v in vals))
    for name, ok in example_a_checks(ex).items():
        print(f"{name}: {'pass' if ok else 'fail'}")
    return 0


def _print_recurrence_summary(sys_, rep):
    print(f"system: {describe_system(sys_)}")
    print(f"phi: {render_poly_map(rep.phi)}")
    print(f"mu(B) = {render_fraction(rep.mu)}")
    print(f"threshold = {render_fraction(rep.threshold)}")
    print(f"R: {sum(rep.hits())} of {len(rep.element_column)} window elements")


def _run_recurrence(cfg, resume_file) -> int:
    sys_, B, phi, eps, window = _experiment_inputs(cfg)
    rep = recurrence_set(sys_, B, phi, eps, window)
    _print_recurrence_summary(sys_, rep)
    outd = _out_dir(cfg)
    if cfg.values["format"] == "csv":
        path = outd / "recurrence.csv"
        _write_text(path, render_recurrence_csv(rep, generated=_now()))
    else:
        path = outd / "recurrence.json"
        _write_text(path, render_report_json(report_tree(rep, generated=_now())))
    print(f"wrote {path}")
    return 0


def _run_classify(cfg, resume_file) -> int:
    sys_, B, phi, eps, window = _experiment_inputs(cfg)
    r_max = cfg.values["r_max"]
    level = path = None
    if resume_file is not None:
        level, path = _load_checkpoint(resume_file, cfg, "r", range(1, r_max + 1))
        if len(path) > level:  # level is the first one the search had not reached
            raise ValueError(f"resume path {path} is longer than its level r={level}")
    rep = recurrence_set(sys_, B, phi, eps, window)
    rep = classify_ipstar(rep, r_max, budget=cfg.values.get("budget"), resume_path=path)
    if level is not None:  # printed once classify_ipstar accepted the checkpoint
        print(f"resumed at r={level}")
    _print_recurrence_summary(sys_, rep)
    stalled = None
    for r in sorted(rep.classification):
        v = rep.classification[r]
        if v.kind == "holds":
            print(f"r={r}: holds{' (window-limited)' if rep.window_limited(v) else ''}")
        elif v.kind == "fails":  # exact: its sums avoid R in the whole group
            w = ",".join(render_element(rep.domain, g) for g in v.witness)
            print(f"r={r}: fails witness={w}")
        else:
            print(f"r={r}: budget exceeded after {v.candidates} candidates")
            stalled = (r, v)
    outd = _out_dir(cfg)
    path = outd / "classify.json"
    _write_text(path, render_report_json(report_tree(rep, generated=_now())))
    print(f"wrote {path}")
    if stalled is not None:
        r, v = stalled
        _write_checkpoint(outd, cfg, v.resume_path, v.candidates, r=r)
        return 2
    return 0


def _run_search(cfg, resume_file) -> int:
    sys_, events = _load_system(cfg)
    ring = sys_.ring
    if not isinstance(sys_, (FinitePermSystem, RotationSystem)):
        raise ValueError("constructive search needs a compact backend (finite-perm or rotation)")
    if isinstance(sys_, RotationSystem):
        x = _resolve(cfg, "x", parse_fraction)
    else:
        x = _named_event(cfg, events, "x")
    m = _resolve(cfg, "m", lambda t: parse_monomial(ring, t))
    gens = _resolve(cfg, "gens", lambda t: _parse_gens(m.domain, t))
    res = isometric_recurrence_search(sys_, x, m, cfg.values["epsilon"], gens)
    print(f"status: {res.status}")
    print(f"words scanned: {res.words_scanned}")
    print(f"proof bound: {res.proof_bound}")
    print(f"cells: {res.cells}")
    if res.found:
        print(f"gamma: {render_family(res.gamma)}")
        print(f"u_gamma: {render_element(m.domain, res.u_gamma)}")
        # scalar monomials give scalar exponents, whatever the acting group
        print(f"exponents: {render_element(ring, res.exponent)}")
        print(f"distance_sq: {render_fraction(res.distance_sq)}")
        print(f"config: {render_subset_config(res.config)}")
        if res.sufficient_length is not None:
            print(f"sufficient length: {res.sufficient_length}")
    return 0


def _run_density(cfg, resume_file) -> int:
    sys_, B, phi = _mapped_inputs(cfg)
    N = cfg.values["N"]
    profile = dlim_probe(sys_, B, phi, N)  # before any output: a refusal prints nothing
    print(f"dlim over N=1..{N}")
    for n, value in enumerate(profile.values, start=1):
        print(f"N={n}: {render_fraction(value)}")
    return 0


def _run_probe(cfg, resume_file) -> int:
    sys_, B, phi, eps, window = _experiment_inputs(cfg)
    if phi.n != 1:
        raise ValueError("finite products need a one-variable map (the domain is a vector group)")
    ring = phi.ring  # the domain of a one-variable map
    gens = _resolve(cfg, "gens", lambda t: _parse_gens(ring, t))
    out = fp_probe(sys_, B, phi, eps, window, gens)
    print("products: " + ",".join(render_element(ring, v) for v in out.products))
    print("witnesses: " + ",".join(render_element(ring, v) for v in out.witnesses))
    print(f"intersects: {'true' if out.intersects else 'false'}")
    return 0


_RUNNERS = {
    "hj": _run_hj,
    "fu-ramsey": _run_fu,
    "fk-density": _run_fk,
    "example-a": _run_example_a,
    "recurrence": _run_recurrence,
    "classify": _run_classify,
    "search": _run_search,
    "density": _run_density,
    "probe": _run_probe,
}

_HELP = {
    "hj": "least word length forcing a monochromatic line",
    "fu-ramsey": "universal-coloring claim for finite-union families",
    "fk-density": "minimum blocking density over {1..N}",
    "example-a": "the doubly-exponential block set and its checks",
    "recurrence": "compute a return set and emit the per-element table",
    "classify": "return set plus dual-family classification report",
    "search": "cover-and-color search for a recurrent finite union",
    "density": "Cesaro decay of the non-compact correlation part",
    "probe": "finite-products intersection probe of a return set",
}


# ---------------------------------------------------------------------------
# entry


def _emit_errors(errors) -> None:
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    record = {"errors": [{"line": e.line, "message": e.message} for e in errors]}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _run_check(path: str) -> int:
    try:
        cert = parse_certificate(_read_file("certificate", path))
    except ValueError as exc:  # malformed, or unreadable (that message names the file)
        where = f"certificate {path!r}: " if isinstance(exc, TextFormatError) else ""
        _emit_errors([ConfigError(None, where + str(exc))])
        return 1
    desc = cert.kind + " " + " ".join(f"{n}={v}" for n, v in cert.params)
    try:
        valid = check_certificate(cert)
    except ValueError as exc:  # parameters too large to replay
        _emit_errors([ConfigError(None, f"certificate {path!r}: {exc}")])
        return 1
    if valid:
        print(f"certificate valid: {desc}")
        return 0
    print(f"certificate INVALID: {desc}")
    return 1


@cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipstar",
        description="exact finite-sums structure, coloring claims, and return sets",
    )
    parser.add_argument(
        "--check",
        metavar="CERT",
        help="re-validate a certificate file through verification-only paths",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, help_text in _HELP.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("-c", "--config", help="experiment config file")
        sp.add_argument("--resume", metavar="CKPT", help="resume from a checkpoint file")
        sp.add_argument(
            "overrides", nargs="*", metavar="key=value", help="override config entries"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.check is not None:
        return _run_check(args.check)
    if args.command is None:
        _emit_errors([ConfigError(None, "no command given (see ipstar --help)")])
        return 1
    try:
        text = "" if args.config is None else _read_file("config", args.config)
    except ValueError as exc:
        _emit_errors([ConfigError(None, str(exc))])
        return 1
    cfg, errors = parse_config(text, command=args.command, overrides=args.overrides)
    # a command resumes exactly when it takes a budget
    if not errors and args.resume is not None and "budget" not in _SPECS[cfg.command]:
        errors = [ConfigError(None, f"{cfg.command} does not support --resume")]
    if errors:
        _emit_errors(errors)
        return 1
    try:
        rc = _RUNNERS[cfg.command](cfg, args.resume)
    except ValueError as exc:
        _emit_errors([ConfigError(None, str(exc))])
        return 1
    if rc == 0 and args.resume is not None:
        Path(args.resume).unlink(missing_ok=True)  # consumed
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
