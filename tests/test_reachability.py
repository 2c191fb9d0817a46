"""A name-based reachability pass over ``src/ipstar``: every top-level
function, class and method must be reached from what runs it.

The roots are ``cli.main``, every module's top-level statements (imports
aside), the functions the benchmark's tracer (``perfbench/tracing.py``)
wraps by name, and the documented library API of the README's example that
no command uses.  A definition that is reached reaches every definition
named by a name or attribute it mentions, in any module; a class that is
reached also reaches its class-body statements and its dunder methods,
which Python calls implicitly.  Matching by name over-approximates
reachability, so what the pass reports unreached is certainly unreached.

A second check works by type: the ground rings of ``algebra`` are exactly
the backends' scalar rings, its window types exactly those the CLI's window
grammar builds, and ring^n is built in ``algebra`` only (``ring_power``).
A third works by call: a rational window is listed as integer pairs in
``algebra`` only, and rationals are made pairs only there and in
``systems``.
"""

import ast
import importlib.util
import typing
from pathlib import Path

from ipstar import algebra, cli
from ipstar.textio import parse_system_text

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ipstar"
TRACING = ROOT / "perfbench" / "tracing.py"

# documented in the README's library example, used by no command
LIBRARY_API = {"regular_system", "scalar_poly_map", "RecurrenceReport.R"}


def _mentions(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(module, qualified name) -> (names it mentions, its line count), and
    the names the modules' top-level statements mention."""
    defs, top = {}, set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[mod, node.name] = _mentions([node]), node.end_lineno - node.lineno + 1
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                rest = [n for n in node.body if n not in methods]
                dunders = {f"{node.name}.{m.name}" for m in methods if m.name.startswith("__")}
                mentions = _mentions(node.decorator_list + node.bases + rest) | dunders
                defs[mod, node.name] = mentions, len(rest) + 1
                for m in methods:
                    defs[mod, f"{node.name}.{m.name}"] = _mentions([m]), m.end_lineno - m.lineno + 1
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                top |= _mentions([node])
    return defs, top


def _tracer_roots() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # standard library only, imports no ipstar
    return {(mod, attr) for mod, attr, _name in tracing.SPANS + tracing.COUNTS}


def unreached() -> list[str]:
    defs, top = _definitions()
    by_name: dict[str, set] = {}
    for key in defs:
        mod, qual = key
        by_name.setdefault(qual.rsplit(".", 1)[-1], set()).add(key)
        by_name.setdefault(qual, set()).add(key)  # "Class.method", for dunders and roots
    seen = {key for name in top | LIBRARY_API for key in by_name.get(name, ())}
    # the tracer wraps "Class.method" on the class, which may inherit it
    for mod, attr in _tracer_roots() | {("cli", "main")}:
        seen |= {key for key in by_name.get(attr.rsplit(".", 1)[-1], ()) if key[0] == mod}
    todo = list(seen)
    while todo:
        for name in defs[todo.pop()][0]:
            for key in by_name.get(name, ()):
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
    return [f"{mod}.{qual} ({defs[mod, qual][1]} lines)" for mod, qual in sorted(set(defs) - seen)]


def test_library_api_is_the_readme_example():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = _mentions([ast.parse(example)])
    assert {name.rsplit(".", 1)[-1] for name in LIBRARY_API} <= names


def test_every_definition_is_reached():
    missing = "\n".join(unreached())
    assert not missing, "unreached from a command, the tracer or the library API:\n" + missing


# one system text per backend
BACKEND_TEXTS = [
    "backend finite-perm\np 3\npoints 0 1 2\ngen (0 1 2)\n",
    "backend rotation\nrho 1/7\n",
    "backend bernoulli\np 2\nprobs 1/2 1/2\n",
]


def test_every_ground_ring_and_window_type_is_reached():
    # by type: a map is defined over some backend's ring, and a window is
    # one the CLI's window grammar builds
    rings = [type(parse_system_text(text)[0].ring) for text in BACKEND_TEXTS]
    assert set(typing.get_args(algebra.GroundRing)) == set(rings) and len(set(rings)) == 3
    windows = {type(cli._parse_window(text)) for text in ("full", "deg 2", "rat 2 2")}
    assert set(typing.get_args(algebra.Window)) == windows


def _callers(name: str) -> set[str]:
    """The modules of ``src/ipstar`` with a call whose callee mentions name."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in _mentions([node.func]):
                out.add(path.stem)
    return out


def test_only_algebra_constructs_a_vector_space():
    # every other module reaches ring^n through algebra.ring_power
    assert _callers("VectorSpace") == {"algebra"}


def test_only_algebra_and_systems_read_rationals_as_pairs():
    # a scan lists a window in column form through algebra.window_column,
    # and only the rotation backend turns its acting element into pairs
    assert _callers("window_pairs") == {"algebra"}
    assert _callers("rational_pairs") == {"algebra", "systems"}
