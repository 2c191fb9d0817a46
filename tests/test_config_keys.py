"""Config keys: each one the CLI accepts is documented in the README, and
one it dropped is refused."""

import re
from pathlib import Path

import pytest

from ipstar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _documentation() -> str:
    """README's command table and its "Common keys" paragraph."""
    text = README.read_text()
    table = [line for line in text.splitlines() if line.startswith("| `")]
    common = text[text.index("Common keys:") :]
    return "\n".join([*table, common[: common.index("\n\n")]])


@pytest.mark.parametrize("command", sorted(cli._SPECS))
def test_every_config_key_is_documented(command):
    # a key counts as documented when it is quoted as `key` or `key=...`
    docs = _documentation()
    missing = [k for k in cli._SPECS[command] if not re.search(rf"`{re.escape(k)}[`=]", docs)]
    assert missing == []


def test_classify_refuses_the_dropped_density_N_key(capsys):
    # the density runs over the canonical windows inside the report's window
    rc = cli.main(["classify", "density_N=6"])
    assert rc == 1
    assert "unknown key 'density_N' for command classify" in capsys.readouterr().err
