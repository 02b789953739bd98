"""Documentation health: links resolve, CLI --help informative, API.md true.

Run by the CI docs job (and tier-1): a broken relative link in README or
docs/, a subcommand whose ``--help`` loses its examples/descriptions, or an
API.md entry naming a symbol that no longer exists (or lost its docstring)
fails here rather than silently rotting.
"""

import argparse
import importlib
import pathlib
import re

import pytest

from repro.api.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: [text](target) — excluding images; targets may carry #anchors.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

#: API.md documents symbols as headings of the form ``### `repro.x.Y` ``.
_API_SYMBOL = re.compile(r"^#{2,4} +`(repro(?:\.[A-Za-z0-9_]+)+)`", re.MULTILINE)

SUBCOMMANDS = (
    "run", "sweep", "serve", "compare", "figures", "bench", "scenario",
    "systems",
)

#: The documents the docs tree promises (README links them all).
DOCS_PAGES = (
    "ARCHITECTURE.md", "PERFORMANCE.md", "SCENARIOS.md",
    "OBSERVABILITY.md", "API.md",
)


def _markdown_files():
    files = sorted(ROOT.glob("*.md")) + sorted((ROOT / "docs").glob("*.md"))
    assert files, "no markdown files found"
    return files


class TestMarkdownLinks:
    @pytest.mark.parametrize("page", DOCS_PAGES)
    def test_docs_tree_exists(self, page):
        assert (ROOT / "docs" / page).is_file()

    @pytest.mark.parametrize("path", _markdown_files(), ids=lambda p: str(p.relative_to(ROOT)))
    def test_relative_links_resolve(self, path):
        broken = []
        for target in _LINK.findall(path.read_text(encoding="utf-8")):
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"broken relative links in {path.name}: {broken}"

    def test_readme_links_every_docs_page(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        missing = [page for page in DOCS_PAGES if f"docs/{page}" not in readme]
        assert not missing, f"README does not link: {missing}"


def _api_symbols():
    text = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    symbols = _API_SYMBOL.findall(text)
    assert len(symbols) >= 20, "API.md lost its symbol headings"
    return symbols


def _resolve(symbol: str):
    """Import the longest module prefix, then getattr the rest."""
    parts = symbol.split(".")
    module = None
    rest = []
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
            rest = parts[i:]
            break
        except ImportError:
            continue
    assert module is not None, f"no importable module prefix in {symbol!r}"
    obj = module
    for name in rest:
        obj = getattr(obj, name)
    return obj


class TestAPIReference:
    """Every symbol API.md documents exists and is itself documented."""

    @pytest.mark.parametrize("symbol", _api_symbols())
    def test_symbol_exists_and_documented(self, symbol):
        obj = _resolve(symbol)
        doc = getattr(obj, "__doc__", None)
        assert doc and doc.strip(), f"{symbol} has no docstring"

    def test_core_surface_is_covered(self):
        """API.md must keep documenting the load-bearing entry points."""
        symbols = set(_api_symbols())
        required = {
            "repro.api.Simulation",
            "repro.api.Sweep",
            "repro.api.register_system",
            "repro.scenarios.Scenario",
            "repro.scenarios.register_scenario",
        }
        assert required <= symbols, f"API.md lost: {sorted(required - symbols)}"


class TestCLIHelp:
    @pytest.fixture(scope="class")
    def parser(self):
        return build_parser()

    def test_every_subcommand_registered(self, parser):
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands.choices) == set(SUBCOMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_renders_and_describes(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert f"python -m repro {command}" in out
        # Every help screen must explain itself beyond the usage line.
        assert len(out.splitlines()) > 8, f"'{command} --help' is too terse"

    @pytest.mark.parametrize("command", ["run", "sweep", "compare", "serve"])
    def test_engine_knob_documented(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        out = capsys.readouterr().out
        assert "--engine" in out
        assert "vector" in out

    @pytest.mark.parametrize("command", ["run", "sweep", "serve", "compare", "scenario"])
    def test_examples_present(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        out = capsys.readouterr().out
        assert "examples:" in out, f"'{command} --help' lost its examples section"

    @pytest.mark.parametrize("subcommand", ["list", "run", "compare"])
    def test_scenario_subcommands(self, subcommand, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["scenario", subcommand, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 5, f"'scenario {subcommand} --help' is too terse"

    @pytest.mark.parametrize(
        "command", [["run"], ["serve"], ["scenario", "run"]], ids=["run", "serve", "scenario"]
    )
    def test_trace_subcommands(self, command, capsys):
        """The verbs that record a session list the export flags (and run/serve shard)."""
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([*command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        name = " ".join(command)
        for flag in ("--trace-out", "--metrics-out"):
            assert flag in out, f"'{name} --help' lost {flag}"
        if command != ["scenario", "run"]:
            assert "--shards" in out, f"'{name} --help' lost --shards"

    def test_log_level_documented(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["--help"])
        assert excinfo.value.code == 0
        assert "--log-level" in capsys.readouterr().out
