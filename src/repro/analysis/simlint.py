"""``simlint`` — static analysis for the simulator's correctness invariants.

The paper's central quantity (``S = T_shared / T_alone``) is only
meaningful while the simulator stays *deterministic* (identical inputs
produce identical schedules — the experiment engine's bit-identical
serial/parallel guarantee and its content-addressed result store both
depend on it) and *protocol-correct* (the DRAM model honors DDR2
timing; the runtime half of that check lives in
:mod:`repro.analysis.protocol`).  ``simlint`` walks ``src/repro`` as
ASTs and mechanically enforces the static half:

========  ==============================================================
SIM001    no wall-clock reads in the simulator core
SIM002    no unseeded random number generators
SIM003    no iteration over bare sets in scheduling/arbitration paths
SIM004    no ``id()``-keyed state influencing decisions
SIM005    no exact float equality on timing/slowdown quantities
SIM006    no mutable default arguments
SIM007    no broad ``except Exception: pass`` fault-swallowing
SIM101    no blocking calls reachable from a coroutine
SIM102    no unlocked mutation of shared module-level state
SIM103    no ``await`` while holding a synchronous lock
SIM104    no process fork after a thread start
SIM105    no threads/processes started but never joined/handed off
SIM106    no ``ContextVar`` writes from thread-pool entry points
SIM107    lease transitions only in their declared handlers
SIM108    lease routes only emit/branch on contracted status codes
SIM109    no unbounded, unpaced retry loops around network I/O
========  ==============================================================

The per-file rules (SIM001–SIM007) see one AST at a time; the
concurrency and protocol families consume the project-wide index of
:mod:`repro.analysis.index`, built by the parse → index → link →
rules pipeline in :mod:`repro.analysis.passes`, which parses each
file once and keeps nothing between runs.  The CLI can emit
``--format json`` or ``--format sarif`` for machine consumers; CI maps
the default text format onto inline annotations via
``.github/simlint-matcher.json``.

Findings can be suppressed per line with a trailing
``# simlint: disable=SIM003`` (or ``# simlint: disable`` for all
rules), and per rule via the ``[simlint]`` block of ``setup.cfg``
(an unknown code there, or in ``--select``/``--ignore``, exits 2)::

    [simlint]
    # enable = SIM001, SIM003     # run only these
    disable = SIM005              # never run these

Run it as ``stfm-sim lint [paths...]`` (exit status 1 when findings
remain) or ``simlint [paths...]``; the tier-1 test suite
runs it over the tree (``tests/test_simlint_clean.py``), so a PR that
introduces a violation fails CI.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

# The rules and the pipeline load on first use, so that declaring the
# options (``stfm-sim`` builds its ``lint`` subcommand at every start)
# costs no more than this module.
if TYPE_CHECKING:
    from repro.analysis.passes import PassResult
    from repro.analysis.rules import Finding, Rule

__all__ = [
    "LintConfig", "add_arguments", "lint_sources", "load_config", "main",
    "run", "run_simlint",
]

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?"
)


@dataclass
class LintConfig:
    """Which rules run (CLI flags override the ``[simlint]`` block)."""

    enable: frozenset[str] | None = None  # None = all registered rules
    disable: frozenset[str] = frozenset()

    def selects(self, code: str) -> bool:
        if code in self.disable:
            return False
        return self.enable is None or code in self.enable


def _parse_codes(raw: str) -> frozenset[str]:
    return frozenset(
        code.strip().upper()
        for code in re.split(r"[,\s]+", raw)
        if code.strip()
    )


def _rule_codes(raw: str, where: str) -> frozenset[str]:
    """Parse codes that name registered rules; ValueError naming the rest."""
    from repro.analysis.rules import all_rules

    codes = _parse_codes(raw)
    unknown = sorted(codes - {rule.code for rule in all_rules()})
    if unknown:
        raise ValueError(
            f"unknown rule code(s) in {where}: {', '.join(unknown)} "
            "(see --list-rules)"
        )
    return codes


def load_config(config_path: "str | None" = None) -> LintConfig:
    """Read the ``[simlint]`` block of ``setup.cfg`` (if present).

    Args:
        config_path: Explicit path to an ini file; by default
            ``setup.cfg`` is searched in the current directory and then
            upward from this package (the repository checkout).

    Raises:
        FileNotFoundError: ``config_path`` is given but does not exist.
        ValueError: the block names a code no registered rule has.
    """
    candidates = []
    if config_path:
        if not os.path.isfile(config_path):
            raise FileNotFoundError(f"no such config file: {config_path}")
        candidates.append(config_path)
    else:
        candidates.append(os.path.join(os.getcwd(), "setup.cfg"))
        here = os.path.dirname(os.path.abspath(__file__))
        for _ in range(5):
            here = os.path.dirname(here)
            candidates.append(os.path.join(here, "setup.cfg"))
    for candidate in candidates:
        if not os.path.isfile(candidate):
            continue
        parser = configparser.ConfigParser()
        parser.read(candidate)
        if not parser.has_section("simlint"):
            continue
        section = parser["simlint"]
        enable = section.get("enable", "").strip()
        where = f"the [simlint] block of {candidate}"
        return LintConfig(
            enable=_rule_codes(enable, where) if enable else None,
            disable=_rule_codes(section.get("disable", ""), where),
        )
    return LintConfig()


# -- source collection -------------------------------------------------------


def _domain_of(path: str) -> str:
    """First package segment under ``repro/`` ('' when not under repro)."""
    parts = path.replace(os.sep, "/").split("/")
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            remainder = parts[i + 1 :]
            if len(remainder) == 1:  # repro/cli.py, repro/__init__.py
                return ""
            return remainder[0]
    return ""


def collect_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(files))


def _line_suppressions(lines: list[str]) -> dict[int, frozenset[str] | None]:
    """Per-line suppressions: line -> codes (None = suppress everything)."""
    suppressed: dict[int, frozenset[str] | None] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        codes = match.group("codes")
        suppressed[number] = _parse_codes(codes) if codes else None
    return suppressed


def _suppressor():
    """Per-line suppression callback for the pass pipeline."""
    memo: "dict[str, dict[int, frozenset[str] | None]]" = {}

    def suppress(path: str, lines: "list[str]", finding: Finding) -> bool:
        suppressed = memo.get(path)
        if suppressed is None:
            suppressed = memo[path] = _line_suppressions(lines)
        codes = suppressed.get(finding.line, frozenset())
        return codes is None or finding.code in codes

    return suppress


def lint_items(
    items: "list[tuple[str, str]]",
    config: "LintConfig | None" = None,
    rules: "list[Rule] | None" = None,
) -> PassResult:
    """Run the full pipeline over (path, source) pairs.

    A shared :class:`ProjectIndex` is built from *all* items before
    any rule runs, so cross-file facts — set-typed attributes, the
    call graph, lease-handler classification — are visible regardless
    of which file a rule is looking at.
    """
    from repro.analysis.passes import run_passes
    from repro.analysis.rules import all_rules

    config = config or LintConfig()
    rules = rules if rules is not None else all_rules()
    active = [rule for rule in rules if config.selects(rule.code)]
    entries = [
        (path, _domain_of(path), text) for path, text in items
    ]
    return run_passes(entries, active, _suppressor())


def lint_sources(
    items: "list[tuple[str, str]]",
    config: "LintConfig | None" = None,
    rules: "list[Rule] | None" = None,
) -> list[Finding]:
    """Lint (path, source) pairs; the unit the tests drive directly."""
    return lint_items(items, config, rules).findings


def _read_items(paths: "list[str]") -> "list[tuple[str, str]]":
    items = []
    for path in collect_files(paths):
        with open(path, encoding="utf-8") as handle:
            items.append((path, handle.read()))
    return items


def run_simlint(
    paths: list[str], config: "LintConfig | None" = None
) -> list[Finding]:
    """Lint files/directories on disk and return all findings."""
    return lint_items(_read_items(paths), config).findings


# -- output formats ----------------------------------------------------------


def render_text(findings: "list[Finding]") -> str:
    lines = [finding.format() for finding in findings]
    lines.append(
        f"{len(findings)} finding(s)" if findings else "simlint: clean"
    )
    return "\n".join(lines)


def render_json(findings: "list[Finding]") -> str:
    payload = {
        "version": 1,
        "count": len(findings),
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "code": finding.code,
                "message": finding.message,
                "fixit": finding.fixit,
            }
            for finding in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(findings: "list[Finding]") -> str:
    """Minimal SARIF 2.1.0 — one run, one result per finding."""
    rule_ids = sorted({finding.code for finding in findings})
    by_code = {code: i for i, code in enumerate(rule_ids)}
    sarif = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "simlint",
                "informationUri": "https://example.invalid/simlint",
                "rules": [{"id": code} for code in rule_ids],
            }},
            "results": [
                {
                    "ruleId": finding.code,
                    "ruleIndex": by_code[finding.code],
                    "level": "error",
                    "message": {
                        "text": f"{finding.message}  [fix: {finding.fixit}]"
                    },
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col + 1,
                            },
                        },
                    }],
                }
                for finding in findings
            ],
        }],
    }
    return json.dumps(sarif, indent=2, sort_keys=True)


_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


# -- CLI ---------------------------------------------------------------------


def _default_lint_path() -> str:
    """``src/repro`` relative to a checkout, else this installed package."""
    candidate = os.path.join(os.getcwd(), "src", "repro")
    if os.path.isdir(candidate):
        return candidate
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the lint options on ``parser``: ``simlint`` and
    ``stfm-sim lint`` share them, and :func:`run` reads them."""
    parser.add_argument(
        "paths", nargs="*", help="files/directories (default: src/repro)"
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="run only these comma-separated rule codes",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="additionally disable these comma-separated rule codes",
    )
    parser.add_argument(
        "--config", metavar="PATH",
        help="ini file with a [simlint] block (default: setup.cfg)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe rules and exit"
    )
    parser.add_argument(
        "--format", choices=sorted(_RENDERERS), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print pipeline statistics (files, parses) to stderr",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="Static correctness analysis for the STFM simulator "
        "(determinism and numeric-hygiene invariants).",
    )
    add_arguments(parser)
    return parser


def run(args: argparse.Namespace) -> int:
    """Lint as ``args`` (from :func:`add_arguments`) asks.

    Exit status: 0 clean, 1 findings, 2 a missing path, a missing or
    malformed ``--config`` file, or an unknown rule code.
    """
    from repro.analysis.rules import all_rules

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
            print(f"        fix: {rule.fixit}")
        return 0
    try:
        config = load_config(args.config)
        if args.select:
            config.enable = _rule_codes(args.select, "--select")
        if args.ignore:
            config.disable |= _rule_codes(args.ignore, "--ignore")
        items = _read_items(args.paths or [_default_lint_path()])
    except (OSError, ValueError, configparser.Error) as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2
    result = lint_items(items, config)
    print(_RENDERERS[args.format](result.findings))
    if args.stats:
        stats = result.stats
        print(
            f"stats: {stats.files} file(s), {stats.parsed} parsed",
            file=sys.stderr,
        )
    return 1 if result.findings else 0


def main(argv: "list[str] | None" = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
