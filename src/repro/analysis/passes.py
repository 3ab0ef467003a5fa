"""The multi-pass lint pipeline: parse → index → link → rules.

:func:`run_passes` is the engine behind :func:`repro.analysis.simlint.
lint_items`.  Everything stays in memory, and each file is parsed
exactly once:

1. **index** — parse every file and extract its
   :class:`~repro.analysis.index.FileIndex` contribution; the tree is
   kept for pass 3.
2. **link** — join all contributions into the project-wide
   :class:`~repro.analysis.index.ProjectIndex` (call graph, thread
   closure, blocking classification).
3. **rules** — run the rule set over each kept tree.

:class:`LintStats` counts files and parses so the tests can assert
the parse-once property.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.index import FileIndex, ProjectIndex
from repro.analysis.rules import Finding, LintContext, Rule


@dataclass
class LintStats:
    """Instrumentation for the pipeline."""

    files: int = 0
    parsed: int = 0


@dataclass
class PassResult:
    findings: "list[Finding]" = field(default_factory=list)
    stats: LintStats = field(default_factory=LintStats)


def _parse(path: str, source: str) -> "tuple[ast.AST | None, Finding | None]":
    """Parse one file; a SyntaxError yields a SIM000 finding instead."""
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            code="SIM000",
            message=f"syntax error: {exc.msg}",
            fixit="fix the syntax error so simlint can parse the file",
        )


def run_passes(
    entries: "list[tuple[str, str, str]]",
    rules: "list[Rule]",
    suppress,
) -> PassResult:
    """Run the pipeline over (path, domain, source) triples.

    ``suppress(entry_path, lines, finding)`` decides per-line
    suppression.
    """
    result = PassResult()
    stats = result.stats
    index = ProjectIndex()
    stats.files = len(entries)

    # pass 1: parse once, collect per-file index contributions
    trees = []
    for path, _domain, source in entries:
        tree, syntax_error = _parse(path, source)
        stats.parsed += 1
        trees.append(tree)
        if tree is None:
            result.findings.append(syntax_error)
            index.add_file(FileIndex(path=path, module=path))
        else:
            index.add_file(FileIndex.build(path, tree))

    # pass 2: link the project view
    index.link()

    # pass 3: rules over the kept trees
    for (path, domain, source), tree in zip(entries, trees):
        if tree is None:
            continue
        lines = source.splitlines()
        ctx = LintContext(
            path=path,
            domain=domain,
            source=source,
            lines=lines,
            tree=tree,
            index=index,
        )
        for rule in rules:
            for finding in rule.run(ctx):
                if not suppress(path, lines, finding):
                    result.findings.append(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result
