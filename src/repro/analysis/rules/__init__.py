"""The ``simlint`` rule registry.

Each rule is a small AST checker with a stable code (``SIM001``...), a
one-line summary, a fix-it message, and a *domain* — the set of
``repro`` sub-packages it applies to.  The driver
(:mod:`repro.analysis.simlint`) parses every file once, builds a
cross-file :class:`ProjectIndex` of set-typed attributes, and hands each
rule a :class:`LintContext` per file.

Rules report :class:`Finding` objects; inline suppression
(``# simlint: disable=SIM003``) and the ``[simlint]`` block in
``setup.cfg`` are applied by the driver, not by the rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass


#: Sub-packages that make up the simulator core: code here must be
#: deterministic and protocol-correct (ISSUE: the bit-identical
#: serial/parallel guarantee and the content-addressed result store of
#: the experiment engine both depend on it).
CORE_DOMAINS = ("dram", "controller", "schedulers", "core", "cpu", "sim")

#: Sub-packages whose code makes or feeds *scheduling decisions*:
#: iteration order and object identity here directly change which DRAM
#: command wins arbitration.
ARBITRATION_DOMAINS = ("dram", "controller", "schedulers", "core", "sim")

#: Trace generation must also be reproducible (seeded RNG only).
GENERATION_DOMAINS = CORE_DOMAINS + ("workloads",)

#: Everything under ``repro``.
ALL_DOMAINS = ("*",)


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    fixit: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message}  [fix: {self.fixit}]"
        )


from repro.analysis.index import (  # noqa: E402  (re-export)
    FileIndex,
    ProjectIndex,
)

__all__ = [
    "ALL_DOMAINS", "ARBITRATION_DOMAINS", "CORE_DOMAINS",
    "GENERATION_DOMAINS", "FileIndex", "Finding", "LintContext",
    "ProjectIndex", "Rule", "all_rules", "walk_shallow",
]


@dataclass
class LintContext:
    """Everything a rule may inspect about one file."""

    path: str  # as reported in findings (relative when possible)
    domain: str  # first package segment under repro/ ("" if unknown)
    source: str
    lines: list[str]
    tree: ast.AST
    index: ProjectIndex

    def applies(self, domains: tuple[str, ...]) -> bool:
        return "*" in domains or self.domain in domains


class Rule:
    """Base class for simlint rules."""

    code: str = "SIM000"
    summary: str = ""
    fixit: str = ""
    domains: tuple[str, ...] = ALL_DOMAINS

    def run(self, ctx: LintContext) -> list[Finding]:
        if not ctx.applies(self.domains):
            return []
        return list(self.check(ctx))

    def check(self, ctx: LintContext):  # pragma: no cover - interface
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, node: ast.AST, message: str | None = None
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message or self.summary,
            fixit=self.fixit,
        )


def walk_shallow(node: ast.AST):
    """Walk descendants without entering nested function definitions.

    Scope-sensitive rules visit each statement exactly once: the module
    scope stops at every ``def``, and each function scope stops at its
    nested ``def``s (class bodies are traversed — methods belong to the
    enclosing module's statement stream only via their own scope).
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(child))


def _annotation_text(node: ast.AST | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return ""


def annotation_is_set(node: ast.AST | None) -> bool:
    text = _annotation_text(node).replace(" ", "")
    return text in ("set", "frozenset") or text.startswith(
        ("set[", "frozenset[", "Set[", "FrozenSet[")
    )


def annotation_is_dict_of_set(node: ast.AST | None) -> bool:
    text = _annotation_text(node).replace(" ", "")
    if not text.startswith(("dict[", "Dict[")):
        return False
    inner = text.split("[", 1)[1]
    value = inner.split(",", 1)[1] if "," in inner else ""
    return value.startswith(("set[", "frozenset[", "set]", "frozenset]"))


def _is_default_factory_set(node: ast.AST) -> bool:
    """``field(default_factory=set)`` marks a dataclass set attribute."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id != "field":
        return False
    for keyword in node.keywords:
        if (
            keyword.arg == "default_factory"
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id in ("set", "frozenset")
        ):
            return True
    return False


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, ordered by code."""
    from repro.analysis.rules.determinism import (
        UnseededRandomRule,
        WallClockRule,
    )
    from repro.analysis.rules.numerics import (
        FloatEqualityRule,
        MutableDefaultRule,
    )
    from repro.analysis.rules.ordering import (
        IdKeyedContainerRule,
        SetIterationRule,
    )
    from repro.analysis.rules.robustness import (
        SilentExceptRule,
        UnboundedRetryLoopRule,
    )
    from repro.analysis.rules.concurrency import (
        AwaitUnderLockRule,
        BlockingInCoroutineRule,
        CtxvarThreadWriteRule,
        ForkAfterThreadRule,
        SharedStateMutationRule,
        UnjoinedThreadRule,
    )
    from repro.analysis.rules.protocol_static import (
        UndeclaredLeaseOpRule,
        UndeclaredStatusCodeRule,
    )

    rules: list[Rule] = [
        WallClockRule(),
        UnseededRandomRule(),
        SetIterationRule(),
        IdKeyedContainerRule(),
        FloatEqualityRule(),
        MutableDefaultRule(),
        SilentExceptRule(),
        BlockingInCoroutineRule(),
        SharedStateMutationRule(),
        AwaitUnderLockRule(),
        ForkAfterThreadRule(),
        UnjoinedThreadRule(),
        CtxvarThreadWriteRule(),
        UndeclaredLeaseOpRule(),
        UndeclaredStatusCodeRule(),
        UnboundedRetryLoopRule(),
    ]
    return sorted(rules, key=lambda rule: rule.code)
