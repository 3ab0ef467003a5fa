"""Static lease-protocol rules (SIM107/SIM108).

Both rules check the cluster's HTTP layer against the declarative
model in :mod:`repro.cluster.lease_model` — the same tables the
runtime :class:`~repro.cluster.lease_model.LeaseSanitizer` replays,
so the static and dynamic checkers cannot drift apart.

SIM107 walks every indexed call of the form ``self.leases.<op>`` and
demands that protocol *transitions* (grant/heartbeat/complete/
expire_due) only happen in the coordinator entry point that
declares them in ``HANDLER_OPS``.  SIM108 has two halves: each
coordinator handler may only emit status codes its route declares in
``API_CONTRACT`` (including codes raised by same-module helpers it
calls, e.g. ``_parse_json`` -> 400), and the runner may only *branch*
on declared codes — a comparison against an undeclared literal is
either dead code or a protocol the coordinator never speaks.

Both rules are scoped to the ``cluster`` domain; fixture files under
other paths stay silent by construction.
"""

from __future__ import annotations

import ast

from repro.analysis.index import FileIndex, ProjectIndex
from repro.analysis.rules import LintContext, Rule
from repro.cluster.lease_model import (
    API_CONTRACT,
    HANDLER_OPS,
    HANDLER_ROUTES,
    TRANSITION_OPS,
)

_LEASE_ROUTE_PREFIX = "/v1/leases"


def _normalize_route(path: str) -> str:
    """Collapse id segments: ``/v1/leases/*/heartbeat`` style keys."""
    parts = path.split("/")
    return "/".join("*" if "*" in part else part for part in parts)


class UndeclaredLeaseOpRule(Rule):
    """SIM107: lease transition outside its declared handler."""

    code = "SIM107"
    summary = "lease-table transition outside its declared handler"
    fixit = (
        "route the transition through the handler that declares it in "
        "lease_model.HANDLER_OPS (or extend the table deliberately)"
    )
    domains = ("cluster",)

    def check(self, ctx: LintContext):
        index = ctx.index
        if not isinstance(index, ProjectIndex) or not index.linked:
            return
        file_index = index.files.get(ctx.path)
        if file_index is None:
            return
        for info in file_index.functions.values():
            declared = HANDLER_OPS.get(info.qualname, frozenset())
            for site in info.calls:
                if (
                    len(site.chain) == 3
                    and site.chain[0] == "self"
                    and site.chain[1] == "leases"
                    and site.chain[2] in TRANSITION_OPS
                ):
                    op = site.chain[2]
                    if op not in declared:
                        yield self.finding(
                            ctx,
                            _Anchor(site.line, site.col),
                            f"{info.qualname} performs lease transition "
                            f"{op!r} but HANDLER_OPS declares "
                            f"{sorted(declared) or 'no transitions'}",
                        )


class _Anchor:
    """Minimal node stand-in carrying a location for Rule.finding."""

    def __init__(self, line: int, col: int) -> None:
        self.lineno = line
        self.col_offset = col


class UndeclaredStatusCodeRule(Rule):
    """SIM108: status code outside the route's API contract."""

    code = "SIM108"
    summary = "status code not declared in the lease API contract"
    fixit = (
        "emit/branch only on codes in lease_model.API_CONTRACT for the "
        "route, or extend the contract (and the runner) deliberately"
    )
    domains = ("cluster",)

    def check(self, ctx: LintContext):
        index = ctx.index
        if not isinstance(index, ProjectIndex) or not index.linked:
            return
        file_index = index.files.get(ctx.path)
        if file_index is None:
            return
        yield from self._check_handlers(ctx, file_index)
        yield from self._check_client_branches(ctx, file_index)

    # -- coordinator side ----------------------------------------------------

    def _check_handlers(self, ctx: LintContext, file_index: FileIndex):
        handlers = {
            qualname: route
            for qualname, route in HANDLER_ROUTES.items()
            if qualname in file_index.functions
        }
        if not handlers:
            return
        helper_raises = self._helper_raises(ctx.tree)
        for qualname, route in handlers.items():
            declared = API_CONTRACT[route]
            info = file_index.functions[qualname]
            emitted: "list[tuple[int, int, int]]" = []  # (code, line, col)
            node = self._find_def(ctx.tree, qualname)
            if node is not None:
                emitted.extend(self._emitted_codes(node))
            # one-level closure: helpers this handler calls that raise
            for site in info.calls:
                name = site.chain[-1]
                for code in helper_raises.get(name, ()):
                    emitted.append((code, site.line, site.col))
            for code, line, col in emitted:
                if code not in declared:
                    yield self.finding(
                        ctx,
                        _Anchor(line, col),
                        f"{qualname} emits {code} but "
                        f"{route[0]} {route[1]} declares "
                        f"{sorted(declared)}",
                    )

    def _find_def(self, tree: ast.AST, qualname: str) -> "ast.AST | None":
        class_name, _, method = qualname.partition(".")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for stmt in node.body:
                    if (
                        isinstance(
                            stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                        and stmt.name == method
                    ):
                        return stmt
        return None

    def _emitted_codes(self, node: ast.AST):
        """(code, line, col) for every status literal the body emits."""
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Raise) and isinstance(
                stmt.exc, ast.Call
            ):
                yield from self._call_code(stmt.exc, ("_HttpError",))
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                value = stmt.value
                if isinstance(value, ast.Call):
                    yield from self._call_code(value, ("_json_response",))
                elif isinstance(value, ast.Tuple) and value.elts:
                    first = value.elts[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, int
                    ):
                        yield (
                            first.value, value.lineno, value.col_offset
                        )

    @staticmethod
    def _call_code(call: ast.Call, names: "tuple[str, ...]"):
        func = call.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in names and call.args:
            first = call.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, int
            ):
                yield first.value, call.lineno, call.col_offset

    def _helper_raises(self, tree: ast.AST) -> "dict[str, list[int]]":
        """Module-level helpers -> status codes they raise."""
        raises: "dict[str, list[int]]" = {}
        for node in ast.iter_child_nodes(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            codes = [
                code
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.Raise)
                and isinstance(stmt.exc, ast.Call)
                for code, _, _ in self._call_code(stmt.exc, ("_HttpError",))
            ]
            if codes:
                raises[node.name] = codes
        return raises

    # -- runner side ---------------------------------------------------------

    def _check_client_branches(
        self, ctx: LintContext, file_index: FileIndex
    ):
        for info in file_index.functions.values():
            if info.qualname in HANDLER_ROUTES:
                continue  # coordinator handlers are checked above
            routes = []
            for site in info.calls:
                if site.chain[-1] not in ("request", "_request_once"):
                    continue
                method, path = site.str_args
                if not method or not path:
                    continue
                if not path.startswith(_LEASE_ROUTE_PREFIX):
                    continue
                route = (method, _normalize_route(path))
                if route in API_CONTRACT:
                    routes.append(route)
            if not routes:
                continue
            declared: "set[int]" = set()
            for route in routes:
                declared |= API_CONTRACT[route]
            for compare in info.compares:
                if compare.name != "status":
                    continue
                for value in compare.values:
                    if 100 <= value <= 599 and value not in declared:
                        yield self.finding(
                            ctx,
                            _Anchor(compare.line, 0),
                            f"{info.qualname} branches on status "
                            f"{value} which no lease route it calls "
                            f"declares ({sorted(declared)})",
                        )
