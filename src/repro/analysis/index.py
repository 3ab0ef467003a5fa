"""Project-wide AST index for multi-pass static analysis.

``simlint`` started as a per-file linter; the concurrency rules
(SIM101..) and the lease-protocol checker (SIM107/SIM108) need facts
that span files: which functions are coroutines, which sync functions
are reachable from them, which functions run on worker threads, what
type ``self.leases`` resolves to three modules away.  This module
builds those facts in two passes:

1. :meth:`FileIndex.build` extracts a per-file summary (imports,
   classes with attribute types, functions with their call sites,
   lock contexts, global mutations, thread starts) from the file's
   already-parsed tree.
2. :meth:`ProjectIndex.link` joins the summaries: module graph, call
   graph (attribute chains resolved through class attribute types),
   the async-reachable closure, thread-entry points and their
   reachable closure, and transitive hard-blocking classification.

The index deliberately over- and under-approximates in documented
ways (e.g. "lock-ish" is name-based, blocking file I/O is only
flagged lexically inside ``async def``) — rules that consume it note
which side they lean on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Method names that mutate their receiver in place.  Used to detect
#: mutation of module-level shared state (``_SESSION.add(...)``).
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "update",
    }
)

#: Thread/process entry registration calls: ``kwarg_funcs['target']``
#: (Thread/Process) or the first ``func_args`` element (submit & co).
_THREAD_CTORS = frozenset({"threading.Thread", "Thread"})
_PROCESS_CTORS = frozenset(
    {"multiprocessing.Process", "Process", "mp.Process"}
)
_SUBMIT_METHODS = frozenset({"submit", "run_in_executor", "to_thread"})

#: Blocking-primitive kinds.  ``hard`` kinds propagate through the
#: sync call graph; ``file`` is only reported lexically inside
#: ``async def`` (file I/O on the loop is tolerated where the tree
#: does it deliberately — crash-safe state saves are small and local).
HARD_KINDS = frozenset({"sleep", "subprocess", "network", "shutdown"})

_FILE_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


def _chain_of(node: ast.AST) -> "tuple[str, ...] | None":
    """``a.b.c(...)`` -> ("a", "b", "c"); None when not a name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _const_of(node: ast.AST) -> object:
    if isinstance(node, ast.Constant):
        return node.value
    return _UNKNOWN


_UNKNOWN = object()


def _normalized_str(node: ast.AST) -> "str | None":
    """String literal, with f-string placeholders collapsed to ``*``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for piece in node.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _is_lockish(expr: ast.AST) -> bool:
    """``with self._lock:`` / ``with _SESSION_LOCK:`` — name-based."""
    chain = _chain_of(expr)
    if chain is None and isinstance(expr, ast.Call):
        chain = _chain_of(expr.func)
    if not chain:
        return False
    return "lock" in chain[-1].lower()


@dataclass
class CallSite:
    """One call expression inside a function body."""

    chain: "tuple[str, ...]"
    line: int
    col: int
    awaited: bool = False
    under_lock: bool = False
    #: Constant keyword arguments (``wait=False``, ``daemon=True``).
    const_kwargs: "dict[str, object]" = field(default_factory=dict)
    #: Name chains passed as keyword args (``target=self._loop``).
    kwarg_funcs: "dict[str, tuple[str, ...]]" = field(default_factory=dict)
    #: Name chains passed positionally (``submit(execute_spec, ...)``).
    func_args: "tuple[tuple[str, ...], ...]" = ()
    #: First two positional string args, f-string holes as ``*``
    #: (``client.request("POST", f"/v1/leases/{id}/heartbeat")``).
    str_args: "tuple[str | None, str | None]" = (None, None)


@dataclass
class Mutation:
    """A write to a module-level name from function scope."""

    name: str
    line: int
    col: int
    locked: bool
    kind: str  # "rebind" | "call"


@dataclass
class ThreadStart:
    """A ``Thread``/``Process`` constructed (and maybe started) here."""

    kind: str  # "thread" | "process"
    line: int
    col: int
    target: "tuple[str, ...] | None" = None
    var: "str | None" = None
    daemon: "bool | None" = None
    started: bool = False
    joined: bool = False
    escapes: bool = False


@dataclass
class StatusCompare:
    """``status == 410`` / ``status in (200, 204)`` in a function."""

    name: str
    values: "tuple[int, ...]"
    line: int


@dataclass
class FunctionInfo:
    """Per-function facts extracted in one pass."""

    qualname: str
    line: int
    is_async: bool = False
    calls: "list[CallSite]" = field(default_factory=list)
    declared_globals: "tuple[str, ...]" = ()
    mutations: "list[Mutation]" = field(default_factory=list)
    thread_starts: "list[ThreadStart]" = field(default_factory=list)
    await_lines: "list[tuple[int, int, bool]]" = field(default_factory=list)
    compares: "list[StatusCompare]" = field(default_factory=list)
    raises_codes: "tuple[int, ...]" = ()  # _HttpError(<int>, ...) raises


@dataclass
class ClassInfo:
    name: str
    bases: "tuple[str, ...]" = ()
    #: attribute -> dotted type name, from ``self.x = Ctor(...)`` and
    #: ``self.x: T`` (first assignment wins).
    attr_types: "dict[str, str]" = field(default_factory=dict)
    methods: "tuple[str, ...]" = ()


def module_name_of(path: str) -> str:
    """Dotted module name from a path (``.../repro/cluster/leases.py``)."""
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


@dataclass
class FileIndex:
    """Summary of one source file."""

    path: str
    module: str
    imports: "dict[str, str]" = field(default_factory=dict)
    classes: "dict[str, ClassInfo]" = field(default_factory=dict)
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    #: Module-level ``name = Ctor(...)`` -> dotted ctor name.
    module_types: "dict[str, str]" = field(default_factory=dict)
    #: Module-level names bound by plain assignment (shared-state pool).
    module_globals: "tuple[str, ...]" = ()
    set_attrs: "tuple[str, ...]" = ()
    dict_of_set_attrs: "tuple[str, ...]" = ()

    @classmethod
    def build(cls, path: str, tree: ast.AST) -> "FileIndex":
        builder = _FileIndexBuilder(path)
        builder.visit_module(tree)
        return builder.index


class _FileIndexBuilder:
    """Single-pass extraction of :class:`FileIndex` facts."""

    def __init__(self, path: str) -> None:
        self.index = FileIndex(path=path, module=module_name_of(path))
        self._set_attrs: set[str] = set()
        self._dict_of_set_attrs: set[str] = set()

    # -- module pass ---------------------------------------------------------

    def visit_module(self, tree: ast.AST) -> None:
        module_globals: list[str] = []
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.index.imports[local] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.index.imports[local] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        module_globals.append(target.id)
                        value = getattr(node, "value", None)
                        if isinstance(value, ast.Call):
                            chain = _chain_of(value.func)
                            if chain:
                                self.index.module_types[target.id] = (
                                    self._dotted(chain)
                                )
            elif isinstance(node, ast.ClassDef):
                self._visit_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit_function(node, prefix="")
        self.index.module_globals = tuple(dict.fromkeys(module_globals))
        self._collect_set_attrs(tree)
        self.index.set_attrs = tuple(sorted(self._set_attrs))
        self.index.dict_of_set_attrs = tuple(sorted(self._dict_of_set_attrs))

    def _dotted(self, chain: "tuple[str, ...]") -> str:
        head = self.index.imports.get(chain[0], chain[0])
        return ".".join((head,) + chain[1:])

    # -- classes -------------------------------------------------------------

    def _visit_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            chain = _chain_of(base)
            if chain:
                bases.append(self._dotted(chain))
        info = ClassInfo(name=node.name, bases=tuple(bases))
        methods = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._visit_function(stmt, prefix=f"{node.name}.")
                self._collect_attr_types(stmt, info)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotation = stmt.annotation
                chain = _chain_of(annotation)
                if chain:
                    info.attr_types.setdefault(
                        stmt.target.id, self._dotted(chain)
                    )
        info.methods = tuple(methods)
        self.index.classes[node.name] = info

    def _collect_attr_types(self, method: ast.AST, info: ClassInfo) -> None:
        for stmt in ast.walk(method):
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                chain = _chain_of(stmt.annotation)
                if (
                    chain
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_types.setdefault(
                        target.attr, self._dotted(chain)
                    )
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Call)
            ):
                continue
            chain = _chain_of(value.func)
            if chain:
                info.attr_types.setdefault(target.attr, self._dotted(chain))

    # -- functions -----------------------------------------------------------

    def _visit_function(self, node: ast.AST, prefix: str) -> None:
        qualname = f"{prefix}{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        declared: list[str] = []
        extractor = _BodyExtractor(self, info, declared)
        for stmt in node.body:
            extractor.visit(stmt, under_lock=False)
        info.declared_globals = tuple(dict.fromkeys(declared))
        self._finish_thread_starts(node, info)
        self.index.functions[qualname] = info
        for nested in extractor.nested:
            self._visit_function(nested, prefix=f"{qualname}.<locals>.")
            # A nested def is conservatively treated as called by its
            # parent unless it is only ever handed to a thread ctor.
            info.calls.append(
                CallSite(
                    chain=(f"{qualname}.<locals>.{nested.name}",),
                    line=nested.lineno,
                    col=nested.col_offset,
                )
            )

    def _finish_thread_starts(
        self, node: ast.AST, info: FunctionInfo
    ) -> None:
        """Resolve join/escape facts for thread/process starts."""
        by_var = {t.var: t for t in info.thread_starts if t.var}
        if not info.thread_starts:
            return
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Call):
                chain = _chain_of(stmt.func)
                if chain and len(chain) == 2 and chain[0] in by_var:
                    if chain[1] == "join":
                        by_var[chain[0]].joined = True
                    elif chain[1] == "start":
                        by_var[chain[0]].started = True
                # var passed to any call -> escapes
                for arg in list(stmt.args) + [k.value for k in stmt.keywords]:
                    if isinstance(arg, ast.Name) and arg.id in by_var:
                        by_var[arg.id].escapes = True
            elif isinstance(stmt, ast.Return) and isinstance(
                stmt.value, ast.Name
            ):
                if stmt.value.id in by_var:
                    by_var[stmt.value.id].escapes = True
            elif isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.Name) and (
                    stmt.value.id in by_var
                ):
                    for target in stmt.targets:
                        if not isinstance(target, ast.Name):
                            by_var[stmt.value.id].escapes = True

    def _collect_set_attrs(self, tree: ast.AST) -> None:
        """Set-typed attribute names (SIM003/SIM004 compatibility)."""
        from repro.analysis.rules import (
            _is_default_factory_set,
            annotation_is_dict_of_set,
            annotation_is_set,
        )

        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    name = stmt.target.id
                    if annotation_is_set(stmt.annotation) or (
                        stmt.value is not None
                        and _is_default_factory_set(stmt.value)
                    ):
                        self._set_attrs.add(name)
                    elif annotation_is_dict_of_set(stmt.annotation):
                        self._dict_of_set_attrs.add(name)
            for method in node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for stmt in ast.walk(method):
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Attribute)
                        and isinstance(stmt.target.value, ast.Name)
                        and stmt.target.value.id == "self"
                    ):
                        if annotation_is_set(stmt.annotation):
                            self._set_attrs.add(stmt.target.attr)
                        elif annotation_is_dict_of_set(stmt.annotation):
                            self._dict_of_set_attrs.add(stmt.target.attr)


class _BodyExtractor:
    """Recursive statement walker tracking lock context and awaits."""

    def __init__(
        self,
        builder: _FileIndexBuilder,
        info: FunctionInfo,
        declared: "list[str]",
    ) -> None:
        self.builder = builder
        self.info = info
        self.declared = declared
        self.nested: "list[ast.AST]" = []
        self._raises: "list[int]" = []

    def visit(self, node: ast.AST, under_lock: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(node)
            return
        if isinstance(node, ast.Global):
            self.declared.extend(node.names)
        elif isinstance(node, ast.With):
            lockish = any(
                _is_lockish(item.context_expr) for item in node.items
            )
            for item in node.items:
                self._visit_expr(item.context_expr, under_lock, False)
            for stmt in node.body:
                self.visit(stmt, under_lock or lockish)
            return
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and (
                    target.id in self.declared
                ):
                    self.info.mutations.append(
                        Mutation(
                            name=target.id,
                            line=node.lineno,
                            col=node.col_offset,
                            locked=under_lock,
                            kind="rebind",
                        )
                    )
            value = getattr(node, "value", None)
            if value is not None:
                self._visit_expr(value, under_lock, False)
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                self._maybe_thread_start(node)
            return
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            chain = _chain_of(node.exc.func)
            if chain and chain[-1] == "_HttpError" and node.exc.args:
                code = _const_of(node.exc.args[0])
                if isinstance(code, int):
                    self._raises.append(code)
                    self.info.raises_codes = tuple(self._raises)
        elif isinstance(node, ast.Compare):
            self._visit_compare(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child, under_lock, False)
            elif isinstance(child, ast.stmt):
                self.visit(child, under_lock)
            elif isinstance(
                child, (ast.excepthandler, ast.match_case)
            ):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self.visit(sub, under_lock)
                    elif isinstance(sub, ast.expr):
                        self._visit_expr(sub, under_lock, False)

    # -- expressions ---------------------------------------------------------

    def _visit_expr(
        self, node: ast.AST, under_lock: bool, awaited: bool
    ) -> None:
        if isinstance(node, (ast.Lambda,)):
            return
        if isinstance(node, ast.Await):
            self.info.await_lines.append(
                (node.lineno, node.col_offset, under_lock)
            )
            self._visit_expr(node.value, under_lock, True)
            return
        if isinstance(node, ast.Compare):
            self._visit_compare(node)
        if isinstance(node, ast.Call):
            self._record_call(node, under_lock, awaited)
            for arg in node.args:
                self._visit_expr(arg, under_lock, False)
            for keyword in node.keywords:
                self._visit_expr(keyword.value, under_lock, False)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child, under_lock, False)

    def _visit_compare(self, node: ast.Compare) -> None:
        chain = _chain_of(node.left)
        if not chain:
            return
        values: list[int] = []
        for comparator in node.comparators:
            if isinstance(comparator, ast.Constant) and isinstance(
                comparator.value, int
            ):
                values.append(comparator.value)
            elif isinstance(comparator, (ast.Tuple, ast.Set, ast.List)):
                for element in comparator.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, int
                    ):
                        values.append(element.value)
        if values:
            self.info.compares.append(
                StatusCompare(
                    name=chain[-1], values=tuple(values), line=node.lineno
                )
            )

    def _record_call(
        self, node: ast.Call, under_lock: bool, awaited: bool
    ) -> None:
        chain = _chain_of(node.func)
        if chain is None:
            self._visit_expr(node.func, under_lock, False)
            return
        const_kwargs: "dict[str, object]" = {}
        kwarg_funcs: "dict[str, tuple[str, ...]]" = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            value = _const_of(keyword.value)
            if value is not _UNKNOWN:
                const_kwargs[keyword.arg] = value
            else:
                func_chain = _chain_of(keyword.value)
                if func_chain:
                    kwarg_funcs[keyword.arg] = func_chain
        func_args = tuple(
            c for c in (_chain_of(arg) for arg in node.args) if c
        )
        str_args: "list[str | None]" = [None, None]
        for position, arg in enumerate(node.args[:2]):
            str_args[position] = _normalized_str(arg)
        site = CallSite(
            chain=chain,
            line=node.lineno,
            col=node.col_offset,
            awaited=awaited,
            under_lock=under_lock,
            const_kwargs=const_kwargs,
            kwarg_funcs=kwarg_funcs,
            func_args=func_args,
            str_args=(str_args[0], str_args[1]),
        )
        self.info.calls.append(site)
        # A mutator-method call on a bare two-element chain is a
        # *candidate* shared-state mutation; link() keeps only those
        # whose receiver is a module-level global.
        if len(chain) == 2 and chain[1] in MUTATOR_METHODS:
            self.info.mutations.append(
                Mutation(
                    name=chain[0],
                    line=node.lineno,
                    col=node.col_offset,
                    locked=under_lock,
                    kind="call",
                )
            )

    def _maybe_thread_start(self, node: ast.Assign) -> None:
        """``t = Thread(...)`` — registered for join/escape analysis."""
        call = node.value
        chain = _chain_of(call.func)
        if chain is None:
            return
        dotted = self.builder._dotted(chain)
        kind = None
        if dotted in _THREAD_CTORS or chain[-1] == "Thread":
            kind = "thread"
        elif dotted in _PROCESS_CTORS or chain[-1] == "Process":
            kind = "process"
        if kind is None:
            return
        var = None
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            var = node.targets[0].id
        target = None
        daemon = None
        for keyword in call.keywords:
            if keyword.arg == "target":
                target = _chain_of(keyword.value)
            elif keyword.arg == "daemon":
                value = _const_of(keyword.value)
                if isinstance(value, bool):
                    daemon = value
        self.info.thread_starts.append(
            ThreadStart(
                kind=kind,
                line=node.lineno,
                col=node.col_offset,
                target=target,
                var=var,
                daemon=daemon,
            )
        )


@dataclass
class ProjectIndex:
    """Cross-file facts, built from every linted file before rules run.

    The ``set_attrs`` / ``dict_of_set_attrs`` fields keep the original
    (PR 3) contract used by the ordering rules; everything else is the
    linked concurrency/protocol view.  Call :meth:`add_file` for every
    file, then :meth:`link` once; the query helpers below are only
    meaningful after linking.
    """

    set_attrs: "set[str]" = field(default_factory=set)
    dict_of_set_attrs: "set[str]" = field(default_factory=set)
    files: "dict[str, FileIndex]" = field(default_factory=dict)

    # linked views (populated by link())
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    fid_file: "dict[str, FileIndex]" = field(default_factory=dict)
    blocking: "dict[str, tuple[str, str]]" = field(default_factory=dict)
    thread_targets: "set[str]" = field(default_factory=set)
    thread_reachable: "set[str]" = field(default_factory=set)
    linked: bool = False

    # -- construction --------------------------------------------------------

    def add_file(self, file_index: FileIndex) -> None:
        self.files[file_index.path] = file_index
        self.set_attrs.update(file_index.set_attrs)
        self.dict_of_set_attrs.update(file_index.dict_of_set_attrs)
        self.linked = False

    # -- resolution helpers --------------------------------------------------

    def _class_by_dotted(self, dotted: str) -> "tuple[FileIndex, ClassInfo] | None":
        module, _, name = dotted.rpartition(".")
        for file_index in self.files.values():
            if name in file_index.classes and (
                not module or file_index.module == module
            ):
                return file_index, file_index.classes[name]
        return None

    def _method_fid(
        self, file_index: FileIndex, info: ClassInfo, method: str
    ) -> "str | None":
        """Method lookup through project-resolvable base classes."""
        seen = set()
        stack = [(file_index, info)]
        while stack:
            current_file, current = stack.pop()
            key = f"{current_file.module}.{current.name}"
            if key in seen:
                continue
            seen.add(key)
            if method in current.methods:
                return f"{current_file.module}.{current.name}.{method}"
            for base in current.bases:
                resolved = self._class_by_dotted(base)
                if resolved:
                    stack.append(resolved)
        return None

    def dotted_of(
        self, file_index: FileIndex, chain: "tuple[str, ...]"
    ) -> str:
        head = file_index.imports.get(chain[0], chain[0])
        return ".".join((head,) + chain[1:])

    def resolve_call(
        self, file_index: FileIndex, qualname: str, site: CallSite
    ) -> "str | None":
        """Resolve a call chain to a project fid or external dotted name.

        Returns a project fid (``repro.cluster.leases.LeaseTable.grant``)
        when the target is an indexed function, a dotted external name
        (``time.sleep``) otherwise, or None when unresolvable.
        """
        chain = site.chain
        if not chain:
            return None
        if ".<locals>." in chain[0]:  # synthetic parent->nested edge
            return f"{file_index.module}.{chain[0]}"
        scope_class: "ClassInfo | None" = None
        if "." in qualname:
            scope_class = file_index.classes.get(qualname.split(".")[0])
        if chain[0] == "self" and scope_class is not None:
            if len(chain) == 2:
                return self._method_fid(file_index, scope_class, chain[1])
            if len(chain) == 3:
                attr_type = scope_class.attr_types.get(chain[1])
                if attr_type is None:
                    return None
                resolved = self._class_by_dotted(attr_type)
                if resolved:
                    fid = self._method_fid(resolved[0], resolved[1], chain[2])
                    if fid:
                        return fid
                return f"{attr_type}.{chain[2]}"
            return None
        if len(chain) == 1:
            nested = f"{qualname}.<locals>.{chain[0]}"
            if nested in file_index.functions:
                return f"{file_index.module}.{nested}"
            if chain[0] in file_index.functions:
                return f"{file_index.module}.{chain[0]}"
            dotted = file_index.imports.get(chain[0])
            if dotted:
                return self._project_or_external(dotted)
            return None
        # instance of a known module-level object: resolve via its type
        instance_type = file_index.module_types.get(chain[0])
        if instance_type and len(chain) == 2:
            resolved = self._class_by_dotted(instance_type)
            if resolved:
                fid = self._method_fid(resolved[0], resolved[1], chain[1])
                if fid:
                    return fid
            return f"{instance_type}.{chain[1]}"
        if chain[0] in file_index.classes and len(chain) == 2:
            info = file_index.classes[chain[0]]
            return self._method_fid(file_index, info, chain[1])
        dotted = self.dotted_of(file_index, chain)
        return self._project_or_external(dotted)

    def _project_or_external(self, dotted: str) -> str:
        """Map a dotted name onto an indexed fid when one matches."""
        module, _, tail = dotted.rpartition(".")
        for file_index in self.files.values():
            if file_index.module == module:
                if tail in file_index.functions:
                    return dotted
                if tail in file_index.classes:  # Ctor() -> __init__
                    fid = self._method_fid(
                        file_index, file_index.classes[tail], "__init__"
                    )
                    return fid or dotted
            # from-import of a class: module part is package.Class
            head, _, class_name = module.rpartition(".")
            if file_index.module == head and (
                class_name in file_index.classes
            ):
                fid = self._method_fid(
                    file_index, file_index.classes[class_name], tail
                )
                if fid:
                    return fid
        return dotted

    # -- blocking classification ---------------------------------------------

    def classify_blocking(
        self, file_index: FileIndex, site: CallSite
    ) -> "str | None":
        """Lexical blocking kind of one call site (None if benign)."""
        chain = site.chain
        dotted = self.dotted_of(file_index, chain)
        if dotted == "time.sleep":
            return "sleep"
        if dotted.startswith("subprocess."):
            return "subprocess"
        if dotted == "socket.create_connection" or (
            dotted.startswith("socket.") and dotted.endswith(".connect")
        ):
            return "network"
        if chain[-1] == "getresponse":
            return "network"
        if chain[-1] in ("HTTPConnection", "HTTPSConnection"):
            return "network"
        if (
            chain[-1] == "shutdown"
            and len(chain) > 1
            and ("executor" in chain[-2].lower() or "pool" in chain[-2].lower())
            and site.const_kwargs.get("wait", True) is not False
        ):
            return "shutdown"
        if chain == ("open",) and "open" not in file_index.imports:
            return "file"
        if chain[-1] in _FILE_METHODS and len(chain) > 1:
            return "file"
        return None

    # -- linking -------------------------------------------------------------

    def link(self) -> None:
        """Build the call graph and derived closures."""
        self.functions = {}
        self.fid_file = {}
        for file_index in self.files.values():
            for qualname, info in file_index.functions.items():
                fid = f"{file_index.module}.{qualname}"
                self.functions[fid] = info
                self.fid_file[fid] = file_index

        edges: "dict[str, set[str]]" = {}
        targets: "set[str]" = set()
        for fid, info in self.functions.items():
            file_index = self.fid_file[fid]
            out: "set[str]" = set()
            for site in info.calls:
                resolved = self.resolve_call(
                    file_index, info.qualname, site
                )
                if (
                    resolved in self.functions
                    and not site.awaited
                    and not self.functions[resolved].is_async
                ):
                    out.add(resolved)
                # thread-entry registration
                target_chain = None
                if site.chain[-1] in ("Thread", "Process") and (
                    "target" in site.kwarg_funcs
                ):
                    if site.chain[-1] == "Thread":
                        target_chain = site.kwarg_funcs["target"]
                elif site.chain[-1] in _SUBMIT_METHODS and site.func_args:
                    target_chain = site.func_args[0]
                elif site.chain[-1] == "partial" and site.func_args:
                    target_chain = site.func_args[0]
                if target_chain is not None:
                    target_fid = self.resolve_call(
                        file_index,
                        info.qualname,
                        CallSite(chain=target_chain, line=site.line, col=0),
                    )
                    if target_fid in self.functions:
                        targets.add(target_fid)
            edges[fid] = out
        self.thread_targets = targets

        # closure of functions that may run on a worker thread
        reachable = set(targets)
        frontier = list(targets)
        while frontier:
            current = frontier.pop()
            for callee in edges.get(current, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    frontier.append(callee)
        self.thread_reachable = reachable

        # transitive hard-blocking classification over sync calls
        blocking: "dict[str, tuple[str, str]]" = {}
        for fid, info in self.functions.items():
            file_index = self.fid_file[fid]
            for site in info.calls:
                if site.awaited:
                    continue
                kind = self.classify_blocking(file_index, site)
                if kind in HARD_KINDS:
                    blocking[fid] = (kind, ".".join(site.chain))
                    break
        changed = True
        while changed:
            changed = False
            for fid, out in edges.items():
                if fid in blocking:
                    continue
                for callee in out:
                    if callee in blocking:
                        kind, root = blocking[callee]
                        short = callee.rsplit(".", 1)[-1]
                        blocking[fid] = (kind, f"{short} -> {root}")
                        changed = True
                        break
        self.blocking = blocking
        self.linked = True

    # -- shared-state summary ------------------------------------------------

    def mutation_summary(self) -> "dict[tuple[str, str], dict[str, list]]":
        """(module, global) -> locked/unlocked mutation sites, cached."""
        cached = getattr(self, "_mutation_summary", None)
        if cached is not None:
            return cached
        summary: "dict[tuple[str, str], dict[str, list]]" = {}
        for fid, info in self.functions.items():
            file_index = self.fid_file[fid]
            for mutation in info.mutations:
                if mutation.name not in file_index.module_globals:
                    continue  # receiver is a local, not shared state
                key = (file_index.module, mutation.name)
                entry = summary.setdefault(
                    key, {"locked": [], "unlocked": []}
                )
                bucket = "locked" if mutation.locked else "unlocked"
                entry[bucket].append((fid, mutation))
        self._mutation_summary = summary
        return summary
