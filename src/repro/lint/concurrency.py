"""Concurrency pass: thread-safety invariants proved without executing.

PRs 5-8 made the reproduction genuinely concurrent — a persistent
pthread pool inside the generated C driver, a service dispatch thread
parked on a condition variable, a single-flight artifact cache and the
process-global ``_ARM_LOCK``.  This pass AST-analyzes
``src/repro/runtime``, ``src/repro/core`` and ``src/repro/faults`` and
proves, ahead of any run:

* **T501 — lock-order acyclicity.**  Every ``with <lock>`` site is a
  node in a lock-acquisition graph; an edge ``A -> B`` means ``B`` is
  (possibly transitively, through resolvable method calls) acquired
  while ``A`` is held.  A cycle is a potential deadlock.  A
  ``threading.Condition`` wrapping a lock is the *same* node as that
  lock, so re-acquisition through the condition is a self-cycle.
* **T502/T503 — guarded-field discipline.**  For each class owning a
  ``threading.Lock``, every *private* attribute mutated under the lock
  is inferred lock-guarded; writing (T502) or reading (T503) it on a
  path reachable without the lock is flagged.  Private helpers whose
  every intra-class call site holds the lock are treated as
  lock-context (the ``*_locked`` convention, proved rather than
  assumed).  Justified false positives are silenced in place with
  ``# lint: unguarded -- <reason>``.
* **T504 — suppressions must be justified.**  A ``# lint: unguarded``
  or ``# lint: blocking-ok`` marker without a ``-- <reason>`` tail is
  itself an error, so the escape hatch cannot silently grow.
* **T505/T506 — condition-variable discipline.**  ``Condition.wait()``
  must sit inside a ``while`` re-check loop (wakeups are spurious), and
  any method that assigns an attribute the wait predicate observes,
  under the condition's lock, must ``notify`` that condition.
* **T507/T508 — thread/executor lifecycle.**  Every ``threading.Thread``
  / ``ThreadPoolExecutor`` stored on an instance must be joined or shut
  down on a close path (``close``/``shutdown``/``stop``/``__exit__``),
  and no other resource may be released *before* a daemon thread is
  joined — a still-running daemon must never touch a closed handle.
* **T509/T510 — generated-driver protocol.**  Structural verification
  of the C pass driver's pthread pool: the block-claim counter only
  advances one unit at a time via ``__atomic_fetch_add`` inside a claim
  loop (resets to zero must hold the mutex), workers only
  ``pthread_cond_wait`` under the mutex and behind a ``while``
  predicate, and every ``cv_work`` broadcast bumps the generation
  counter (or raises ``shutdown``) first.
* **T511 — no blocking call under a lock.**  ``sleep``/``join``/
  ``run``/``execute_*``/``wait``-style calls while holding a lock
  serialize the world behind it; the one sanctioned shape is waiting on
  the held lock's own condition variable.  ``# lint: blocking-ok --
  <reason>`` allowlists a justified site.
* **T512 — typed raises under a lock.**  Every ``raise`` inside a
  ``with <lock>`` block must raise a :class:`repro.errors.ReproError`
  subclass, so a lock never unwinds behind an untyped exception that
  callers cannot classify.

The analysis is deliberately conservative and syntactic: unresolvable
calls contribute no lock-graph edges, accesses inside nested functions
are skipped, and ``__init__`` is exempt from guarded-field checks
(construction is single-threaded by definition).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.lint.findings import Finding

__all__ = [
    "build_lock_graph",
    "find_lock_cycle",
    "lint_concurrency_source",
    "lint_concurrency_tree",
    "lint_driver_concurrency",
]

#: Subdirectories of the ``repro`` package the default tree scan covers
#: (the concurrent surfaces; the rest of the tree is single-threaded).
CONCURRENT_SUBDIRS = ("runtime", "core", "faults")

_LOCK_CTORS = frozenset({"Lock", "RLock"})
_SYNC_CTORS = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier",
})
_EXECUTOR_CTORS = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})
_CLOSE_METHODS = ("close", "shutdown", "stop", "__exit__")

#: Callable attribute names that block the calling thread.  ``wait`` on
#: the held lock's own Condition is exempt (that is what condvars are
#: for: the wait releases the lock).
_BLOCKING_ATTRS = frozenset({
    "sleep", "join", "result", "acquire", "run", "run_pass", "run_batch",
    "execute_job", "execute_batch", "wait",
})

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*(unguarded|blocking-ok)\b\s*(.*)$")
_JUSTIFIED_RE = re.compile(r"^(?:--|—|:)\s*\S")

#: A lock is identified by ``(owner, attr)`` — owner is a class name or
#: ``module:<stem>`` for module-level locks.
LockNode = tuple[str, str]


def _typed_error_names() -> frozenset[str]:
    """Names of every ReproError subclass (the T512 allowlist)."""
    from repro.errors import ReproError

    names: set[str] = set()
    stack: list[type] = [ReproError]
    while stack:
        cls = stack.pop()
        if cls.__name__ not in names:
            names.add(cls.__name__)
            stack.extend(cls.__subclasses__())
    return frozenset(names)


_TYPED_ERRORS: frozenset[str] | None = None


def _typed_errors() -> frozenset[str]:
    global _TYPED_ERRORS
    if _TYPED_ERRORS is None:
        _TYPED_ERRORS = _typed_error_names()
    return _TYPED_ERRORS


# --------------------------------------------------------------------- #
# AST plumbing
# --------------------------------------------------------------------- #

def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_lint_parent", None)


def _dotted(node: ast.AST) -> list[str]:
    """Attribute chain as names, outermost last; [] when not a chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _function_nodes(fn: ast.FunctionDef):
    """Walk a function body, skipping nested function/lambda bodies.

    Accesses inside closures run in contexts this pass cannot attribute
    (the closure may be invoked under a caller's lock), so they are
    deliberately out of scope.
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


# --------------------------------------------------------------------- #
# Module / class models
# --------------------------------------------------------------------- #

class _Class:
    """Per-class concurrency facts harvested from the AST."""

    def __init__(self, module: "_Module", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.methods: dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        self.locks: dict[str, str] = {}       # lock attr -> canonical attr
        self.conditions: dict[str, str] = {}  # cond attr -> canonical lock
        self.sync_attrs: set[str] = set()
        self.attr_ctors: dict[str, str] = {}  # self.X = Ctor(...) -> Ctor
        self.threads: dict[str, dict] = {}    # attr -> kind facts

    def harvest(self) -> None:
        for fn in self.methods.values():
            for node in _function_nodes(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                ctor = _dotted(node.value.func)
                if not ctor:
                    continue
                name = ctor[-1]
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    self._classify(attr, name, node.value, node.lineno)

    def _classify(
        self, attr: str, ctor: str, call: ast.Call, lineno: int
    ) -> None:
        if ctor in _LOCK_CTORS:
            self.locks[attr] = attr
            self.sync_attrs.add(attr)
        elif ctor == "Condition":
            wrapped = attr
            if call.args:
                inner = _self_attr(call.args[0])
                if inner is not None:
                    wrapped = inner
            self.conditions[attr] = wrapped
            self.sync_attrs.add(attr)
        elif ctor in _SYNC_CTORS:
            self.sync_attrs.add(attr)
        elif ctor == "Thread":
            daemon = any(
                kw.arg == "daemon"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            )
            self.threads[attr] = {
                "executor": False, "daemon": daemon, "lineno": lineno,
            }
        elif ctor in _EXECUTOR_CTORS:
            self.threads[attr] = {
                "executor": True, "daemon": False, "lineno": lineno,
            }
        else:
            self.attr_ctors.setdefault(attr, ctor)

    def resolve(self) -> None:
        """Settle condition -> lock canonicalisation after harvesting."""
        for cond, wrapped in list(self.conditions.items()):
            if wrapped in self.locks:
                self.conditions[cond] = self.locks[wrapped]
            else:
                # Condition() with its own implicit lock: the condition
                # attribute itself is the lock identity.
                self.conditions[cond] = cond

    def lock_node(self, attr: str) -> LockNode | None:
        """The graph node acquired by ``with self.<attr>``, if any."""
        if attr in self.locks:
            return (self.name, self.locks[attr])
        if attr in self.conditions:
            return (self.name, self.conditions[attr])
        return None

    def all_lock_nodes(self) -> set[LockNode]:
        nodes = {(self.name, c) for c in self.locks.values()}
        nodes |= {(self.name, c) for c in self.conditions.values()}
        return nodes


class _Module:
    """One parsed source file plus its suppression table."""

    def __init__(self, filename: str, text: str):
        self.filename = filename
        self.text = text
        self.tree = ast.parse(text, filename=filename)
        _annotate_parents(self.tree)
        self.owner = f"module:{Path(filename).stem}"
        self.classes: dict[str, _Class] = {}
        self.module_locks: set[str] = set()
        self.functions: dict[str, ast.FunctionDef] = {}
        self.suppressions: dict[int, tuple[str, bool]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                kind, tail = match.group(1), match.group(2)
                self.suppressions[lineno] = (
                    kind, bool(_JUSTIFIED_RE.match(tail.strip())),
                )
        for stmt in self.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = _Class(self, stmt)
            elif isinstance(stmt, ast.FunctionDef):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                ctor = _dotted(stmt.value.func)
                if ctor and ctor[-1] in _LOCK_CTORS:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.module_locks.add(target.id)

    def suppressed(self, lineno: int, kind: str) -> bool:
        entry = self.suppressions.get(lineno)
        return entry is not None and entry[0] == kind


# --------------------------------------------------------------------- #
# Lock-graph construction and cycle detection
# --------------------------------------------------------------------- #

def find_lock_cycle(graph: dict) -> list | None:
    """One cycle in a directed graph as ``[a, b, ..., a]``, or None.

    Iterative three-color DFS; also the reference the hypothesis suite
    cross-checks against Kahn's topological sort.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for edges in graph.values():
        for node in edges:
            color.setdefault(node, WHITE)
    parent: dict = {}
    for root in sorted(color):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(graph.get(root, ()))))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


class _Analysis:
    """Whole-program (well: whole-analyzed-set) concurrency analysis."""

    def __init__(self, modules: list[_Module]):
        self.modules = modules
        self.class_registry: dict[str, _Class] = {}
        for module in modules:
            for cls in module.classes.values():
                cls.harvest()
                self.class_registry[cls.name] = cls
        for cls in self.class_registry.values():
            cls.resolve()
        self.findings: list[Finding] = []

    # -- shared lookups ------------------------------------------------ #

    def _lock_node(
        self, expr: ast.AST, cls: _Class | None, module: _Module
    ) -> LockNode | None:
        if isinstance(expr, ast.Name):
            if expr.id in module.module_locks:
                return (module.owner, expr.id)
            return None
        attr = _self_attr(expr)
        if attr is not None and cls is not None:
            return cls.lock_node(attr)
        return None

    def _held_at(
        self, node: ast.AST, cls: _Class | None, module: _Module
    ) -> tuple[LockNode, ...]:
        """Locks whose ``with`` blocks enclose ``node`` in its function."""
        held: list[LockNode] = []
        child: ast.AST = node
        parent = _parent(node)
        while parent is not None and not isinstance(
            parent,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            if isinstance(parent, ast.With):
                in_items = any(
                    child is item.context_expr or child is item.optional_vars
                    for item in parent.items
                )
                if not in_items:
                    for item in parent.items:
                        lock = self._lock_node(item.context_expr, cls, module)
                        if lock is not None and lock not in held:
                            held.append(lock)
            child, parent = parent, _parent(parent)
        return tuple(held)

    def _callee_key(
        self, call: ast.Call, cls: _Class | None, module: _Module
    ):
        """``(class_name | None, fn_name)`` for resolvable calls."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in module.functions:
                return (None, func.id, module)
            target = self.class_registry.get(func.id)
            if target is not None and "__init__" in target.methods:
                return (target.name, "__init__", target.module)
            return None
        attr = _self_attr(func)
        if attr is not None and cls is not None and attr in cls.methods:
            return (cls.name, attr, module)
        if isinstance(func, ast.Attribute):
            recv = _self_attr(func.value)
            if recv is not None and cls is not None:
                ctor = cls.attr_ctors.get(recv)
                target = self.class_registry.get(ctor) if ctor else None
                if target is not None and func.attr in target.methods:
                    return (target.name, func.attr, target.module)
        return None

    def _all_functions(self):
        """Yield ``(key, fn, cls, module)`` for every analyzed function."""
        for module in self.modules:
            for name, fn in module.functions.items():
                yield (None, name, module), fn, None, module
            for cls in module.classes.values():
                for name, fn in cls.methods.items():
                    yield (cls.name, name, module), fn, cls, module

    # -- T501: lock-order graph ---------------------------------------- #

    def check_lock_graph(self) -> None:
        graph, sites = self.build_lock_graph()
        reported: set[tuple] = set()
        while True:
            cycle = find_lock_cycle(graph)
            if cycle is None:
                break
            canonical = tuple(sorted(cycle[:-1]))
            if canonical in reported:
                break
            reported.add(canonical)
            edge = (cycle[0], cycle[1])
            filename, lineno = sites.get(edge, ("<unknown>", 0))
            chain = " -> ".join(f"{o}.{a}" for o, a in cycle)
            self.findings.append(
                Finding(
                    rule="T501",
                    message=f"lock-acquisition cycle {chain} "
                    "(a potential deadlock: two threads can acquire "
                    "these locks in opposite orders)",
                    locus=f"{filename}:{lineno}",
                    hint="impose one global acquisition order, or move "
                    "the inner acquisition outside the outer lock",
                )
            )
            # break one edge of the reported cycle, then look again
            graph[cycle[0]].discard(cycle[1])

    def build_lock_graph(self):
        """``(adjacency, edge -> (file, line))`` over every lock node.

        Edges come from syntactic nesting (``with A: ... with B:``) and
        from resolvable calls made while a lock is held, using per-
        function may-acquire summaries iterated to fixpoint.
        """
        direct: dict[tuple, set[LockNode]] = {}
        calls: dict[tuple, list] = {}
        for key, fn, cls, module in self._all_functions():
            acquired: set[LockNode] = set()
            call_sites = []
            for node in _function_nodes(fn):
                if isinstance(node, ast.With):
                    for item in node.items:
                        lock = self._lock_node(item.context_expr, cls, module)
                        if lock is not None:
                            acquired.add(lock)
                elif isinstance(node, ast.Call):
                    callee = self._callee_key(node, cls, module)
                    if callee is not None:
                        call_sites.append((callee, node))
            direct[key] = acquired
            calls[key] = call_sites
        # fixpoint: may-acquire summaries
        may: dict[tuple, set[LockNode]] = {k: set(v) for k, v in direct.items()}
        changed = True
        while changed:
            changed = False
            for key, call_sites in calls.items():
                for callee, _node in call_sites:
                    callee_key = (callee[0], callee[1], callee[2])
                    summary = may.get(callee_key)
                    if summary and not summary <= may[key]:
                        may[key] |= summary
                        changed = True
        graph: dict[LockNode, set[LockNode]] = {}
        sites: dict[tuple, tuple[str, int]] = {}
        for key, fn, cls, module in self._all_functions():
            for node in _function_nodes(fn):
                if isinstance(node, ast.With):
                    candidates = [
                        self._lock_node(item.context_expr, cls, module)
                        for item in node.items
                    ]
                    inner = [lock for lock in candidates if lock is not None]
                    if inner:
                        held = self._held_at(node, cls, module)
                        for lock in inner:
                            for h in held:
                                # h == lock is a self-edge: re-acquiring
                                # a held non-reentrant lock deadlocks
                                graph.setdefault(h, set()).add(lock)
                                sites.setdefault(
                                    (h, lock),
                                    (module.filename, node.lineno),
                                )
                elif isinstance(node, ast.Call):
                    callee = self._callee_key(node, cls, module)
                    if callee is None:
                        continue
                    summary = may.get((callee[0], callee[1], callee[2]))
                    if not summary:
                        continue
                    held = self._held_at(node, cls, module)
                    for h in held:
                        for lock in summary:
                            graph.setdefault(h, set()).add(lock)
                            sites.setdefault(
                                (h, lock), (module.filename, node.lineno)
                            )
        for node_set in list(graph.values()):
            for lock in node_set:
                graph.setdefault(lock, set())
        return graph, sites

    # -- T502/T503: guarded-field inference ----------------------------- #

    def check_guarded_fields(self) -> None:
        for module in self.modules:
            for cls in module.classes.values():
                if cls.locks or cls.conditions:
                    self._check_class_fields(cls, module)

    def _class_accesses(self, cls: _Class, module: _Module):
        """Yield ``(method, attr, kind, node, held)`` per self-attr use."""
        for mname, fn in cls.methods.items():
            for node in _function_nodes(fn):
                attr = _self_attr(node)
                if attr is None:
                    continue
                parent = _parent(node)
                kind = "read"
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    kind = "write"
                elif isinstance(parent, ast.Subscript) and isinstance(
                    parent.ctx, (ast.Store, ast.Del)
                ):
                    kind = "write"
                elif isinstance(parent, ast.Attribute):
                    grand = _parent(parent)
                    if isinstance(grand, ast.Call) and grand.func is parent:
                        kind = "call"
                    elif isinstance(parent.ctx, ast.Store) or (
                        isinstance(grand, ast.Subscript)
                        and isinstance(grand.ctx, ast.Store)
                    ):
                        kind = "read"  # write lands on the inner object
                held = self._held_at(node, cls, module)
                yield mname, attr, kind, node, held

    def _locked_only_methods(self, cls: _Class, module: _Module) -> set[str]:
        """Private methods every intra-class call site holds a lock for."""
        call_sites: dict[str, list[tuple[str, bool]]] = {}
        bare_refs: set[str] = set()
        for mname, fn in cls.methods.items():
            for node in _function_nodes(fn):
                attr = _self_attr(node)
                if attr is None or attr not in cls.methods:
                    continue
                parent = _parent(node)
                is_call = isinstance(parent, ast.Call) and parent.func is node
                if not is_call:
                    bare_refs.add(attr)  # e.g. target=self._dispatch_loop
                    continue
                held = bool(self._held_at(node, cls, module))
                call_sites.setdefault(attr, []).append((mname, held))
        candidates = {
            name
            for name in cls.methods
            if name.startswith("_")
            and not name.startswith("__")
            and name not in bare_refs
            and call_sites.get(name)
        }
        changed = True
        while changed:
            changed = False
            for name in sorted(candidates):
                for caller, held in call_sites.get(name, ()):
                    if not held and caller not in candidates:
                        candidates.discard(name)
                        changed = True
                        break
        return candidates

    def _check_class_fields(self, cls: _Class, module: _Module) -> None:
        accesses = [
            entry
            for entry in self._class_accesses(cls, module)
            if entry[0] != "__init__"
        ]
        guarded = {
            attr
            for _m, attr, kind, _n, held in accesses
            if kind in ("write", "call")
            and held
            and attr.startswith("_")
            and attr not in cls.sync_attrs
        }
        if not guarded:
            return
        locked_only = self._locked_only_methods(cls, module)
        lock_names = ", ".join(
            sorted({f"self.{a}" for a in cls.locks})
        ) or "its lock"
        for mname, attr, kind, node, held in accesses:
            if attr not in guarded or held or mname in locked_only:
                continue
            lineno = node.lineno
            if module.suppressed(lineno, "unguarded"):
                continue
            verb = "written" if kind == "write" else (
                "mutated through a method call" if kind == "call" else "read"
            )
            self.findings.append(
                Finding(
                    rule="T502" if kind == "write" else "T503",
                    message=f"attribute {cls.name}.{attr} is guarded by "
                    f"{lock_names} but {verb} in {mname}() without it",
                    locus=f"{module.filename}:{lineno}",
                    hint="acquire the lock around this access, or "
                    "suppress a justified benign race with "
                    "`# lint: unguarded -- <reason>`",
                )
            )

    # -- T504: suppression hygiene -------------------------------------- #

    def check_suppressions(self) -> None:
        for module in self.modules:
            for lineno, (kind, justified) in sorted(
                module.suppressions.items()
            ):
                if not justified:
                    self.findings.append(
                        Finding(
                            rule="T504",
                            message=f"`# lint: {kind}` suppression has no "
                            "justification",
                            locus=f"{module.filename}:{lineno}",
                            hint="write `# lint: "
                            f"{kind} -- <one-line reason>`; an "
                            "unexplained suppression is indistinguishable "
                            "from a silenced bug",
                        )
                    )

    # -- T505/T506: condition-variable discipline ------------------------ #

    def check_conditions(self) -> None:
        for module in self.modules:
            for cls in module.classes.values():
                if cls.conditions:
                    self._check_class_conditions(cls, module)

    def _wait_sites(self, cls: _Class):
        for mname, fn in cls.methods.items():
            for node in _function_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute) and func.attr == "wait"
                ):
                    continue
                cond = _self_attr(func.value)
                if cond in cls.conditions:
                    yield mname, cond, node

    def _check_class_conditions(self, cls: _Class, module: _Module) -> None:
        predicate_attrs: dict[str, set[str]] = {}
        for mname, cond, node in self._wait_sites(cls):
            in_while = False
            attrs: set[str] = set()
            child: ast.AST = node
            parent = _parent(node)
            while parent is not None and not isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                if isinstance(parent, ast.While):
                    in_while = True
                    for sub in ast.walk(parent.test):
                        attr = _self_attr(sub)
                        if attr is not None:
                            attrs.add(attr)
                elif isinstance(parent, ast.If) and child is not parent.test:
                    for sub in ast.walk(parent.test):
                        attr = _self_attr(sub)
                        if attr is not None:
                            attrs.add(attr)
                child, parent = parent, _parent(parent)
            if not in_while:
                self.findings.append(
                    Finding(
                        rule="T505",
                        message=f"{cls.name}.{mname}() calls "
                        f"self.{cond}.wait() outside a while-predicate "
                        "loop (condition wakeups are spurious)",
                        locus=f"{module.filename}:{node.lineno}",
                        hint="re-check the predicate in a while loop "
                        "around the wait",
                    )
                )
            predicate_attrs.setdefault(cond, set()).update(attrs)
        for cond, attrs in predicate_attrs.items():
            attrs = {a for a in attrs if a not in cls.sync_attrs}
            if not attrs:
                continue
            lock = (cls.name, cls.conditions[cond])
            for mname, fn in cls.methods.items():
                if mname == "__init__":
                    continue
                notifies = any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("notify", "notify_all")
                    and _self_attr(node.func.value) == cond
                    for node in _function_nodes(fn)
                )
                for node in _function_nodes(fn):
                    target_attr = None
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            attr = _self_attr(target)
                            if attr in attrs:
                                target_attr = attr
                    elif isinstance(node, ast.AugAssign):
                        attr = _self_attr(node.target)
                        if attr in attrs:
                            target_attr = attr
                    if target_attr is None:
                        continue
                    held = self._held_at(node, cls, module)
                    if lock in held and not notifies:
                        self.findings.append(
                            Finding(
                                rule="T506",
                                message=f"{cls.name}.{mname}() assigns "
                                f"self.{target_attr} — observed by the "
                                f"self.{cond} wait predicate — without "
                                f"notifying self.{cond}",
                                locus=f"{module.filename}:{node.lineno}",
                                hint="call notify()/notify_all() after "
                                "mutating predicate state, or waiters "
                                "sleep a full timeout",
                            )
                        )

    # -- T507/T508: thread/executor lifecycle ----------------------------- #

    def check_lifecycles(self) -> None:
        for module in self.modules:
            for cls in module.classes.values():
                if cls.threads:
                    self._check_class_lifecycle(cls, module)

    def _close_reachable(self, cls: _Class) -> list[str]:
        roots = [m for m in _CLOSE_METHODS if m in cls.methods]
        seen = list(roots)
        frontier = list(roots)
        while frontier:
            fn = cls.methods[frontier.pop()]
            for node in _function_nodes(fn):
                attr = _self_attr(node)
                if attr is None or attr not in cls.methods or attr in seen:
                    continue
                parent = _parent(node)
                if isinstance(parent, ast.Call) and parent.func is node:
                    seen.append(attr)
                    frontier.append(attr)
        return seen

    def _join_sites(self, cls: _Class, attr: str, methods: list[str]):
        """``(method, lineno)`` of every join/shutdown of ``self.attr``."""
        for mname in methods:
            fn = cls.methods[mname]
            aliases = {attr}
            for node in _function_nodes(fn):
                if isinstance(node, ast.Assign) and _self_attr(
                    node.value
                ) == attr:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            aliases.add(target.id)
            for node in _function_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("join", "shutdown")
                ):
                    continue
                recv = func.value
                named = (
                    isinstance(recv, ast.Name) and recv.id in aliases
                ) or _self_attr(recv) == attr
                if named:
                    yield mname, node.lineno

    def _check_class_lifecycle(self, cls: _Class, module: _Module) -> None:
        reachable = self._close_reachable(cls)
        for attr, facts in cls.threads.items():
            kind = "executor" if facts["executor"] else "thread"
            joins = list(self._join_sites(cls, attr, reachable))
            if not joins:
                what = "shutdown()" if facts["executor"] else "join()"
                self.findings.append(
                    Finding(
                        rule="T507",
                        message=f"{cls.name}.{attr} ({kind}) is created "
                        f"but never {what.rstrip('()')}ed on any close "
                        f"path ({'/'.join(_CLOSE_METHODS[:3])})",
                        locus=f"{module.filename}:{facts['lineno']}",
                        hint=f"call self.{attr}.{what} from close() so "
                        "the pool cannot outlive its owner",
                    )
                )
                continue
            if not facts["daemon"]:
                continue
            join_by_method: dict[str, int] = {}
            for mname, lineno in joins:
                join_by_method[mname] = min(
                    lineno, join_by_method.get(mname, lineno)
                )
            for mname, join_line in join_by_method.items():
                fn = cls.methods[mname]
                for node in _function_nodes(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if not (
                        isinstance(func, ast.Attribute)
                        and func.attr in ("close", "shutdown")
                    ):
                        continue
                    recv = _self_attr(func.value)
                    if recv is None or recv == attr:
                        continue
                    if node.lineno < join_line:
                        self.findings.append(
                            Finding(
                                rule="T508",
                                message=f"{cls.name}.{mname}() releases "
                                f"self.{recv} before joining the daemon "
                                f"thread self.{attr}; the still-running "
                                "thread may touch the closed resource",
                                locus=f"{module.filename}:{node.lineno}",
                                hint="join the daemon thread first, then "
                                "release the resources it uses",
                            )
                        )

    # -- T511: blocking calls under a lock -------------------------------- #

    def check_blocking(self) -> None:
        for key, fn, cls, module in self._all_functions():
            for node in _function_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = None
                if isinstance(func, ast.Attribute):
                    name = func.attr
                elif isinstance(func, ast.Name) and func.id == "sleep":
                    name = "sleep"
                if name not in _BLOCKING_ATTRS:
                    continue
                held = self._held_at(node, cls, module)
                if not held:
                    continue
                if (
                    name == "wait"
                    and cls is not None
                    and isinstance(func, ast.Attribute)
                ):
                    cond = _self_attr(func.value)
                    if (
                        cond in cls.conditions
                        and (cls.name, cls.conditions[cond]) in held
                    ):
                        continue  # waiting on the held lock's condvar
                if module.suppressed(node.lineno, "blocking-ok"):
                    continue
                lock_desc = ", ".join(f"{o}.{a}" for o, a in held)
                where = f"{cls.name}.{key[1]}" if cls else key[1]
                self.findings.append(
                    Finding(
                        rule="T511",
                        message=f"{where}() calls blocking {name}() while "
                        f"holding {lock_desc}; every other thread "
                        "needing that lock stalls for the duration",
                        locus=f"{module.filename}:{node.lineno}",
                        hint="move the blocking call outside the lock, "
                        "or allowlist a justified site with "
                        "`# lint: blocking-ok -- <reason>`",
                    )
                )

    # -- T512: typed raises under a lock ---------------------------------- #

    def check_typed_raises(self) -> None:
        typed = _typed_errors()
        for key, fn, cls, module in self._all_functions():
            for node in _function_nodes(fn):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                held = self._held_at(node, cls, module)
                if not held:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    chain = _dotted(exc.func)
                    name = chain[-1] if chain else None
                elif isinstance(exc, ast.Name):
                    continue  # re-raising a bound exception: unknowable
                else:
                    name = None
                if name is None or name in typed:
                    continue
                lock_desc = ", ".join(f"{o}.{a}" for o, a in held)
                where = f"{cls.name}.{key[1]}" if cls else key[1]
                self.findings.append(
                    Finding(
                        rule="T512",
                        message=f"{where}() raises untyped {name} while "
                        f"holding {lock_desc}; lock-protected state may "
                        "unwind behind an exception callers cannot "
                        "classify",
                        locus=f"{module.filename}:{node.lineno}",
                        hint="raise a repro.errors.ReproError subclass "
                        "so callers can distinguish invariant failures "
                        "from bugs",
                    )
                )

    # -- driver ---------------------------------------------------------- #

    def run(self) -> list[Finding]:
        self.check_lock_graph()
        self.check_guarded_fields()
        self.check_suppressions()
        self.check_conditions()
        self.check_lifecycles()
        self.check_blocking()
        self.check_typed_raises()
        self.findings.sort(key=lambda f: (f.locus, f.rule))
        return self.findings


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #

def build_lock_graph(text: str, filename: str = "<source>"):
    """``(adjacency, edge -> (file, line))`` for one module's source.

    The programmatic face of the T501 analysis: the adjacency dict maps
    each :data:`LockNode` to the set of nodes acquired while it is
    held.  Feed the result to :func:`find_lock_cycle`.
    """
    module = _Module(filename, text)
    return _Analysis([module]).build_lock_graph()


def lint_concurrency_source(text: str, filename: str) -> list[Finding]:
    """Run the concurrency checks over one module's source text."""
    try:
        module = _Module(filename, text)
    except SyntaxError as err:
        return [
            Finding(
                rule="T501",
                message=f"cannot parse: {err.msg}",
                locus=f"{filename}:{err.lineno or 0}",
                hint="fix the syntax error so the concurrency pass can run",
            )
        ]
    return _Analysis([module]).run()


def lint_concurrency_tree(root: Path) -> list[Finding]:
    """Lint the concurrent subtrees under ``root`` as one program.

    ``root`` is typically the installed ``repro`` package directory;
    the scan covers :data:`CONCURRENT_SUBDIRS` so cross-module lock
    chains (service -> scheduler -> accelerator -> cache) resolve.  A
    root with none of those subdirectories (test fixtures) is scanned
    whole.
    """
    roots = [root / sub for sub in CONCURRENT_SUBDIRS if (root / sub).is_dir()]
    if not roots:
        roots = [root]
    findings: list[Finding] = []
    modules: list[_Module] = []
    for subroot in roots:
        for path in sorted(subroot.rglob("*.py")):
            rel = (
                str(path.relative_to(root.parent))
                if root.parent != path
                else str(path)
            )
            try:
                modules.append(_Module(rel, path.read_text()))
            except SyntaxError as err:
                findings.append(
                    Finding(
                        rule="T501",
                        message=f"cannot parse: {err.msg}",
                        locus=f"{rel}:{err.lineno or 0}",
                        hint="fix the syntax error so the concurrency "
                        "pass can run",
                    )
                )
    findings.extend(_Analysis(modules).run())
    return findings


# --------------------------------------------------------------------- #
# Generated-driver protocol checks (T509/T510)
# --------------------------------------------------------------------- #

_NB_DECL_RE = re.compile(r"\bi64\s+next_block\s*;")
_NB_CLAIM_RE = re.compile(
    r"__atomic_fetch_add\s*\(\s*&\s*(p\s*->\s*)?next_block\s*,\s*1\s*,"
)
_LOOP_HEAD_RE = re.compile(r"^(\}\s*)?(for|while|do)\b")
_COMMENT_RE = re.compile(r"/\*.*?\*/|//.*$")
_NB_RESET_RE = re.compile(r"next_block\s*=\s*0\s*;")
_NB_MUTATE_RE = re.compile(
    r"(next_block\s*(\+\+|--|=|\+=|-=))|((\+\+|--)\s*(p\s*->\s*)?next_block)"
)
_GEN_BUMP_RE = re.compile(r"generation\s*(\+\+|\+=\s*1)|\+\+\s*(p\s*->\s*)?generation")
_SHUTDOWN_SET_RE = re.compile(r"shutdown\s*=\s*1")
_DONE_BUMP_RE = re.compile(r"workers_done")


def lint_driver_concurrency(text: str, name: str) -> list[Finding]:
    """Structurally verify the generated C driver's pool protocol.

    Line-oriented (the AST checks cannot parse C), tracking the
    ``p->mu`` mutex hold depth in source order — sound for the
    straight-line lock/unlock shapes the codegen emits and for any
    mutant of them:

    * T509 — the block-claim counter ``next_block`` is only advanced by
      ``__atomic_fetch_add(&p->next_block, 1, ...)`` inside a loop body
      (the claim loop — brace-tracked, so a pass run inline on the
      calling thread cannot bump it from straight-line code); the only
      other permitted write is a reset to zero while the mutex is held.
    * T510 — ``pthread_cond_wait`` only under the mutex and behind a
      ``while`` predicate; ``cv_work`` broadcasts bump ``generation``
      (or raise ``shutdown``) under the mutex first; ``cv_done``
      wakeups follow a ``workers_done`` update.
    """
    findings: list[Finding] = []
    depth = 0
    braces: list[bool] = []  # one entry per open brace: is it a loop body?
    gen_since_lock = False
    shutdown_since_lock = False
    done_since_lock = False
    last_code_line = ""

    def emit(rule: str, lineno: int, message: str, hint: str) -> None:
        findings.append(
            Finding(rule=rule, message=message,
                    locus=f"{name}:{lineno}", hint=hint)
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("/*", "*", "//")):
            continue
        code = _COMMENT_RE.sub("", line)
        # a loop body: an open loop brace, or the single statement of a
        # brace-less loop head on this line or the one before
        loop_head = bool(_LOOP_HEAD_RE.match(code))
        in_loop = any(braces) or loop_head or (
            bool(_LOOP_HEAD_RE.match(last_code_line))
            and "{" not in last_code_line
        )
        if "pthread_mutex_lock" in line:
            depth += 1
            gen_since_lock = shutdown_since_lock = done_since_lock = False
        if "next_block" in line and not _NB_DECL_RE.search(line):
            if "__atomic_fetch_add" in line:
                if not (in_loop and _NB_CLAIM_RE.search(line)):
                    emit(
                        "T509", lineno,
                        "claim counter advanced outside a claim loop or "
                        "by more than one unit; the units it skips are "
                        "never run",
                        "advance next_block only in a worker's claim "
                        "loop, one unit per __atomic_fetch_add; run an "
                        "inline pass without touching the counter",
                    )
            elif _NB_RESET_RE.search(line):
                if depth < 1:
                    emit(
                        "T509", lineno,
                        "claim counter reset outside the pool mutex; "
                        "racing workers may claim a block twice",
                        "reset next_block only while holding p->mu "
                        "with workers parked",
                    )
            elif _NB_MUTATE_RE.search(line):
                emit(
                    "T509", lineno,
                    "claim counter advanced without __atomic_fetch_add; "
                    "two workers can claim the same block",
                    "claim blocks with "
                    "__atomic_fetch_add(&p->next_block, 1, ...)",
                )
        if _GEN_BUMP_RE.search(line) and depth >= 1:
            gen_since_lock = True
        if _SHUTDOWN_SET_RE.search(line) and depth >= 1:
            shutdown_since_lock = True
        if _DONE_BUMP_RE.search(line) and depth >= 1 and (
            "=" in line or "++" in line
        ):
            done_since_lock = True
        if "pthread_cond_wait" in line:
            if depth < 1:
                emit(
                    "T510", lineno,
                    "pthread_cond_wait outside the mutex "
                    "(undefined behavior: lost wakeups)",
                    "wait only between pthread_mutex_lock/unlock "
                    "of the condvar's mutex",
                )
            elif (
                "while" not in line
                and "while" not in last_code_line
            ):
                emit(
                    "T510", lineno,
                    "pthread_cond_wait not guarded by a while "
                    "predicate (spurious wakeups run stale work)",
                    "park in `while (<predicate unchanged>) "
                    "pthread_cond_wait(...);`",
                )
        if "pthread_cond_broadcast" in line or "pthread_cond_signal" in line:
            if depth < 1:
                emit(
                    "T510", lineno,
                    "condvar wakeup outside the mutex; a worker "
                    "checking its predicate can miss it",
                    "signal/broadcast while holding p->mu",
                )
            elif "cv_work" in line and not (
                gen_since_lock or shutdown_since_lock
            ):
                emit(
                    "T510", lineno,
                    "cv_work broadcast without bumping the generation "
                    "counter (or raising shutdown) first; parked "
                    "workers wake, see an unchanged generation, and "
                    "re-park forever",
                    "increment p->generation (or set p->shutdown) "
                    "under the mutex before broadcasting",
                )
            elif "cv_done" in line and not done_since_lock:
                emit(
                    "T510", lineno,
                    "cv_done wakeup without a workers_done update "
                    "under the mutex; the master re-checks an "
                    "unchanged count and sleeps again",
                    "update p->workers_done under the mutex before "
                    "signalling cv_done",
                )
        if "pthread_mutex_unlock" in line:
            depth = max(0, depth - 1)
            if depth == 0:
                gen_since_lock = shutdown_since_lock = False
                done_since_lock = False
        for ch in code:
            if ch == "{":
                braces.append(loop_head)
                loop_head = False  # only the head's first brace is the body
            elif ch == "}" and braces:
                braces.pop()
        last_code_line = code
    return findings
