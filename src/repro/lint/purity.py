"""Hot-path purity pass: AST lint over the repository's own source.

The simulator's hot paths promise hygiene properties that are easy
to break silently during refactors:

* H401 — every use of the fault-injection hook object (``ACTIVE`` in
  :mod:`repro.faults.hooks`, conventionally aliased ``inj``) sits behind
  a disarmed guard (``is None`` / ``is not None``), so the disarmed
  simulator never pays for, or crashes in, injection plumbing.
* H402 — no ``id()``-keyed state: CPython reuses object ids after
  garbage collection, so identity-keyed mirrors silently alias
  unrelated arrays.
* H403 — no unseeded random number generators: simulation paths must be
  reproducible, so every RNG takes an explicit seed.
* H404 — an integrity check (a ``crc32_array`` call or a store into a
  host mirror, ``..._host_mirror[...] = ...``) is skipped only where no
  fault can enter: every condition it sits under must hold whenever a
  plan is armed (``inj is not None``) or a golden CRC was supplied
  (``expected_crc is not None``).  Two more conditions skip nothing: a
  cache fill (``if self._crc is None: self._crc = crc32_array(...)``)
  and an absent argument (``if x is not None: crc32_array(x)``).
* H405 — a hand-over without a copy happens only while disarmed: a
  caller's array adopted by a buffer (``buf.adopt(v)``, ``v`` a
  parameter or a view of one) and a buffer's storage returned
  (``return buf.data`` / ``buf.share()`` / ``buf.view()``) are bound
  under an ``inj is None`` guard, so an armed transfer always copies
  what its CRC and host mirror cover.  Where the array reaches the
  adopt or return through a local name, the binding of that name is
  the hand-over checked.

The checker is deliberately syntactic and conservative-but-precise for
this codebase's idioms.  Accepted guard forms (all appear in the source
today)::

    inj = fault_hooks.ACTIVE
    if inj is not None:
        inj.hook(...)                         # guarded body
    if inj is not None and inj.stall(...):    # guarded BoolOp operand
    x = a if inj is None else inj.f(a)        # guarded IfExp arm
    n = len(inj.detections) if inj is not None else 0
    if inj is None:
        return                                # early exit disarms below
    inj.hook(...)

A function *parameter* named ``inj`` is trusted — the guard happened at
the call site.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.findings import Finding

#: Module-level RNG entry points of :mod:`random` (all share hidden
#: global state and default seeding).
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "betavariate",
        "expovariate", "seed", "getrandbits", "triangular",
    }
)

#: Legacy ``numpy.random`` module-level functions (global unseeded state).
_NP_RANDOM_FNS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "normal", "uniform", "seed", "standard_normal",
    }
)


def _annotate_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_lint_parent", None)


def _is_active_expr(node: ast.AST) -> bool:
    """``ACTIVE`` as a bare name or ``<anything>.ACTIVE``."""
    if isinstance(node, ast.Name) and node.id == "ACTIVE":
        return True
    return isinstance(node, ast.Attribute) and node.attr == "ACTIVE"


def _expr_matches(node: ast.AST, aliases: set[str]) -> bool:
    """Does ``node`` denote the (possibly aliased) hook object?"""
    if _is_active_expr(node):
        return True
    return isinstance(node, ast.Name) and node.id in aliases


def _implies(
    test: ast.AST, aliases: set[str], when: bool, armed: bool
) -> bool:
    """Does ``test`` evaluating to ``when`` prove a plan is armed
    (``armed``) or that none is (``not armed``)?"""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _implies(test.operand, aliases, not when, armed)
    if isinstance(test, ast.BoolOp):
        verdicts = [_implies(v, aliases, when, armed) for v in test.values]
        # a true `and` (a false `or`) fixes every operand; the other
        # outcome fixes none of them alone
        if isinstance(test.op, ast.And) == when:
            return any(verdicts)
        return all(verdicts)
    none_test = _none_test(test)
    if none_test is None or not _expr_matches(none_test[0], aliases):
        return False
    return (none_test[1] == when) != armed  # ``inj is None`` held: disarmed


def _always_exits(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _guarded(node: ast.AST, aliases: set[str], armed: bool = True) -> bool:
    """Is ``node`` dominated by a check that a plan is armed (or, with
    ``armed=False``, that none is)?"""
    child: ast.AST = node
    parent = _parent(node)
    while parent is not None:
        if isinstance(parent, (ast.If, ast.IfExp)) and child is not parent.test:
            in_body = (
                child in parent.body
                if isinstance(parent, ast.If)
                else child is parent.body
            )
            if _implies(parent.test, aliases, in_body, armed):
                return True
        elif isinstance(parent, ast.BoolOp) and child in parent.values:
            # a later operand runs only if the earlier ones held (`and`)
            # or failed (`or`)
            held = isinstance(parent.op, ast.And)
            if any(
                _implies(v, aliases, held, armed)
                for v in parent.values[: parent.values.index(child)]
            ):
                return True
        # Early-exit pattern: a preceding sibling ``if <test>: return``
        # in the same statement list dominates everything after it.
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(parent, field, None)
            if isinstance(stmts, list) and child in stmts:
                for prior in stmts[: stmts.index(child)]:
                    if (
                        isinstance(prior, ast.If)
                        and not prior.orelse
                        and _always_exits(prior.body)
                        and _implies(prior.test, aliases, False, armed)
                    ):
                        return True
        # Stop at function boundaries: aliases are function-local.
        if isinstance(
            parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            break
        child, parent = parent, _parent(parent)
    return False


def _enclosing_function(node: ast.AST) -> ast.AST | None:
    cur = _parent(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return cur
        cur = _parent(cur)
    return None


def _collect_aliases(tree: ast.AST) -> dict[ast.AST | None, set[str]]:
    """Per-function sets of local names bound to the hook object."""
    aliases: dict[ast.AST | None, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_active_expr(node.value):
            scope = _enclosing_function(node)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases.setdefault(scope, set()).add(target.id)
    return aliases


def _check_hooks(
    tree: ast.AST, rel: str, findings: list[Finding]
) -> None:
    alias_map = _collect_aliases(tree)
    for node in ast.walk(tree):
        scope = _enclosing_function(node)
        aliases = alias_map.get(scope, set())
        hazardous: ast.AST | None = None
        what = ""
        if isinstance(node, ast.Attribute) and not _is_active_expr(node):
            # inj.hook / ACTIVE.detections — attribute use of the object.
            if _expr_matches(node.value, aliases):
                hazardous, what = node, f"attribute {node.attr!r}"
        elif isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _expr_matches(arg, aliases):
                    hazardous, what = arg, "call-argument use"
                    break
        if hazardous is None:
            continue
        if _guarded(hazardous, aliases):
            continue
        findings.append(
            Finding(
                rule="H401",
                message=f"fault-injection hook {what} outside an "
                "`is not None` guard",
                locus=f"{rel}:{getattr(node, 'lineno', 0)}",
                hint="bind `inj = fault_hooks.ACTIVE` and guard every "
                "use with `if inj is not None:` so disarmed runs never "
                "enter injection plumbing",
            )
        )


#: Names whose ``None`` test means "no golden CRC was supplied".
_GOLDEN_NAMES = frozenset({"expected_crc", "expected_crcs"})


def _is_crc_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "crc32_array"


def _is_mirror_store(node: ast.AST) -> bool:
    if not isinstance(node, ast.Assign):
        return False
    for target in node.targets:
        if isinstance(target, ast.Subscript):
            base = target.value
            name = base.attr if isinstance(base, ast.Attribute) else getattr(
                base, "id", ""
            )
            if name.endswith("_host_mirror"):
                return True
    return False


def _justified(test: ast.AST, ctx, runs: bool) -> bool:
    """H404 on one condition.  ``runs``: the check runs under ``test``,
    so it must hold whenever a fault can enter.  Otherwise the check is
    skipped under ``test``, so it must hold only where none can."""
    aliases, memo, arg = ctx
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _justified(test.operand, ctx, not runs)
    if isinstance(test, ast.BoolOp):
        verdicts = [_justified(v, ctx, runs) for v in test.values]
        return any(verdicts) if isinstance(test.op, ast.Or) == runs else all(
            verdicts
        )
    none_test = _none_test(test)
    if none_test is None:
        return False
    subject, is_none = none_test
    text = ast.unparse(subject)
    if is_none == runs:  # runs when ``memo is None``: a cache fill
        return text == memo
    if text == arg:  # runs when there is something to check
        return True
    if isinstance(subject, ast.Subscript):
        subject = subject.value
    return _expr_matches(subject, aliases) or (
        isinstance(subject, ast.Name) and subject.id in _GOLDEN_NAMES
    )


def _none_test(test: ast.AST) -> tuple[ast.AST, bool] | None:
    """``x is None`` -> (x, True); ``x is not None`` -> (x, False)."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return test.left, isinstance(test.ops[0], ast.Is)
    return None


def _exits_quietly(stmt: ast.stmt) -> bool:
    """``if <test>: ... return|continue|break`` — an exit that skips what
    follows without failing (a ``raise`` fails loudly instead)."""
    return (
        isinstance(stmt, ast.If)
        and not stmt.orelse
        and isinstance(stmt.body[-1], (ast.Return, ast.Continue, ast.Break))
    )


def _unjustified_skip(node: ast.AST, ctx) -> ast.AST | None:
    """The first condition that can skip ``node`` without a disarmed or
    golden-CRC justification, or ``None`` when every skip is justified."""
    child: ast.AST = node
    parent = _parent(node)
    while parent is not None:
        if isinstance(parent, (ast.If, ast.IfExp)) and child is not parent.test:
            in_body = (
                child in parent.body
                if isinstance(parent, ast.If)
                else child is parent.body
            )
            if not _justified(parent.test, ctx, runs=in_body):
                return parent.test
        elif isinstance(parent, ast.BoolOp) and child in parent.values:
            runs = isinstance(parent.op, ast.And)
            for earlier in parent.values[: parent.values.index(child)]:
                if not _justified(earlier, ctx, runs):
                    return earlier
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(parent, field, None)
            if isinstance(stmts, list) and child in stmts:
                for prior in stmts[: stmts.index(child)]:
                    if _exits_quietly(prior) and not _justified(
                        prior.test, ctx, runs=False
                    ):
                        return prior.test
        if isinstance(
            parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            break
        child, parent = parent, _parent(parent)
    return None


def _check_integrity_skips(
    tree: ast.AST, rel: str, findings: list[Finding]
) -> None:
    alias_map = _collect_aliases(tree)
    for node in ast.walk(tree):
        if _is_crc_call(node):
            what = "crc32_array call"
            assign = _parent(node)
            memo = (
                ast.unparse(assign.targets[0])
                if isinstance(assign, ast.Assign) and len(assign.targets) == 1
                else None
            )
            arg = ast.unparse(node.args[0]) if node.args else None
        elif _is_mirror_store(node):
            what, memo, arg = "host-mirror store", None, None
        else:
            continue
        aliases = alias_map.get(_enclosing_function(node), set())
        test = _unjustified_skip(node, (aliases, memo, arg))
        if test is None:
            continue
        findings.append(
            Finding(
                rule="H404",
                message=f"{what} skipped under `{ast.unparse(test)}`, which "
                "is not a disarmed or golden-CRC guard",
                locus=f"{rel}:{getattr(test, 'lineno', node.lineno)}",
                hint="skip integrity checks only where no fault can enter: "
                "under `inj is None` (inj = fault_hooks.ACTIVE) or "
                "`expected_crc is None`",
            )
        )


def _uncopied(expr: ast.AST, names: set[str]) -> bool:
    """Is ``expr`` one of ``names``, or an index or ternary arm of one
    (a view, not a copy)?"""
    if isinstance(expr, ast.Name):
        return expr.id in names
    if isinstance(expr, ast.Subscript):
        return _uncopied(expr.value, names)
    if isinstance(expr, ast.IfExp):
        return _uncopied(expr.body, names) or _uncopied(expr.orelse, names)
    return False


def _storage(expr: ast.AST, params: set[str]) -> bool:
    """Is ``expr`` a buffer parameter's stored array (``p.data``,
    ``p.share()``, ``p.view()``) or a view of it?"""
    if isinstance(expr, ast.Subscript):
        return _storage(expr.value, params)
    if isinstance(expr, ast.IfExp):
        return _storage(expr.body, params) or _storage(expr.orelse, params)
    if isinstance(expr, ast.Call) and not expr.args:
        expr = expr.func
        members = ("share", "view")
    else:
        members = ("data", "_data")
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr in members
        and isinstance(expr.value, ast.Name)
        and expr.value.id in params
    )


def _sinks(own: list[ast.AST]):
    """``(expr, kind)`` for each array one function (its nodes ``own``)
    hands over: the argument of an ``x.adopt(...)`` call (kind
    ``"adopt"``) and each returned value (kind ``"return"``)."""
    for node in own:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "adopt"
            and len(node.args) == 1
        ):
            yield node.args[0], "adopt"
        elif isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            for expr in value.elts if isinstance(value, ast.Tuple) else [value]:
                yield expr, "return"


def _check_hand_overs(
    tree: ast.AST, rel: str, findings: list[Finding]
) -> None:
    """H405: a caller's array adopted uncopied (``x.adopt(arg)`` with
    ``arg`` a view of a parameter) and a buffer's storage returned
    uncopied are bound only under a disarmed guard."""
    alias_map = _collect_aliases(tree)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        } - {"self", "cls"}
        own = [n for n in ast.walk(func) if _enclosing_function(n) is func]
        binds = [
            n for n in own
            if isinstance(n, ast.Assign)
            and len(n.targets) == 1
            and isinstance(n.targets[0], ast.Name)
        ]
        sources = {
            "adopt": lambda e, names: _uncopied(e, names | params),
            "return": lambda e, names: (
                _storage(e, params) or _uncopied(e, names)
            ),
        }
        for expr, kind in _sinks(own):
            is_source = sources[kind]
            names: set[str] = set()  # locals bound to a source, to fixpoint
            while True:
                grown = names | {
                    b.targets[0].id for b in binds if is_source(b.value, names)
                }
                if grown == names:
                    break
                names = grown
            if isinstance(expr, ast.Name) and expr.id in names - params:
                # the hand-over is where the view was bound to the name
                sites = [
                    b for b in binds
                    if b.targets[0].id == expr.id and is_source(b.value, names)
                ]
            else:
                sites = [expr] if is_source(expr, names) else []
            for site in sites:
                if _guarded(site, alias_map.get(func, set()), armed=False):
                    continue
                what = (
                    "a caller's array adopted"
                    if kind == "adopt"
                    else "buffer storage returned"
                )
                findings.append(
                    Finding(
                        rule="H405",
                        message=f"{what} uncopied outside an `inj is None` "
                        "guard",
                        locus=f"{rel}:{site.lineno}",
                        hint="hand an array across a transfer uncopied "
                        "only while disarmed (inj = fault_hooks.ACTIVE; "
                        "`if inj is None:`); armed, copy it so the CRC "
                        "and mirror checks cover what crosses",
                    )
                )


def _check_id_keys(
    tree: ast.AST, rel: str, findings: list[Finding]
) -> None:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            findings.append(
                Finding(
                    rule="H402",
                    message="call to builtin id(); identity-keyed state "
                    "aliases unrelated objects after garbage collection",
                    locus=f"{rel}:{node.lineno}",
                    hint="key caches on stable values (config tuples, "
                    "names) or use weak references",
                )
            )


def _dotted(node: ast.AST) -> list[str]:
    """Attribute chain as names, outermost last (np.random.rand ->
    ['np', 'random', 'rand']); [] when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _check_rng(tree: ast.AST, rel: str, findings: list[Finding]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if not chain:
            continue
        bad: str | None = None
        if chain[-1] == "default_rng" and not node.args and not node.keywords:
            bad = "default_rng() without a seed"
        elif (
            len(chain) >= 2
            and chain[-2] == "random"
            and chain[-1] in _NP_RANDOM_FNS
        ):
            bad = f"legacy global numpy.random.{chain[-1]}()"
        elif (
            len(chain) == 2
            and chain[0] == "random"
            and chain[1] in _STDLIB_RANDOM_FNS
        ):
            bad = f"stdlib random.{chain[1]}() (hidden global state)"
        if bad:
            findings.append(
                Finding(
                    rule="H403",
                    message=f"{bad} on a simulation path",
                    locus=f"{rel}:{node.lineno}",
                    hint="pass an explicit seed: "
                    "np.random.default_rng(seed)",
                )
            )


def lint_source(text: str, filename: str) -> list[Finding]:
    """Run the purity checks over one module's source text."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(text, filename=filename)
    except SyntaxError as err:
        return [
            Finding(
                rule="H401",
                message=f"cannot parse: {err.msg}",
                locus=f"{filename}:{err.lineno or 0}",
                hint="fix the syntax error so the purity pass can run",
            )
        ]
    _annotate_parents(tree)
    _check_hooks(tree, filename, findings)
    _check_integrity_skips(tree, filename, findings)
    _check_hand_overs(tree, filename, findings)
    _check_id_keys(tree, filename, findings)
    _check_rng(tree, filename, findings)
    return findings


#: Identifiers of the fault-injection plumbing.  The generated native
#: pass driver runs only on disarmed paths (armed runs force the
#: per-stage channel path in :meth:`FPGAAccelerator.run`), so none of
#: these may appear in its C source — their presence would mean
#: injection logic was fused into code that cannot be intercepted.
_DRIVER_HOOK_TOKENS = ("fault_hooks", "ACTIVE", "inject")


def lint_driver_source(
    text: str, name: str, include_concurrency: bool = True
) -> list[Finding]:
    """Disarmed-guard scan over generated driver C source.

    The AST checks above cannot parse C; the invariant here is simpler
    and absolute: the fused driver must contain *no* fault-hook
    identifier at all, because nothing inside the one-ctypes-call pass
    can be guarded by a Python ``is not None`` check.

    By default the concurrency pass's structural pthread-protocol
    checks (T509/T510) run too, so programmatic callers of this one
    function get the full driver verdict; the CLI sets
    ``include_concurrency=False`` here because it runs that pass
    separately (avoiding duplicate findings).
    """
    findings: list[Finding] = []
    if include_concurrency:
        from repro.lint.concurrency import lint_driver_concurrency

        findings.extend(lint_driver_concurrency(text, name))
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = next((t for t in _DRIVER_HOOK_TOKENS if t in line), None)
        if token is not None:
            findings.append(
                Finding(
                    rule="H401",
                    message=f"fault-hook identifier {token!r} in generated "
                    "driver source (the fused pass cannot be guarded)",
                    locus=f"{name}:{lineno}",
                    hint="armed runs must take the per-stage channel "
                    "path; keep injection plumbing out of driver codegen",
                )
            )
    return findings


def lint_tree(root: Path) -> list[Finding]:
    """Lint every ``*.py`` file under ``root`` (typically ``src/repro``)."""
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root.parent)) if root.parent else str(path)
        findings.extend(lint_source(path.read_text(), rel))
    return findings
