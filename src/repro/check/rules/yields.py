"""Yield discipline: a discarded call to a generator is a lost event.

Sim processes are generators driven by :class:`repro.sim.process.
Process`; a generator's body does not execute until the engine (or a
``yield from``) advances it.  So the classic forgotten-``yield`` bug

::

    def pinger(eng, ep):
        ep.send(size)          # creates a generator... and drops it
        yield eng.timeout(t)

silently loses the send: no exception, no event, a curve that is wrong
but plausible.  The rule flags an *expression statement* that calls a
known generator and discards the result.  "Known" is resolved
statically and conservatively within one module: bare names defined as
generator functions in an enclosing scope, and ``self.``/``cls.``
method calls whose target is a generator method of the enclosing
class.  Passing the generator somewhere (``eng.process(worker())``),
yielding it, or binding it are all fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.analyzer import STATEMENT_LISTS, Finding, ModuleContext
from repro.check.rules.protocol import is_generator

FAMILY = "yield-discipline"

RULES = {
    "yield-discard": (
        "expression statement calls a generator and discards it "
        "(forgotten 'yield from' / Engine.process)"
    ),
}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope_statements(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Statements of one scope: descends into compound statements
    (``if``, ``for``, ``with``, ``try``, ``match``) but not into nested
    defs or classes, nor into expressions, which hold no statements."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_FUNC_NODES, ast.ClassDef)):
            continue
        for field in STATEMENT_LISTS:
            stack.extend(getattr(node, field, ()))


class _Checker:
    """Scopes map a name to its defs; generator-ness is only computed
    for names that a discarded call actually uses."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self._check_scope(self.ctx.tree.body, scopes=[], methods=None)
        return self.findings

    def _check_scope(
        self,
        body: list[ast.stmt],
        scopes: list[dict[str, ast.AST]],
        methods: dict[str, list[ast.AST]] | None,
    ) -> None:
        nodes = list(_scope_statements(body))
        table = {n.name: n for n in nodes if isinstance(n, _FUNC_NODES)}
        scopes = scopes + [table]
        for node in nodes:
            if isinstance(node, _FUNC_NODES):
                self._check_scope(node.body, scopes, methods)
            elif isinstance(node, ast.ClassDef):
                self._check_class(node, scopes)
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                self._check_call(node.value, scopes, methods)

    def _check_class(
        self, node: ast.ClassDef, scopes: list[dict[str, ast.AST]]
    ) -> None:
        methods: dict[str, list[ast.AST]] = {}
        for stmt in node.body:
            if isinstance(stmt, _FUNC_NODES):
                methods.setdefault(stmt.name, []).append(stmt)
        for stmt in node.body:
            if isinstance(stmt, _FUNC_NODES):
                self._check_scope(stmt.body, scopes, methods)
            elif isinstance(stmt, ast.ClassDef):
                self._check_class(stmt, scopes)

    def _check_call(
        self,
        call: ast.Call,
        scopes: list[dict[str, ast.AST]],
        methods: dict[str, list[ast.AST]] | None,
    ) -> None:
        func = call.func
        name: str | None = None
        if isinstance(func, ast.Name):
            for table in reversed(scopes):
                if func.id in table:
                    name = func.id if is_generator(table[func.id]) else None
                    break
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and methods
            and any(is_generator(m) for m in methods.get(func.attr, ()))
        ):
            name = f"{func.value.id}.{func.attr}"
        if name is not None:
            self.findings.append(
                self.ctx.finding(
                    call,
                    "yield-discard",
                    f"'{name}(...)' is a generator whose value is discarded "
                    "— the process never runs; use 'yield from', "
                    "'engine.process(...)', or bind the generator",
                )
            )


def check(ctx: ModuleContext) -> list[Finding]:
    """Flag expression statements that discard a known generator."""
    return _Checker(ctx).run()
