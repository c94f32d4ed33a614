"""Compile mplib endpoint generators into bounded models.

The extractor reuses the exact machinery the ``protocol-flow`` lint
family uses to find endpoint classes (``send``/``recv`` both
generators, methods resolved down the in-project MRO) and to classify
channel operations — see the shared aliases at the bottom of
:mod:`repro.check.rules.protocol`.  Where the lint rules flatten a
method to a *set* of ops, the extractor preserves control flow: each
method body becomes a step tree (:mod:`repro.verify.model`) whose
branches carry guard-evaluation closures bound to the defining
module's imports, the enclosing local bindings, and the class's helper
predicates.

Generator ``self.<helper>()`` calls are inlined (their steps spliced
in place, size parameters rebound through the call site); engine
``timeout`` calls become ``timeout`` ops; everything else inside an
expression is cost arithmetic the model does not need.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.rules import protocol as proto
from repro.verify.model import (
    SIZE,
    Binding,
    BranchStep,
    GuardEvaluator,
    HaltStep,
    LoopStep,
    Op,
    OpStep,
    Step,
)


@dataclass
class EndpointModel:
    """The compiled two-leg state machine of one endpoint class."""

    name: str  #: class name
    module: str | None  #: module the class is defined in
    path: str  #: file of the class definition
    line: int  #: line of the class definition
    legs: dict  #: ``"send"``/``"recv"`` -> step tuple
    method_locs: dict  #: leg -> (path, line) of the defining ``def``

    def leg(self, name: str) -> tuple:
        return self.legs[name]


def iter_endpoint_models(project) -> list[EndpointModel]:
    """Compile every endpoint class in ``project``."""
    out = []
    for cls in proto.collect_classes(project):
        if proto.is_endpoint(cls):
            out.append(compile_endpoint(project, cls))
    return out


def compile_endpoint(project, cls) -> EndpointModel:
    """Compile one :class:`~repro.check.rules.protocol.EndpointClass`."""
    legs: dict = {}
    locs: dict = {}
    for leg in ("send", "recv"):
        ctx, fn = cls.method(leg)
        compiler = _Compiler(project, cls)
        legs[leg] = compiler.compile_method(ctx, fn, visited={leg})
        locs[leg] = (ctx.path, fn.lineno)
    return EndpointModel(
        name=cls.node.name,
        module=cls.ctx.module,
        path=cls.ctx.path,
        line=cls.node.lineno,
        legs=legs,
        method_locs=locs,
    )


class _Compiler:
    """Compiles one method body (plus inlined helpers) to a step tuple."""

    def __init__(self, project, cls) -> None:
        self.project = project
        self.cls = cls
        self._evaluators: dict = {}

    def _evaluator(self, ctx) -> GuardEvaluator:
        ev = self._evaluators.get(ctx.path)
        if ev is None:
            ev = GuardEvaluator(self.cls, ctx.imports)
            self._evaluators[ctx.path] = ev
        return ev

    # -- entry ---------------------------------------------------------------
    def compile_method(self, ctx, fn: ast.FunctionDef, visited: set[str],
                       env: dict | None = None) -> tuple:
        if env is None:
            env = {}
            params = [a.arg for a in fn.args.args[1:]]  # drop self
            if params:
                # By LibEndpoint convention the first parameter of a
                # protocol leg is the transfer size.
                env[params[0]] = SIZE
        return self._block(ctx, fn.body, env, visited)[0]

    # -- statements ----------------------------------------------------------
    def _block(self, ctx, stmts, env: dict, visited: set[str]
               ) -> tuple[tuple, dict]:
        """Compile a statement list; returns (steps, env after block)."""
        steps: list[Step] = []
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                evaluator = self._evaluator(ctx)
                test, snapshot = stmt.test, dict(env)

                def make_eval(evaluator=evaluator, test=test, snap=snapshot):
                    def evaluate(spec: object, size: int) -> object:
                        return evaluator.test(test, snap, spec, size)
                    return evaluate

                then, _ = self._block(ctx, stmt.body, env, visited)
                orelse, _ = self._block(ctx, stmt.orelse, env, visited)
                steps.append(
                    BranchStep(make_eval(), then, orelse, line=stmt.lineno)
                )
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                body, _ = self._block(ctx, stmt.body, env, visited)
                body_else, _ = self._block(ctx, stmt.orelse, env, visited)
                steps.append(LoopStep(body + body_else, line=stmt.lineno))
                continue
            if isinstance(stmt, ast.Try):
                inner, env = self._block(ctx, stmt.body, env, visited)
                steps.extend(inner)
                final, env = self._block(ctx, stmt.finalbody, env, visited)
                steps.extend(final)
                continue
            if isinstance(stmt, ast.With):
                inner, env = self._block(ctx, stmt.body, env, visited)
                steps.extend(inner)
                continue
            if isinstance(stmt, (ast.Return, ast.Raise)):
                for child in ast.iter_child_nodes(stmt):
                    steps.extend(self._expr(ctx, child, env, visited))
                steps.append(HaltStep(line=stmt.lineno))
                continue
            # Plain statement: extract ops from its expressions, then
            # record simple local bindings for later guard evaluation.
            steps.extend(self._expr(ctx, stmt, env, visited))
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                env = {**env, stmt.targets[0].id: Binding(stmt.value, dict(env))}
        return tuple(steps), env

    # -- expressions ---------------------------------------------------------
    def _expr(self, ctx, node: ast.AST, env: dict, visited: set[str]
              ) -> list[Step]:
        """Ops in one expression/statement, in source order."""
        steps: list[Step] = []
        self._scan(ctx, node, env, visited, steps)
        return steps

    def _scan(self, ctx, node: ast.AST, env: dict, visited: set[str],
              out: list[Step]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested definitions execute later, if ever
        if isinstance(node, ast.Call):
            classified = proto.classify_channel_call(node)
            if classified is not None:
                out.append(OpStep(self._op(ctx, node, *classified)))
            elif self._is_timeout(node):
                out.append(OpStep(self._op(ctx, node, "timeout", None)))
            else:
                helper = proto.self_method_call(node)
                if helper and helper not in visited:
                    entry = self.cls.method(helper)
                    if entry is not None and proto.is_generator(entry[1]):
                        out.extend(
                            self._inline(entry[0], entry[1], node, env,
                                         visited | {helper})
                        )
                        return
        for child in ast.iter_child_nodes(node):
            self._scan(ctx, child, env, visited, out)

    def _inline(self, ctx, fn: ast.FunctionDef, call: ast.Call, env: dict,
                visited: set[str]) -> tuple:
        """Splice a generator helper's steps in, rebinding parameters."""
        params = [a.arg for a in fn.args.args[1:]]
        inner_env: dict = {
            p: Binding(a, dict(env)) for p, a in zip(params, call.args)
        }
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                inner_env[kw.arg] = Binding(kw.value, dict(env))
        return self.compile_method(ctx, fn, visited, env=inner_env)

    @staticmethod
    def _is_timeout(call: ast.Call) -> bool:
        func = call.func
        return isinstance(func, ast.Attribute) and func.attr == "timeout"

    def _op(self, ctx, node: ast.Call, kind: str, tag: str | None) -> Op:
        return Op(
            kind=kind,
            tag=tag,
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset + 1,
        )
