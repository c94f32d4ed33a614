"""protocol-flow: cross-module analysis of mplib endpoint generators.

The paper's protocols are encoded as *paired* generator state machines:
``LibEndpoint.send`` on the active rank and ``LibEndpoint.recv`` on the
passive rank exchange channel messages by tag (``rts``/``cts``/
``data``).  The pairing is an invariant no type checker sees — a
rendezvous send that awaits a ``cts`` the receiver never issues hangs
the simulated benchmark (or worse, silently skews a curve when an
engine timeout papers over it).  These rules walk the ``yield from``
call graph of every endpoint class in the project:

* ``proto-unmatched`` — a tag one side blocks on is never sent by the
  other side (e.g. the rendezvous CTS reply leg was deleted), or a tag
  one side sends is never received by the other;
* ``proto-dead-branch`` — an ``if`` on protocol-spec attributes that
  no spec in the registry universe (tuned *and* variant
  configurations, :func:`repro.mplib.registry.iter_spec_universe`)
  can ever take: unreachable protocol code.

Two legs that both open with a blocking receive are reported by the
``verify`` family (``verify-deadlock``), which explores the legs'
product exactly.

An *endpoint class* is any class whose ``send`` and ``recv`` methods
are both generators — resolved across modules via the project graph,
so a subclass inheriting one leg from a base in another file is still
analyzed as a whole.
"""

from __future__ import annotations

import ast
import enum
from typing import Iterator

from repro.check.analyzer import Finding, ImportMap, ModuleContext

FAMILY = "protocol-flow"

RULES = {
    "proto-unmatched": (
        "endpoint blocks on a handshake tag its peer method never sends, "
        "or sends a tag its peer never receives"
    ),
    "proto-dead-branch": (
        "spec-dependent branch unreachable under every registry spec"
    ),
}

#: Default tag of repro.net.channel.Endpoint.send/recv when the call
#: site passes none.
_DEFAULT_TAG = "data"

_MISSING = object()  # spec lacks the attribute: spec not applicable


def is_generator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does ``fn``'s body yield, not counting nested scopes?"""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


class _EndpointClass:
    """One class with its full (inheritance-resolved) method table."""

    def __init__(self, ctx: ModuleContext, node: ast.ClassDef):
        self.ctx = ctx
        self.node = node
        #: method name -> (defining ModuleContext, FunctionDef)
        self.methods: dict[str, tuple[ModuleContext, ast.FunctionDef]] = {}

    def method(self, name: str) -> tuple[ModuleContext, ast.FunctionDef] | None:
        return self.methods.get(name)


def _collect_classes(project) -> list[_EndpointClass]:
    """Every project class, methods merged down the in-project MRO."""

    def methods_of(
        ctx: ModuleContext, node: ast.ClassDef, depth: int = 0
    ) -> dict[str, tuple[ModuleContext, ast.FunctionDef]]:
        table: dict[str, tuple[ModuleContext, ast.FunctionDef]] = {}
        if depth <= 8:
            for base in node.bases:
                resolved = project.resolve_base_class(ctx, base)
                if resolved is not None:
                    for name, entry in methods_of(
                        resolved.ctx, resolved.node, depth + 1
                    ).items():
                        table.setdefault(name, entry)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                table[stmt.name] = (ctx, stmt)
        return table

    out = []
    for ctx, node in project.iter_classes():
        cls = _EndpointClass(ctx, node)
        cls.methods = methods_of(ctx, node)
        out.append(cls)
    return out


def _is_endpoint(cls: _EndpointClass) -> bool:
    """Is ``cls`` an endpoint: are both send and recv generators?"""
    for name in ("send", "recv"):
        entry = cls.method(name)
        if entry is None or not is_generator(entry[1]):
            return False
    return True


# -- channel-op extraction -----------------------------------------------------

class _Op:
    """One channel operation site inside a protocol method."""

    __slots__ = ("direction", "tag", "ctx", "node")

    def __init__(self, direction: str, tag: str | None, ctx, node) -> None:
        self.direction = direction  # "send" | "recv"
        self.tag = tag  # None = not a literal: matches anything
        self.ctx = ctx
        self.node = node


def _classify_call(call: ast.Call) -> tuple[str, str | None] | None:
    """(direction, tag) when ``call`` is a channel send/recv, else None.

    A channel op is ``<something>.send/isend/recv(...)`` where the
    receiver is *not* bare ``self`` — ``self.send(...)`` would be the
    protocol method itself, not the underlying channel endpoint.
    """
    func = call.func
    if not isinstance(func, ast.Attribute) or isinstance(func.value, ast.Name) and func.value.id == "self":
        return None
    if func.attr in ("send", "isend"):
        direction = "send"
    elif func.attr == "recv":
        direction = "recv"
    else:
        return None
    tag: str | None = _DEFAULT_TAG
    for kw in call.keywords:
        if kw.arg == "tag":
            tag = kw.value.value if isinstance(kw.value, ast.Constant) else None
    return direction, tag


def _self_method_call(call: ast.Call) -> str | None:
    """Method name when ``call`` is ``self.<name>(...)``, else None."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


def _collect_ops(
    cls: _EndpointClass,
    ctx: ModuleContext,
    fn: ast.FunctionDef,
    out: list[_Op],
    visited: set[str],
) -> None:
    """All channel ops in ``fn``, following self-method generator calls."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        op = _classify_call(node)
        if op is not None:
            out.append(_Op(op[0], op[1], ctx, node))
            continue
        helper = _self_method_call(node)
        if helper and helper not in visited:
            entry = cls.method(helper)
            if entry is not None and is_generator(entry[1]):
                visited.add(helper)
                _collect_ops(cls, entry[0], entry[1], out, visited)


# -- dead-branch evaluation ----------------------------------------------------

def _spec_universe() -> list[object]:
    """Protocol specs of every registry configuration (memoized)."""
    global _UNIVERSE
    if _UNIVERSE is None:
        try:
            from repro.mplib.registry import iter_spec_universe

            _UNIVERSE = [spec for _, spec in iter_spec_universe()]
        except Exception:
            _UNIVERSE = []
    return _UNIVERSE


_UNIVERSE: list[object] | None = None


def _spec_attr(node: ast.AST) -> str | None:
    """Attribute name for ``spec.X`` / ``self.spec.X`` receivers."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name) and value.id == "spec":
        return node.attr
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "spec"
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return node.attr
    return None


class _EnumRef:
    """A dotted reference to an enum member, matched structurally."""

    def __init__(self, dotted: str) -> None:
        parts = dotted.split(".")
        self.cls = parts[-2] if len(parts) >= 2 else ""
        self.member = parts[-1]

    def matches(self, value: object) -> bool:
        return (
            isinstance(value, enum.Enum)
            and type(value).__name__ == self.cls
            and value.name == self.member
        )


def _operand(node: ast.AST, spec: object, imports: ImportMap) -> object:
    """Concrete value of an operand under ``spec``, or _MISSING/None.

    Returns ``_MISSING`` when the spec has no such attribute (spec not
    applicable), ``None`` wrapped in a one-tuple never — unknown
    operands are signalled by returning the :data:`_UNKNOWN` marker.
    """
    if isinstance(node, ast.Constant):
        return node.value
    attr = _spec_attr(node)
    if attr is not None:
        return getattr(spec, attr, _MISSING)
    dotted = imports.resolve(node) or _raw_chain(node)
    if dotted is not None and dotted.count(".") >= 1:
        # Only class-like penultimate components (Route.DAEMON) — a
        # resolved module attribute like math.inf is not an enum ref.
        if dotted.split(".")[-2][:1].isupper():
            return _EnumRef(dotted)
    return _UNKNOWN


def _raw_chain(node: ast.AST) -> str | None:
    """Dotted text of a Name/Attribute chain, without import resolution.

    Covers enums defined in the *same* module (``Route.DAEMON`` inside
    tcp_base), which the import map cannot see.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


_UNKNOWN = object()


def _eval_test(test: ast.AST, spec: object, imports: ImportMap) -> object:
    """True / False / _UNKNOWN / _MISSING for one spec."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        inner = _eval_test(test.operand, spec, imports)
        if inner in (_UNKNOWN, _MISSING):
            return inner
        return not inner
    if isinstance(test, ast.BoolOp):
        results = [_eval_test(v, spec, imports) for v in test.values]
        if any(r is _MISSING for r in results):
            return _MISSING
        if isinstance(test.op, ast.And):
            if any(r is False for r in results):
                return False
            return True if all(r is True for r in results) else _UNKNOWN
        if any(r is True for r in results):
            return True
        return False if all(r is False for r in results) else _UNKNOWN
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left = _operand(test.left, spec, imports)
        right = _operand(test.comparators[0], spec, imports)
        if _MISSING in (left, right):
            return _MISSING
        if _UNKNOWN in (left, right):
            return _UNKNOWN
        return _apply_compare(test.ops[0], left, right)
    attr = _spec_attr(test)
    if attr is not None:
        value = getattr(spec, attr, _MISSING)
        return value if value is _MISSING else bool(value)
    return _UNKNOWN


def _apply_compare(op: ast.cmpop, left: object, right: object) -> object:
    """Evaluate one comparison over spec values (UNKNOWN on failure)."""
    if isinstance(left, _EnumRef) or isinstance(right, _EnumRef):
        ref, value = (
            (left, right) if isinstance(left, _EnumRef) else (right, left)
        )
        if isinstance(value, _EnumRef):
            return _UNKNOWN
        equal = ref.matches(value)
        if isinstance(op, (ast.Is, ast.Eq)):
            return equal
        if isinstance(op, (ast.IsNot, ast.NotEq)):
            return not equal
        return _UNKNOWN
    try:
        if isinstance(op, (ast.Is, ast.Eq)):
            return left is right if right is None or left is None else left == right
        if isinstance(op, (ast.IsNot, ast.NotEq)):
            return (
                left is not right
                if right is None or left is None
                else left != right
            )
        if left is None or right is None:
            return _UNKNOWN
        if isinstance(op, ast.Lt):
            return left < right
        if isinstance(op, ast.LtE):
            return left <= right
        if isinstance(op, ast.Gt):
            return left > right
        if isinstance(op, ast.GtE):
            return left >= right
    except TypeError:
        return _UNKNOWN
    return _UNKNOWN


def _references_spec(test: ast.AST) -> bool:
    return any(_spec_attr(node) is not None for node in ast.walk(test))


def _dead_branches(
    project, cls: _EndpointClass
) -> Iterator[tuple[ModuleContext, ast.If]]:
    specs = _spec_universe()
    if not specs:
        return
    seen: set[int] = set()
    for ctx, fn in cls.methods.values():
        imports = ctx.imports
        for node in ast.walk(fn):
            if not isinstance(node, ast.If) or id(node) in seen:
                continue
            seen.add(id(node))
            if not _references_spec(node.test):
                continue
            results = [
                r
                for r in (
                    _eval_test(node.test, spec, imports) for spec in specs
                )
                if r is not _MISSING
            ]
            if results and all(r is False for r in results):
                yield ctx, node


# -- the family ---------------------------------------------------------------

def check_project(project) -> list[Finding]:
    """Pair every endpoint class' send/recv legs and test reachability."""
    findings: set[Finding] = set()
    for cls in _collect_classes(project):
        if not _is_endpoint(cls):
            continue
        send_ctx, send_fn = cls.method("send")
        recv_ctx, recv_fn = cls.method("recv")

        ops: dict[str, list[_Op]] = {}
        for name, ctx, fn in (
            ("send", send_ctx, send_fn),
            ("recv", recv_ctx, recv_fn),
        ):
            collected: list[_Op] = []
            _collect_ops(cls, ctx, fn, collected, {name})
            ops[name] = collected

        findings.update(_unmatched(cls, ops))
        for ctx, node in _dead_branches(project, cls):
            findings.add(
                ctx.finding(
                    node,
                    "proto-dead-branch",
                    "protocol branch is unreachable: no spec in the "
                    "registry universe satisfies this condition",
                )
            )
    return sorted(findings)


def _unmatched(cls: _EndpointClass, ops: dict[str, list[_Op]]) -> Iterator[Finding]:
    for waiter, other in (("send", "recv"), ("recv", "send")):
        peer_sends = {
            op.tag for op in ops[other] if op.direction == "send"
        }
        peer_recvs = {
            op.tag for op in ops[other] if op.direction == "recv"
        }
        for op in ops[waiter]:
            if op.tag is None:
                continue
            if op.direction == "recv" and op.tag not in peer_sends:
                if None in peer_sends:
                    continue  # peer sends a dynamic tag: can't prove
                yield op.ctx.finding(
                    op.node,
                    "proto-unmatched",
                    f"{cls.node.name}.{waiter}() blocks on tag "
                    f"{op.tag!r} but {other}() has no matching send "
                    "(handshake reply leg missing)",
                )
            elif op.direction == "send" and op.tag not in peer_recvs:
                if None in peer_recvs:
                    continue
                yield op.ctx.finding(
                    op.node,
                    "proto-unmatched",
                    f"{cls.node.name}.{waiter}() sends tag {op.tag!r} "
                    f"but {other}() never receives it",
                )


# -- shared surface ------------------------------------------------------------

# Public aliases consumed by :mod:`repro.verify`: the bounded model
# checker extracts its state machines through the exact same endpoint
# collection, channel-op classification, and spec evaluation the lint
# rules use, so the two layers can never drift apart on what counts as
# a protocol state machine.
MISSING = _MISSING
UNKNOWN = _UNKNOWN
EndpointClass = _EndpointClass
collect_classes = _collect_classes
is_endpoint = _is_endpoint
classify_channel_call = _classify_call
self_method_call = _self_method_call
eval_test = _eval_test
eval_operand = _operand
spec_attr = _spec_attr
spec_universe = _spec_universe
apply_compare = _apply_compare
