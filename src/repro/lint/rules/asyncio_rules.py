"""Asyncio-hygiene rules for the serving layer.

``repro.serve`` runs a single event loop per server process: one
blocking call inside a coroutine -- or inside a callback of the
``asyncio.Protocol`` every connection is -- stalls every connection
behind it, and a coroutine called without ``await`` silently does
nothing; both are invisible to the replay parity tests because they
only distort latency or drop work under live load.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.lint.engine import FileContext, Finding, Rule

#: Synchronous calls that block the event loop when made from a
#: coroutine. Matched against resolved dotted origins.
_BLOCKING_CALLS = {
    "time.sleep": "use await asyncio.sleep(...)",
    "socket.create_connection": "use asyncio.open_connection(...)",
    "socket.socket": "use asyncio streams or loop.sock_* APIs",
    "subprocess.run": "use asyncio.create_subprocess_exec(...)",
    "subprocess.call": "use asyncio.create_subprocess_exec(...)",
    "subprocess.check_call": "use asyncio.create_subprocess_exec(...)",
    "subprocess.check_output": "use asyncio.create_subprocess_exec(...)",
    "subprocess.Popen": "use asyncio.create_subprocess_exec(...)",
    "os.system": "use asyncio.create_subprocess_shell(...)",
    "input": "blocking stdin read",
}

#: Prefixes of libraries that are synchronous through and through.
_BLOCKING_PREFIXES = ("requests.", "urllib.request.")

#: Base classes whose plain methods the event loop calls directly.
_PROTOCOL_BASES = ("asyncio.Protocol", "asyncio.BufferedProtocol")


def _async_function_bodies(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AsyncFunctionDef, List[ast.stmt]]]:
    """Yield each ``async def`` with its body, outermost first.

    Nested plain ``def``s inside a coroutine run synchronously on their
    own terms (often as executor targets), so their bodies are not
    treated as coroutine context.
    """
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                yield child, child.body
            if not isinstance(child, ast.FunctionDef):
                stack.append(child)


def _walk_coroutine(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements that execute in coroutine context (skipping
    nested plain ``def`` bodies; nested ``async def`` are yielded by the
    outer iteration)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _protocol_method_bodies(
    ctx: FileContext,
) -> Iterator[Tuple[ast.FunctionDef, List[ast.stmt]]]:
    """Yield the plain methods of ``serve/`` classes that derive from an
    asyncio protocol base (import aliases resolved).

    The loop calls them synchronously -- ``data_received``,
    ``connection_made`` / ``connection_lost``, ``pause_writing`` /
    ``resume_writing``, and whatever those reach through
    ``loop.call_soon`` -- so they are event-loop context as much as any
    ``async def``, and since the connection path became a protocol they
    are where every byte is handled.
    """
    if not (ctx.repro_module or "").startswith("serve."):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(
            ctx.resolve_call_path(base) in _PROTOCOL_BASES
            for base in node.bases
        ):
            continue
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef):
                yield statement, statement.body


class AsyncBlockingCallRule(Rule):
    name = "async-blocking-call"
    summary = (
        "no blocking calls (time.sleep, sync sockets/subprocess, bare "
        "open) inside async def or, under serve/, inside a method of an "
        "asyncio.Protocol subclass: one stalled callback stalls the "
        "whole event loop"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        contexts = [
            ("async def", body)
            for _func, body in _async_function_bodies(ctx.tree)
        ] + [
            (f"asyncio.Protocol method {func.name!r}", body)
            for func, body in _protocol_method_bodies(ctx)
        ]
        for where, body in contexts:
            for node in _walk_coroutine(body):
                if not isinstance(node, ast.Call):
                    continue
                message = self._blocking_message(ctx, node, where)
                if message is not None:
                    yield Finding(
                        ctx.display_path, node.lineno, self.name, message
                    )

    def _blocking_message(
        self, ctx: FileContext, node: ast.Call, where: str
    ) -> Optional[str]:
        path = ctx.resolve_call_path(node.func)
        if path is None:
            return None
        hint = _BLOCKING_CALLS.get(path)
        if hint is not None:
            return f"blocking call {path} inside {where}; {hint}"
        for prefix in _BLOCKING_PREFIXES:
            if path.startswith(prefix):
                return (
                    f"blocking call {path} inside {where}; run it in an "
                    "executor"
                )
        if path == "open":
            return (
                f"blocking file open() inside {where}; read it before "
                "entering the event loop or use an executor"
            )
        return None


class DeprecatedEventLoopRule(Rule):
    name = "deprecated-event-loop"
    summary = (
        "asyncio.get_event_loop() is deprecated outside a running loop; "
        "use asyncio.run() / asyncio.get_running_loop()"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = ctx.resolve_call_path(node.func)
            if path == "asyncio.get_event_loop":
                yield Finding(
                    ctx.display_path,
                    node.lineno,
                    self.name,
                    "asyncio.get_event_loop() is deprecated; use "
                    "asyncio.get_running_loop() inside coroutines or "
                    "asyncio.run() at the top level",
                )


class UnawaitedCoroutineRule(Rule):
    name = "unawaited-coroutine"
    summary = (
        "calling an async def as a bare statement creates a coroutine "
        "and throws it away; await it or hand it to create_task"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        # Matching is deliberately scoped to calls whose target is
        # statically known: bare names resolving to a module-level
        # async def in the same file, and ``self.<method>()`` where the
        # enclosing class defines ``async def <method>``. Duck-typed
        # receivers (``writer.close()``) are skipped -- many stdlib
        # methods share names with local coroutines.
        module_async = {
            node.name
            for node in ctx.tree.body
            if isinstance(node, ast.AsyncFunctionDef)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)
            elif isinstance(node, ast.Expr):
                name = self._bare_call_name(ctx, node.value, module_async)
                if name is not None:
                    yield Finding(
                        ctx.display_path,
                        node.value.lineno,
                        self.name,
                        f"result of async def {name!r} is discarded "
                        "without await; the coroutine never runs",
                    )

    def _check_class(
        self, ctx: FileContext, node: ast.ClassDef
    ) -> Iterable[Finding]:
        async_methods = {
            statement.name
            for statement in node.body
            if isinstance(statement, ast.AsyncFunctionDef)
        }
        if not async_methods:
            return
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Expr):
                continue
            call = inner.value
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in async_methods
            ):
                yield Finding(
                    ctx.display_path,
                    call.lineno,
                    self.name,
                    f"result of async def {func.attr!r} is discarded "
                    "without await; the coroutine never runs",
                )

    @staticmethod
    def _bare_call_name(
        ctx: FileContext, value: ast.expr, module_async: set
    ) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if (
            isinstance(func, ast.Name)
            and func.id in module_async
            and func.id not in ctx.import_paths
        ):
            return func.id
        return None
