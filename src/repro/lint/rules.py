"""The four ``repro.lint`` rules and :func:`run_rules`.

Each rule is a function from a :class:`FileContext` to ``(line,
message)`` pairs, registered by name in :data:`RULES`. A rule stays
only while it guards something no test can:

* ``determinism`` -- replay packages must not read the wall clock or
  OS entropy, use a process-global or unseeded RNG, or iterate an
  unordered set. A table that only one test replays once never shows
  the drift.
* ``async-blocking-call`` -- a blocking call inside an ``async def`` or,
  under ``serve/``, inside a method of an ``asyncio.Protocol`` subclass
  stalls every connection on the loop. It only adds latency, which no
  functional test notices.
* ``deprecated-event-loop`` -- on Python 3.11 ``asyncio.get_event_loop()``
  warns neither inside a running loop nor with a loop set, so no
  runtime check sees the deprecated call.
* ``no-assert-in-src`` -- ``assert`` vanishes under ``python -O``, and
  tests never run that way.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.engine import FileContext, Finding

Hit = Tuple[int, str]

# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

#: Callables that read wall clock or OS entropy: never reproducible.
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time dependent",
    "uuid.uuid4": "OS entropy",
    "random.SystemRandom": "OS entropy",
    "numpy.random.SystemRandom": "OS entropy",
}

#: numpy.random attributes that are fine: explicit-seed construction.
_NUMPY_SEEDED = {"default_rng", "Generator", "SeedSequence", "PCG64"}


def determinism(ctx: FileContext) -> Iterator[Hit]:
    """Wall clock, OS entropy, global or unseeded RNGs and set iteration
    in the replay packages."""
    if not ctx.is_replay_path:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            message = _nondeterministic_call(ctx, node)
            if message is not None:
                yield node.lineno, message
        iterables: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            iterables = [generator.iter for generator in node.generators]
        for iterable in iterables:
            message = _set_iteration(ctx, iterable)
            if message is not None:
                yield iterable.lineno, message


def _nondeterministic_call(ctx: FileContext, node: ast.Call) -> Optional[str]:
    path = ctx.resolve_call_path(node.func)
    if path is None:
        return None
    reason = _BANNED_CALLS.get(path)
    if reason is not None:
        return f"call to {path} ({reason}) breaks replay determinism"
    if path.startswith("secrets."):
        return f"call to {path} (OS entropy) breaks replay determinism"
    unseeded = not node.args and not node.keywords
    if path.startswith("random."):
        tail = path[len("random."):]
        if tail == "Random":
            if unseeded:
                return (
                    "random.Random() without an explicit seed; pass the "
                    "seed parameter through"
                )
        elif tail[:1].islower():
            return (
                f"{path} uses the process-global RNG; thread a seeded "
                "random.Random through instead"
            )
    elif path.startswith("numpy.random."):
        tail = path[len("numpy.random."):]
        if tail == "default_rng":
            if unseeded:
                return (
                    "numpy.random.default_rng() without an explicit seed; "
                    "pass the seed parameter through"
                )
        elif tail.split(".")[0] not in _NUMPY_SEEDED:
            return (
                f"{path} uses numpy's process-global RNG; use "
                "numpy.random.default_rng(seed)"
            )
    return None


def _set_iteration(ctx: FileContext, iterable: ast.expr) -> Optional[str]:
    """Message when ``iterable`` is statically known to be an unordered
    set (set display, ``set(...)``/``frozenset(...)`` call, or a set
    comprehension). ``sorted()`` wrapping is the fix and never matches.
    A set built elsewhere at run time is invisible here; the hash-seed
    test in ``tests/experiments`` covers that."""
    if isinstance(iterable, ast.Set):
        return (
            "iterating a set literal: ordering is unspecified and can "
            "leak into replay output; iterate a sorted() or tuple form"
        )
    if isinstance(iterable, ast.SetComp):
        return (
            "iterating a set comprehension: ordering is unspecified; "
            "wrap in sorted() or build a list"
        )
    if isinstance(iterable, ast.Call):
        path = ctx.resolve_call_path(iterable.func)
        if path in ("set", "frozenset"):
            return (
                f"iterating {path}(...): ordering is unspecified and can "
                "leak into replay output; wrap in sorted()"
            )
    return None


# ---------------------------------------------------------------------------
# async-blocking-call
# ---------------------------------------------------------------------------

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


def async_blocking_call(ctx: FileContext) -> Iterator[Hit]:
    """Blocking calls in event-loop context: every ``async def`` body
    and, under ``serve/``, every plain method of an asyncio protocol
    class (``data_received`` and whatever it reaches through
    ``loop.call_soon``). Plain ``def`` bodies are skipped, with any
    ``async def`` inside them: they run on their own terms, often as
    executor targets or test scaffolding."""
    contexts: List[Tuple[str, List[ast.stmt]]] = []
    stack: List[ast.AST] = [ctx.tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, ast.AsyncFunctionDef):
                contexts.append(("async def", child.body))
            if not isinstance(child, ast.FunctionDef):
                stack.append(child)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and _is_serve_protocol(ctx, node):
            contexts.extend(
                (f"asyncio.Protocol method {method.name!r}", method.body)
                for method in node.body
                if isinstance(method, ast.FunctionDef)
            )
    for where, body in contexts:
        pending: List[ast.AST] = list(body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            pending.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                message = _blocking_message(ctx, node, where)
                if message is not None:
                    yield node.lineno, message


def _is_serve_protocol(ctx: FileContext, node: ast.ClassDef) -> bool:
    return (ctx.repro_module or "").startswith("serve.") and any(
        ctx.resolve_call_path(base) in _PROTOCOL_BASES for base in node.bases
    )


def _blocking_message(
    ctx: FileContext, node: ast.Call, where: str
) -> Optional[str]:
    path = ctx.resolve_call_path(node.func)
    if path is None:
        return None
    hint = _BLOCKING_CALLS.get(path)
    if hint is not None:
        return f"blocking call {path} inside {where}; {hint}"
    if path.startswith(_BLOCKING_PREFIXES):
        return f"blocking call {path} inside {where}; run it in an executor"
    if path == "open":
        return (
            f"blocking file open() inside {where}; read it before "
            "entering the event loop or use an executor"
        )
    return None


# ---------------------------------------------------------------------------
# deprecated-event-loop, no-assert-in-src
# ---------------------------------------------------------------------------


def deprecated_event_loop(ctx: FileContext) -> Iterator[Hit]:
    """Any call to ``asyncio.get_event_loop()``."""
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and ctx.resolve_call_path(node.func) == "asyncio.get_event_loop"
        ):
            yield node.lineno, (
                "asyncio.get_event_loop() is deprecated; use "
                "asyncio.get_running_loop() inside coroutines or "
                "asyncio.run() at the top level"
            )


def no_assert_in_src(ctx: FileContext) -> Iterator[Hit]:
    """``assert`` statements anywhere under ``src/repro``."""
    if not ctx.is_src:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, (
                "assert is compiled out under python -O; raise "
                "ConfigurationError/CacheError (or RuntimeError for "
                "internal invariants) instead"
            )


RULES: Dict[str, Callable[[FileContext], Iterator[Hit]]] = {
    "determinism": determinism,
    "async-blocking-call": async_blocking_call,
    "deprecated-event-loop": deprecated_event_loop,
    "no-assert-in-src": no_assert_in_src,
}


def run_rules(files: Sequence[FileContext]) -> List[Finding]:
    """Every rule over every file; findings sorted by path and line."""
    return sorted(
        Finding(ctx.display_path, line, name, message)
        for ctx in files
        for name, rule in RULES.items()
        for line, message in rule(ctx)
    )
