"""Determinism rules for the replay path.

Replay results must be bit-identical run to run at a fixed seed -- the
whole parity discipline (worktree table diffs, Hypothesis oracles)
depends on it. Wall-clock reads, the process-global ``random`` module,
OS entropy and unordered ``set`` iteration all smuggle run-to-run
variation into tables, so they are banned statically inside the replay
packages (``cache/``, ``cluster/``, ``workloads/``, ``sim/``, ``core/``,
``allocation/``, ``profiling/``). RNGs there must be constructed from an
explicit seed (``random.Random(seed)``,
``numpy.random.default_rng(seed)``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.engine import FileContext, Finding, Rule

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


class DeterminismRule(Rule):
    name = "determinism"
    summary = (
        "replay-path modules (cache/, cluster/, workloads/, sim/, core/, "
        "allocation/, profiling/) must not read wall clock or OS "
        "entropy, use the process-global random module, construct "
        "unseeded RNGs, or iterate unordered sets"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.is_replay_path:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                message = self._check_call(ctx, node)
                if message is not None:
                    yield Finding(
                        ctx.display_path, node.lineno, self.name, message
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                message = _set_iteration(ctx, node.iter)
                if message is not None:
                    yield Finding(
                        ctx.display_path, node.iter.lineno, self.name, message
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    message = _set_iteration(ctx, generator.iter)
                    if message is not None:
                        yield Finding(
                            ctx.display_path,
                            generator.iter.lineno,
                            self.name,
                            message,
                        )

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Optional[str]:
        path = ctx.resolve_call_path(node.func)
        if path is None:
            return None
        reason = _BANNED_CALLS.get(path)
        if reason is not None:
            return f"call to {path} ({reason}) breaks replay determinism"
        if path.startswith("secrets."):
            return f"call to {path} (OS entropy) breaks replay determinism"
        if path.startswith("random."):
            tail = path[len("random."):]
            if tail == "Random":
                if not node.args and not node.keywords:
                    return (
                        "random.Random() without an explicit seed; pass "
                        "the seed parameter through"
                    )
                return None
            if tail[:1].islower():
                return (
                    f"{path} uses the process-global RNG; thread a seeded "
                    "random.Random through instead"
                )
            return None
        if path.startswith("numpy.random."):
            tail = path[len("numpy.random."):]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    return (
                        "numpy.random.default_rng() without an explicit "
                        "seed; pass the seed parameter through"
                    )
                return None
            if tail.split(".")[0] not in _NUMPY_SEEDED:
                return (
                    f"{path} uses numpy's process-global RNG; use "
                    "numpy.random.default_rng(seed)"
                )
        return None


def _set_iteration(ctx: FileContext, iterable: ast.AST) -> Optional[str]:
    """Message when ``iterable`` is statically known to be an unordered
    set (set display, ``set(...)``/``frozenset(...)`` call, or a set
    comprehension); None otherwise. ``sorted()`` wrapping is the fix and
    naturally never matches here."""
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
