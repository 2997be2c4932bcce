"""Span tracer for the traced benchmark run.

The program is traced from outside: every public module-level function of
every boostcycles module is replaced by a wrapper that records its calls,
its wall time and its self time (wall time minus the time of the wrapped
spans it called). Modules bind each other's functions by `from ... import`,
so a wrapper replaces every module binding of the original function, not
only the one in the defining module.

Span names are `<module>.<function>`; cli's command handlers `cmd_<name>`
are named by their command (`cli.analyze`). Nothing is wrapped that a later
version of the program no longer has: callers ask `wrapped` which names
exist and report the others as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from typing import Callable, Dict, List, Optional

# Public functions left unwrapped, so their time counts to their caller:
# - per-element scalar helpers, whose cost per call is close to a wrapper's
#   own (about 1 us); wrapping them would inflate the traced job by ~10%;
# - the steps inside save_trace, load_trace and save_figure, so that those
#   spans carry the whole trace write, trace read and figure render.
UNWRAPPED = frozenset(
    {
        "simplex.edge_dot",
        "simplex.is_exact",
        "farey.square_free_decompose",
        "farey.inv_L",
        "farey.inv_R",
        "traceio.dumps_trace",
        "traceio.trace_to_dict",
        "traceio.loads_trace",
        "traceio.trace_from_dict",
        "figures.render_line_chart",
    }
)

# Methods traced under a layer name: the weight-vector validation that runs
# on every construction, and (as a count only) the canonical-rotation calls
# that enumerate_orbits makes per word.
WEIGHT_CHECKS = "simplex.weight_checks"
CANONICALISED = "farey.words_canonicalised"


class Tracer:
    """Per-span calls, self and total nanoseconds, plus exact counters, for
    the calls made since the last reset()."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # open spans as [name, child_ns]
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.hook_errors: List[str] = []
        self.wrapped: set = set()
        self._patches: List[tuple] = []  # (owner, attribute, original)

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.total_ns.clear()
        self.counters.clear()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def parent(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        stack, calls, self_ns, total_ns = self.stack, self.calls, self.self_ns, self.total_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] = calls.get(name, 0) + 1
                self_ns[name] = self_ns.get(name, 0) + elapsed - frame[1]
                total_ns[name] = total_ns.get(name, 0) + elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                # a hook that no longer fits the program's signatures must
                # not stop the run; it is reported instead
                try:
                    hook(self, parent, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - reported, run goes on
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, package) -> None:
        """Wrap the package's public functions and the two traced methods."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr.removeprefix('cmd_')}"
                if name in UNWRAPPED:
                    continue
                wrappers[id(obj)] = (obj, self.span(name, obj, HOOKS.get(name)))
                self.wrapped.add(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])

        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        weight_vector = getattr(by_name.get("simplex"), "WeightVector", None)
        if weight_vector is not None and "__post_init__" in vars(weight_vector):
            self._patch(weight_vector, "__post_init__",
                        self.span(WEIGHT_CHECKS, weight_vector.__post_init__))
            self.wrapped.add(WEIGHT_CHECKS)

        farey_word = getattr(by_name.get("farey"), "FareyWord", None)
        if farey_word is not None and "canonical" in vars(farey_word):
            canonical = farey_word.canonical

            @functools.wraps(canonical)
            def counted(word):
                if self.parent() == "farey.enumerate_orbits":
                    self.count(CANONICALISED)
                return canonical(word)

            self._patch(farey_word, "canonical", counted)
            self.wrapped.add(CANONICALISED)


def _boost_result(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.count("iterations", len(result))


def _cycle_result(tracer: Tracer, parent, args, kwargs, result) -> None:
    # only the detections the CLI asks for; lattice_agreement re-detects
    # internally on the same trace
    if parent is None or not parent.startswith("cli."):
        return
    n = len(args[0] if args else kwargs["trace"])
    tracer.count("cycle_iters", n)
    if result is not None:
        tracer.count("post_cycle_iters", n - result.phase)


def _saved(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.count("bytes_written", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _loaded(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.count("bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))


def _orbits(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.count("classes", len(result))


HOOKS = {
    "engine.run": _boost_result,
    "learners.run_on_dataset": _boost_result,
    "cycles.detect_cycle": _cycle_result,
    "traceio.save_trace": _saved,
    "traceio.load_trace": _loaded,
    "farey.enumerate_orbits": _orbits,
}
