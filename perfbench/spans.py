"""Span tracing of rblab's public functions from outside the package.

`Tracer.install` replaces every binding of each traced function in the
loaded rblab modules with a wrapper. Names copied by `from .x import y`
are separate bindings, and callers look them up where they are bound
(theory's `diamond_distance`, gauge's `agi` and `choi_eigenvalues`, cli's
`choi_eigenvalues`, ...), so every module is scanned for the same function
object. Spans (name, start, end, parent) and exact counts are kept in
memory; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

SPANS = (
    "clifford.build_gateset",
    "protocol.run_rb",
    "protocol.fit_decay",
    "protocol.estimate_r",
    "theory.exact_decay",
    "theory.predicted_decay",
    "theory.build_l_map",
    "theory.gamma_and_r_gamma",
    "theory.delta_diamond",
    "superop.diamond_distance",
    "superop.agi",
    "superop.choi_eigenvalues",
    "gauge.wallman_gauge",
    "gauge.counterexample_epsilon_min",
    "gauge.epsilon_min_search",
    "gauge.agsi_of",
    "cli.run",
)

COUNTS = (
    "protocol.run_rb.gate_apps",
    "protocol.fit_decay.errors",
    "protocol.fit_decay.flagged",
    "theory.exact_decay.fallbacks",
    "cli.run.bytes_written",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


def _count_run_rb(rblab, counts, arguments, result, error):
    if error is None:
        config = arguments["config"]
        counts["protocol.run_rb.gate_apps"] += sum(config.k_per_length * (m + 1) for m in config.lengths)


def _count_fit_decay(rblab, counts, arguments, result, error):
    if isinstance(error, rblab.protocol.FitError):
        counts["protocol.fit_decay.errors"] += 1
    elif error is None and result.flags:
        counts["protocol.fit_decay.flagged"] += 1


def _count_exact_decay(rblab, counts, arguments, result, error):
    if error is None and result[0].weights is None:
        counts["theory.exact_decay.fallbacks"] += 1


def _count_cli_run(rblab, counts, arguments, result, error):
    if error is None:
        files = Path(arguments["out_dir"]).rglob("*")
        counts["cli.run.bytes_written"] += sum(f.stat().st_size for f in files if f.is_file())


_HOOKS = {
    "protocol.run_rb": _count_run_rb,
    "protocol.fit_decay": _count_fit_decay,
    "theory.exact_decay": _count_exact_decay,
    "cli.run": _count_cli_run,
}


class Tracer:
    """Records spans and counts of the functions named in SPANS while
    installed. Single-threaded: the span stack is not locked."""

    def __init__(self, rblab):
        self.rblab = rblab
        self.spans: list[Span] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "rblab" or name.startswith("rblab.")]
        for span in SPANS:
            module_name, attr = span.split(".")
            original = getattr(sys.modules.get(f"rblab.{module_name}"), attr, None)
            if original is None:
                print(f"warning: {span} not found; it is not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, func):
        hook = _HOOKS.get(name)
        signature = inspect.signature(func)
        spans, stack, counts, rblab = self.spans, self._stack, self.counts, self.rblab

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(len(spans))
            spans.append(None)
            index = stack[-1]
            result = error = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                spans[index] = Span(name, start, perf_counter(), parent)
                stack.pop()
                if hook is not None:
                    hook(rblab, counts, signature.bind(*args, **kwargs).arguments, result, error)

        return wrapper

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Per name: total span time minus the time of its direct children.
        The program is single-threaded, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {name: 0.0 for name in SPANS}
        for span, inner in zip(self.spans, child_time):
            totals[span.name] += span.end - span.start - inner
        return totals
