"""Spans taken from outside the program, by wrapping module attributes.

``Tracer.install`` replaces public functions of the ``indivisible`` modules
with timing wrappers at the name their caller looks up: ``cli`` calls
``ser.*``, ``stoch.*``, ``osc.*``, ``corr.*`` and ``emb.*`` through the module
object, and ``stochastic`` imports ``find_nonnegative_solution`` by name, so
the wrapper for the ``lp`` layer goes into ``stochastic``'s namespace.
Nothing under ``src/`` changes.  A wrapped function called from inside its
own module (``parse_hermitian`` calling ``parse_real_matrix``) is passed
through, so each span marks one crossing of a layer boundary.

Spans live in memory as (group, start, end, parent, job) and are
written as JSON lines when the run ends.  Self time is split on a timeline:
at each instant the innermost open spans share the instant equally, which is
the usual "span minus its children" when one thread works and keeps the sum
of self times equal to the root span when ``--jobs 2`` runs two at once.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute, span group); a group name is "<layer>.<kind>".
WRAPPED = [
    ("serialize", "load_json", "serialize.parse"),
    ("serialize", "parse_process", "serialize.parse"),
    ("serialize", "parse_hermitian", "serialize.parse"),
    ("serialize", "parse_complex_matrix", "serialize.parse"),
    ("serialize", "parse_real_matrix", "serialize.parse"),
    ("serialize", "parse_vector", "serialize.parse"),
    ("serialize", "write_json", "serialize.write"),
    ("serialize", "write_csv", "serialize.write"),
    ("serialize", "complex_matrix_payload", "serialize.write"),
    ("stochastic", "divisibility_check", "stochastic.check"),
    ("stochastic", "find_nonnegative_solution", "lp.solve"),
    ("oscillator", "sh_decompose", "oscillator.prep"),
    ("oscillator", "sh_split", "oscillator.prep"),
    ("oscillator", "sh_integrate", "oscillator.integrate"),
    ("oscillator", "sh_energy", "oscillator.post"),
    ("oscillator", "exact_evolve", "oscillator.post"),
    ("oscillator", "sh_recombine", "oscillator.post"),
    ("correspondence", "unistochastic_search", "correspondence.search"),
    ("correspondence", "potential_from_transition", "correspondence.dilate"),
    ("correspondence", "kraus_from_potential", "correspondence.dilate"),
    ("correspondence", "stinespring_dilate", "correspondence.dilate"),
    ("correspondence", "dilation_marginal", "correspondence.dilate"),
    ("correspondence", "quantum_to_stochastic", "correspondence.other"),
    ("correspondence", "hamiltonian_from_evolution", "correspondence.other"),
    ("embed", "integrate_embedded", "embed.integrate"),
    ("embed", "check_time_reversal_invariance", "embed.reversal"),
]
ROOT = "cli.main"


@dataclass
class Span:
    group: str
    start: float
    end: float | None
    parent: int | None
    job: int


class Tracer:
    """``interrupt`` is the exception the job time limit raises; a call it
    cuts short counts as ``<group>.interrupted``, any other exception as
    ``<group>.raised``."""

    def __init__(self, interrupt: type[BaseException]):
        self.interrupt = interrupt
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.job = -1
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, group: str, parent: int | None) -> int:
        span = Span(group, time.perf_counter(), None, parent, self.job)
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    def begin_job(self, job: int) -> None:
        self.job = job
        self.root = self._open(ROOT, None)

    def end_job(self) -> None:
        end = time.perf_counter()
        for span in self.spans[self.root:]:
            if span.end is None:  # interrupted by the job time limit
                span.end = end
        self.root = None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, module: str, group: str, on_return):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if self.root is None or (stack and stack[-1][0] == module):
                return fn(*args, **kwargs)
            idx = self._open(group, stack[-1][1] if stack else self.root)
            stack.append((module, idx))
            try:
                result = fn(*args, **kwargs)
            except self.interrupt:
                self.count(group + ".interrupted")
                raise
            except BaseException:
                self.count(group + ".raised")
                raise
            finally:
                self.spans[idx].end = time.perf_counter()
                stack.pop()
            self.count(group + ".calls")
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result
        return wrapper

    def install(self, package) -> None:
        for module_name, attr, group in WRAPPED:
            module = getattr(package, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            layer = group.split(".")[0]
            setattr(module, attr, self._wrap(fn, layer, group, ON_RETURN.get(attr)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Timeline split of every job's root span among its innermost spans."""
        out = [0.0] * len(self.spans)
        events = []
        for i, span in enumerate(self.spans):
            events.append((span.job, span.start, 1, i))
            events.append((span.job, span.end, 0, i))
        events.sort()
        kids = [0] * len(self.spans)
        open_ = [False] * len(self.spans)
        leaves: set = set()
        prev = None
        for _, t, is_start, i in events:
            if leaves and prev is not None and t > prev:
                share = (t - prev) / len(leaves)
                for j in leaves:
                    out[j] += share
            prev = t
            parent = self.spans[i].parent
            if is_start:
                open_[i] = True
                leaves.add(i)
                if parent is not None:
                    kids[parent] += 1
                    leaves.discard(parent)
            else:
                open_[i] = False
                leaves.discard(i)
                if parent is not None:
                    kids[parent] -= 1
                    if kids[parent] == 0 and open_[parent]:
                        leaves.add(parent)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.group, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "job": s.job}) + "\n")


# ---------------------------------------------------------------------------
# Counts read from return values the wrappers already see
# ---------------------------------------------------------------------------

def _on_lp(tr: Tracer, args, kwargs, result) -> None:
    a = np.asarray(args[0] if args else kwargs["a_ub"])
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b_ub"])
    m, n = a.shape
    k = int(np.count_nonzero(b < 0.0))
    # Computed, not observed: each pivot updates the whole dense tableau.
    tr.count("lp.cell_updates", result.pivots * (m + 1) * (n + m + k + 1))
    tr.count("lp.pivots", result.pivots)
    with tr._lock:
        tr.counts["lp.pivots_max"] = max(tr.counts.get("lp.pivots_max", 0),
                                         result.pivots)
    tr.count("lp." + result.status)


def _on_verdict(tr: Tracer, args, kwargs, result) -> None:
    tr.count("stochastic." + result.status)


def _on_search(tr: Tracer, args, kwargs, result) -> None:
    tr.count("correspondence." + result.status)


def _steps(args, kwargs, at: int) -> int:
    dt = args[at] if len(args) > at else kwargs["dt"]
    duration = args[at + 1] if len(args) > at + 1 else kwargs["duration"]
    return max(1, int(round(duration / dt)))


def _on_sh_integrate(tr: Tracer, args, kwargs, result) -> None:
    tr.count("oscillator.steps", _steps(args, kwargs, 2))
    tr.count("oscillator.samples", len(result))


def _on_embed(tr: Tracer, args, kwargs, result) -> None:
    tr.count("embed.steps", _steps(args, kwargs, 3))


ON_RETURN = {"find_nonnegative_solution": _on_lp, "divisibility_check": _on_verdict,
             "unistochastic_search": _on_search, "sh_integrate": _on_sh_integrate,
             "integrate_embedded": _on_embed}
