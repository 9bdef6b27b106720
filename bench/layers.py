"""Per-layer tracing by wrapping braidcover's public functions from outside.

Every target below is replaced, in the forked worker only, by a wrapper
that counts calls and self time: a call's duration minus the time covered
by the wrapped calls it made.  Coarse calls also record a span (name,
start, end, enclosing span), so one op's spans can be read as a tree.
Per-construction calls such as `EdgePath.__post_init__`, which runs
hundreds of thousands of times per stress op, only aggregate, so the
trace's memory stays bounded.

A target that is missing (a later version removed or renamed it) is
reported as absent and its counters stay 0; the run goes on.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, NamedTuple


def _word_out(args, result):
    return len(result.codes), None


def _apply(args, result):
    images = args[0].images
    return len(result.codes), sum(len(images[abs(c) - 1].codes) for c in args[1].codes)


def _multiply(args, result):
    return len(result.codes), len(args[0].codes) + len(args[1].codes)


def _compose(args, result):
    return sum(len(image.codes) for image in result.images), None


def _format_word(args, result):
    return len(args[0].codes), None


def _path(args, result):
    return len(result.steps), None


def _apply_functor(args, result):
    images = args[0].edge_images
    return len(result.steps), sum(len(images[abs(s) - 1].steps) for s in args[1].steps)


def _loop_to_word(args, result):
    # a non-tree step over e[i,j] (0 < i < n, j >= 2) expands to j-1 letters
    p = args[0]
    d, n = p.d, p.n
    expanded = 0
    for s in p.steps:
        level, sheet = divmod(abs(s) - 1, d)
        if 0 < level < n:
            expanded += sheet
    return len(result.codes), expanded


class Target(NamedTuple):
    module: str
    attr: str  # attribute path inside the module
    name: str  # metric name inside the module
    span: bool = False  # coarse call: also record a span
    letters: Callable | None = None  # (args, result) -> (letters out, letters expanded)
    kept: bool = False  # report letters out / letters expanded
    cached: bool = False  # lru-cached: report the hit ratio


TARGETS = (
    Target("words", "apply", "apply", letters=_apply, kept=True),
    Target("words", "compose", "compose", letters=_compose),
    Target("words", "multiply", "multiply", letters=_multiply, kept=True),
    Target("words", "reduce", "reduce", letters=_word_out),
    Target("words", "abelianize", "abelianize"),
    Target("words", "format_word", "format_word", letters=_format_word),
    Target("words", "FreeAutomorphism.__post_init__", "FreeAutomorphism.init"),
    Target("groupoid", "EdgePath.__post_init__", "EdgePath.init"),
    Target("groupoid", "GroupoidFunctor.__post_init__", "GroupoidFunctor.init"),
    Target("groupoid", "path", "path", letters=_path),
    Target("groupoid", "apply_functor", "apply_functor", letters=_apply_functor, kept=True),
    Target("groupoid", "compose_functors", "compose_functors"),
    Target("groupoid", "lifted_half_twist", "lifted_half_twist", cached=True),
    Target("groupoid", "lifted_half_twist_inverse", "lifted_half_twist_inverse", cached=True),
    Target("groupoid", "dehn_twist", "dehn_twist", cached=True),
    Target("groupoid", "verify_lift", "verify_lift", span=True),
    Target("pi1", "functor_to_automorphism", "functor_to_automorphism", span=True),
    Target("pi1", "loop_to_word", "loop_to_word", letters=_loop_to_word, kept=True),
    Target("braid", "half_twist_action", "half_twist_action", cached=True),
    Target("braid", "conjugate_twist_action", "conjugate_twist_action", span=True, cached=True),
    Target("braid", "generator_action", "generator_action", cached=True),
    Target("braid", "dehn_twist_product", "dehn_twist_product", span=True, cached=True),
    Target("braid", "evaluate", "evaluate", span=True),
    Target("braid", "check_braid_relations", "check_braid_relations", span=True),
    Target("braid", "check_dehn_factorization", "check_dehn_factorization", span=True),
    Target("braid", "check_lift_projection", "check_lift_projection", span=True),
    Target("braid", "check_cross_validation", "check_cross_validation", span=True),
    Target("cli", "main", "main", span=True),
)


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        key = f"{t.module}.{t.name}"
        out.append((f"{key}.calls", "count", "lower"))
        out.append((f"{key}.self_s", "s", "lower"))
        if t.letters:
            out.append((f"{key}.letters_out", "letters", "lower"))
        if t.kept:
            out.append((f"{key}.kept_ratio", "ratio", "higher"))
        if t.cached:
            out.append((f"{key}.cache_hit_ratio", "ratio", "higher"))
    out += [
        ("trace.self_total_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.absent_functions", "count", "lower"),
    ]
    return out


class Tracer:
    """Counters and spans of one worker; install() patches its modules."""

    def __init__(self) -> None:
        # name -> [calls, self_s, letters_out, letters_expanded, unmeasured calls]
        self.stats: dict[str, list] = {}
        self.cached: dict[str, object] = {}
        self.absent: list[str] = []
        self.spans: list = []  # [name, start, end, enclosing span index or -1]
        self.root_self_s = 0.0
        self._frames = [0.0]  # time covered by wrapped callees, per open call
        self._open = [-1]  # index of the innermost open span
        self._origin = perf_counter()

    def install(self, modules: dict) -> None:
        for t in TARGETS:
            key = f"{t.module}.{t.name}"
            self.stats[key] = [0, 0.0, 0, 0, 0]
            owner = modules.get(t.module)
            *parents, last = t.attr.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, last, None)
            if owner is None or not callable(fn):
                self.absent.append(key)
                continue
            if hasattr(fn, "cache_info"):
                self.cached[key] = fn
            wrap = self._span if t.span else self._measured if t.letters else self._counter
            setattr(owner, last, wrap(fn, self.stats[key], key, t.letters))

    def op(self, label: str, fn):
        """Run one op as a root span; returns (result, seconds)."""
        frames = self._frames
        frames[0] = 0.0
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.spans[index] = [label, t0 - self._origin, t1 - self._origin, -1]
            self.root_self_s += t1 - t0 - frames[0]
        return result, t1 - t0

    def report(self) -> dict:
        cache = {}
        for key, fn in self.cached.items():
            info = fn.cache_info()
            cache[key] = [info.hits, info.misses]
        return {"stats": self.stats, "cache": cache, "absent": self.absent,
                "spans": self.spans, "root_self_s": self.root_self_s}

    def _counter(self, fn, st, key, measure):
        frames = self._frames

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[1] += dt - frames.pop()
                frames[-1] += dt
                st[0] += 1

        return wrapper

    def _measured(self, fn, st, key, measure):
        frames = self._frames

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[1] += dt - frames.pop()
                frames[-1] += dt
                st[0] += 1
            # counting letters is tracing overhead: nobody's self time
            t1 = perf_counter()
            try:
                out, expanded = measure(args, result)
            except (AttributeError, TypeError, IndexError):
                st[4] += 1  # the value no longer has the shape counted here
            else:
                st[2] += out
                st[3] += expanded or 0
            frames[-1] += perf_counter() - t1
            return result

        return wrapper

    def _span(self, fn, st, key, measure):
        frames, spans, open_, origin = self._frames, self.spans, self._open, self._origin

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(index)
            frames.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                st[1] += dt - frames.pop()
                frames[-1] += dt
                st[0] += 1
                open_.pop()
                spans[index] = [key, t0 - origin, t1 - origin, parent]

        return wrapper
