"""Layer clock for the holdemlab benchmark, applied from outside the program.

While installed, the public functions and methods listed in TARGETS are
replaced by wrappers that record one span per call: (name, start, end,
parent span, hand id, rows). Spans stay in memory until the run ends. A
function bound into several modules by `from ... import` is replaced in
every holdemlab module that holds it, and `uninstall` puts back the
original objects, so the untraced program is never touched.
"""
from __future__ import annotations

import sys
import time

# (module, attribute) pairs; "Class.method" wraps a method on the class.
TARGETS = (
    ("table", "play_hand"),
    ("table", "BotPolicy.__call__"),
    ("table", "parse_history"),
    ("session", "run_fastfold_session"),
    ("session", "HeroSeatPolicy.on_action"),
    ("session", "HeroSeatPolicy.on_street"),
    ("session", "HeroSeatPolicy.on_showdown"),
    ("session", "HeroSeatPolicy.on_end"),
    ("session", "HeroSeatPolicy.__call__"),
    ("profiles", "ProfileStore.record_event"),
    ("brain", "Brain.begin_hand"),
    ("brain", "Brain.observe_villain_preflop"),
    ("brain", "Brain.observe_hero_action"),
    ("brain", "Brain.observe_new_street"),
    ("brain", "Brain.observe_villain_action"),
    ("brain", "Brain.decide"),
    ("rsm", "BoardContext.cached"),
    ("rsm", "BoardContext.__init__"),
    ("rsm", "RsmTable.query"),
    ("rets", "reshape"),
    ("rets", "chib"),
    ("cards", "equity_vs_range"),
    ("cards", "score_cards_batch"),
    ("rangegrid", "assign_preflop_range"),
    ("learning", "records_from_snapshots"),
    ("learning", "apply_learning"),
    ("metrics", "_equity_multiway"),
    ("metrics", "all_in_adjusted"),
    ("metrics", "ledger_from_records"),
    ("metrics", "TrialReport.from_ledger"),
)

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, HAND, ROWS = range(6)


def _rows(name, args):
    # Rows scored: the evaluator takes an (n, k) card array first.
    return len(args[0]) if name == "cards.score_cards_batch" else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.hand_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.hand_id, _rows(name, args)]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "holdemlab" or n.startswith("holdemlab.")]
        for mod_name, attr in TARGETS:
            mod = sys.modules[f"holdemlab.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            raw = mod.__dict__[attr]
            new = self.wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._restore.append((m, key, raw))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, raw = self._restore.pop()
            setattr(owner, key, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, list]]:
        """Per span name: inclusive durations, self durations (duration
        minus the time covered by direct child spans, which nest and so
        never overlap) and rows, all in nanoseconds/counts."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, list]] = {}
        for i, s in enumerate(self.spans):
            d = out.setdefault(s[NAME], {"dur": [], "self": [], "rows": []})
            dur = s[END] - s[START]
            d["dur"].append(dur)
            d["self"].append(dur - child[i])
            d["rows"].append(s[ROWS])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\thand\trows\n")
            for s in self.spans:
                f.write("\t".join(str(x) for x in s) + "\n")


def snapshot_targets() -> dict[tuple[str, str], object]:
    """Every binding of a TARGETS object: class attributes, and each
    holdemlab module name that refers to a wrapped function. Compare two
    snapshots with `is` to prove a run left the program untouched."""
    snap = {}
    functions = []
    for mod_name, attr in TARGETS:
        mod = sys.modules[f"holdemlab.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            snap[(mod_name, attr)] = getattr(mod, cls_name).__dict__[meth]
        else:
            functions.append(mod.__dict__[attr])
    for n, m in sorted(sys.modules.items()):
        if n == "holdemlab" or n.startswith("holdemlab."):
            for key, value in vars(m).items():
                if any(value is f for f in functions):
                    snap[(n, key)] = value
    return snap
