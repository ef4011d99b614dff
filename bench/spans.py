"""Span tracing of the monideal layers, installed from outside the package.

``Tracer.installed()`` replaces each traced public function at every module
that holds a reference to it (``minimal_transversals`` lives in ``bitsets``
and is imported by name into ``complexes`` and ``covers``;
``is_cohen_macaulay`` into ``invariants`` and ``cli``) and each traced method
on its class, and puts the originals back on exit.  Every call becomes a span
``[name, start, end, parent, ideal, value, key]`` kept in memory: ``parent``
is the index of the enclosing span (-1 at top level), ``ideal`` the corpus
index of the CLI call being measured, ``value`` a count taken from the
result, and ``key`` a hash of the input for the repetition ratios.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, function, span name)
FUNCTIONS = (
    ("monideal.bitsets", "minimal_transversals", "covers.minimal_transversals"),
    ("monideal.homology", "reduced_betti_numbers", "homology.reduced_betti_numbers"),
    ("monideal.homology", "is_cohen_macaulay", "homology.is_cohen_macaulay"),
    ("monideal.invariants", "depth", "invariants.depth"),
    ("monideal.invariants", "is_sequentially_cm", "invariants.is_sequentially_cm"),
    ("monideal.invariants", "verify_main_theorem", "invariants.verify_main_theorem"),
    ("monideal.betti", "hochster_betti_table", "betti.hochster_betti_table"),
    ("monideal.polarization", "polarize", "polarization.polarize"),
    ("monideal.families", "generate", "families.generate"),
    ("monideal.cli", "main", "cli.main"),
)

COMPLEX_METHODS = ("faces_by_dim", "link", "skeleton", "pure_skeleton", "restrict")

# (module, class, method, span name)
METHODS = (
    ("monideal.complexes", "SquareFreeIdeal", "stanley_reisner_complex",
     "complexes.stanley_reisner_complex"),
    *(("monideal.complexes", "SimplicialComplex", m, f"complexes.{m}")
      for m in COMPLEX_METHODS),
    ("monideal.parsing", "IdealSource", "from_text", "parsing.from_text"),
)

# Inputs that may be one-shot iterators are materialized before the call.
PREPARE = {
    "covers.minimal_transversals": lambda args: (tuple(args[0]),) + args[1:],
}

VALUE = {
    "covers.minimal_transversals": lambda args, out: len(out),
    "complexes.faces_by_dim": lambda args, out: sum(map(len, out.values())),
    "homology.is_cohen_macaulay": lambda args, out: int(out),
    # entries come from restrictions, except beta[0, empty] = 1
    "betti.hochster_betti_table": lambda args, out: len(out.entries) - 1,
    "polarization.polarize": lambda args, out: out.target.n - out.source.n,
}

KEY = {
    "covers.minimal_transversals": lambda args: hash((args[1], frozenset(args[0]))),
    "complexes.faces_by_dim": lambda args: hash((args[0].n, args[0].facets)),
}


def _calls_s(name):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]


# Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    *_calls_s("covers.minimal_transversals"),
    ("covers.minimal_transversals.out", "count", "lower"),
    ("covers.minimal_transversals.distinct_frac", "ratio", "higher"),
    *_calls_s("complexes.stanley_reisner_complex"),
    *(metric for m in COMPLEX_METHODS for metric in _calls_s(f"complexes.{m}")),
    ("complexes.faces_by_dim.faces", "count", "lower"),
    ("complexes.faces_by_dim.distinct_frac", "ratio", "higher"),
    *_calls_s("homology.reduced_betti_numbers"),
    ("homology.reduced_betti_numbers.self_s", "s", "lower"),
    ("homology.reduced_betti_numbers.cols", "count", "lower"),
    ("homology.reduced_betti_numbers.max_faces", "count", "lower"),
    *_calls_s("homology.is_cohen_macaulay"),
    ("homology.is_cohen_macaulay.true_frac", "ratio", "higher"),
    ("homology.is_cohen_macaulay.betti_per_link", "ratio", "lower"),
    *_calls_s("invariants.depth"),
    *_calls_s("invariants.is_sequentially_cm"),
    *_calls_s("invariants.verify_main_theorem"),
    *_calls_s("betti.hochster_betti_table"),
    ("betti.restrictions", "count", "lower"),
    ("betti.nonzero_frac", "ratio", "higher"),
    *_calls_s("parsing.from_text"),
    *_calls_s("polarization.polarize"),
    ("polarization.polarize.added_vars", "count", "lower"),
    ("families.generate.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    """Collects spans while installed; ``ideal`` tags the spans of one call."""

    def __init__(self):
        self.spans: list[list] = []
        self.ideal = -1
        self.sites: dict[str, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        prepare, value_of, key_of = PREPARE.get(name), VALUE.get(name), KEY.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.ideal, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if value_of is not None:
                span[5] = value_of(args, out)
            if key_of is not None:
                span[6] = key_of(args)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        # import every traced module first, so that no module imports a
        # name while some of its sources are already patched
        for module_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module_name)
        try:
            for module_name, attr, name in FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original)
                for site_name, site in list(sys.modules.items()):
                    if site_name != "monideal" and not site_name.startswith("monideal."):
                        continue
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._patch(site, key, wrapper)
                            if site_name not in self.sites[name]:
                                self.sites[name].append(site_name)
            for module_name, cls_name, attr, name in METHODS:
                cls = getattr(sys.modules[module_name], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))
                if cls.__module__ not in self.sites[name]:
                    self.sites[name].append(cls.__module__)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def write(self, path: Path):
        """Write the spans as gzipped tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\tideal\tvalue\n")
            for i, (name, start, end, parent, ideal, value, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{ideal}\t{value}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded (traced run only)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        value: Counter = Counter()
        keys: dict[str, set] = defaultdict(set)
        # counts of child spans by (parent name, child name), and the faces
        # each reduced_betti_numbers span enumerated
        nested: Counter = Counter()
        faces_under = [0] * len(spans)
        for name, start, end, parent, _, v, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                nested[spans[parent][0], name] += 1
                if name == "complexes.faces_by_dim":
                    # every nonempty face is one boundary column
                    faces_under[parent] += v - 1
        for i, (name, start, end, _, ideal, v, key) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_s[i]
            value[name] += v
            if key is not None:
                keys[name].add((ideal, key))
        betti_cols = [
            faces_under[i]
            for i, span in enumerate(spans)
            if span[0] == "homology.reduced_betti_numbers"
        ]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in {n for _, _, n in FUNCTIONS} | {m[3] for m in METHODS}:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for name in ("covers.minimal_transversals", "complexes.faces_by_dim"):
            out[f"{name}.distinct_frac"] = ratio(len(keys[name]), calls[name])
        out["covers.minimal_transversals.out"] = value["covers.minimal_transversals"]
        out["complexes.faces_by_dim.faces"] = value["complexes.faces_by_dim"]
        out["homology.reduced_betti_numbers.self_s"] = own["homology.reduced_betti_numbers"]
        out["homology.reduced_betti_numbers.cols"] = sum(betti_cols)
        out["homology.reduced_betti_numbers.max_faces"] = max(betti_cols, default=0)
        cm = "homology.is_cohen_macaulay"
        out[f"{cm}.true_frac"] = ratio(value[cm], calls[cm])
        out[f"{cm}.betti_per_link"] = ratio(
            nested[cm, "homology.reduced_betti_numbers"], nested[cm, "complexes.link"]
        )
        out["betti.restrictions"] = nested["betti.hochster_betti_table", "complexes.restrict"]
        out["betti.nonzero_frac"] = ratio(
            value["betti.hochster_betti_table"], out["betti.restrictions"]
        )
        out["polarization.polarize.added_vars"] = value["polarization.polarize"]
        out["cli.self_s"] = own["cli.main"]
        return out
