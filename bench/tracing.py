"""Span tracing of amalgext from outside the package.

The tracer wraps a fixed list of amalgext functions and methods (the table
``WRAPPED``).  A wrapped call records a span: name, start, end and the span
that was open when it started.  Spans are kept in memory; ``write`` saves
them.  A few very hot functions are only counted, without a span.

Module-level functions are replaced in every amalgext module that holds them,
because callers import them by name (``from amalgext.mayer_vietoris import
ext_G``); methods are replaced on their class.  ``installed()`` restores
everything on exit.

A span's self time is its duration minus the durations of its child spans.
Work in functions that are not wrapped counts toward the nearest wrapped
caller.  Because ``cli.run`` is the root of every operation, the self times
of one operation add up to the root span's duration.  ``trace.layer_share``
is the share of that duration outside ``cli.run``'s own self time, so it
drops when work moves into code that no wrapped function accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

SPAN, COUNT = "span", "count"

# (module, qualified name, kind); names of spans are "<module>.<qualname>"
WRAPPED = [
    ("cli", "run", SPAN),
    ("cli", "build_parser", SPAN),
    ("instfile", "parse", SPAN),
    ("instfile", "InstanceFile.build", SPAN),
    ("groups", "FiniteGroup.from_permutations", SPAN),
    ("groups", "FiniteGroup.right_cosets", SPAN),
    ("groups", "SubgroupEmbedding.validate", SPAN),
    ("reps", "module_from_generators", SPAN),
    ("reps", "KModule.validate", SPAN),
    ("reps", "hom_space", SPAN),
    ("reps", "restrict_module", SPAN),
    ("amalgam", "AmalgamDatum.__init__", SPAN),
    ("amalgam", "AmalgamDatum.ball", SPAN),
    ("amalgam", "AmalgamDatum.canon_with_witness", SPAN),
    ("amalgam", "AmalgamDatum.multiply", COUNT),
    ("tree", "build_ball", SPAN),
    ("tree", "chain_complex", SPAN),
    ("tree", "TreeBall.is_forest", SPAN),
    ("tree", "TreeBall.is_connected", SPAN),
    ("induction", "grep_from_generators", SPAN),
    ("induction", "trivial_grep", SPAN),
    ("induction", "GRep.module", SPAN),
    ("induction", "mv_truncated_check", SPAN),
    ("induction", "gamma", SPAN),
    ("induction", "pi", SPAN),
    ("resolutions", "free_resolution", SPAN),
    ("resolutions", "FreeResolution.extend", SPAN),
    ("resolutions", "FreeResolution.diff_operator", SPAN),
    ("resolutions", "AlgebraMatrix.mul", SPAN),
    ("resolutions", "AlgebraMatrix.map_entries", SPAN),
    ("resolutions", "coefficient_delta", SPAN),
    ("resolutions", "ext_finite", SPAN),
    ("mayer_vietoris", "MVComplex.__init__", SPAN),
    ("mayer_vietoris", "MVComplex.cohomology_dim", SPAN),
    ("mayer_vietoris", "chain_lift_pi", SPAN),
    ("mayer_vietoris", "ext_G", SPAN),
    ("mayer_vietoris", "verify_les", SPAN),
    ("mayer_vietoris", "hom_sequence_check", SPAN),
    ("mayer_vietoris", "hom_G_direct", SPAN),
    ("mayer_vietoris", "abelianized_hom_dim", SPAN),
    ("linalg", "is_prime", SPAN),
    ("linalg", "subquotient_dim", SPAN),
    ("linalg", "Field.rref", SPAN),
    ("linalg", "Field.rank", SPAN),
    ("linalg", "Field.kernel_basis", SPAN),
    ("linalg", "Field.kernel_matrix", SPAN),
    ("linalg", "Field.solve", SPAN),
    ("linalg", "Field.in_column_span", SPAN),
    ("linalg", "Field.columns_contained", SPAN),
]

MODULES = sorted({module for module, _, _ in WRAPPED})

# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "linalg.rref_s": ["linalg.Field.rref"],
    "resolutions.extend_s": ["resolutions.FreeResolution.extend"],
    "resolutions.coefficient_delta_s": ["resolutions.coefficient_delta"],
    "mayer_vietoris.lift_s": ["mayer_vietoris.chain_lift_pi"],
    "mayer_vietoris.cone_s": ["mayer_vietoris.MVComplex.__init__"],
    "mayer_vietoris.cohomology_s": ["mayer_vietoris.MVComplex.cohomology_dim"],
    "amalgam.ball_s": ["amalgam.AmalgamDatum.ball"],
    "tree.build_ball_s": ["tree.build_ball"],
    "induction.mv_check_s": ["induction.mv_truncated_check"],
    "instfile.parse_s": ["instfile.parse"],
    "instfile.build_s": ["instfile.InstanceFile.build"],
    "reps.hom_space_s": ["reps.hom_space"],
}

# per-layer metric -> span name whose whole duration it sums (it never nests in itself)
TOTAL_TIMES = {
    "resolutions.extend_total_s": "resolutions.FreeResolution.extend",
    "mayer_vietoris.lift_total_s": "mayer_vietoris.chain_lift_pi",
}

# per-layer metric -> names whose calls it counts
CALLS = {
    "linalg.rref_calls": ["linalg.Field.rref"],
    "linalg.solve_calls": ["linalg.Field.solve"],
    "linalg.span_tests": ["linalg.Field.in_column_span", "linalg.Field.columns_contained"],
    "amalgam.canon_calls": ["amalgam.AmalgamDatum.canon_with_witness"],
    "amalgam.multiply_calls": ["amalgam.AmalgamDatum.multiply"],
    "induction.gamma_calls": ["induction.gamma"],
}


def _shape_cells(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) != 2:
        return 0
    return int(shape[0]) * int(shape[1])


class Tracer:
    """Spans and counters of traced operations; one operation is one ``cli.run``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start ns, end ns, parent span index or -1, operation index]
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.calls: dict[str, list[int]] = {}  # name -> [calls], a cell cheap to bump
        self.rref_cells: list[int] = []
        self.lift_solves = 0
        self.resolutions: dict[int, object] = {}  # resolutions built in the current op
        self.rank_sums: list[int] = []
        self.max_rank = 0
        self.ops = 0
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, hook):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack
        calls = self.calls.setdefault(name, [0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [nid, 0, 0, parent, self.ops]
            stack.append(len(spans))
            spans.append(rec)
            calls[0] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, parent)
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        lift_id = self._name_id("mayer_vietoris.chain_lift_pi")

        def on_rref(args, result, parent):
            self.rref_cells.append(_shape_cells(args[1]))

        def on_solve(args, result, parent):
            if parent >= 0 and self.spans[parent][0] == lift_id:
                self.lift_solves += 1

        def on_extend(args, result, parent):
            res = args[0]
            self.resolutions[id(res)] = res

        def on_op(args, result, parent):
            ranks = [r for res in self.resolutions.values() for r in res.ranks]
            self.rank_sums.append(sum(ranks))
            self.max_rank = max([self.max_rank] + ranks)
            self.resolutions.clear()
            self.ops += 1

        return {
            "linalg.Field.rref": on_rref,
            "linalg.Field.solve": on_solve,
            "resolutions.FreeResolution.extend": on_extend,
            "cli.run": on_op,
        }

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED for the duration of the block."""
        hooks = self._hooks()
        try:
            for module_name, qualname, kind in WRAPPED:
                hook = hooks.get(f"{module_name}.{qualname}")
                make = functools.partial(self._span, hook=hook) if kind == SPAN else self._count
                self._wrap(module_name, qualname, make)
            yield self
        finally:
            for owner, attr, value in reversed(self._restore):
                setattr(owner, attr, value)
            self._restore.clear()

    def _wrap(self, module_name, qualname, make):
        module = importlib.import_module(f"amalgext.{module_name}")
        name = f"{module_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(name, raw.__func__)))
            else:
                setattr(cls, attr, make(name, raw))
            self._restore.append((cls, attr, raw))
            return
        original = getattr(module, qualname)
        wrapper = make(name, original)
        for mod in [m for n, m in sys.modules.items() if n.startswith("amalgext")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name over every traced operation."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals: Counter = Counter()
        for s, ns in zip(self.spans, own):
            totals[self.names[s[0]]] += ns
        return {name: ns / 1e9 for name, ns in totals.items()}

    def duration(self, name: str, parent: str | None = None) -> float:
        """Seconds spent inside spans named `name`; with `parent`, only those directly under it."""
        nid = self._ids.get(name)
        pid = self._ids.get(parent, -2)
        ns = 0
        for s in self.spans:
            if s[0] == nid and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == pid)):
                ns += s[2] - s[1]
        return ns / 1e9

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation means (sums and counts) and run maxima, with units."""
        ops = max(self.ops, 1)
        own = self.self_times()
        out = {}
        for module in MODULES:
            total = sum(v for k, v in own.items() if k.split(".", 1)[0] == module)
            out[f"{module}.self_s"] = (total / ops, "s")
        for metric, names in SELF_TIMES.items():
            out[metric] = (sum(own.get(n, 0.0) for n in names) / ops, "s")
        for metric, name in TOTAL_TIMES.items():
            out[metric] = (self.duration(name) / ops, "s")
        # the LES node ranks: verify_les less the MVComplex it builds
        les = self.duration("mayer_vietoris.verify_les") - self.duration(
            "mayer_vietoris.MVComplex.__init__", parent="mayer_vietoris.verify_les")
        out["mayer_vietoris.les_nodes_s"] = (les / ops, "s")
        for metric, names in CALLS.items():
            out[metric] = (sum(self.calls.get(n, [0])[0] for n in names) / ops, "count")
        out["linalg.rref_cells"] = (sum(self.rref_cells) / ops, "count")
        out["linalg.rref_max_cells"] = (max(self.rref_cells, default=0), "count")
        out["mayer_vietoris.lift_solves"] = (self.lift_solves / ops, "count")
        out["resolutions.rank_sum"] = (sum(self.rank_sums) / ops, "count")
        out["resolutions.max_rank"] = (self.max_rank, "count")
        # the rest is cli.run's own code: argv parsing, dispatch, report text and
        # whatever it calls that is not wrapped
        ops_ns = sum(s[2] - s[1] for s in self.spans if s[3] == -1)
        attributed = sum(own.values()) - own.get("cli.run", 0.0)
        out["trace.layer_share"] = (attributed / (ops_ns / 1e9) if ops_ns else 0.0, "ratio")
        return out

    def write(self, path):
        """One line per span: operation, index, parent, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                handle.write(f"{op}\t{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\n")
