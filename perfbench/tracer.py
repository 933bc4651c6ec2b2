"""Span tracer installed around charperm's public functions from outside.

Every public function of the layer modules gets a wrapper, installed under
each name it is looked up by (``verify.s_fast`` and ``permtest.s_fast`` as
well as ``charsum.s_fast``), and every public method or property of
``FieldContext`` is wrapped at class level.  Nothing under ``src/`` changes.

Module-level functions leave one span each: name, start, end, parent span
and operation id, kept in memory in columnar arrays and written out with
``save``.  ``FieldContext`` methods are the hot scalar leaves (about 1.8M
``mul`` calls per verify sweep), so they only add to per-name counters;
their time still counts as child time of the enclosing span.  A name's self
time is its duration minus the time its wrapped callees cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("gf2", "field", "linearized", "charsum", "permtest", "verify", "cli")

# First builds of these are field.table_build; later calls are cache hits.
TABLES = {"frob_table", "trace_table", "exp_table", "log_table", "chi_table",
          "chi_index_table"}

# Wrapped name -> per-layer bucket.  Unlisted names fall into
# "<layer>.other", except gf2, which is one bucket.
BUCKETS = {
    "field.mul": "field.mul", "field.pow": "field.mul",
    "field.inv": "field.mul", "field.frobenius": "field.mul",
    "field.trace_to": "field.mul",
    "field.mul_vec": "field.vec", "field.mul_elementwise": "field.vec",
    "field.pow_vec": "field.vec",
    "field.table_build": "field.table_build",
    "field.walsh_hadamard": "permtest.wht",
    "linearized.kernel": "linearized.kernel",
    "linearized.evaluate_all": "linearized.evaluate_all",
    "linearized.evaluate": "linearized.evaluate",
    "charsum.s_fast": "charsum.s_fast",
    "charsum.classify_form": "charsum.classify_form",
    "charsum.s_bruteforce": "charsum.s_bruteforce",
    "permtest.is_perm_quadspec": "permtest.quadspec",
    "permtest.is_perm_bruteforce": "permtest.occupancy",
    "permtest.report_from_values": "permtest.occupancy",
    "permtest.is_perm_charsum": "permtest.wht",
    "permtest.perm_quad_ext": "permtest.closed_form",
    "permtest.perm_gold_linearized": "permtest.closed_form",
    "permtest.perm_trace_form": "permtest.closed_form",
    "permtest.perm_monomial_trace": "permtest.closed_form",
    "permtest.family_predicate": "permtest.closed_form",
    "cli.main": "cli.report",
}


# Names whose exact call counts are per-layer metrics ("<name>_calls").
COUNTED = ("field.mul", "linearized.kernel", "charsum.s_fast",
           "charsum.classify_form", "charsum.s_bruteforce")


def campaign_metric(cid: str) -> str:
    """Campaign id as it appears in metric names (':' is not allowed)."""
    return cid.replace(":", "-")


class Tracer:
    """Spans and per-name counters for one traced phase of a run."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ix: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.agg: Dict[str, List] = {}      # name -> [calls, self seconds]
        self.op = -1                        # current operation id, -1 = setup
        self.table_bytes = 0
        self.cases: Dict[str, int] = {}     # campaign -> cases_total
        self.thm5_mismatches = 0
        self.quadspec_slots = 0             # sum of order - 1 over quadspec calls
        self._stack: List[List] = []        # frames: [child seconds, span id]
        self._seen_tables: Dict[tuple, object] = {}
        self._patches: List[tuple] = []

    # ---- wrapping --------------------------------------------------------

    def _slot(self, name: str) -> List:
        slot = self.agg.get(name)
        if slot is None:
            slot = self.agg[name] = [0, 0.0]
        return slot

    def _wrap(self, fn: Callable, name: str, spans: bool,
              name_of: Optional[Callable] = None,
              on_return: Optional[Callable] = None) -> Callable:
        """Wrap fn; name_of(args) picks the name per call when given."""
        stack = self._stack
        clock = time.perf_counter
        fixed = None if name_of else self._slot(name)
        names, name_ix = self.names, self._name_ix
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            call_name = name_of(args) if name_of else name
            slot = fixed if fixed is not None else self._slot(call_name)
            parent_sid = stack[-1][1] if stack else -1
            sid = parent_sid
            t0 = clock()
            if spans:
                ix = name_ix.get(call_name)
                if ix is None:
                    ix = name_ix[call_name] = len(names)
                    names.append(call_name)
                sid = len(s_start)
                s_name.append(ix)
                s_parent.append(parent_sid)
                s_op.append(self.op)
                s_start.append(t0)
                s_end.append(t0)
            frame = [0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                slot[0] += 1
                slot[1] += dur - frame[0]
                if spans:
                    s_end[sid] = t1
            if on_return is not None:
                on_return(call_name, args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _table_name(self, method: str) -> Callable:
        def name_of(args):
            ctx = args[0]
            extra = tuple(args[1:])
            if method == "frob_table":
                extra = (extra[0] % ctx.bits,)
            key = (id(ctx), method, extra)
            if key in self._seen_tables:
                return "field.table_hit"
            self._seen_tables[key] = ctx    # holds ctx so its id stays unique
            return "field.table_build"
        return name_of

    def _count_bytes(self, name, args, result):
        if name == "field.table_build":
            self.table_bytes += int(result.nbytes)

    def _campaign_name(self, args) -> str:
        metric = campaign_metric(args[0].theorem_id)
        self.cases.setdefault(metric, 0)
        return "verify." + metric

    def _count_cases(self, name, args, result):
        metric = name.split(".", 1)[1]
        self.cases[metric] += result.cases_total
        if metric == "thm5":
            self.thm5_mismatches += len(result.mismatches)

    def _count_slots(self, name, args, result):
        self.quadspec_slots += args[0].order - 1

    def bucket_of(self, name: str) -> str:
        """Per-layer bucket of a wrapped name; see BUCKETS."""
        if name in BUCKETS:
            return BUCKETS[name]
        layer, _, rest = name.partition(".")
        if layer == "gf2":
            return "gf2"
        if layer == "verify" and rest in self.cases:
            return name
        return f"{layer}.other"

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and FieldContext method.  Raises when
        a name that BUCKETS, COUNTED or TABLES expects is not there, so a
        renamed function cannot leave its metrics silently at zero."""
        mods = {layer: importlib.import_module(f"charperm.{layer}")
                for layer in LAYERS}
        installed = set()
        lookups = list(mods.values()) + [importlib.import_module("charperm")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if layer == "verify" and attr == "run_verify":
                    wrapped = self._wrap(fn, "", True, name_of=self._campaign_name,
                                         on_return=self._count_cases)
                elif layer == "permtest" and attr == "is_perm_quadspec":
                    wrapped = self._wrap(fn, f"{layer}.{attr}", True,
                                         on_return=self._count_slots)
                else:
                    wrapped = self._wrap(fn, f"{layer}.{attr}", True)
                installed.add(f"{layer}.{attr}")
                for owner in lookups:
                    for gname, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, gname, wrapped)
        cls = mods["field"].FieldContext
        for attr, value in list(vars(cls).items()):
            fn = value.fget if isinstance(value, property) else value
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if attr in TABLES:
                wrapped = self._wrap(fn, "", False, name_of=self._table_name(attr),
                                     on_return=self._count_bytes)
            else:
                wrapped = self._wrap(fn, f"field.{attr}", False)
            installed.add(f"field.{attr}")
            if isinstance(value, property):
                wrapped = property(wrapped, value.fset, value.fdel, value.__doc__)
            self._patch(cls, attr, wrapped)
        expected = ((set(BUCKETS) - {"field.table_build"}) | set(COUNTED)
                    | {f"field.{t}" for t in TABLES})
        missing = sorted(expected - installed)
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracer: charperm has no {', '.join(missing)}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def active(self):
        """Trace the calls made inside the with-block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- results ---------------------------------------------------------

    def quadspec_shifts(self) -> float:
        """Shifts scanned by is_perm_quadspec over the order - 1 it may scan."""
        ix = self._name_ix.get("permtest.is_perm_quadspec")
        fast = self._name_ix.get("charsum.s_fast")
        if ix is None or fast is None:
            return 0.0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        calls = np.flatnonzero(names == ix)
        children = (names == fast) & np.isin(parents, calls)
        slots = self.quadspec_slots
        return float(children.sum()) / slots if slots else 0.0

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics: bucket self times and the named exact counts.
        Every metric the tracer knows is present, zero where nothing ran."""
        from charperm.verify import SWEEPS
        out: Dict[str, float] = {f"{b}_s": 0.0 for b in BUCKETS.values()}
        out.update({f"{layer}.other_s": 0.0 for layer in LAYERS if layer != "gf2"})
        out.update({"gf2.s": 0.0, "gf2.calls": 0})
        out.update({f"{name}_calls": 0 for name in COUNTED})
        for cid in SWEEPS:
            metric = campaign_metric(cid)
            out[f"verify.{metric}_s"] = 0.0
            out[f"verify.{metric}_cases"] = 0
        for name, (calls, self_s) in self.agg.items():
            bucket = self.bucket_of(name)
            key = "gf2.s" if bucket == "gf2" else bucket + "_s"
            out[key] = out.get(key, 0.0) + self_s
            if bucket == "gf2":
                out["gf2.calls"] = out.get("gf2.calls", 0) + calls
            if name in COUNTED:
                out[name + "_calls"] = calls
        out["field.table_bytes"] = self.table_bytes
        for metric, cases in self.cases.items():
            out[f"verify.{metric}_cases"] = cases
        out["verify.thm5_mismatches"] = self.thm5_mismatches
        out["permtest.quadspec_shifts"] = self.quadspec_shifts()
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=object).astype(str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
