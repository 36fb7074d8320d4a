"""Run one ``motivic-cc`` command with every public function of the package timed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SUMMARY.json SPANS.jsonl CASE_ID -- <cli args>

The report goes to stdout exactly as ``python -m motivic_cc.cli`` writes it.
The layers are the package's modules.  Every public function and method is
re-bound to a wrapper in each module that holds a reference to it, class
operator aliases included.  Calls into ``lpoly`` are leaves: they are folded
into counters and busy time on the enclosing span, because there are about a
million of them per verify run.  Calls into the other layers become spans
(id, parent, name, start, end) held in memory and written to SPANS.jsonl when
the command ends; per-layer self time is a span's duration minus the time its
child spans and folded leaves cover.  SUMMARY.json gets the counters.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("lpoly", "series", "lambda_power", "motives", "hirzebruch",
          "pontrjagin", "checks", "cli")

# class operators that do ring work; other dunders and private names are skipped
OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                       "__mul__", "__rmul__", "__pow__", "__eq__"})

# helpers small and hot enough that a span would cost more than their work:
# they are counted, and their time stays with the calling span
COUNT_ONLY = frozenset({"lambda_power.divisors", "lambda_power.mobius",
                        "lambda_power.EulerExponents.exponent", "series.TSeries.coefficient",
                        "cli.atom_str", "cli.coeff_str", "cli.format_rational",
                        "cli.parse_rational"})

# descriptors consulted per coefficient or per operand check, not operations
# of a layer: their time stays with the caller
SKIP_CLASSES = frozenset({"VarSet", "CoeffRing", "RationalField", "LaurentRing"})


class Tracer:
    def __init__(self):
        self.calls = Counter()          # qualified name -> calls
        self.self_s = defaultdict(float)  # layer -> self time
        self.extra = Counter()          # work counters measured at call sites
        self.coeff_bits_max = 0
        self.spans = []                 # (id, parent id, name, start, end, lpoly calls, lpoly s)
        self._ids = itertools.count(1)
        # frames: [span id, time covered by children, folded lpoly calls, folded lpoly s]
        self.stack = [[0, 0.0, 0, 0.0]]
        self._in_leaf = False

    # -- wrappers ----------------------------------------------------------------

    def span(self, fn, name, layer, stats=None):
        calls, self_s, stack, spans, ids = self.calls, self.self_s, self.stack, self.spans, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            frame = [next(ids), 0.0, 0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                parent[1] += dur
                spans.append((frame[0], parent[0], name, start, end, frame[2], frame[3]))
            if stats is not None:
                stats(args, result)
            return result

        return wrapper

    def leaf(self, fn, name, stats=None):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack[-1][2] += 1
            if self._in_leaf:  # nested lpoly call: its time is already being counted
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self._in_leaf = False
                frame = stack[-1]
                frame[1] += dur
                frame[3] += dur
                self_s["lpoly"] += dur
            if stats is not None:
                stats(args, result)
            return result

        return wrapper

    def counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- work counters ---------------------------------------------------------------

    def lpoly_mul_stats(self, args, result):
        a, b = args
        self.extra["lpoly.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if hasattr(b, "terms") else 1)
        self.extra["lpoly.mul.terms_out"] += len(result.terms)
        for c in result.terms.values():
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    def pont_mul_stats(self, args, result):
        a, b = args
        n = a.order
        sizes_b = [len(el.terms) for el in b.components]
        self.extra["pontrjagin.mul.multiset_pairs"] += sum(
            len(el.terms) * sum(sizes_b[: n - i + 1]) for i, el in enumerate(a.components))
        self.extra["pontrjagin.mul.terms_out"] += sum(len(el.terms) for el in result.components)

    def checks_stats(self, args, result):
        self.extra["checks.failed"] += sum(1 for rec in result if rec["status"] == "fail")

    # -- installation ------------------------------------------------------------------

    def _wrap(self, fn, layer, name):
        stats = {"LPoly.__mul__": self.lpoly_mul_stats, "LPoly.__rmul__": self.lpoly_mul_stats,
                 "PontSeries.mul": self.pont_mul_stats, "PontSeries.__mul__": self.pont_mul_stats,
                 "run_suite": self.checks_stats}.get(name)
        qualified = f"{layer}.{name}"
        if qualified in COUNT_ONLY:
            return self.counted(fn, qualified)
        if layer == "lpoly":
            return self.leaf(fn, qualified, stats)
        return self.span(fn, qualified, layer, stats)

    def install(self):
        """Wrap every public function and method and re-bind each reference to it."""
        replaced = {}  # id(original function) -> wrapper
        modules = [importlib.import_module(f"motivic_cc.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, layer, name)
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and name not in SKIP_CLASSES):
                    self._wrap_class(obj, layer)
        for mod in [importlib.import_module("motivic_cc")] + modules:
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in replaced:
                    namespace[name] = replaced[id(obj)]
                elif isinstance(obj, dict):  # dispatch tables such as checks.SUITES
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]

    def _wrap_class(self, cls, layer):
        # each attribute name gets its own wrapper, so aliases bound at class
        # creation (PontSeries.__mul__ = mul, LPoly.__radd__ = __add__) are
        # reached and counted under their own names
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(val.__func__, layer, name)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, layer, name))

    # -- results -------------------------------------------------------------------------

    def summary(self) -> dict:
        incl = defaultdict(float)
        for _, _, name, start, end, _, _ in self.spans:
            incl[name] += end - start
        layer_calls = Counter()
        for name, n in self.calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        return {
            "calls": dict(self.calls),
            "layer_calls": {layer: layer_calls[layer] for layer in LAYERS},
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "incl_s": dict(incl),
            "extra": dict(self.extra),
            "coeff_bits_max": self.coeff_bits_max,
            "spans": len(self.spans),
        }

    def write_spans(self, path, case_id):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, lp_calls, lp_s in self.spans:
                fh.write(json.dumps({"case": case_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "lpoly_calls": lp_calls, "lpoly_s": lp_s}) + "\n")


def main(argv: list[str]) -> int:
    summary_path, spans_path, case_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY.json SPANS.jsonl CASE_ID -- <cli args>")
    tracer = Tracer()
    tracer.install()
    from motivic_cc import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(spans_path, case_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
