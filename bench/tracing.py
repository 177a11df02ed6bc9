"""Spans and counters around the public functions of every gapseq module.

Used only by traced runs. ``Tracer.install`` wraps each public function
and each public method (plus ``__post_init__``) of the classes defined in
``gapseq.<layer>``, and rebinds every name and dict entry in the gapseq
modules that refers to the original, so a name one module imports from
another (the ``term`` that ``gaps`` imports) is wrapped too and the self
times of the two modules stay apart. A span's self time is its duration
minus the durations of the spans it called.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "sequences", "gaps", "combinatorics", "folding", "genfun", "oeis", "tables")

# Time buckets other than the layer's own name. In cli, parsing is
# build_parser, parse_spec and the parser's parse_args; all other cli
# self time (formatting, printing) counts as rendering.
_BUCKETS = {
    ("cli", "parse_spec"): "cli.parse",
    ("cli", "build_parser"): "cli.parse",
    ("cli", "parse_args"): "cli.parse",
    ("cli", "run"): "cli.render",
    ("oeis", "parse_bfile"): "oeis.parse",
    ("oeis", "cross_check"): "oeis.cross_check",
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [layer, name, seconds spent in callees]
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        bucket = _BUCKETS.get((layer, name), layer)
        after = getattr(self, f"_after_{layer}_{name}".replace(".", "_"), None)
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [layer, name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[bucket] += dt - frame[2]
                if stack:
                    stack[-1][2] += dt
            if caller is None or caller[0] != layer:
                self.counts[f"{layer}.entries"] += 1
            if after is not None:
                after(caller, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gapseq.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                            not mname.startswith("_") or mname == "__post_init__"
                        ):
                            wrapped = self._wrap(layer, f"{name}.{mname}", meth)
                            setattr(obj, mname, wrapped)
                            self._undo.append((obj, mname, meth))
        for mod in (importlib.import_module("gapseq"), *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                    self._undo.append((mod, name, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]
                            self._undo.append((obj, key, value))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._undo.clear()

    def report(self, out_bytes: int) -> dict:
        folding = importlib.import_module("gapseq.folding")
        self.counts["cli.out_bytes"] = out_bytes
        # Walk entries computed beyond the seed value a(0).
        self.counts["folding.walk_len"] = len(folding._walk) - 1
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    # Counters, each called after a successful return.

    def _after_cli_build_parser(self, caller, args, kwargs, parser) -> None:
        parser.parse_args = self._wrap("cli", "parse_args", parser.parse_args)

    def _after_sequences_term(self, caller, args, kwargs, result) -> None:
        self.counts["sequences.term_calls"] += 1

    def _after_sequences_terms(self, caller, args, kwargs, result) -> None:
        self.counts["sequences.terms_calls"] += 1

    def _after_sequences_nth_prime(self, caller, args, kwargs, result) -> None:
        self.counts["sequences.nth_prime_calls"] += 1

    def _after_gaps_product_range(self, caller, args, kwargs, result) -> None:
        if caller is None or caller[1] != "product_range":
            self.counts["gaps.product_range_calls"] += 1
            self.counts["gaps.product_bits"] += result.bit_length()

    def _after_combinatorics_binom(self, caller, args, kwargs, result) -> None:
        self.counts["combinatorics.binom_calls"] += 1
        self.counts["combinatorics.binom_bits"] += result.bit_length()

    def _after_genfun_RatFunc___post_init__(self, caller, args, kwargs, result) -> None:
        self.counts["genfun.ratfunc_builds"] += 1

    def _after_genfun_poly_gcd(self, caller, args, kwargs, result) -> None:
        self.counts["genfun.poly_gcd_calls"] += 1

    def _after_genfun_RatFunc_expand(self, caller, args, kwargs, result) -> None:
        self.counts["genfun.expand_coeffs"] += len(result)

    def _after_oeis_parse_bfile(self, caller, args, kwargs, result) -> None:
        self.counts["oeis.bytes_parsed"] += len(args[0])
        self.counts["oeis.entries_parsed"] += len(result.entries)

    def _after_oeis_cross_check(self, caller, args, kwargs, result) -> None:
        self.counts["oeis.compared"] += result.compared

    def _count_tables(self, caller, args, kwargs, result) -> None:
        self.counts["tables.built"] += len(result) if isinstance(result, list) else 1

    _after_tables_figurate_table = _after_tables_fc_tables = _count_tables
    _after_tables_raney_tables = _after_tables_horadam_table = _count_tables
