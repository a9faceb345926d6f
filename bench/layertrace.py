"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install()`` wraps every public function of each layer module, and
every public method of the classes it defines. A function is rebound
wherever an ``orbita`` module holds it: as a module attribute (``from
.numtheory import factor`` in ``cli``, ``orbits``, ...) or as a value of a
module-level dict (``suites._RUNNERS``); a method is rebound on its class. A
call made through any of those names then opens a span. ``uninstall()`` puts
the originals back.

A span's self time is its duration minus the time its child spans cover.
Spans are folded into per-function totals as they close, so memory stays
flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("numtheory", "forms", "projective", "maps", "orbits", "bounds", "sunit",
          "suites", "cli")

_WIDTHS = ((32, "le32"), (48, "le48"), (64, "le64"))
_DEGREES = ((2, "le2"), (4, "le4"), (8, "le8"), (16, "le16"))
_DIGITS = ((60, "le60"), (200, "le200"), (1000, "le1000"))


def _bucket(value: int, edges, above: str) -> str:
    for edge, name in edges:
        if value <= edge:
            return name
    return above


def layer_functions(module: types.ModuleType) -> dict[str, tuple[object, types.FunctionType]]:
    """Public functions and methods defined in the module: name -> (owner, function).

    The owner is the module for a function and the class for a method, named
    "Class.method". Properties, class methods and re-exported names are left out.
    """
    found = {}
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            found[name] = (module, value)
        elif isinstance(value, type):
            for attr, fn in vars(value).items():
                if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                    found[f"{name}.{attr}"] = (value, fn)
    return found


def orbita_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "orbita" or name.startswith("orbita."))]


class Tracer:
    """Wraps the layer functions of an imported ``orbita`` and folds their spans."""

    def __init__(self):
        # "layer.function" -> [calls, self seconds, total seconds]
        self.spans: dict[str, list] = {}
        # the same, split by argument: "layer.function.bucket"
        self.buckets: dict[str, list] = {}
        self.counters: dict[str, float] = {f"{layer}.errors": 0 for layer in LAYERS}
        self.counters.update({"numtheory.factor.repeats": 0, "numtheory.factor.budget_errors": 0,
                              "forms.resultant.max_degree": 0, "sunit.candidates": 0})
        self.originals: dict[int, types.FunctionType] = {}
        self._stack: list[list] = []  # open spans: [layer, child seconds]
        self._factored: set[int] = set()
        self._rebound: list[tuple[object, object, object]] = []  # (container, key, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import orbita  # noqa: F401  (loads every layer module)

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"orbita.{layer}"]
            for name, (owner, fn) in layer_functions(module).items():
                wrapper = self._wrap(layer, name, fn)
                self.originals[id(fn)] = fn
                if owner is module:
                    wrappers[id(fn)] = wrapper
                else:
                    method = name.rpartition(".")[2]
                    setattr(owner, method, wrapper)
                    self._rebound.append((owner, method, fn))
        # self.originals keeps every original alive, so its id names only it
        for module in orbita_modules():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, key, wrappers[id(value)])
                    self._rebound.append((module, key, value))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            value[k] = wrappers[id(v)]
                            self._rebound.append((value, k, v))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._rebound):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._rebound.clear()

    def begin_op(self) -> None:
        """Start a new op: "already factored" is judged within one op."""
        self._factored.clear()

    # ------------------------------------------------------------ spans

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        spans, buckets = self.spans, self.buckets
        counters, stack = self.counters, self._stack
        spans[key] = [0, 0.0, 0.0]
        split = self._splitter(key)
        after = self._after(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bucket = f"{key}.{split(args, kwargs)}" if split else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # counted where it leaves the layer, not at every frame it passes
                if len(stack) < 2 or stack[-2][0] != layer:
                    counters[f"{layer}.errors"] += 1
                if key == "numtheory.factor" and type(exc).__name__ == "FactorizationBudgetError":
                    counters["numtheory.factor.budget_errors"] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                rec = spans[key]
                rec[0] += 1
                rec[1] += own
                rec[2] += dur
                if bucket:
                    rec = buckets.setdefault(bucket, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += own
                    rec[2] += dur
            if after:
                after(args, result)
            return result

        return wrapper

    def _splitter(self, key: str):
        """Per-call bucket for the functions whose cost depends on one argument."""
        if key == "numtheory.factor":
            factored = self._factored
            counters = self.counters

            def split(args, kwargs):
                n = args[0] if args else kwargs["n"]
                if n in factored:
                    counters["numtheory.factor.repeats"] += 1
                else:
                    factored.add(n)
                return _bucket(abs(n).bit_length(), _WIDTHS, "gt64")

            return split
        if key == "forms.resultant":
            counters = self.counters

            def split(args, kwargs):
                d = len(args[0]) - 1
                if d > counters["forms.resultant.max_degree"]:
                    counters["forms.resultant.max_degree"] = d
                return _bucket(d, _DEGREES, "gt16")

            return split
        if key == "bounds.evaluate_bound":
            bounds = sys.modules["orbita.bounds"]
            working_precision = bounds.working_precision  # the original, not a wrapper

            def split(args, kwargs):
                p = args[1] if len(args) > 1 else kwargs.get("precision")
                return _bucket(p if p is not None else working_precision(), _DIGITS, "gt1000")

            return split
        if key == "bounds.decimal_str":
            def split(args, kwargs):
                digits = args[1] if len(args) > 1 else kwargs["digits"]
                return _bucket(digits, _DIGITS, "gt1000")

            return split
        return None

    def _after(self, key: str):
        if key == "sunit.box_units":
            counters = self.counters

            def after(args, result):
                counters["sunit.candidates"] += len(result)

            return after
        return None

    # ------------------------------------------------------------ report

    def self_s(self, key: str) -> float:
        return self.spans.get(key, [0, 0.0, 0.0])[1]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(rec[1] for key, rec in self.spans.items() if key.startswith(prefix))

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER metric; ``extra`` supplies the ones measured around ops."""
        out: dict[str, float] = {}
        for name, _unit in PER_LAYER:
            key, _, stat = name.rpartition(".")
            if name in extra:
                out[name] = extra[name]
            elif name in self.counters:
                out[name] = self.counters[name]
            elif name == "numtheory.factor.repeat_ratio":
                calls = self.spans["numtheory.factor"][0]
                out[name] = self.counters["numtheory.factor.repeats"] / calls if calls else 0.0
            elif stat == "self_s" and key in LAYERS:
                out[name] = self.layer_self_s(key)
            else:
                rec = self.spans.get(key) or self.buckets.get(key) or [0, 0.0, 0.0]
                out[name] = {"calls": rec[0], "self_s": rec[1], "total_s": rec[2]}[stat]
        return out


def _calls_self(key: str, buckets=()) -> list[tuple[str, str]]:
    out = [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
    for b in buckets:
        out += [(f"{key}.{b}.calls", "count"), (f"{key}.{b}.self_s", "s")]
    return out


_DIGIT_BUCKETS = ("le60", "le200", "le1000", "gt1000")

# (name, unit); every one is better when lower
PER_LAYER: list[tuple[str, str]] = [
    *_calls_self("numtheory.factor", ("le32", "le48", "le64", "gt64")),
    ("numtheory.factor.repeat_ratio", "ratio"),
    ("numtheory.factor.budget_errors", "count"),
    *_calls_self("numtheory.is_prime"),
    *_calls_self("numtheory.vp"),
    *_calls_self("forms.resultant", ("le2", "le4", "le8", "le16", "gt16")),
    ("forms.resultant.max_degree", "degree"),
    ("forms.resultant.deep_op_share", "ratio"),
    ("forms.substitute_forms.self_s", "s"),
    *_calls_self("projective.relevant_primes"),
    *_calls_self("projective.log_distance"),
    *_calls_self("projective.from_pair"),
    ("maps.parse_map.self_s", "s"),
    *_calls_self("maps.evaluate"),
    *_calls_self("maps.compose_maps"),
    *_calls_self("maps.bad_primes"),
    ("orbits.detect_orbit.self_s", "s"),
    ("orbits.run_certificate_checks.self_s", "s"),
    ("orbits.collapse_to_fixed_point.total_s", "s"),
    *_calls_self("bounds.evaluate_bound", _DIGIT_BUCKETS),
    *_calls_self("bounds.decimal_str", _DIGIT_BUCKETS),
    ("sunit.solve_unit_equation.self_s", "s"),
    ("sunit.count_three_term.self_s", "s"),
    ("sunit.candidates", "count"),
    ("suites.run_suite.self_s", "s"),
    ("cli.main.self_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    *[(f"{layer}.errors", "count") for layer in LAYERS],
    ("traced_op_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("op_fail_ratio", "ratio"),
]
