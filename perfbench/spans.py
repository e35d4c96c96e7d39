"""Per-layer spans recorded from outside the ``tridigits`` package.

``Tracer.install`` replaces each public function of the six layers with a
wrapper that records a span (name, start, end, parent span, job id), in every
module that binds the function, so calls between layers are caught too. No
file of the package changes. Self time is a span's duration minus the time its
child spans cover; it is summed per function as the spans close. Counters are
read from the real calls: arguments, returned lengths, rows yielded and calls
made from inside another wrapped function.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import Counter

# Public functions per layer. validate_base and validate_natural stay
# unwrapped: nearly every entry point calls them, a span each would cost more
# than the check, and their time belongs in the caller's self time.
FUNCTIONS = {
    "core": ("parse_natural", "tri_exact", "tri_mod", "to_digits", "from_digits",
             "DigitString.__post_init__", "DigitString.__str__"),
    "residues": ("fundamental_window", "residue_profile", "classify_base",
                 "empirical_frequencies", "power_of_two_sweep"),
    "prover": ("enumerate_cases", "verify_case", "render_transcript"),
    "pascal": ("iter_rows", "pascal_row", "quadratic_diagonal"),
    "growth": ("parse_dynamics", "simulate", "default_window", "fit_power_law", "digit_histogram"),
    "cli": ("main", "build_parser", "cmd_tri", "cmd_residues", "cmd_classify",
            "cmd_prove", "cmd_freq", "cmd_simulate"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns)

# Extra per-layer metrics besides <name>.calls and <name>.self_s, with units.
COUNTERS = {
    "core.to_digits.digits_out": "count",
    "core.parse_natural.digits_in": "count",
    "residues.empirical_frequencies.samples": "count",
    "prover.verify_case.k_checked": "count",
    "growth.simulate.steps": "count",
    "pascal.iter_rows.entries_yielded": "count",
    "pascal.quadratic_diagonal.useful_ratio": "ratio",
    "cli.main.stdout_bytes": "bytes",
}

_KEEP_SPANS = 100_000


# Counters read from a wrapped call's arguments and result.
_ON_RETURN = {
    "core.to_digits": lambda c, args, result: c.update({"core.to_digits.digits_out": len(result.digits)}),
    "core.parse_natural": lambda c, args, result: c.update({"core.parse_natural.digits_in": len(args[0])}),
    "growth.simulate": lambda c, args, result: c.update({"growth.simulate.steps": len(result.total)}),
    "pascal.quadratic_diagonal": lambda c, args, result: c.update(
        {"pascal.quadratic_diagonal.entries_returned": len(result)}),
}


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, job)
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        # Calls of a wrapped function made directly from another, keyed (parent, child).
        self.child_calls: Counter = Counter()
        # Entries of Pascal rows yielded, keyed by the consuming span.
        self.rows_yielded: Counter = Counter()
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[list] = []  # open spans: [id, name, child_ns]
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [next(self._ids), name, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        name = frame[1]
        self.self_ns[name] += duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
            self.child_calls[parent[1], name] += 1
        if len(self.spans) < _KEEP_SPANS:
            self.spans.append((frame[0], name, start, end, parent and parent[0], self.job))
        else:
            self.dropped += 1

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, start, clock())
            if on_return is not None:
                on_return(self.counters, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # Each resume of the generator is a span of its own, parented by the
        # consumer, so building rows is not counted in the consumer's self time.
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            rows = fn(*args, **kwargs)
            while True:
                consumer = self._stack[-1][1] if self._stack else None
                frame = self._open(name)
                start = clock()
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    self._close(frame, start, clock())
                self.rows_yielded[consumer] += len(row)
                yield row

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every function in FUNCTIONS wherever the package binds it."""
        modules = [package] + [getattr(package, layer) for layer in FUNCTIONS]
        for layer, names in FUNCTIONS.items():
            module = getattr(package, layer)
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                owner_name, _, attr = fn_name.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[attr]
                    self._set(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrap = self._wrap_generator if inspect.isgeneratorfunction(original) else self._wrap
                wrapper = wrap(name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapper)

    def _set(self, holder, key: str, value) -> None:
        self._restore.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: (value, unit), zero for functions never called."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        counted = dict(self.counters)
        counted["residues.empirical_frequencies.samples"] = self.child_calls[
            "residues.empirical_frequencies", "core.tri_mod"]
        counted["prover.verify_case.k_checked"] = self.child_calls["prover.verify_case", "core.tri_mod"]
        counted["pascal.iter_rows.entries_yielded"] = sum(self.rows_yielded.values())
        yielded = self.rows_yielded["pascal.quadratic_diagonal"]
        returned = counted.pop("pascal.quadratic_diagonal.entries_returned", 0)
        counted["pascal.quadratic_diagonal.useful_ratio"] = returned / yielded if yielded else 0.0
        for name, unit in COUNTERS.items():
            out[name] = (counted.get(name, 0), unit)
        return out

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")
