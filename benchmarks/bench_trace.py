"""Spans around the public functions of efxlab's modules, recorded from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``efxlab`` module (so ``from .ciphers import encrypt_with`` copies are
wrapped too) and wraps the traced methods on their classes;
``Tracer.uninstall`` puts every original object back. Nothing under ``src/``
is changed. Spans are kept in memory as tuples and summarized, or written
out, when the run ends.

``bounds``, ``cli`` and ``plot_svg`` are not traced: no workload spends
measurable time in them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "efxlab"

# module -> traced public functions; "Class.method" wraps a method
TRACED: Dict[str, Tuple[str, ...]] = {
    "harness": ("run_attack", "run_trial", "build_instance", "report_json"),
    "ciphers": ("make_permutation", "make_ideal_cipher", "make_construction",
                "encrypt_with", "decrypt_with", "IdealCipher.permutation"),
    "offline_simon": ("offline_simon_attack", "build_database_cpa",
                      "build_database_kpa", "guess_family_for",
                      "GuessFamily.maps", "register_distribution",
                      "exact_pass_probability", "generalized_offline_simon",
                      "em_q2_attack"),
    "qsim": ("StateVector.__init__", "hadamard", "hadamard_qubit",
             "apply_xor_oracle", "apply_inplace_perm", "measure",
             "simon_subroutine"),
    "gf2": ("rank", "nullspace_basis", "recover_period", "nullspace_members"),
    "classical": ("guess_and_em_attack", "exhaustive_search",
                  "classical_period_find"),
}

# both database builders report under one span name
SPAN_NAMES = {
    "offline_simon.build_database_cpa": "offline_simon.build_database",
    "offline_simon.build_database_kpa": "offline_simon.build_database",
    "qsim.StateVector.__init__": "qsim.StateVector",
}

# IdealCipher.permutation is called once per cipher evaluation, so it only
# counts calls and cache hits: a span each would dominate the traced time
COUNT_ONLY = ("ciphers.IdealCipher.permutation",)

Span = Tuple[int, float, float, int, int]  # name id, start, end, parent, trial


class Tracer:
    """Collects one span per wrapped call: name, start, end, parent span, trial."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.counters: Counter = Counter()
        self.trial = -1
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, targets in TRACED.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for target in targets:
                full = f"{module_name}.{target}"
                if module is None:
                    self.missing.append(full)
                elif "." in target:
                    self._wrap_method(module, target, full)
                else:
                    self._wrap_function(modules, module, target, full)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_function(self, modules, module, attr: str, full: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(full)
            return
        wrapper = self._wrapper(full, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap_method(self, module, target: str, full: str) -> None:
        cls_name, attr = target.split(".")
        cls = getattr(module, cls_name, None)
        original = None if cls is None else vars(cls).get(attr)
        if original is None:
            self.missing.append(full)
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(full, original))

    def _wrapper(self, full: str, fn: Callable) -> Callable:
        if full in COUNT_ONLY:
            return self._counting_wrapper(full, fn)
        name = SPAN_NAMES.get(full, full)
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_call = self._count_hadamard_bytes if full == "qsim.hadamard_qubit" else None

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name_id, start, end, parent, self.trial)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_wrapper(self, full: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(cipher, key):
            counters[full + ".calls"] += 1
            if key in cipher.cache:
                counters[full + ".hits"] += 1
            return fn(cipher, key)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_hadamard_bytes(self, args) -> None:
        # computed, not measured: one read and one write of the amplitude array
        self.counters["qsim.hadamard_qubit.bytes"] += 2 * args[0].nbytes

    # -- results -------------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per span name: calls, total and self seconds; and the root spans' time.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the program is single-threaded.
        """
        if any(s is None for s in self.spans):
            raise RuntimeError("summary taken while a span is still open")
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        root_s = 0.0
        for span_id, (name_id, start, end, parent, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[span_id]
            if parent < 0:
                root_s += end - start
        return out, root_s

    def write_jsonl(self, path) -> None:
        """One JSON array per span: name, start, end, parent span, trial."""
        with open(path, "w") as fh:
            for name_id, start, end, parent, trial in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, trial]))
                fh.write("\n")
