"""Span tracing of qwenkit's public functions from outside the library.

A :class:`Tracer` replaces each traced function at every module binding
that refers to it (``qwenkit.model.gqa_attention`` and
``qwenkit.longctx.gqa_attention`` are separate bindings of one function)
and each traced method on its class. Every call then records a span:
name, start, end, parent span and request id, kept in memory until the run
writes them out. :meth:`Tracer.uninstall` puts every original back, and
:func:`leftover_wrappers` proves that nothing traced remains.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np

# Functions and methods traced, as (module, qualified name). Span names are
# "<module>.<qualified name>" without the package prefix.
TARGETS = [
    ("ops", "softmax_rows"), ("ops", "silu"), ("ops", "Rng.permutation"),
    ("layers", "rms_norm"), ("layers", "swiglu_ffn"), ("layers", "apply_rope"),
    ("layers", "gqa_attention"), ("layers", "decode_step"),
    ("layers", "KvCache.keys"), ("layers", "KvCache.values"),
    ("longctx", "dca_attention"),
    ("moe", "moe_forward"), ("moe", "validate_bank"), ("moe", "gate_probs"),
    ("moe", "topk_select"), ("moe", "upcycle_from_dense"),
    ("model", "build_model"), ("model", "upcycle_model"),
    ("model", "forward"), ("model", "greedy_decode"),
    ("serialize", "save_weights"), ("serialize", "load_weights"),
    ("tokenizer", "bpe_train"), ("tokenizer", "encode"), ("tokenizer", "decode"),
    ("tokenizer", "compression_rate"),
    ("decontam", "normalize"), ("decontam", "lcs_contaminated"), ("decontam", "lcs_len"),
    ("decontam", "NgramIndex.__init__"), ("decontam", "NgramIndex.contains_run"),
    ("decontam", "find_ngram_match"), ("decontam", "filter_corpus"),
    ("decontam", "load_docs"), ("decontam", "load_test_sets"),
]

PACKAGE = "qwenkit"
_MARK = "__perfbench_traced__"

# Span record fields, in order.
NAME, START, END, PARENT, REQUEST, NOTE = range(6)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _topk_note(args, kwargs, result):
    p = np.sort(np.asarray(_arg(args, kwargs, 0, "p")))[::-1]
    k = _arg(args, kwargs, 1, "k")
    return tuple(result), bool(k < p.shape[0] and p[k - 1] == p[k])


# Small argument/result summaries the per-layer metrics need, taken at the
# call so the arrays themselves are not kept alive.
NOTES = {
    "model.forward": lambda a, kw, r: len(_arg(a, kw, 2, "token_ids")),
    "model.greedy_decode": lambda a, kw, r: (len(_arg(a, kw, 2, "prompt")), len(r)),
    "layers.gqa_attention": lambda a, kw, r: np.shape(_arg(a, kw, 0, "q")),
    "longctx.dca_attention": lambda a, kw, r: (
        np.shape(_arg(a, kw, 0, "q")), _arg(a, kw, 4, "dca")),
    "layers.decode_step": lambda a, kw, r: (
        kw["position"], kw.get("layer", 0), _arg(a, kw, 0, "cache").n_layers,
        np.shape(_arg(a, kw, 2, "new_k"))),
    "moe.topk_select": _topk_note,
    "serialize.save_weights": lambda a, kw, r: os.path.getsize(_arg(a, kw, 2, "path")),
    "serialize.load_weights": lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path")),
    "tokenizer.encode": lambda a, kw, r: len(_as_bytes(_arg(a, kw, 1, "text"))),
    "tokenizer.compression_rate": lambda a, kw, r: r,
}


def _as_bytes(text) -> bytes:
    return text.encode("utf-8") if isinstance(text, str) else bytes(text)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) of a traced method, or None for a function."""
    mod = sys.modules[f"{PACKAGE}.{module}"]
    if "." not in qualname:
        return None, qualname, getattr(mod, qualname)
    cls_name, attr = qualname.split(".")
    cls = getattr(mod, cls_name)
    return cls, attr, cls.__dict__[attr]


class Tracer:
    """Records spans of traced calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack = [-1]
        # (owner, attribute, original, wrapper) for every traced binding.
        self._bindings: list[tuple[object, str, object, object]] = []
        self.active = False

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                rec[START] = t0
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _find_bindings(self) -> None:
        for module, qualname in TARGETS:
            owner, attr, original = _resolve(module, qualname)
            wrapper = self._wrap(f"{module}.{qualname}", original)
            if owner is not None:
                self._bindings.append((owner, attr, original, wrapper))
                continue
            for mod in _package_modules():
                for key, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def install(self) -> None:
        """Put the wrappers in place; the bindings are found on first use."""
        if self.active:
            raise RuntimeError("tracer already installed")
        if not self._bindings:
            self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)
        self.active = False

    def restored(self) -> bool:
        """Every binding this tracer wrapped holds its original again."""
        return all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            is original
            for owner, attr, original, _ in self._bindings
        )

    @property
    def binding_count(self) -> int:
        return len(self._bindings)

    def save(self, path) -> None:
        """Write the spans as compact arrays (names indexed into ``names``)."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[s[NAME]] for s in self.spans], dtype=np.int16),
            start=np.array([s[START] for s in self.spans], dtype=np.float64),
            end=np.array([s[END] for s in self.spans], dtype=np.float64),
            parent=np.array([s[PARENT] for s in self.spans], dtype=np.int64),
            request=np.array([s[REQUEST] for s in self.spans], dtype=np.int64),
        )


def leftover_wrappers() -> list[str]:
    """Bindings in any loaded qwenkit module or class that still hold a wrapper."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out
