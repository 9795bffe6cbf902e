"""Spans around calls into faemb's public functions, kept in memory.

The benchmark never edits the package: in a traced run it replaces the
names that ``faemb.cli``, ``faemb.pipeline`` and ``faemb.storage`` look up at
call time with thin wrappers, and routes its own direct calls through
:meth:`Tracer.call`.  Each span records its name, start, end and parent
span.  Self time is a span's duration minus the time its child spans cover.

Spans assume a single thread: the benchmark runs every CLI subcommand with
one worker thread, so calls nest strictly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class NoTrace:
    """Untraced run: calls go straight through."""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)

    def install(self, faemb_modules: dict) -> None:
        pass

    def uninstall(self) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Tracer.spans


# (module, attribute) -> span name.  The module is the one whose functions
# look the attribute up at call time; the span is named after the layer that
# defines the function.
PATCHES: dict[tuple[str, str], str] = {
    **{
        ("cli", attr): span
        for attr, span in {
            "train_coding": "coding.train_coding",
            "embed_descriptor_set": "pipeline.embed_descriptor_set",
            "signature_from_embedded": "pipeline.signature_from_embedded",
            "fit_whitening": "aggregate.fit_whitening",
            "fit_itq": "binary.fit_itq",
            "encode_itq": "binary.encode_itq",
            "build_index": "retrieval.build_index",
            "build_binary_index": "retrieval.build_binary_index",
            "search": "retrieval.search",
            "evaluate_map": "retrieval.evaluate_map",
            "load_descriptors": "storage.load_descriptors",
            "load_ground_truth": "storage.load_ground_truth",
            "load_model": "storage.load_model",
            "save_model": "storage.save_model",
            "load_signatures": "storage.load_signatures",
            "save_signatures": "storage.save_signatures",
            "load_codes": "storage.load_codes",
            "save_codes": "storage.save_codes",
            "load_index": "storage.load_index",
            "save_index": "storage.save_index",
            "read_container": "storage.read_container",
            "write_container": "storage.write_container",
        }.items()
    },
    **{
        ("pipeline", attr): span
        for attr, span in {
            "code_batch": "pipeline.code_batch",
            "faemb_gamma_batch": "coding.faemb_gamma_batch",
            "ffaemb_gamma_batch": "coding.ffaemb_gamma_batch",
            "embed_faemb_batch": "embed.embed_faemb_batch",
            "whiten_batch": "aggregate.whiten_batch",
            "democratic_weights": "aggregate.democratic_weights",
        }.items()
    },
    ("storage", "read_container"): "storage.read_container",
    ("storage", "write_container"): "storage.write_container",
}


def _file_size(path: Any) -> int:
    return Path(path).stat().st_size


def _count(counts: dict, name: str, args: tuple, result: Any) -> None:
    """Exact counts read from a layer's return value or its arguments."""
    if name == "coding.train_coding":
        counts["train.calls"] += 1
        counts["train.outer_iters"] += len(result.trace) - 1
    elif name == "coding.faemb_gamma_batch":
        counts["newton.samples"] += result.iterations.size
        counts["newton.iters"] += int(result.iterations.sum())
        counts["newton.converged"] += int(result.converged.sum())
    elif name == "aggregate.democratic_weights":
        counts["democratic.calls"] += 1
        counts["democratic.iters"] += result.iterations
        counts["democratic.converged"] += int(result.converged)
    elif name == "binary.fit_itq":
        counts["itq.calls"] += 1
        counts["itq.iters"] += result.quantization_errors.size
    elif name == "embed.embed_faemb_batch":
        counts["embed.bytes_out"] += result.nbytes
    elif name in ("storage.write_container", "storage.save_descriptors"):
        counts["storage.bytes_written"] += _file_size(args[0])
    elif name in ("storage.read_container", "storage.load_descriptors"):
        counts["storage.bytes_read"] += _file_size(args[0])


class Tracer(NoTrace):
    """Traced run: records a span per call and exact counts per layer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        _count(self.counts, name, args, result)
        return result

    def install(self, faemb_modules: dict) -> None:
        for (mod_name, attr), span in PATCHES.items():
            module = faemb_modules[mod_name]
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _span=span, **kwargs):
                return self.call(_span, _fn, *args, **kwargs)

            self._restore.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[i]
        return out

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}) + "\n")
