"""In-memory span tracing around fleetmaint's public functions.

A traced run wraps each hooked function once and installs the wrapper at
every ``fleetmaint.*`` module attribute bound to the same function object,
which are the names its callers look up: ``fleetmaint.cli.parse_maintenance``
and ``fleetmaint.ingest.parse_maintenance`` share one wrapper, and so do
``fleetmaint.parafac.mttkrp`` and ``fleetmaint.tensor.mttkrp``. Each call
records a span (id, parent id, name, start, end, counts). Spans stay in
memory until the run writes them out. Nothing is installed in an untraced
run, so it runs the package's own functions.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, counts]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the block may add counts to the dict it gets."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, time.perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record[5]
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result

        return traced


# ---------------------------------------------------------------------------
# count extractors: (args, kwargs, result) -> counts recorded on the span
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _mttkrp_counts(args, kwargs, result):
    x = _arg(args, kwargs, 0, "t")
    dims = (x if isinstance(x, np.ndarray) else x.data).shape
    mode = _arg(args, kwargs, 3, "mode")
    rank = int(result.shape[1])
    entries = dims[0] * dims[1] * dims[2]
    other = sum(d for m, d in enumerate(dims, start=1) if m != mode)
    # dense MTTKRP (Kolda & Bader 2009): one multiply-add per tensor entry per
    # rank column; traffic is the tensor, the two input factors and the output
    return {
        "mode": mode,
        "flop": 2.0 * entries * rank,
        "bytes": 8.0 * (entries + (other + dims[mode - 1]) * rank),
    }


def _parse_maintenance_counts(args, kwargs, result):
    records, rejects = result
    return {"rows": len(records) + len(rejects), "rejected": len(rejects)}


def _build_tensor_counts(args, kwargs, result):
    data = result.tensor.data
    return {
        "discarded": sum(result.discards.values()),
        "entries": int(data.size),
        "nnz": int(np.count_nonzero(data)),
    }


def _save_tensor_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _cp_als_counts(args, kwargs, result):
    return {"iterations": result.iterations, "fit": result.fit}


def _generate_counts(args, kwargs, result):
    return {"jobs": result.manifest["totals"]["jobs"]}


def _files_counts(args, kwargs, result):
    return {"files": len(result)}


def _windows_counts(args, kwargs, result):
    return {"windows": int(result)}


def _pack_counts(args, kwargs, result):
    mask = result[2]
    return {"items": float(mask.sum()), "slots": int(mask.size)}


def _train_counts(args, kwargs, result):
    seqs = _arg(args, kwargs, 0, "train_seqs")
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"epochs": cfg.epochs, "items": cfg.epochs * sum(len(s) + 1 for s in seqs)}


# (span name, module, attribute, counts); the module is where the function
# is defined, and every fleetmaint module naming the same object is patched
HOOKS = (
    ("synth.generate", "fleetmaint.synth", "generate", _generate_counts),
    ("ingest.parse_vehicles", "fleetmaint.ingest", "parse_vehicles", None),
    ("ingest.parse_maintenance", "fleetmaint.ingest", "parse_maintenance",
     _parse_maintenance_counts),
    ("ingest.build_tensor", "fleetmaint.ingest", "build_tensor", _build_tensor_counts),
    ("ingest.write_discard_summary", "fleetmaint.ingest", "write_discard_summary", None),
    ("tensor.save", "fleetmaint.tensor", "save_tensor", _save_tensor_counts),
    ("tensor.load", "fleetmaint.tensor", "load_tensor", None),
    ("parafac.cp_als", "fleetmaint.parafac", "cp_als", _cp_als_counts),
    ("parafac.mttkrp", "fleetmaint.tensor", "mttkrp", _mttkrp_counts),
    ("parafac.cp_compose", "fleetmaint.tensor", "cp_compose", None),
    ("parafac.save_model", "fleetmaint.parafac", "save_model", None),
    ("report.export", "fleetmaint.report", "export_component_reports", _files_counts),
    ("seqmine.extract", "fleetmaint.seqmine", "extract_sequences", None),
    ("seqmine.differential", "fleetmaint.seqmine", "differential", None),
    ("seqmine.count_windows", "fleetmaint.seqmine", "count_windows", _windows_counts),
    ("seqmine.count_pattern", "fleetmaint.seqmine", "count_pattern", None),
    ("seqmine.write_diff_csv", "fleetmaint.seqmine", "write_diff_csv", None),
    ("lstm.split", "fleetmaint.lstm", "split_by_vehicle", None),
    ("lstm.train", "fleetmaint.lstm", "train", _train_counts),
    ("lstm.perplexity", "fleetmaint.lstm", "perplexity", None),
    ("lstm.unigram_baseline", "fleetmaint.lstm", "unigram_baseline", None),
    ("lstm.predict", "fleetmaint.lstm", "predict_next", None),
    ("lstm.save", "fleetmaint.lstm", "SeqModel.save", None),
    ("lstm.load", "fleetmaint.lstm", "SeqModel.load", None),
    # private batch packer: gives the padded-slot counts while it exists
    ("lstm.pack_batch", "fleetmaint.lstm", "_pack_batch", _pack_counts),
)


def _fleetmaint_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fleetmaint" or name.startswith("fleetmaint."))]


@contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    undo = []
    try:
        for name, module_name, attr, count in HOOKS:
            module = sys.modules[module_name]
            if "." in attr:  # method on a class: patch the class dict entry
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(name, raw.__func__, count))
                else:
                    new = tracer.wrap(name, raw, count)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: no hook for {module_name}.{attr}", file=sys.stderr)
                continue
            wrapper = tracer.wrap(name, original, count)
            for mod in _fleetmaint_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:  # e.g. fleetmaint.cli.train_lstm
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
