"""Spans around calls into ``hqloc``'s public functions, recorded from outside.

:class:`Tracer` wraps each function in :data:`TRACED` and, while installed,
puts the wrapper in place of the function object in every ``hqloc`` module
that holds a reference to it. Modules import one another's functions by name
(``train_eval`` holds ``q_gradient_batch``, ``qlayer`` holds
``feature_state``), so patching only the defining module would miss most
calls. Uninstalling restores the original objects, so untraced operations run
exactly the code a user runs.

Each span records its name, start, end, parent span, request id, and a work
count taken from the call's arguments. Spans stay in memory until
:meth:`Tracer.write` is called when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import sys
import time
from collections import defaultdict


def _rows(position):
    def count(args, kwargs):
        return len(args[position]), 0

    return count


def _batch_sweeps(per_param):
    # A forward batch is one sweep of the ansatz over every row; the shift-rule
    # Jacobian is two sweeps per ansatz angle.
    def count(args, kwargs):
        sweeps = 2 * args[0].phi.size if per_param else 1
        return len(args[1]), sweeps

    return count


def _shots(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["shots"]), 0


# module -> {function name: work counter (or None)}. Missing names are skipped,
# so the tracer keeps working when a later version drops one of them.
TRACED = {
    "qlayer": {
        "q_gradient_batch": _batch_sweeps(per_param=True),
        "q_forward_batch": _batch_sweeps(per_param=False),
        "encode_batch": _rows(0),
        "q_forward": None,
    },
    "circuits": {"feature_state": None, "real_amplitudes": None, "run_circuit": None},
    "statevector": {"apply_gates": None, "expect_z": None, "sample_expect_z": _shots},
    "classical": {"forward_batch": None, "backward_batch": None, "forward": None},
    "optim": {"adam_step": None},
    "train_eval": {
        "train": None,
        "hqnn_grad": None,
        "hqnn_forward": None,
        "evaluate_rmse": _rows(1),
        "compare_all": None,
    },
    "baselines": {"build_fingerprint_db": None, "fingerprint_predict": None, "knn_predict": None},
    "data": {"load_csv": None, "transform": None},
    "model_io": {"load_model": None, "save_model": None, "write_csv_rows": None},
    "cli": {"main": None},
}

TRACED_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """In-memory span recorder that patches ``hqloc`` while installed."""

    def __init__(self, package: str = "hqloc"):
        # Span tuples: (name, start, end, parent index, request id, items, sweeps).
        self.spans: list = []
        self._stack: list[int] = []
        self._request = 0
        self._patches = self._plan(package)

    def _plan(self, package):
        patches = []
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"{package}.{mod_name}")
            for fn_name, counter in fns.items():
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
                for holder in list(sys.modules.values()):
                    holder_name = getattr(holder, "__name__", "")
                    if holder_name != package and not holder_name.startswith(package + "."):
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, attr, original, wrapper))
        return patches

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                items, sweeps = _count(counter, args, kwargs)
                spans[index] = (name, start, end, parent, self._request, items, sweeps)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one request (a fix, a training, an eval call, a cell)."""
        self._request += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), -1, self._request, 0, 0)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total and self seconds, work items, sweeps.

        Self time is a span's duration minus the durations of its direct
        children; calls here are single threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: dict(calls=0, total_s=0.0, self_s=0.0, items=0, sweeps=0))
        for i, (name, start, end, _, _, items, sweeps) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["items"] += items
            row["sweeps"] += items * sweeps
        return out

    def epoch_sweeps(self) -> tuple[int, int]:
        """(batch sweeps before each hybrid training's last optimizer step, epochs).

        Counted inside ``train_eval.train`` spans that run quantum sweeps, so
        dense-baseline trainings and the closing post-training forward pass
        are left out.
        """
        owner = [-1] * len(self.spans)
        trainings: dict[int, list] = {}
        for i, (name, _, end, parent, *_rest) in enumerate(self.spans):
            if name == "train_eval.train":
                owner[i] = i
                trainings[i] = [[], -1.0, 0]  # sweep (start, count) pairs, last step end, steps
            elif parent >= 0:
                owner[i] = owner[parent]
            if owner[i] < 0 or owner[i] == i:
                continue
            entry = trainings[owner[i]]
            if name == "optim.adam_step":
                entry[1] = max(entry[1], end)
                entry[2] += 1
            elif name in ("qlayer.q_forward_batch", "qlayer.q_gradient_batch"):
                entry[0].append((self.spans[i][1], self.spans[i][6]))
        sweeps = epochs = 0
        for starts, last_step, steps in trainings.values():
            if starts:
                sweeps += sum(n for start, n in starts if start < last_step)
                epochs += steps
        return sweeps, epochs

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in microseconds from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "request", "name", "start_us", "end_us", "parent", "items", "sweeps"])
            for i, (name, start, end, parent, request, items, sweeps) in enumerate(self.spans):
                out.writerow([i, request, name, round((start - origin) * 1e6, 3),
                              round((end - origin) * 1e6, 3), parent, items, sweeps])


def _count(counter, args, kwargs) -> tuple[int, int]:
    if counter is None:
        return 0, 0
    try:
        return counter(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError):
        # A changed signature loses the work count, not the span.
        return 0, 0
