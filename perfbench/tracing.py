"""In-memory span tracing of survcare's public layer functions.

The tracer replaces functions at the module attribute each caller looks them
up by (``survcare.estimators.minimize_bfgs``, ``survcare.model_selection.
validation_loss``, ...), so no file of the package changes.  Every wrapped
call records one span (name, start, end, parent, op index) in flat arrays;
nothing is written until the run ends.  Leaving ``Tracer.installed``
restores the originals.

A span's self time is its duration minus the time its child spans cover.
Spans of one thread nest strictly, so the covered time is the sum of the
children's durations, and self times over one op's span tree add up to the
duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "bench.op"


@contextlib.contextmanager
def patched(owner, attr, make):
    """Set ``owner.attr`` to ``make(original)`` inside the block, then restore it.

    A classmethod is unwrapped for ``make`` and wrapped again around its result.
    """
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make(original.__func__)))
    else:
        setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _bfgs_counts(counters, result):
    counters["optimizer.iterations"] += result.iterations
    counters["optimizer.unconverged_runs"] += not result.converged


def _context_counts(counters, result):
    counters["partial_likelihood.basis_size"] += result.basis_size


def layer_targets(survcare):
    """(owner, attribute, span name, result hook) for every traced lookup site.

    One span name may appear at several sites when the same function is
    imported into several modules; each site is where some caller resolves
    the name at call time.
    """
    cli = survcare.cli
    est = survcare.estimators
    ms = survcare.model_selection
    pl = survcare.partial_likelihood
    kern = survcare.kernels
    return [
        (cli, "run_study", "cli.study", None),
        (cli, "simulate_dataset", "simulation.simulate", None),
        (cli, "split_train_validation", "data.split", None),
        (cli, "l2_error_mc", "evaluation.l2", None),
        (cli, "fit_care_path", "model_selection.care", None),
        (ms, "fit_care_path", "model_selection.care", None),
        (ms, "validation_loss", "model_selection.valid_loss", None),
        (ms, "fit_kernel_estimator", "estimators.fit", None),
        (ms, "neg_log_partial_likelihood", "partial_likelihood.loss", None),
        (est.KernelEstimator, "predict_many", "estimators.predict", None),
        (est, "minimize_bfgs", "optimizer.bfgs", _bfgs_counts),
        (est, "preconditioned_objective", "partial_likelihood.objective", None),
        (est, "preconditioned_gradient", "partial_likelihood.gradient", None),
        (est, "penalized_gradient", "partial_likelihood.penalized_gradient", None),
        (est, "neg_log_partial_likelihood", "partial_likelihood.loss", None),
        (est, "cross_matrix", "kernels.cross", None),
        (pl.RepresenterContext, "build", "partial_likelihood.context", _context_counts),
        (pl, "build_representer_basis", "partial_likelihood.basis", None),
        (pl, "gram_matrix", "kernels.gram", None),
        (pl, "neg_log_partial_likelihood", "partial_likelihood.loss", None),
        (pl, "likelihood_gradient_weights", "partial_likelihood.grad_weight", None),
        (kern, "cross_matrix", "kernels.cross", None),
    ]


class Tracer:
    """Records spans of wrapped calls made while an op is open."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_index = -1
        self.counters: list[dict[str, float]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_index < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters[self._op_index], result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target inside the block; the originals return on exit."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, hook in targets:
                stack.enter_context(patched(
                    owner, attr, lambda fn, name=name, hook=hook: self.wrap(fn, name, hook)))
            yield

    def run_op(self, fn, *args):
        """Call fn under a root span; spans and counters are kept per op."""
        self._op_index = len(self.counters)
        self.counters.append(defaultdict(float))
        idx = self._open(self._id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op_index = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int_).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "op": np.frombuffer(self.op, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def per_op(self) -> list[dict[str, float]]:
        """Per op: '<span>_s', '<span>_self_s', '<span>_calls' and the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        num_ops = len(self.counters)
        num_names = len(self.names)
        key = a["op"] * num_names + a["name_id"]
        size = num_ops * num_names
        total = np.bincount(key, weights=dur, minlength=size).reshape(num_ops, num_names)
        own = np.bincount(key, weights=self_time, minlength=size).reshape(num_ops, num_names)
        calls = np.bincount(key, minlength=size).reshape(num_ops, num_names)
        out = []
        for i in range(num_ops):
            row: dict[str, float] = defaultdict(float, self.counters[i])
            for j, name in enumerate(self.names):
                row[f"{name}_s"] = float(total[i, j])
                row[f"{name}_self_s"] = float(own[i, j])
                row[f"{name}_calls"] = float(calls[i, j])
            out.append(row)
        return out
