"""Traced runs: wrap povmlearn's public callables from outside and keep spans.

A callable is wrapped under the name by which its caller looks it up, so
the wrap sees exactly the calls the CLI path makes: ``povmlearn.cli`` and
``povmlearn.experiment`` for the trial pipeline, ``povmlearn.selfcheck`` for
the oracle battery, and the ``RngStream.generator`` method on its class.
Metric names use the module that defines the callable (its layer), except
for the oracle battery's callees, which are counted apart under
``selfcheck``.  A wrapped name that no longer exists is reported as absent;
the run goes on without it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# (metric name, truth?, [(namespace module, attribute path), ...])
WRAPS = (
    ("cli.main", False, [("povmlearn.cli", "main")]),
    ("experiment.sweep", False, [("povmlearn.cli", "sweep")]),
    ("experiment.run_experiment", False, [("povmlearn.cli", "run_experiment"),
                                          ("povmlearn.experiment", "run_experiment")]),
    ("experiment.emit_results", False, [("povmlearn.cli", "emit_results")]),
    ("experiment.render_results", False, [("povmlearn.experiment", "render_results")]),
    ("ensemble.RngStream.generator", False, [("povmlearn.ensemble", "RngStream.generator")]),
    ("ensemble.estimate_pauli", False, [("povmlearn.experiment", "estimate_pauli")]),
    ("experiment.equal_prior_ensemble", True, [("povmlearn.experiment", "equal_prior_ensemble")]),
    ("experiment.two_fold_ensemble", True, [("povmlearn.experiment", "two_fold_ensemble")]),
    ("experiment.constz_ensemble", True, [("povmlearn.experiment", "constz_ensemble")]),
    ("decomposition.mixture_targets", True, [("povmlearn.experiment", "mixture_targets")]),
    ("constz.mixture_targets_constz", True, [("povmlearn.experiment", "mixture_targets_constz")]),
    ("decomposition.success_prob", True, [("povmlearn.experiment", "success_prob")]),
    ("constz.success_prob_constz", True, [("povmlearn.experiment", "success_prob_constz")]),
    ("helstrom.success_equal_priors", True, [("povmlearn.experiment", "success_equal_priors")]),
    ("equal_prior.learn_equal_prior", False, [("povmlearn.experiment", "learn_equal_prior")]),
    ("equal_prior.povm_axis_from_phi", False, [("povmlearn.experiment", "povm_axis_from_phi")]),
    ("bloch.perp_in_plane", False, [("povmlearn.experiment", "perp_in_plane")]),
    ("bloch.plane_angle", False, [("povmlearn.experiment", "plane_angle")]),
    ("decomposition.cos_theta", False, [("povmlearn.experiment", "cos_theta")]),
    ("constz.cos_theta_z", False, [("povmlearn.experiment", "cos_theta_z")]),
    ("evaluate.classify_holdout", False, [("povmlearn.experiment", "classify_holdout")]),
    ("evaluate.score", False, [("povmlearn.experiment", "score")]),
    ("selfcheck.oracle_battery", False, [("povmlearn.selfcheck", "oracle_battery")]),
    ("selfcheck.mixture_targets", False, [("povmlearn.selfcheck", "mixture_targets")]),
    ("selfcheck.helstrom", False, [("povmlearn.selfcheck", "helstrom")]),
    ("selfcheck.perp_in_plane", False, [("povmlearn.selfcheck", "perp_in_plane")]),
    ("selfcheck.success_prob", False, [("povmlearn.selfcheck", "success_prob")]),
    ("selfcheck.detector_probabilities", False, [("povmlearn.selfcheck", "detector_probabilities")]),
    ("selfcheck.norm", False, [("povmlearn.selfcheck", "norm")]),
)
TRUTH = tuple(name for name, truth, _ in WRAPS if truth)


def _arg_key(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if hasattr(value, "__dataclass_fields__"):
        return tuple(_arg_key(getattr(value, f)) for f in value.__dataclass_fields__)
    return value


@dataclass
class Tracer:
    """In-memory spans: (name, start, end, parent index, invocation id).

    ``repeats`` counts truth calls whose arguments repeat an earlier truth
    call of the same callable in the same invocation, the property that a
    truth cache would exploit.
    """

    spans: list = field(default_factory=list)
    invocation: int = 0
    repeats: int = 0
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _seen: set = field(default_factory=set)
    _patched: list = field(default_factory=list)

    def _wrap(self, name: str, fn, truth: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation)
                if truth:
                    key = (name, tuple(map(_arg_key, args)), tuple((k, _arg_key(v)) for k, v in sorted(kwargs.items())))
                    if key in self._seen:
                        self.repeats += 1
                    else:
                        self._seen.add(key)

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPS that exists; record the rest as absent."""
        for name, truth, sites in WRAPS:
            for module_name, path in sites:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, truth))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def begin(self, invocation: int) -> None:
        """Start attributing spans to an invocation; repeats are per invocation."""
        self.invocation = invocation
        self._seen.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds (inclusive
        minus the time covered by direct child spans)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), covered in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["incl_s"] += end - start
            agg["self_s"] += end - start - covered
        return dict(out)
