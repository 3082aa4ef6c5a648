"""Spans around the package's public functions, installed by rebinding names.

A span is (name, start, end, parent, attrs). Wrappers are installed on the
names each caller looks up (`longicausal.cli.run_monte_carlo`,
`longicausal.iptw.fit_glm`, the `PanelDataset` accessors, ...) and removed
afterwards, so untraced runs execute the unmodified package. A name missing
from the package is skipped: its layer then reports 0 calls.

Self time is a span's duration minus the durations of its direct children.
The program is single-threaded here, so children nest inside their parent
and never overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from time import perf_counter


def _rows(args, kwargs) -> int:
    design = args[0] if args else kwargs.get("design")
    return len(design)


def _glm_attrs(args, kwargs, fit) -> dict:
    return {
        "family": fit.family,
        "rows": _rows(args, kwargs),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
    }


def _mc_attrs(args, kwargs, summary) -> dict:
    return {"replicates": summary.n_replicates, "failed": summary.n_failed}


def _len_attrs(args, kwargs, records) -> dict:
    return {"n": len(records)}


def _assign_attrs(args, kwargs, attribution) -> dict:
    return {
        "after_cut": attribution.n_after_cut,
        "assigned": attribution.total_assigned,
        "unassigned": attribution.unassigned,
    }


_ESTIMATORS = ("naive_poisson", "adjusted_poisson", "msm_iptw")
_PANEL_ACCESSORS = (
    "treatment_matrix",
    "confounder_matrix",
    "outcome_vector",
    "baseline_treatment_vector",
    "baseline_confounder_vector",
    "cum_treatment_vector",
    "cum_confounder_vector",
)

# (module, attribute path, span name, attrs recorder)
TARGETS = (
    [
        ("longicausal.cli", "main", "cli", None),
        ("longicausal.cli", "run_monte_carlo", "simulate.harness", _mc_attrs),
        ("longicausal.cli", "stabilized_weights", "iptw.weights", None),
        ("longicausal.cli", "read_panel_csv", "panel.csv", None),
        ("longicausal.cli", "write_panel_csv", "panel.csv", None),
        ("longicausal.cli", "load_wells_csv", "geo.load_wells", _len_attrs),
        ("longicausal.cli", "load_catalog_csv", "geo.load_catalog", _len_attrs),
        ("longicausal.cli", "cluster_wells", "geo.cluster", None),
        ("longicausal.cli", "assign_quakes", "geo.assign", _assign_attrs),
        ("longicausal.cli", "build_panel", "geo.build_panel", None),
        ("longicausal.simulate", "generate_dataset", "simulate.generate", None),
        ("longicausal.simulate", "_run_replicate", "simulate.replicate", None),
        ("longicausal.simulate", "stabilized_weights", "iptw.weights", None),
        ("longicausal.iptw", "fit_treatment_models", "iptw.treatment_models", None),
        ("longicausal.iptw", "fit_glm", "glm.fit", _glm_attrs),
        ("longicausal.estimators", "fit_glm", "glm.fit", _glm_attrs),
        ("longicausal.estimators", "sandwich_cov", "glm.sandwich", None),
        ("longicausal.estimators", "stabilized_weights", "iptw.weights", None),
        ("longicausal.glm", "sandwich_cov", "glm.sandwich", None),
    ]
    + [(mod, name, "estimators", None) for mod in ("longicausal.cli", "longicausal.simulate") for name in _ESTIMATORS]
    + [("longicausal.panel", f"PanelDataset.{name}", "panel.to_array", None) for name in _PANEL_ACCESSORS]
)


class Tracer:
    """In-memory span recorder; `installed()` rebinds the traced names."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, recorder):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if recorder is not None:
                span[4] = recorder(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, path, name, recorder in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                continue  # removed from the package: its layer reports 0 calls
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, recorder))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self) -> None:
        self.spans.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
