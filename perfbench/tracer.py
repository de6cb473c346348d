"""Spans around the public functions of each ``sgdmc`` module, recorded from
outside the package.

``install`` replaces every ``sgdmc.*`` module attribute that holds one of the
traced functions with a wrapper (``cli`` and the package ``__init__`` import
the names directly, and calls inside a module go through its globals), and
patches ``Grid.classify`` on the class. A span is
``[name, start, end, parent, rss_delta_kb, counters]``: ``parent`` is the
index of the enclosing span or -1, and ``rss_delta_kb`` is the growth of
``ru_maxrss`` over the call. Spans stay in memory until the caller writes
them.
"""

import functools
import importlib
import resource
import sys
import time
from contextlib import contextmanager

# module -> public functions whose calls become spans
TRACED = {
    "poly": ["real_roots"],
    "objective": ["lipschitz_constant", "objective_from_config"],
    "absorbing": ["decompose", "rectangle_count_for"],
    "dynamics": [
        "splitting_certificate_multi", "escape_path", "uniform_escape_length",
        "sgd_sample",
    ],
    "transfer": [
        "ulam_assemble", "invariant_measure", "dual_operator", "basin_functions",
        "ulam_absorption", "limit_mixture", "push_forward",
    ],
    "metrics": ["d_tilde", "metric_config", "d_F"],
    "diffusion": ["stationary_density"],
}

# counts read off the returned objects
COUNTERS = {
    "transfer.ulam_assemble": lambda r: {"nnz": r.matrix.nnz, "row_sum_error": r.row_sum_error},
    "transfer.invariant_measure": lambda r: {"iterations": r.iterations},
    "transfer.basin_functions": lambda r: {
        "iterations": r.iterations, "partition_defect": r.partition_defect,
    },
    "dynamics.uniform_escape_length": lambda r: {
        "points": int(r.lengths.size), "ell_zero": r.ell_zero,
    },
    "dynamics.splitting_certificate_multi": lambda r: {"ell": r.ell},
    "dynamics.sgd_sample": lambda r: {"steps": r.steps},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        rss0 = _maxrss_kb()
        record = {}
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = [name, t0, t1, parent, _maxrss_kb() - rss0, record]

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if count is not None:
                    record.update(count(out))
                return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"sgdmc.{mod_name}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self.wrap(f"{mod_name}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sgdmc" and not mod_name.startswith("sgdmc."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        grid_cls = importlib.import_module("sgdmc.transfer").Grid
        grid_cls.classify = self.wrap("transfer.Grid.classify", grid_cls.classify)
