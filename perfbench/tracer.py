"""In-memory span recorder that wraps the package's module attributes.

The program is not edited.  ``Tracer.install`` replaces each traced function
with a wrapper in every ``riskpremia`` module that binds it (the defining
module and every ``from .x import f`` alias), so calls made inside the
package go through the wrapper as well.  A span is (id, name, start_ns,
end_ns, parent_id); spans stay in memory until ``dump`` writes them.

A target that no longer exists (module or attribute gone after a refactor)
is reported as absent with zero calls instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "riskpremia"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.failed: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0, 0, parent))
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        except BaseException:
            self.failed[name] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets: dict[str, object]) -> None:
        """Wrap every ``"<module>.<function>"`` in ``targets`` (value: an
        optional observer called with (counters, result))."""
        for target, observe in targets.items():
            modname, _, attr = target.rpartition(".")
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.append(target)
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent.append(target)
                continue
            wrapper = self.wrap(target, orig, observe)
            for m in _package_modules():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child = defaultdict(int)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[name] += (end - start - child[sid]) * 1e-9
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, name, *_ in self.spans:
            out[name] += 1
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent"],
                       "absent": self.absent, "spans": self.spans}, fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
