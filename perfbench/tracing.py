"""Spans around the public functions of each layer, recorded from outside.

`Tracer.installed()` replaces each traced function where its caller looks it
up: `cli` imports the parsers, the rewrite and `add_abox_with_repair` by
name, `add_abox_with_repair` finds the other repair functions in the
`repair` module, and the window operations are methods of `WindowModel`.
Each span records its total time and its self time (total minus the time
its child spans cover). Counts read from the values the functions return,
and the state size after each slide, are taken outside every span: that time
is subtracted from the spans that enclose it.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

from rlwindow import cli, repair
from rlwindow.window import WindowModel

# (metric prefix, owner whose attribute the caller reads, attribute name)
TRACED = (
    ("stream.parse_stream", cli, "parse_stream"),
    ("ontology.parse_tbox", cli, "parse_tbox"),
    ("ontology.unfold_negative_inclusions", cli, "unfold_negative_inclusions"),
    ("window.add_abox", WindowModel, "add_abox"),
    ("window.drop_before", WindowModel, "drop_before"),
    ("window.slide", WindowModel, "slide"),
    ("window.attributed_atoms", WindowModel, "attributed_atoms"),
    ("repair.add_abox_with_repair", cli, "add_abox_with_repair"),
    ("repair.find_conflicts", repair, "find_conflicts"),
    ("repair.resolve_conflicts", repair, "resolve_conflicts"),
    ("repair.apply_repair", repair, "apply_repair"),
)
RUN = "cli.run"


def _state_size(wm):
    """(occurrences, atoms) held by a window model."""
    occurrences = atoms = 0
    for index in (wm._concepts, wm._roles):
        for by_key in index.values():
            atoms += len(by_key)
            occurrences += sum(len(homes) for homes in by_key.values())
    return occurrences, atoms


class Tracer:
    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name, _, _ in TRACED}
        self.spans[RUN] = [0, 0.0, 0.0]
        self._children = []  # child time of each open span
        self._paused = 0.0  # time spent observing, excluded from spans
        self.flattened_bodies = 0
        self.slides = []  # (added, expired, occurrences, atoms) per slide
        self.repairs = []  # (conflicts, removed, overdeleted, rederived) per tick

    def wrap(self, name, fn, observe=None):
        span = self.spans[name]
        children = self._children

        def traced(*args, **kwargs):
            paused = self._paused
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (self._paused - paused)
                child = children.pop()
                span[0] += 1
                span[1] += dt
                span[2] += dt - child
                if children:
                    children[-1] += dt
            if observe is not None:
                t1 = perf_counter()
                observe(args, result)
                self._paused += perf_counter() - t1
            return result
        return traced

    def _on_unfold(self, args, ntbox):
        self.flattened_bodies = len(ntbox.flattened_negatives)

    def _on_slide(self, args, report):
        self.slides.append((report.added_occurrences, report.expired_occurrences,
                            *_state_size(args[0])))

    def _on_repair(self, args, result):
        rep = result[1]
        self.repairs.append((len(rep.conflicts), len(rep.removed),
                             rep.overdeleted, rep.rederived))

    @contextmanager
    def installed(self):
        """Swap the traced functions in; put the originals back on exit."""
        observers = {
            "ontology.unfold_negative_inclusions": self._on_unfold,
            "window.slide": self._on_slide,
            "repair.add_abox_with_repair": self._on_repair,
        }
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in TRACED]
        try:
            for (name, owner, attr), (_, _, fn) in zip(TRACED, originals):
                setattr(owner, attr, self.wrap(name, fn, observers.get(name)))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def metrics(self, passes):
        """Per-layer metrics, per traced pass of the CLI loop."""
        out = {}
        for name, (calls, total, self_time) in self.spans.items():
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.total_s"] = (total / passes, "s")
            out[f"{name}.self_s"] = (self_time / passes, "s")
        out["ontology.flattened_bodies"] = (self.flattened_bodies, "count")
        slides = self.slides or [(0, 0, 0, 0)]
        added, expired, occurrences, atoms = zip(*slides)
        out["window.occurrences_p50"] = (statistics.median(occurrences), "count")
        out["window.atoms_p50"] = (statistics.median(atoms), "count")
        out["window.added_occurrences"] = (sum(added) / passes, "count")
        out["window.expired_occurrences"] = (sum(expired) / passes, "count")
        repairs = self.repairs or [(0, 0, 0, 0)]
        conflicts, removed, overdeleted, rederived = (sum(c) for c in zip(*repairs))
        conflict_ticks = sum(1 for r in self.repairs if r[0])
        out["repair.conflicts"] = (conflicts / passes, "count")
        out["repair.conflict_ticks"] = (conflict_ticks / passes, "count")
        out["repair.conflict_hit_ratio"] = (
            conflict_ticks / len(self.repairs) if self.repairs else 0.0, "ratio")
        out["repair.removed"] = (removed / passes, "count")
        out["repair.overdeleted"] = (overdeleted / passes, "count")
        out["repair.rederived"] = (rederived / passes, "count")
        out["repair.rederive_waste"] = (
            rederived / overdeleted if overdeleted else 0.0, "ratio")
        return out
