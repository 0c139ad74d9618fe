"""Span tracing of `uncal` from outside its source.

`Tracer.install()` replaces, for the duration of a `with` block, every
function that one `uncal` module calls in another with a wrapper that records
a span: name, start, end, parent span and invocation id. The wrapper goes on
every binding of the function (its own module's globals, which `cli` reads as
`module.name`, and each `from module import name` copy), so the calls a module
makes to its own boundary functions are traced too. Two module-internal
functions are added by name because per-layer counts need them:
`ragctl.decide` and `trajspace.tilt`.

Spans stay in memory; `analyze` turns one session's spans into the per-layer
metrics, and `dump_spans` writes them out at the end of a run.
"""

from __future__ import annotations

import ast
import gzip
import importlib
import inspect
import json
import os
import pkgutil
import time
from contextlib import contextmanager
from statistics import median

EXTRA_SPANS = (("uncal.ragctl", "decide"), ("uncal.trajspace", "tilt"))
MATCH_SPANS = ("rewards.match_record", "rewards.match_answer")


def _uncal_modules() -> dict:
    import uncal

    names = [f"uncal.{m.name}" for m in pkgutil.iter_modules(uncal.__path__)]
    return {name: importlib.import_module(name) for name in sorted(names)}


def boundary_functions(modules: dict) -> set[tuple[str, str]]:
    """(defining module, function name) for every function a module uses from
    another: `from .x import f` bindings, plus the `x.f` attribute calls `cli`
    makes on modules it imported whole."""
    found = set()
    for mod_name, module in modules.items():
        for obj in vars(module).values():
            if (inspect.isfunction(obj) and obj.__module__ in modules
                    and obj.__module__ != mod_name):
                found.add((obj.__module__, obj.__name__))
        tree = ast.parse(inspect.getsource(module))
        aliases = {alias: vars(module)[alias].__name__ for alias, value in vars(module).items()
                   if inspect.ismodule(value) and value.__name__ in modules}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                target = aliases[node.value.id]
                if inspect.isfunction(getattr(modules[target], node.attr, None)):
                    found.add((target, node.attr))
    return found


class Tracer:
    def __init__(self):
        self.modules = _uncal_modules()
        self.targets = sorted(boundary_functions(self.modules) | set(EXTRA_SPANS))
        self.reset()

    def reset(self) -> None:
        # span: [name, start, end, parent index, invocation id]
        self.spans: list[list] = []
        self.notes: dict[int, object] = {}  # span index -> bytes, lines or match key
        self._stack: list[int] = []
        self.invocation = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.invocation])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, name: str):
        """Root span of one `uncal` invocation, attributed to the cli layer."""
        self.invocation += 1
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        note = _NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if note is not None:
                tracer.notes[index] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def install(self):
        """Wrap every target on every binding; restore the originals on exit."""
        patched = []
        for mod_name, fn_name in self.targets:
            original = getattr(self.modules[mod_name], fn_name)
            wrapper = self._wrap(original, f"{mod_name[len('uncal.'):]}.{fn_name}")
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


# notes recorded from a call's arguments and result


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _load_note(args, kwargs, result):
    return (result.total_lines, len(result.errors))


def _match_record_key(args, kwargs, result):
    return ("record", args[0].qid)


def _match_answer_key(args, kwargs, result):
    # the gold list is the record's own object, so its identity names the record
    return ("answer", id(args[1]), args[0])


_NOTES = {
    "jsonio.write_jsonl": _file_size,
    "jsonio.write_report": _file_size,
    "jsonio.write_csv": _file_size,
    "jsonio.dumps_canonical": lambda a, k, r: len(r.encode("utf-8")) + 1,
    "jsonio.load_lines": _load_note,
    "jsonio.load_predictions": _load_note,
    "jsonio.load_rag_traces": _load_note,
    "matio.read_matrix": _file_size,
    "matio.read_row_ids": _file_size,
    "rewards.match_record": _match_record_key,
    "rewards.match_answer": _match_answer_key,
}


# ---------------------------------------------------------------------------
# Analysis of one traced session
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SessionSpans:
    """Derived views of one session's spans: durations, self times,
    and outermost spans of a family (those with no ancestor in it)."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s[3] >= 0:
                child_time[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def outermost(self, pred) -> list[int]:
        inside = [False] * len(self.spans)  # an ancestor matches pred
        out = []
        for i, s in enumerate(self.spans):  # parents precede children
            parent = s[3]
            inherited = parent >= 0 and (inside[parent] or pred(self.spans[parent]))
            inside[i] = inherited
            if not inherited and pred(s):
                out.append(i)
        return out

    def inclusive(self, pred) -> float:
        return sum(self.duration[i] for i in self.outermost(pred))

    def layer_self(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if _layer(s[0]) == layer)

    def count(self, pred) -> int:
        return sum(1 for s in self.spans if pred(s))


def _named(*names):
    return lambda s: s[0] in names


def _prefixed(prefix):
    return lambda s: s[0].startswith(prefix)


def analyze(spans: list[list], notes: dict, steps, slowdown: float) -> dict:
    """Per-layer metrics of one session. `steps[k]` is invocation k's Step;
    times are divided by the session's slowdown factor (see speed.py)."""
    view = SessionSpans(spans)
    records = sum(step.records for step in steps)
    is_match = _named(*MATCH_SPANS)
    matches = view.outermost(is_match)
    loads = view.outermost(lambda s: s[0].startswith("jsonio.load"))
    writes = view.outermost(lambda s: _layer(s[0]) == "jsonio"
                            and not s[0].startswith("jsonio.load"))
    is_conf = _named("rewards.record_confidence")

    def per_record(prefix, indices):
        """Calls among `indices` made by the commands whose argv starts with
        `prefix`, per record of those commands' main inputs."""
        chosen = [k for k, step in enumerate(steps) if " ".join(step.argv).startswith(prefix)]
        n = sum(steps[k].records for k in chosen)
        calls = sum(1 for i in indices if spans[i][4] in chosen)
        return calls / n if n else 0.0

    conf_calls = [i for i, s in enumerate(spans) if is_conf(s)]
    recal_conf = [i for i in conf_calls
                  if spans[i][3] >= 0 and _layer(spans[spans[i][3]][0]) == "recal"]
    rag_matches = [i for i in matches if _layer(spans[spans[i][3]][0]) == "ragctl"]
    useful = {(spans[i][4], notes[i]) for i in matches}
    metrics = {
        "cli.self_s": view.layer_self("cli"),
        "jsonio.load_s": sum(view.duration[i] for i in loads),
        "jsonio.lines_read": sum(notes[i][0] for i in loads),
        "jsonio.lines_rejected": sum(notes[i][1] for i in loads),
        "jsonio.write_s": sum(view.duration[i] for i in writes),
        "jsonio.bytes_written": sum(notes.get(i, 0) for i in writes),
        "matio.read_s": view.inclusive(_named("matio.read_matrix")),
        "matio.bytes_read": sum(notes[i] for i in view.outermost(_prefixed("matio.read"))),
        "matio.row_ids_s": view.inclusive(_named("matio.read_row_ids")),
        "rewards.match_s": sum(view.duration[i] for i in matches),
        "rewards.match_calls": len(matches),
        "rewards.match_calls_per_record": len(matches) / records,
        "rewards.match_useful_ratio": len(useful) / len(matches) if matches else 1.0,
        "rewards.confidence_calls_per_record": len(conf_calls) / records,
        "rewards.self_s": view.layer_self("rewards"),
        "calib.self_s": view.layer_self("calib"),
        "calib.match_calls_per_record": per_record("calib", matches),
        "calib.confidence_calls_per_record": per_record("calib", conf_calls),
        "recal.ts_fit_s": view.inclusive(_named("recal.fit_global_ts")),
        "recal.ats_fit_s": view.inclusive(_named("recal.fit_ats")),
        "recal.apply_s": view.inclusive(_named("recal.apply_ts", "recal.apply_ats",
                                                "recal.ptrue_combine")),
        "recal.ats_match_calls_per_record": per_record("recal ats", matches),
        "recal.ats_confidence_calls_per_record": per_record("recal ats", recal_conf),
        "ragctl.self_s": view.layer_self("ragctl"),
        "ragctl.decide_calls": view.count(_named("ragctl.decide")),
        "ragctl.match_calls_per_record": per_record("rag", rag_matches),
        "ragctl.conf_match_calls_per_record": per_record("rag --policy conf:", rag_matches),
        "probe.features_s": view.inclusive(_named("probe.build_features")),
        "probe.fit_s": view.inclusive(_named("probe.fit_probe")),
        "probe.fit_calls": view.count(_named("probe.fit_probe")),
        "probe.tune_s": view.inclusive(_named("probe.tune_threshold")),
        "reprgeo.cka_s": view.inclusive(_named("reprgeo.linear_cka")),
        "reprgeo.pca_s": view.inclusive(_named("reprgeo.pca_project")),
        "reprgeo.kl_s": view.inclusive(_named("reprgeo.kl_by_type")),
        "reprgeo.drift_s": view.inclusive(_named("reprgeo.frobenius_drift",
                                                 "reprgeo.embedding_drift_report")),
        "trajspace.parse_s": view.inclusive(_named("trajspace.space_from_dict")),
        "trajspace.tilt_s": view.inclusive(_named("trajspace.tilt")),
        "trajspace.tilt_calls": view.count(_named("trajspace.tilt")),
        "trace.spans": len(spans),
    }
    return {k: v / slowdown if k.endswith("_s") else v for k, v in metrics.items()}


def self_time_summary(spans: list[list]) -> dict:
    """Self time per layer, and how far the self times inside each command
    fall short of (or exceed) the command's own span."""
    view = SessionSpans(spans)
    layers: dict[str, float] = {}
    per_invocation: dict[int, float] = {}
    for s, t in zip(spans, view.self_time):
        layers[_layer(s[0])] = layers.get(_layer(s[0]), 0.0) + t
        per_invocation[s[4]] = per_invocation.get(s[4], 0.0) + t
    gaps = [abs(per_invocation[s[4]] - d)
            for s, d in zip(spans, view.duration) if s[3] < 0]
    return {
        "layer_self_s": dict(sorted(layers.items())),
        "max_command_gap_s": max(gaps),
        "min_span_self_s": min(view.self_time),
    }


def combine(per_session: list[dict]) -> dict:
    """Counts must agree across traced sessions; times take the median."""
    out = {}
    for key in per_session[0]:
        values = [m[key] for m in per_session]
        out[key] = median(values) if key.endswith("_s") else values[0]
    return out


def counts_repeat(per_session: list[dict]) -> bool:
    first = per_session[0]
    return all(m[k] == first[k] for m in per_session for k in m if not k.endswith("_s"))


def dump_spans(path, spans: list[list]) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for i, (name, start, end, parent, invocation) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "invocation": invocation}) + "\n")
