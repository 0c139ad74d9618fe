"""`uncal` command line: deterministic orchestration over trace files.

Every subcommand reads files, writes files, and records in its report's
`config` every parsed flag of the command except its outputs and `--apply`,
so a flag added to the parser is recorded without further edits. Identical
configurations produce byte-identical outputs. `--seed` seeds the probe's
train/dev split, so it is a flag of `probe sweep` and `probe fit` alone.
Exit codes: 0 success, 1 validation or usage failure, 2 I/O failure.

No command holds an input's table: each reads a block of lines at a time
and derives what it reads as it loads (`jsonio.load_lines` with a derive).
A line writer (`match`, every `--apply`, `recal ptrue`) is such a load
whose derive writes each block's lines, each a line as read with the
columns it replaces, into `jsonio.atomic`'s temporary file before the
next block is read. Every output goes through `jsonio.atomic`.

What a command derives from an input file is kept per process under the
sha256 of the file's bytes: a prediction file's verdicts (one bool per
row, from `match` or any scoring of the file), the `probe.emitted` rows,
the scored columns of `rag` (dataset names sorted, a code per trace), and
a sidecar's row order, never a table, a scored batch or a matrix. So `uncal
run --plan` steps, or repeated `main` calls, that read the same bytes match
them once (a second `calib`, or `recal ats` after `recal ts`, loads the file
but matches no row), and `probe sweep`, `fit` and `eval` on one predictions
file parse it once. Each `main` call drops the entries it did not read.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import calib, jsonio, matio, probe, ragctl, recal, reprgeo, rewards, trajspace
from .errors import AlignmentError, IoError, UncalError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_ints(flag: str, text: str) -> list[int]:
    """The distinct integers of a comma-separated flag value such as
    `--layers 0,8`; an empty list or a repeated index is a usage error."""
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad {flag} value {text!r}") from None
    if len(set(values)) < len(values):
        raise UsageError(f"bad {flag} value {text!r}: an index is repeated")
    return values


def _number_flag(flag: str, ok, what: str, kind: type = float):
    """Parser of the values of `flag`: a number of type `kind` that `ok`
    accepts (`nan`, and text `kind` cannot read, are refused before any input
    is read)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise UsageError(f"bad {flag} value {text!r}: must be {what}")
        return value

    return parse


def _int_flag(flag: str, low: int):
    """Parser of the values of `flag`: an integer of at least `low`."""
    return _number_flag(flag, lambda value: value >= low, f"an integer >= {low}", int)


_parse_eta = _number_flag("--eta", lambda v: 0.0 < v < math.inf, "a finite number > 0")
# the floor of a calibrated probability in `repr kl`
_parse_kl_epsilon = _number_flag("--epsilon", lambda v: 0.0 < v < 1.0, "a number in (0,1)")
_parse_f1_threshold = _number_flag("--f1-threshold", lambda v: 0.0 <= v <= 1.0,
                                   "a number in [0,1]")
_parse_nll_epsilon = _number_flag("--nll-epsilon", lambda v: 0.0 < v < 0.5,
                                  "a number in (0,0.5)")
_parse_l2 = _number_flag("--l2", lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _add_f1_threshold(parser: _Parser) -> None:
    parser.add_argument("--f1-threshold", type=_parse_f1_threshold,
                        default=rewards.DEFAULT_F1_THRESHOLD)


def _add_probe_fit_flags(parser: _Parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="seed of the probe's qid split")
    parser.add_argument("--window", type=_int_flag("--window", 0), default=probe.DEFAULT_WINDOW)
    parser.add_argument("--span-tokens", type=_int_flag("--span-tokens", 1),
                        default=probe.DEFAULT_SPAN_TOKENS)
    parser.add_argument("--l2", type=_parse_l2, default=probe.DEFAULT_L2)


@functools.cache  # built by the first `main` call, then reused
def _build_parser() -> _Parser:
    parser = _Parser(prog="uncal", description=__doc__)
    sub = parser.add_subparsers()

    theory = sub.add_parser("theory", help="tilted-policy verification").add_subparsers()
    verify = theory.add_parser("verify", help="mass-ratio bound check per space")
    verify.set_defaults(handler=_cmd_theory_verify)
    verify.add_argument("--in", dest="input", required=True)
    verify.add_argument("--eta", type=_parse_eta, default=1.0)
    verify.add_argument("--out", default=None)
    iterate = theory.add_parser("iterate", help="repeated tilt trace per space")
    iterate.set_defaults(handler=_cmd_theory_iterate)
    iterate.add_argument("--in", dest="input", required=True)
    iterate.add_argument("--eta", type=_parse_eta, default=1.0)
    iterate.add_argument("--steps", type=_int_flag("--steps", 1), default=5)
    iterate.add_argument("--out", default=None)

    match = sub.add_parser("match", help="annotate records with match results")
    match.set_defaults(handler=_cmd_match)
    match.add_argument("--in", dest="input", required=True)
    _add_f1_threshold(match)
    match.add_argument("--out", default=None, help="default: rewrite in place")

    cal = sub.add_parser("calib", help="calibration report over a record batch")
    cal.set_defaults(handler=_cmd_calib)
    cal.add_argument("--in", dest="input", required=True)
    cal.add_argument("--bins", type=_int_flag("--bins", 1), default=calib.DEFAULT_ECE_BINS)
    cal.add_argument("--nll-epsilon", type=_parse_nll_epsilon,
                     default=calib.DEFAULT_NLL_EPSILON)
    _add_f1_threshold(cal)
    cal.add_argument("--out", default=None)
    cal.add_argument("--csv", default=None, help="reliability-diagram bins as CSV")

    rec = sub.add_parser("recal", help="post-hoc recalibration").add_subparsers()
    for name, handler in (("ts", _cmd_recal_ts), ("ats", _cmd_recal_ats)):
        p = rec.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--fit", required=True)
        p.add_argument("--apply", dest="apply_path", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--model-out", default=None)
        _add_f1_threshold(p)
        if name == "ats":
            p.add_argument("--l2", type=_parse_l2, default=recal.DEFAULT_ATS_L2)
    ptrue = rec.add_parser("ptrue")
    ptrue.set_defaults(handler=_cmd_recal_ptrue)
    ptrue.add_argument("--in", dest="input", required=True)
    ptrue.add_argument("--out", required=True)

    pr = sub.add_parser("probe", help="hidden-state wrongness probe").add_subparsers()
    sweep = pr.add_parser("sweep")
    sweep.set_defaults(handler=_cmd_probe_sweep)
    sweep.add_argument("--hidden", required=True, help="directory of layer_<k>.mat files")
    sweep.add_argument("--preds", required=True)
    sweep.add_argument("--layers", required=True, type=lambda text: _parse_ints("--layers", text),
                       help="comma-separated layer indices")
    _add_probe_fit_flags(sweep)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--csv", default=None)
    fitp = pr.add_parser("fit")
    fitp.set_defaults(handler=_cmd_probe_fit)
    fitp.add_argument("--hidden", required=True, help="one layer_<k>.mat file")
    fitp.add_argument("--preds", required=True)
    fitp.add_argument("--layer", type=int, default=-1)
    _add_probe_fit_flags(fitp)
    fitp.add_argument("--out", required=True)
    evalp = pr.add_parser("eval")
    evalp.set_defaults(handler=_cmd_probe_eval)
    evalp.add_argument("--model", required=True)
    evalp.add_argument("--hidden", required=True)
    evalp.add_argument("--preds", required=True)
    evalp.add_argument("--out", default=None)

    rag = sub.add_parser("rag", help="retrieval-controller simulation")
    rag.set_defaults(handler=_cmd_rag)
    rag.add_argument("--policy", required=True,
                     help="always|never|emit|conf:T|emit+probe:T|flare:T|external")
    rag.add_argument("--in", dest="input", required=True)
    _add_f1_threshold(rag)
    rag.add_argument("--out", default=None)
    rag.add_argument("--csv", default=None, help="per-dataset EM/F1/T table")

    rep = sub.add_parser("repr", help="representation analytics").add_subparsers()
    cka = rep.add_parser("cka")
    cka.set_defaults(handler=_cmd_repr_cka)
    cka.add_argument("--x", required=True)
    cka.add_argument("--y", required=True)
    cka.add_argument("--out", default=None)
    klp = rep.add_parser("kl")
    klp.set_defaults(handler=_cmd_repr_kl)
    klp.add_argument("--pairs", required=True)
    klp.add_argument("--annotations", required=True)
    klp.add_argument("--epsilon", type=_parse_kl_epsilon, default=reprgeo.KL_EPSILON)
    klp.add_argument("--out", default=None)
    klp.add_argument("--csv", default=None)
    pca = rep.add_parser("pca")
    pca.set_defaults(handler=_cmd_repr_pca)
    pca.add_argument("--in", dest="input", required=True)
    pca.add_argument("--k", type=_int_flag("--k", 1), required=True)
    pca.add_argument("--out", default=None)
    pca.add_argument("--csv", default=None, help="projected rows as CSV")
    drift = rep.add_parser("drift")
    drift.set_defaults(handler=_cmd_repr_drift)
    drift.add_argument("--base", required=True)
    drift.add_argument("--cal", required=True)
    drift.add_argument("--interest", default=None, help="comma-separated row indices")
    drift.add_argument("--baseline", default=None, help="comma-separated row indices")
    drift.add_argument("--out", default=None)

    run = sub.add_parser("run", help="run a plan of commands in one process")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--plan", required=True, help='JSON Lines, one {"argv": [...]} per step')
    return parser


# parsed flags that are not part of a run's configuration: where its outputs
# go, the file a fitted model is applied to, and the dispatch target
_NOT_CONFIG = frozenset({"out", "csv", "model_out", "apply_path", "handler"})


def _config(args) -> dict:
    """The report's `config` block: every parsed flag not in `_NOT_CONFIG`."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}


def _emit(args, lines: list[dict]) -> None:
    """Each of `lines` as one canonical line: to `--out`, or to stdout."""
    if args.out:
        jsonio.write_jsonl(args.out, lines)
    else:
        for line in lines:
            print(jsonio.dumps_canonical(line))


_REPORTED: set[tuple] = set()  # (file, note) the running command has reported


def _report(path, notes) -> None:
    """Print each of `notes` on the file `path` on stderr as `path:note`, once
    per command, however often (`recal ts --fit f --apply f`) and by what name it is read."""
    for note in notes:
        if (key := (os.path.realpath(path), note)) not in _REPORTED:
            _REPORTED.add(key)
            print(f"{path}:{note}", file=sys.stderr)


def _report_rejected(path, errors: list[tuple[int, str]]) -> None:
    """Report each rejected line on stderr as `path:line: message`."""
    _report(path, [f"{line_no}: {message}" for line_no, message in errors])


def _report_clamped(path, clamped) -> None:
    """Report on stderr how many confidences parsed from `path` were clamped
    into [0,1], where any were: `clamped` is their count, or their flags."""
    if count := int(np.sum(clamped)):
        _report(path, [f" clamped {count} confidence values outside [0,1]"])


def _loaded(path, kind: jsonio.LineKind, derive=None) -> jsonio.LoadResult:
    """`jsonio.load_lines` of `path` by `kind` and `derive`, each rejected
    line reported once on stderr."""
    result = jsonio.load_lines(path, kind, derive)
    _report_rejected(path, result.errors)
    return result


# ---------------------------------------------------------------------------
# Derived inputs: computed once per file content and process
# ---------------------------------------------------------------------------

# (what was derived and with which flags, sha256 of the file's bytes) ->
# (the derived value, read-only, and the load's rejected lines)
_CACHE: dict[tuple, tuple] = {}
_READ: set[tuple] = set()  # the keys the running command has read


def _regular(path) -> bool:
    """Is `path` a regular file? A pipe is not: a read to hash it would consume it."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def _sha256(path) -> str | None:
    """The sha256 of the regular file `path`, read in chunks, or None where
    it is not a regular file or cannot be read (its load then names the fault)."""
    if not _regular(path):
        return None
    try:
        # one small buffer, reused: a fresh 1 MiB chunk per read raised the
        # process's peak RSS by about 1 MiB
        digest, buffer = hashlib.sha256(), memoryview(bytearray(1 << 16))
        with open(path, "rb", buffering=0) as fh:
            while count := fh.readinto(buffer):
                digest.update(buffer[:count])
    except OSError:
        return None
    return digest.hexdigest()


def _read_only(value):
    """`value`, with each numpy array in it (through dataclasses, dicts and
    tuples) made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _read_only(getattr(value, field.name))
    elif isinstance(value, (dict, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            _read_only(item)
    return value


def _lookup(path, what) -> tuple[str | None, tuple | None]:
    """(digest, entry): the sha256 of `path` and the entry (value, rejected
    lines) kept under `what` for those bytes, now read by the running command;
    (None, None), hashing nothing, where no entry is kept under `what`."""
    if not any(key[0] == what for key in _CACHE):
        return None, None
    digest = _sha256(path)
    entry = _CACHE.get((what, digest))
    if entry is not None:
        _READ.add((what, digest))
    return digest, entry


def _keep(what, path, result: jsonio.LoadResult, value):
    """`value`, made read-only, kept with the rejected lines of `result` (the
    load of `path`) under `what` and the sha256 of the bytes the load parsed,
    as read by the running command; nothing is kept of a file that is not regular."""
    if _regular(path):
        _CACHE[what, result.sha256] = value, result.errors
        _READ.add((what, result.sha256))
    return _read_only(value)


def _derived(what, path, load):
    """What `load(path)` derives of the file `path` (its result's `records`),
    made read-only and kept (`_keep`) under `what`, a name and every flag the
    derivation reads: a later call for the same `what` and bytes neither
    loads nor derives again, and reports the rejected lines as the load did.
    A file that is not regular is loaded every time."""
    _, entry = _lookup(path, what)
    if entry is not None:
        _report_rejected(path, entry[1])
        return entry[0]
    result = load(path)
    return _keep(what, path, result, result.records)


def _space_batch(path) -> trajspace.SpaceBatch:
    """Every trajectory space of the space file `path`, as one batch."""
    return trajspace.space_batch(_loaded(path, jsonio.SPACES).records)


def _scored(path, f1_threshold: float, derive=None) -> jsonio.LoadResult:
    """The load of the prediction file `path`, a block of lines at a time,
    whose `records` are (its `ScoredBatch` at `f1_threshold`, what
    `derive(columns, batch)` derives of each block, or None); each rejected
    line is reported once. A row without a `match` block takes the verdict
    kept for its bytes and threshold, where one is, and the batch's verdicts
    are kept. Bytes changed after the lookup are loaded again."""
    what = ("verdicts", f1_threshold)
    digest, entry = _lookup(path, what)
    kept = None if entry is None else entry[0]
    start = 0

    def block(columns):
        nonlocal start
        rows = slice(start, start + len(columns["qid"]))
        start = rows.stop
        # the block's rows of the kept verdicts: None past their end, where
        # the file gained lines after the lookup (and is loaded again)
        part = None if kept is None or rows.stop > len(kept) else kept[rows]
        batch = rewards.score_predictions(columns, f1_threshold, part)
        return batch, None if derive is None else derive(columns, batch)

    result = jsonio.load_lines(path, jsonio.PREDICTIONS, block)
    if entry is not None and result.sha256 != digest:  # changed after the lookup
        return _scored(path, f1_threshold, derive)
    _report_rejected(path, result.errors)
    _keep(what, path, result, result.records[0].correct)
    return result


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_theory_verify(args) -> int:
    batch, config = _space_batch(args.input), _config(args)
    checks = trajspace.verify_bounds(batch, args.eta)
    _emit(args, [{"index": index, "config": config, "gold_answer": gold, **check}
                       for index, (gold, check) in enumerate(zip(batch.gold_answer, checks))])
    return 0


def _cmd_theory_iterate(args) -> int:
    batch, config = _space_batch(args.input), _config(args)
    traces = trajspace.iterate_tilt(batch, args.eta, args.steps)
    _emit(args, [{"index": index, "config": config, "steps": steps}
                       for index, steps in enumerate(traces)])
    return 0


def _cmd_match(args) -> int:
    """Write each line with its answer and that answer's match filled in, a
    block of lines at a time as it is read: to `--out`, or over the input,
    which is left as it was where a line of it was rejected (rewriting it
    would drop that line). The verdicts, one bool per row, are kept for the
    bytes read: scoring them matches no row again."""

    def rewrite(columns):  # each block written before the next is read
        answers = rewards.answers(columns, range(len(columns["qid"])))
        matches = rewards.match_answers(answers, columns["gold_answers"], args.f1_threshold)
        write(jsonio.encode_lines(jsonio.PREDICTION, {
            **columns, "extracted_answer": answers, "match": list(map(vars, matches))}))
        return np.array([match.correct for match in matches], dtype=bool)

    with jsonio.atomic(args.out or args.input) as write:
        result = _loaded(args.input, jsonio.PREDICTIONS, rewrite)
        if result.errors and not args.out:
            raise ValueError(f"{args.input}: {len(result.errors)} of {result.total_lines} "
                             "lines rejected; the file is left as it was (give --out to write "
                             "the accepted lines)")
    # the verdicts a later scoring of these bytes at this threshold reads
    _keep(("verdicts", args.f1_threshold), args.input, result, result.records)
    return 0


def _cmd_calib(args) -> int:
    batch = _scored(args.input, args.f1_threshold).records[0]
    _report_clamped(args.input, batch.clamped)
    report = calib.calibration_report(batch, args.bins, args.nll_epsilon)
    _emit(args, [{
        "schema": "uncal-calib-report-v2",
        "config": _config(args),
        **report,
        "error_taxonomy": calib.error_taxonomy(batch),
    }])
    if args.csv:
        header = ["lo", "hi", "count", "mean_conf", "accuracy"]
        jsonio.write_csv(args.csv, header, [[b[key] for key in header] for b in report["bins"]])
    return 0


def _recalibrate(args, path, original_of, new_of, missing: str) -> None:
    """Write the prediction file `path` to `--out` a block of lines at a
    time, the `verbal_confidence` column of each block's `columns` replaced
    by `new_of(columns, original)`, where `original_of(columns)` is
    (`original`, the flags of its values clamped, counted on stderr). A row
    whose original is NaN keeps its own and is counted on stderr as lacking
    `missing`. A new value outside [0,1], NaN included, for any other row
    is refused, and nothing is written."""
    skipped = clamped = 0

    def rewrite(columns):  # each block written before the next is read
        nonlocal skipped, clamped
        original, flags = original_of(columns)
        new, skip = new_of(columns, original), np.isnan(original)
        clamped += np.count_nonzero(flags)
        if not (skip | ((new >= 0.0) & (new <= 1.0))).all():
            raise ValueError("verbal_confidence must lie in [0,1]")
        skipped += int(skip.sum())
        confidence = [own if keep else conf for own, keep, conf
                      in zip(columns["verbal_confidence"], skip.tolist(), new.tolist())]
        write(jsonio.encode_lines(jsonio.PREDICTION, {**columns, "verbal_confidence": confidence}))

    with jsonio.atomic(args.out) as write:
        _loaded(path, jsonio.PREDICTIONS, rewrite)
    _report_clamped(path, clamped)
    if skipped:
        print(f"skipped {skipped} records without {missing}", file=sys.stderr)


def _apply_model(args, model, apply, schema: str, **fields) -> int:
    """Write `--apply` recalibrated by `apply(columns, confidence)`, and to any
    `--model-out` every field of `model`, `fields`, the `schema` and the config."""
    _recalibrate(args, args.apply_path, rewards.confidences, apply, "parseable confidence")
    if args.model_out:
        jsonio.write_jsonl(args.model_out, [{
            **vars(model), **fields, "fit": jsonio.encode(jsonio.FIT, vars(model.fit)),
            "schema": schema, "config": _config(args)}])
    return 0


def _cmd_recal_ts(args) -> int:
    batch = _scored(args.fit, args.f1_threshold).records[0]
    _report_clamped(args.fit, batch.clamped)
    model = recal.fit_global_ts(batch)
    return _apply_model(args, model, lambda columns, confidence: recal.apply_ts(model, confidence),
                        "uncal-ts-model-v3")


def _cmd_recal_ats(args) -> int:
    # the fit reads the batch and three feature columns of `--fit`
    batch, features = _scored(args.fit, args.f1_threshold, lambda columns, batch: (
        recal.ats_features(columns, batch.confidence))).records
    _report_clamped(args.fit, batch.clamped)
    model = recal.fit_ats(features, batch, args.l2)
    return _apply_model(args, model,
                        lambda columns, confidence: recal.apply_ats(model, columns, confidence),
                        "uncal-ats-model-v3", temperature_floor=recal.ATS_TEMPERATURE_FLOOR)


def _cmd_recal_ptrue(args) -> int:
    _recalibrate(args, args.input,
                 lambda columns: (np.array(columns["p_affirmative"], dtype=float), False),
                 lambda columns, p_affirmative: p_affirmative, "p_affirmative")
    return 0


def _token_rows(rows: dict[str, list]) -> tuple[int, dict[str, slice | np.ndarray], str | None]:
    """From a sidecar's `qid` and `token_index` columns: its row count, each
    qid's rows in token order (a row without `token_index` takes its
    position among the qid's rows), and the fault of
    the first qid whose token indices are not 0..k-1, or None. A qid whose
    rows are contiguous and already in token order gets a slice, of which
    `probe` reads only the start and stop; any other qid gets an array of
    its row indices."""
    grouped: dict[str, list[tuple[int, int]]] = {}
    for i, (qid, token) in enumerate(zip(rows["qid"], rows["token_index"])):
        members = grouped.setdefault(qid, [])
        members.append((len(members) if token is None else token, i))
    order, fault = {}, None
    for qid, members in grouped.items():
        members.sort()
        if fault is None and [token for token, _ in members] != list(range(len(members))):
            fault = f"token indices of qid {qid!r} are not 0..{len(members) - 1}"
        indices = [i for _, i in members]
        start = indices[0]
        contiguous = indices == list(range(start, start + len(indices)))
        order[qid] = (slice(start, start + len(indices)) if contiguous
                      else np.array(indices, dtype=np.intp))
    return len(rows["qid"]), order, fault


def _row_order(path) -> jsonio.LoadResult:
    """The read of the sidecar `path`, whose `records` are its `_token_rows`."""
    result = matio.read_row_ids(path)
    return dataclasses.replace(result, records=_token_rows(result.records))


def _load_token_stack(mat_path) -> probe.TokenStack:
    """A layer file's matrix and, from its sidecar, each qid's rows in token
    order: row t of a qid's rows is the hidden state of its token t. A qid
    whose rows are contiguous and in token order has a slice (its first row
    and the row past its last); any other has an array of its row indices.
    Sidecars with the same bytes,
    such as those of a model's layers, share one parse."""
    values = matio.read_matrix(mat_path)
    count, order, fault = _derived("rows", str(mat_path) + ".ids.jsonl", _row_order)
    if count != values.shape[0]:
        raise IoError(f"{mat_path}: sidecar row count does not match matrix")
    if fault is not None:
        raise AlignmentError(f"{mat_path}: {fault}")
    return values, order


def _probe_inputs(path) -> dict:
    """The `probe.emitted` rows of the prediction file `path`, scored at the
    default F1 threshold, derived a block of lines at a time (`_scored`):
    `probe sweep`, `fit` and `eval` on one file load and score it once."""

    def load(path):
        result = _scored(path, rewards.DEFAULT_F1_THRESHOLD, probe.emitted)
        return dataclasses.replace(result, records=result.records[1])

    return _derived("probe", path, load)


def _cmd_probe_sweep(args) -> int:
    inputs = _probe_inputs(args.preds)
    # a generator: each layer is loaded only once the one before it is fitted
    stacks = ((k, _load_token_stack(Path(args.hidden) / f"layer_{k}.mat")) for k in args.layers)
    rows = probe.layer_sweep(
        stacks, inputs,
        window=args.window, span_token_count=args.span_tokens,
        l2=args.l2, seed=args.seed,
    )
    _emit(args, [{
        "schema": "uncal-probe-sweep-v1",
        "config": _config(args),
        "rows": rows,
    }])
    if args.csv:
        header = ["layer", "auroc", "auprc", "precision", "recall", "f1"]
        jsonio.write_csv(args.csv, header, [[r[key] for key in header] for r in rows])
    return 0


def _probe_examples(args, window: int, span_tokens: int):
    """The probe's (features, wrong labels, qids) from `--preds` and the one
    layer file `--hidden`."""
    return probe.examples(_probe_inputs(args.preds), _load_token_stack(args.hidden), window,
                          span_tokens)


def _cmd_probe_fit(args) -> int:
    x, labels, qids = _probe_examples(args, args.window, args.span_tokens)
    model = probe.fit_on_split(x, labels, probe.split_by_qid(qids, args.seed), args.l2,
                               args.layer)[0]
    jsonio.write_jsonl(args.out, [jsonio.encode(jsonio.PROBE_MODEL, {
        **vars(model), "fit": vars(model.fit), "schema": "uncal-probe-model-v2",
        "config": _config(args),
    })])
    return 0


def _load_probe_model(path) -> tuple[probe.ProbeModel, tuple[int, int]]:
    """The model in a `probe fit` output, read by `jsonio.PROBE_MODEL`, and
    the (window, span tokens) it was fitted with (the defaults where its
    config does not say)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read model {path}: {exc}") from exc
    try:
        obj = json.loads(text)
        if type(obj) is not dict:  # `read_table` would call it a line
            raise ValueError("must be a JSON object")
        fields = jsonio.read_table(jsonio.PROBE_MODEL, obj)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: probe model is not JSON: {exc.msg}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: probe model {exc}") from None
    config = fields.pop("config") or jsonio.read_table(jsonio.PROBE_MODEL_CONFIG, {})
    del fields["fit"], fields["schema"]
    for key in ("weights", "feature_means", "feature_stds"):
        fields[key] = np.array(fields[key], dtype=float)
    return probe.ProbeModel(**fields), (config["window"], config["span_tokens"])


def _cmd_probe_eval(args) -> int:
    model, (window, span_tokens) = _load_probe_model(args.model)
    x, labels, _ = _probe_examples(args, window, span_tokens)
    _emit(args, [{
        "schema": "uncal-probe-eval-v3",
        "config": _config(args),
        "layer": model.layer,
        "n": int(len(labels)),
        **probe.evaluate(probe.ranked(model.scores(x), labels), model.threshold),
        "threshold": model.threshold,
    }])
    return 0


def _cmd_rag(args) -> int:
    policy = ragctl.parse_policy_spec(args.policy)

    def load(path):  # scored a block at a time, grouped once whole
        result = _loaded(path, jsonio.RAG_TRACES,
                         lambda columns: ragctl.score_traces(columns, args.f1_threshold))
        return dataclasses.replace(result, records=ragctl.grouped(result.records))

    scored = _derived(("rag", args.f1_threshold), args.input, load)
    fires = ragctl.decide(policy, scored)
    report = ragctl.trigger_report(scored, fires)
    per_dataset = ragctl.trigger_reports_by_dataset(scored, fires)
    _emit(args, [{
        "schema": "uncal-rag-report-v3",
        "config": _config(args),
        "overall": report,
        "per_dataset": per_dataset,
    }])
    if args.csv:
        # "overall" is appended, not merged in: a dataset may bear that name
        cells = ["final_em", "final_f1", "trigger_rate"]
        rows = [[name] + [r[key] for key in cells] for name, r in per_dataset.items()]
        rows.append(["overall"] + [report[key] for key in cells])
        jsonio.write_csv(args.csv, ["dataset", "em", "f1", "trigger_rate"], rows)
    return 0


def _cmd_repr_cka(args) -> int:
    x = matio.read_matrix(args.x)
    y = matio.read_matrix(args.y)
    _emit(args, [{
        "schema": "uncal-repr-cka-v2",
        "config": _config(args),
        "cka": reprgeo.linear_cka(x, y),
        "rows": int(x.shape[0]),
    }])
    return 0


def _cmd_repr_kl(args) -> int:
    pairs = _loaded(args.pairs, jsonio.scored_kl_pairs(args.epsilon)).records
    annotations = _loaded(args.annotations, jsonio.KL_ANNOTATIONS).records
    table = reprgeo.kl_by_type(pairs, annotations)
    rows = {token_type.value: row for token_type, row in table.items()}
    _emit(args, [{"schema": "uncal-repr-kl-v2", "config": _config(args), "by_type": rows}])
    if args.csv:
        cells = ["count", "mean_kl", "mass_fraction"]
        jsonio.write_csv(args.csv, ["type", *cells], [
            [name] + [row[key] for key in cells] for name, row in sorted(rows.items())])
    return 0


def _cmd_repr_pca(args) -> int:
    x = matio.read_matrix(args.input)
    result = reprgeo.pca_project(x, args.k)
    _emit(args, [{
        "schema": "uncal-repr-pca-v2",
        "config": _config(args),
        "explained_variance_ratio": [float(v) for v in result.explained_variance_ratio],
    }])
    if args.csv:
        header = [f"pc{i + 1}" for i in range(args.k)]
        jsonio.write_csv(args.csv, header, result.projection)
    return 0


def _cmd_repr_drift(args) -> int:
    if args.baseline is None and args.interest is not None:
        raise UsageError("--interest needs --baseline")
    if args.interest is None and args.baseline is not None:
        raise UsageError("--baseline needs --interest")
    if args.interest is not None:
        interest = _parse_ints("--interest", args.interest)
        baseline = _parse_ints("--baseline", args.baseline)
    base = matio.read_matrix(args.base)
    cal = matio.read_matrix(args.cal)
    payload = {
        "schema": "uncal-repr-drift-v2",
        "config": _config(args),
        "relative_frobenius_drift": reprgeo.frobenius_drift(base, cal),
    }
    if args.interest is not None:
        report = reprgeo.embedding_drift_report(interest, baseline, base, cal)
        if report["ratio"] == math.inf:
            report["ratio"] = "inf"
        payload["embedding_drift"] = report
    _emit(args, [payload])
    return 0


def _plan_step(argv: list[str]) -> str | None:
    """Why `argv` is no plan step, or None where it parses as one command other than `run`."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # a help request prints help
            handler = getattr(_build_parser().parse_args(argv), "handler", None)
    except UsageError as exc:
        return str(exc)
    except SystemExit:
        return "a help request is not a plan step"
    if handler is None:
        return "argv names no command"
    if handler is _cmd_run:
        return "a plan step may not run a plan"
    return None


# a plan's lines: each step's argv, refused unless it parses as a command
_PLAN = jsonio.LineKind(jsonio.PLAN_STEP, rule=lambda fields: [
    (row, refusal) for row, refusal in enumerate(map(_plan_step, fields["argv"])) if refusal])


def _cmd_run(args) -> int:
    """Each step of the plan, as `main` runs it alone, in order; the first
    step that exits non-zero stops the plan with its code. The whole plan is
    read and checked first: a refused line runs no step."""
    plan = jsonio.read_file(args.plan, _PLAN)
    if plan.errors:
        _report_rejected(args.plan, plan.errors)
        raise ValueError(f"{args.plan}: {len(plan.errors)} of {plan.total_lines} plan lines "
                         "refused; no step was run")
    for argv in plan.records["argv"]:
        code = main(argv)
        if code:
            return code
    return 0


def main(argv=None) -> int:
    """Run one command; then drop each cached input the command did not read."""
    _READ.clear()
    _REPORTED.clear()
    try:
        return _main(argv)
    finally:
        for key in _CACHE.keys() - _READ:
            del _CACHE[key]


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            parser.print_usage(sys.stderr)
            return 1
        return handler(args)
    except UsageError as exc:
        print(f"uncal: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (IoError, OSError) as exc:
        print(f"uncal: {exc}", file=sys.stderr)
        return 2
    except (UncalError, ValueError) as exc:
        print(f"uncal: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
