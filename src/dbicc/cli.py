"""Batch command-line interface.

Subcommands
-----------
``estimate``
    dbICC point estimate of one input data set.
``bootstrap``
    Point estimate plus a bootstrap percentile confidence interval.
``sweep-threshold``
    dbICC across a grid of soft-threshold levels (plot-ready CSV).
``simulate``
    Synthetic-data experiments: point-estimate distribution, bootstrap
    coverage, and SNR-versus-intensity curves.

Input formats (auto-detected from the first line, ``--format`` overrides):

* vector CSV with header ``individual,replicate,f1,...,fp``;
* a raw n-by-n distance matrix (headerless CSV) plus ``--groups``
  pointing at a CSV with header ``row,individual,replicate`` (0-based
  ``row``);
* a time-series manifest with header ``individual,replicate,path``,
  each path a headerless CSV of one series (rows are time points),
  resolved relative to the manifest.

Files are UTF-8, with or without a byte-order mark.  Every numeric cell
is split as the ``csv`` module splits it and read as ``float`` reads it.
Plain vector CSVs, distance matrices and series files are read in blocks,
each one read of about 64 Ki characters plus the rest of its last line,
with one ``numpy.loadtxt`` call per block, to the same values; any other
file, and one that fails a check of the block read, goes through ``csv``
and ``float`` cell by cell, which locate each error.  The series
files of one manifest are read in forked processes where
``dbicc._children.fork_workers`` allows.  ``simulate --threads N`` runs in
``min(N, runs)`` child processes, forked by the same rule or else spawned;
``dbicc.simulation`` is imported when ``simulate`` runs, not with this module.
Naming one file by ``--out`` and ``--csv``, or an input by ``--out``, exits 4
before any input is read; a series the manifest lists, before any series is.
Two paths name one file where ``Path.samefile`` says so, hard links
included, or where either is missing and they resolve to one path.

Rows are ordered by individual, in order of first appearance, then by
replicate label: labels that ``int`` reads numerically and first, others
lexically, so ``"1"`` and ``"01"`` are one replicate.

JSON and CSV output write each float as Python's shortest repr, which
parses back to exactly the same value; all randomized commands record
their seed, and re-running with that seed reproduces the output byte for
byte on one machine with one BLAS kernel and one BLAS thread count.
Under another OpenBLAS kernel float fields can move in their last bits; a
coverage run under five kernels moved them by at most 1.0e-15 relative
and changed no verdict.  Series correlations are BLAS products whose bits
also depend on the number of BLAS threads.

An output file is written beside its target and then moved over it, so
a failed write keeps the target's old bytes (:func:`_write_outputs`).

Exit codes: 0 success, 2 input parse error, 3 computation error
(message names the error class; any unexpected error exits 3 the same
way, without a traceback), 4 configuration error, 5 output error.
"""

import argparse
import copyreg
import csv
import errno
import io
import json
import math
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from ._children import fork_workers, run_in_children
from .bootstrap import _check_estimate_count, _check_level, bootstrap_dbicc
from .core import (
    DistanceMatrix,
    GroupedSample,
    PayloadKind,
    _group_order,
    _MatrixColumns,
    block_stats,
    build_grouped_sample,
)
from .distances import DistanceSpec, Metric, _chunk_rows, _threshold_level
from .errors import DbiccError, DegenerateDistancesError, DegenerateInputError
from .estimator import dbicc_point

__all__ = ["main", "main_entry"]

_METRIC_BY_FLAG = {
    "l2": Metric.L2_VEC,
    "l1": Metric.L1_VEC,
    "corr": Metric.CORR_OF_CORR,
}


class _ParseFailure(Exception):
    """Input file could not be parsed; carries location diagnostics."""

    def __init__(self, path, message, line=None, column=None):
        loc = str(path)
        if line is not None:
            loc += f":{line}"
            if column is not None:
                loc += f":{column}"
        super().__init__(f"{loc}: {message}")

    def __reduce__(self):
        # rebuilt from its message, without __init__, so that it pickles
        return copyreg.__newobj__, (type(self), *self.args)


class _ConfigFailure(Exception):
    """Flags or flag combinations are invalid."""


def _int_at_least(low, what):
    """An argparse type for integers ``>= low``; ``what`` names that range."""

    def parse(text):
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")

    return parse


# --seed: nonnegative, as numpy's seeding requires; counts: at least one
_seed = _int_at_least(0, "nonnegative")
_count = _int_at_least(1, "positive")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def dumps_json(obj) -> str:
    """Indented JSON; floats as their shortest exact repr, NaN/Inf rejected."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _same_file(a, b):
    """Whether paths ``a`` and ``b`` name one file: by ``Path.samefile`` where
    both exist, so that hard links count, else by their resolved paths."""
    try:
        return Path(a).samefile(b)
    except OSError:  # one of them does not exist
        try:
            return Path(a).resolve() == Path(b).resolve()
        except RuntimeError:  # a symlink loop, which opening the path reports
            return False


def _check_out_is_not(out, path, what):
    """Raise if ``--out`` and ``path``, which is ``what``, are one file."""
    if None not in (out, path) and _same_file(out, path):
        raise _ConfigFailure(f"--out {out!r}: same file as {what}")


def _check_outputs(args):
    """Raise unless ``--out`` and ``--csv`` each name a file in a directory,
    or nothing yet, not the same file, and ``--out`` is neither the input
    nor ``--groups``.

    Runs before any input is read; write permission is not checked.
    """
    for flag in ("--out", "--csv"):
        name = getattr(args, flag[2:], None)
        if name is None:
            continue
        try:
            is_dir = stat.S_ISDIR(Path(name).stat().st_mode)
        except (FileNotFoundError, NotADirectoryError):  # nothing there yet
            is_dir = False
        except OSError as exc:  # a symlink loop, say, which the write would meet
            raise _ConfigFailure(f"{flag} {name!r}: {exc.strerror}") from None
        folder = str(Path(name).parent)
        if is_dir:
            raise _ConfigFailure(f"{flag} {name!r}: is a directory")
        if not Path(folder).is_dir():
            raise _ConfigFailure(f"{flag} {name!r}: {folder!r} is not a directory")
    if args.command == "simulate":
        if None not in (args.out, args.csv) and _same_file(args.csv, args.out):
            raise _ConfigFailure(f"--csv {args.csv!r}: same file as --out")
    else:
        _check_out_is_not(args.out, args.input, "the input")
        _check_out_is_not(args.out, args.groups_csv, "--groups")


class _OutputFailure(Exception):
    """An output file could not be written."""


def _write_beside(text, target):
    """Write ``text`` for the resolved path ``target``.

    A regular file, or a path that names nothing yet, gets a new file in
    its directory, created exclusively with the existing file's mode (or
    0o666 under the umask), whose name is returned for the caller to move
    over ``target``; an existing file that a plain ``open`` could not
    write is refused.  Any other file, ``/dev/null`` or a FIFO say, is
    written in place and None is returned.
    """
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return None
    if mode is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    folder, name = os.path.split(target)
    temp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if mode is None else 0o600)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(text)
    except BaseException:
        os.unlink(temp)
        raise
    return temp


def _write_outputs(*outputs):
    """Write each ``(text, path)`` of ``outputs``, to stdout where ``path`` is None.

    Every file is written (:func:`_write_beside`) before the first new
    file replaces its target, so a failed write keeps every existing
    output as it was and leaves no new file behind.  A target is the
    path resolved, so a symlink's file is updated.  Raises
    :class:`_OutputFailure`, naming the path, on any failure to write.
    """
    staged = []  # (new file, target, path) of the files not yet moved
    path = None
    try:
        for text, path in outputs:
            if path is None:
                sys.stdout.write(text)
                continue
            target = os.path.realpath(path)
            temp = _write_beside(text, target)
            if temp is not None:
                staged.append((temp, target, path))
        while staged:
            temp, target, path = staged[0]
            os.replace(temp, target)
            staged.pop(0)
    except OSError as exc:
        where = "stdout" if path is None else repr(path)
        raise _OutputFailure(f"cannot write {where} ({exc.strerror})") from None
    finally:
        for temp, _, _ in staged:
            try:
                os.unlink(temp)
            except OSError:
                pass


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _csv_rows(path):
    """Yield the rows of a CSV file; read errors become parse failures."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            yield from reader
    except OSError as exc:
        raise _ParseFailure(path, f"cannot read file ({exc.strerror})")
    except UnicodeDecodeError as exc:
        # a read's error counts bytes from where that read began; the file
        # decoded whole counts them from its start
        try:
            Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as whole:
            exc = whole
        raise _ParseFailure(path, f"not a UTF-8 CSV file ({exc})")
    except csv.Error as exc:  # the line on which csv.reader stopped
        raise _ParseFailure(path, str(exc), line=reader.line_num)


def _read_csv_rows(path):
    return list(_csv_rows(path))


def _is_vector_header(row):
    header = [f.strip() for f in row]
    return len(header) >= 3 and header[0] == "individual" and header[1] == "replicate"


def _sniff_format(path) -> str:
    header = next(_csv_rows(path), None)  # the loader parses the whole file once
    if header is None:
        raise _ParseFailure(path, "file is empty")
    if _is_vector_header(header):
        return "timeseries" if header[2].strip() == "path" else "vectors"
    return "distances"


# Characters with which csv.reader may not split a line on its commas
# alone: quotes, carriage returns other than in a \r\n line end, and NUL,
# which it rejects before Python 3.11.  And \x1c-\x1f, which np.loadtxt
# strips from a cell as white space where float() rejects the cell.
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _bulk_table(path, label_cols):
    """A numeric CSV read in blocks of lines, one ``np.loadtxt`` call each, or None.

    It reads vector CSVs (two label columns), and distance matrices and
    series files (none, through :func:`_read_table`).

    Returns ``(head, labels, values)``.  With ``label_cols`` label
    columns, ``head`` is the first line's fields and ``labels`` holds one
    list per label column of that field of each later non-blank line;
    with none, the file has no header, ``head`` is None and ``labels``
    empty.  ``values`` is the rest of those lines as one float array.

    These are the rows and numbers that ``csv.reader`` and ``float``
    would give, but only the plain case is taken: UTF-8 text without the
    characters in ``_NOT_PLAIN``, no field over ``csv.field_size_limit()``,
    lines as wide as the header, or as the first line when there is none,
    and cells that ``np.loadtxt`` reads (it accepts a subset of
    ``float``'s spellings, to the same values).  Anything else returns
    None, and the caller parses the file with :func:`_read_csv_rows`, the
    path that locates each error.

    A block is one read of a scratch chunk's characters
    (:func:`~dbicc.distances._chunk_rows` of one-byte rows, 64 Ki) plus
    the rest of its last line.  Only the labels and one float array per
    block outlive their block.
    """
    limit, size = csv.field_size_limit(), _chunk_rows(1)
    head, width, labels, blocks = None, None, [[] for _ in range(label_cols)], []
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            while text := fh.read(size):
                text += fh.readline()  # the rest of the block's last line
                if "\r" in text:  # \r\n is one line end to csv.reader, as \n is
                    text = text.replace("\r\n", "\n")
                if any(c in text for c in _NOT_PLAIN):
                    return None
                # csv.reader ends lines at \n and \r alone, not at all of splitlines' breaks
                lines = text.split("\n")
                del text
                long_lines = (line for line in lines if len(line) > limit)
                if any(len(f) > limit for line in long_lines for f in line.split(",")):
                    return None
                if label_cols and head is None:
                    head = lines.pop(0).split(",")
                    width = len(head) - label_cols
                rows = [line.split(",", label_cols) for line in lines if line]
                del lines
                if not rows:
                    continue
                if any(len(row) != label_cols + 1 for row in rows):
                    return None
                rests = [row.pop() for row in rows]
                if "" in rests:  # an empty cell; np.loadtxt would skip the line
                    return None
                try:
                    # raises, among others, on a line whose cell count differs from the first's
                    values = np.loadtxt(rests, delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    return None
                width = values.shape[1] if width is None else width
                if values.shape[1] != width:
                    return None
                blocks.append(values)
                for column, fields in zip(labels, zip(*rows)):
                    column.extend(fields)
    except (OSError, UnicodeDecodeError):
        return None
    if not blocks:
        return None
    return head, labels, np.concatenate(blocks)


def _replicate_sort_key(label: str):
    # numeric replicate ids sort numerically, anything else lexically
    try:
        return (0, int(label), "")
    except ValueError:
        return (1, 0, label)


def _labelled_rows(path, rows, width, label_col):
    """Data rows after the header, as ``(line number, fields, replicate key)``.

    Blank rows are skipped; every other row must have ``width`` fields,
    and the (individual, replicate) label pair in columns ``label_col``
    and ``label_col + 1`` must not repeat.  The replicate key is the
    replicate label's :func:`_replicate_sort_key`.
    """
    seen = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise _ParseFailure(
                path, f"expected {width} fields, got {len(row)}", line=lineno
            )
        ind, rep = row[label_col], row[label_col + 1]
        key = _replicate_sort_key(rep)
        first = seen.setdefault((ind, key), lineno)
        if first != lineno:
            raise _ParseFailure(
                path,
                f"duplicate individual {ind!r}, replicate {rep!r} "
                f"(first on line {first})",
                line=lineno,
            )
        yield lineno, row, key


def _parse_float(path, line, column, text):
    try:
        return float(text)
    except ValueError:
        raise _ParseFailure(
            path, f"expected a number, got {text!r}", line=line, column=column
        )


def _numeric_rows(path, numbered, skip):
    """The items of ``numbered``, ``(line, row, ...)``, and their cells as floats.

    The cells after the first ``skip`` of each row are read with
    ``float``, row by row, so the first bad number is reported with its
    line and column before any malformed later row.
    """
    rows, values = [], []
    for item in numbered:
        line, cells = item[0], item[1][skip:]
        try:
            values.append([float(cell) for cell in cells])
        except ValueError:
            for col, cell in enumerate(cells, start=skip + 1):
                _parse_float(path, line, col, cell)
        rows.append(item)
    return rows, np.array(values, dtype=float)


def _vector_sample(grouping, values) -> GroupedSample:
    """The sample of vector rows ``values`` in ``grouping``'s ``(order, sizes, labels)``."""
    order, sizes, labels = grouping
    return GroupedSample(
        values=values[order],
        group_sizes=sizes,
        labels=labels,
        payload_kind=PayloadKind.VECTOR,
    )


def _load_vector_csv(path) -> GroupedSample:
    table = _bulk_table(path, 2)
    if table is not None and _is_vector_header(table[0]):
        _, (individuals, replicates), values = table
        keys = {label: _replicate_sort_key(label) for label in dict.fromkeys(replicates)}
        *grouping, repeated = _group_order(individuals, [keys[r] for r in replicates])
        if not repeated:  # "1" and "01" are one replicate: the csv path reports it
            return _vector_sample(grouping, values)
    return _parse_vector_csv(path)


def _parse_vector_csv(path) -> GroupedSample:
    """The vector CSV through ``csv.reader``: every case, every located error."""
    rows = _read_csv_rows(path)
    if not rows or not _is_vector_header(rows[0]):
        raise _ParseFailure(
            path,
            "expected header 'individual,replicate,f1,...,fp'",
            line=1,
        )
    numbered, values = _numeric_rows(
        path, _labelled_rows(path, rows, len(rows[0]), 0), 2
    )
    if not numbered:
        raise _ParseFailure(path, "no data rows")
    _, data_rows, keys = zip(*numbered)
    *grouping, _ = _group_order([row[0] for row in data_rows], keys)
    return _vector_sample(grouping, values)


def _equal_width_rows(path, rows):
    """Non-blank rows as ``(line, fields)``, each as wide as the first."""
    width = None
    for lineno, row in enumerate(rows, start=1):
        if not row:
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _ParseFailure(
                path, f"expected {width} fields, got {len(row)}", line=lineno
            )
        yield lineno, row


def _read_table(path):
    """A headerless numeric CSV, a series or a distance matrix, as a 2-D float array.

    :func:`_bulk_table` reads the plain case; any other file goes through
    ``csv.reader`` and ``float``, which report the first error with its
    line, and column for a cell.  The array has at least one row.
    """
    table = _bulk_table(path, 0)
    if table is not None:
        return table[2]
    rows = _read_csv_rows(path)
    if not rows:
        raise _ParseFailure(path, "file is empty")
    numbered, values = _numeric_rows(path, _equal_width_rows(path, rows), 0)
    if not numbered:
        raise _ParseFailure(path, "no data rows")
    return values


def _load_distance_input(path, groups_path) -> DistanceMatrix:
    values = _read_table(path)
    n = values.shape[0]
    if values.shape[1] != n:
        # the first row's line, which the block read does not count
        first = next(line for line, row in enumerate(_csv_rows(path), start=1) if row)
        raise _ParseFailure(
            path,
            f"expected {n} fields for an {n}x{n} distance matrix, "
            f"got {values.shape[1]}",
            line=first,
        )
    grows = _read_csv_rows(groups_path)
    gheader = [f.strip() for f in grows[0]] if grows else []
    if gheader != ["row", "individual", "replicate"]:
        raise _ParseFailure(
            groups_path, "expected header 'row,individual,replicate'", line=1
        )
    entries = []
    for lineno, row, key in _labelled_rows(groups_path, grows, 3, 1):
        try:
            row_idx = int(row[0])
        except ValueError:
            raise _ParseFailure(
                groups_path, f"row index must be an integer, got {row[0]!r}",
                line=lineno, column=1,
            )
        entries.append((row_idx, row[1], key))
    entries.sort(key=lambda e: e[0])
    if [e[0] for e in entries] != list(range(n)):
        raise _ParseFailure(
            groups_path,
            f"row indices must cover 0..{n - 1} exactly once for a "
            f"{n}x{n} distance matrix",
        )
    # entries[k] now describes row k of the matrix
    order, sizes, labels, _ = _group_order(
        [e[1] for e in entries], [e[2] for e in entries]
    )
    return DistanceMatrix(values[np.ix_(order, order)], sizes, labels)


def _load_timeseries_manifest(path, out=None) -> GroupedSample:
    rows = _read_csv_rows(path)
    header = [f.strip() for f in rows[0]] if rows else []
    if header != ["individual", "replicate", "path"]:
        raise _ParseFailure(path, "expected header 'individual,replicate,path'", line=1)
    base = Path(path).parent
    # the series listed before a malformed line are read, and the first
    # fault in line order is the one reported
    listed, paths, fault = [], [], None
    try:
        for lineno, row, key in _labelled_rows(path, rows, 3, 0):
            listed.append((lineno, row[0], key))
            paths.append(base / row[2])  # an absolute path stays as it is
    except _ParseFailure as exc:
        fault = exc
    for (lineno, _, _), series_path in zip(listed, paths):  # --out is none of them
        _check_out_is_not(out, series_path, f"the series listed at {path}:{lineno}")
    series = []
    try:
        series.extend(run_in_children(_read_table, paths, fork_workers(paths)))
    except _ParseFailure as exc:
        exc.args = (f"{exc} (listed at {path}:{listed[len(series)][0]})",)
        raise
    if fault is not None:
        raise fault
    if not series:
        raise _ParseFailure(path, "no data rows")
    records = [(ind, key, data) for (_, ind, key), data in zip(listed, series)]
    return build_grouped_sample(records, payload_kind=PayloadKind.TIMESERIES)


def _load_input(args):
    """The input's data, after every input flag is checked against its format.

    The flags are checked before any cell is parsed, ``--threshold`` before
    the input is opened.  Vector payloads are refused soft-thresholding
    where it would be applied (:class:`~dbicc.core._MatrixColumns` and
    :func:`~dbicc.core.block_stats`), after the parse, so that a malformed
    file reports its parse error first.  Sets ``args.distance`` to the
    output's label.
    """
    if args.threshold is not None:
        _threshold_level(args.threshold)
    fmt = args.format or _sniff_format(args.input)
    thresholded = args.threshold is not None or args.command == "sweep-threshold"
    if fmt == "distances":
        if not args.groups_csv:
            raise _ConfigFailure(
                "distance-matrix input requires --groups with the row grouping"
            )
        if thresholded:
            raise _ConfigFailure(
                "soft-thresholding needs payload input; a precomputed distance "
                "matrix cannot be re-thresholded"
            )
        args.distance = args.distance or "precomputed"
        return _load_distance_input(args.input, args.groups_csv)
    if args.groups_csv:
        raise _ConfigFailure("--groups applies only to a distance-matrix input")
    args.distance = args.distance or "l2"
    if fmt == "vectors":
        return _load_vector_csv(args.input)
    return _load_timeseries_manifest(args.input, args.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _estimate_doc(args, data):
    source = data
    if not isinstance(data, DistanceMatrix):
        kind = _METRIC_BY_FLAG[args.distance]
        source = block_stats(data, DistanceSpec(kind=kind, threshold=args.threshold))
    est = dbicc_point(source)
    return source, {
        "rho_hat": est.rho_hat,
        "msd_within": est.msd_within,
        "msd_between": est.msd_between,
        "n_within_pairs": est.n_within_pairs,
        "n_between_pairs": est.n_between_pairs,
        "distance": args.distance,
        "threshold": args.threshold,
    }


def _cmd_estimate(args) -> int:
    _, doc = _estimate_doc(args, _load_input(args))
    _write_outputs((dumps_json(doc), args.out))
    return 0


def _cmd_bootstrap(args) -> int:
    _check_level(args.level)
    _check_estimate_count(args.boot)
    source, doc = _estimate_doc(args, _load_input(args))
    result = bootstrap_dbicc(
        source, args.boot, corrected=args.corrected, level=args.level, seed=args.seed
    )
    doc.update(
        {
            "ci_low": result.ci_low,
            "ci_high": result.ci_high,
            "level": result.level,
            "B": result.n_boot,
            "corrected": result.corrected,
            "seed": result.seed,
            "n_degenerate": result.n_degenerate,
        }
    )
    if args.emit_replicates:
        doc["replicate_estimates"] = [float(v) for v in result.replicate_estimates]
    _write_outputs((dumps_json(doc), args.out))
    return 0


# The most levels a --threshold-grid may have; each level is a full dbICC.
_MAX_GRID_LEVELS = 100_000


def _parse_grid(text):
    """The levels of ``start:stop:step``, each checked as ``--threshold`` is.

    The grid is taken in decimals: ``start``, ``stop`` and ``step`` stand
    for the shortest decimals of their floats, and level k is the float
    nearest ``start + k * step``, so ``0:0.9:0.1`` gives 0.3, not
    0.30000000000000004.  A grid of more than ``_MAX_GRID_LEVELS`` levels
    is refused before any level is built.
    """
    from fractions import Fraction  # here, so that importing the CLI stays lean

    parts = text.split(":")
    if len(parts) != 3:
        raise _ConfigFailure(f"--threshold-grid expects 'start:stop:step', got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise _ConfigFailure(f"--threshold-grid values must be numbers, got {text!r}")
    if not (0.0 < step < math.inf and stop >= start):  # NaN fails too
        raise _ConfigFailure("--threshold-grid needs step > 0 and stop >= start")
    _threshold_level(start)
    start, step = Fraction(repr(start)), Fraction(repr(step))
    # the last level is within one step of stop, or of 1, so a bad grid fails fast
    last = 1 + step if stop == math.inf else min(Fraction(repr(stop)), 1 + step)
    count = math.floor((last - start) / step) + 1
    if count > _MAX_GRID_LEVELS:
        raise _ConfigFailure(
            f"--threshold-grid has {count} levels, more than {_MAX_GRID_LEVELS}"
        )
    return [_threshold_level(float(start + k * step)) for k in range(count)]


def _cmd_sweep_threshold(args) -> int:
    grid = [args.threshold] if args.threshold is not None else _parse_grid(
        args.threshold_grid
    )
    data = _load_input(args)
    # the correlations and their column statistics are computed once
    columns = _MatrixColumns(data, _METRIC_BY_FLAG[args.distance])
    rows = []
    for level in grid:
        payload_rows, fractions = columns.rows(level)
        try:
            rho = dbicc_point(columns.block_stats(payload_rows)).rho_hat
        except (DegenerateInputError, DegenerateDistancesError) as exc:
            print(
                f"threshold {level:g}: {type(exc).__name__}: {exc}", file=sys.stderr
            )
            rho = None
        rows.append((args.distance, level, float(np.mean(fractions)), rho))
    header = ["distance", "threshold", "avg_fraction_zeroed", "rho_hat"]
    _write_outputs((_csv_text(header, rows), args.out))
    return 0


def _parse_m_grid(text):
    """The argparse type of ``--m-grid``; argparse lets ``_ConfigFailure`` through."""
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _ConfigFailure(f"--m-grid expects comma-separated integers, got {text!r}")


# The runner of each experiment, by its name in this module
_RUNNERS = {
    "point": "run_point_experiment",
    "coverage": "run_coverage_experiment",
    "sb": "run_sb_experiment",
}
_ALL = tuple(_RUNNERS)


def __getattr__(name):
    """The runners, from ``dbicc.simulation``, imported on first use (PEP 562)."""
    if name in _RUNNERS.values():
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Each simulate flag: the runner parameter it sets (its argparse dest), the
# experiments that take it, its help and its parser options.  An absent flag
# stays None and is not passed on, so every default lives in the runner's
# signature; a flag given to another experiment is a configuration error.
_SIM_FLAGS = {
    "--individuals": ("n_individuals", _ALL, "number of individuals", {"type": _count}),
    "--replicates": ("n_replicates", _ALL, "replicates per individual", {"type": _count}),
    "--dim": ("dim", _ALL, "payload dimension", {"type": _count}),
    "--rho": ("icc", ("point", "coverage"), "population dbICC", {"type": float}),
    "--phi": ("ar_coeff", ("sb",), "AR(1) coefficient, in [0, 1)", {"type": float}),
    "--boot": ("n_boot", ("coverage",), "bootstrap replicates", {"type": _count}),
    "--level": ("level", ("coverage",), "confidence level", {"type": float}),
    "--runs": ("n_runs", _ALL, "number of simulation runs", {"type": _count}),
    "--m-grid": ("m_grid", ("sb",), "comma-separated series lengths",
                 {"type": _parse_m_grid}),
    "--sb-offset": ("offset", ("sb",), "abscissa is log(m - offset), offset 0 or 1",
                    {"type": int}),
    "--wishart-df": ("wishart_df", ("sb",), "population heterogeneity control",
                     {"type": int}),
    "--seed": ("seed", _ALL, "64-bit RNG seed", {"type": _seed}),
    "--threads": ("workers", _ALL, "parallel workers for runs", {"type": _count}),
}


def _simulation_csv(experiment, report):
    """The plot-ready CSV header and rows of a ``simulate`` report."""
    if experiment == "point":
        return ["run", "rho_hat"], enumerate(report["estimates"])
    if experiment == "coverage":
        ends = ["naive_low", "naive_high", "corrected_low", "corrected_high"]
        return ["run", "rho_hat", *ends], (
            (i, r["point"], *r["naive"], *r["corrected"])
            for i, r in enumerate(report["runs"])
        )
    return ["matrix", "run", "m", "rho_hat", "x", "y"], (
        (kind, p["run"], p["m"], p["rho_hat"], p["x"], p["y"])
        for kind in ("covariance", "correlation")
        for p in report[kind]["points"]
    )


def _cmd_simulate(args) -> int:
    kwargs = {}
    for flag, (param, experiments, *_) in _SIM_FLAGS.items():
        value = getattr(args, param)
        if value is None:
            continue
        if args.experiment not in experiments:
            raise _ConfigFailure(
                f"{flag} does not apply to --experiment {args.experiment}"
            )
        kwargs[param] = value
    # looked up on this module when the command runs, so that a replaced
    # attribute is called
    report = getattr(sys.modules[__name__], _RUNNERS[args.experiment])(**kwargs)
    outputs = [(dumps_json(report), args.out)]
    if args.csv:
        outputs.insert(0, (_csv_text(*_simulation_csv(args.experiment, report)), args.csv))
    _write_outputs(*outputs)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ConfigFailure(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dbicc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("input", help="input CSV (see --format)")
    io_parent.add_argument(
        "--format",
        choices=["vectors", "distances", "timeseries"],
        help="input format; default: auto-detect from the header",
    )
    io_parent.add_argument(
        "--groups",
        dest="groups_csv",
        metavar="GROUPS",
        help="grouping CSV for --format distances (row,individual,replicate)",
    )
    io_parent.add_argument(
        "--distance", choices=list(_METRIC_BY_FLAG), help="distance (default l2)"
    )
    io_parent.add_argument(
        "--threshold",
        type=float,
        help="soft-threshold level applied to matrix payloads before distancing",
    )
    io_parent.add_argument("--out", help="output path (default: stdout)")

    sub.add_parser(
        "estimate", parents=[io_parent], help="dbICC point estimate of one data set"
    )

    boot = sub.add_parser(
        "bootstrap", parents=[io_parent], help="point estimate plus bootstrap CI"
    )
    boot.add_argument("--boot", type=_count, default=1200, help="bootstrap replicates")
    boot.add_argument("--level", type=float, default=0.95, help="confidence level")
    corr_group = boot.add_mutually_exclusive_group()
    corr_group.add_argument(
        "--corrected",
        dest="corrected",
        action="store_true",
        help="drop duplicate-individual block pairs from the between sum (default)",
    )
    corr_group.add_argument(
        "--naive", dest="corrected", action="store_false", help="no bias correction"
    )
    boot.set_defaults(corrected=True)
    boot.add_argument("--seed", type=_seed, help="64-bit RNG seed")
    boot.add_argument(
        "--emit-replicates",
        action="store_true",
        help="include per-replicate estimates in the JSON output",
    )

    sweep = sub.add_parser(
        "sweep-threshold",
        parents=[io_parent],
        help="dbICC across a soft-threshold grid (CSV output)",
    )
    sweep.add_argument(
        "--threshold-grid",
        default="0:0.9:0.1",
        help="grid as start:stop:step (default 0:0.9:0.1); --threshold overrides",
    )

    sim = sub.add_parser("simulate", help="synthetic-data experiments")
    sim.add_argument("--experiment", choices=_ALL, required=True)
    for flag, (param, experiments, text, options) in _SIM_FLAGS.items():
        sim.add_argument(
            flag, dest=param, help=f"{text} ({', '.join(experiments)})", **options
        )
    sim.add_argument("--out", help="JSON output path (default: stdout)")
    sim.add_argument("--csv", help="also write plot-ready CSV here")
    return parser


_COMMANDS = {
    "estimate": _cmd_estimate,
    "bootstrap": _cmd_bootstrap,
    "sweep-threshold": _cmd_sweep_threshold,
    "simulate": _cmd_simulate,
}


def _print_warning(message, *args, **kwargs):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
        with warnings.catch_warnings():
            # each library warning is one stderr line, whatever -W asks for
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = _print_warning
            return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except _ParseFailure as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DbiccError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _ConfigFailure as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except _OutputFailure as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # a defect: name it, as for computation errors
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
