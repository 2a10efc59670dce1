"""Command-line front end: analyze tables, build constructions, stream the
census, run the claim sweep, and export Hasse diagrams.

Exit codes: 0 success, 1 sweep found violations, 2 malformed input or a
closed output pipe, 3 internal cross-check failure or any other unexpected
internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
import warnings
from contextlib import ExitStack, contextmanager
from json.encoder import encode_basestring_ascii

from .core import format_mtab
from .enumeration import EnumerationConfig, enumerate_semigroups
from .errors import InternalCheckError, RangeError, SemigroupError
from .green import ORDERED_RELATIONS, to_dot
from .recipes import load_input
from .verify import (
    CLAIM_IDS,
    CSV_HEADER,
    SCHEMA,
    SweepSummary,
    analyze,
    record_csv_rows,
    report_payload,
    sweep,
)


def _check_writable(path):
    """Open ``path`` for appending, so that a bad path fails before a long
    sweep; an existing file keeps its bytes and a new one is removed."""
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def _reject_shared_paths(outputs: dict):
    """Two outputs written to one file would overwrite or interleave each other."""
    seen = {}
    for flag, path in outputs.items():
        if path is None:
            continue
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise RangeError(f"{other} and {flag} name the same file: {path}")


def _create_beside(target: str):
    """A new file in ``target``'s directory, open for writing, with the
    permissions ``open(target, "w")`` leaves: those of ``target`` if it
    exists, else 0o666 less the umask. Returns its path and descriptor."""
    directory, name = os.path.split(target)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        if os.path.exists(target):
            os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
        return temp, fd


def _is_stdout(path: str) -> bool:
    """Whether ``path`` is the file behind stdout, as ``/dev/stdout`` is."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path, or no descriptor behind stdout
        return False


@contextmanager
def _output_file(path: str | None, newline=None):
    """A text handle for the output ``path``. None and the file behind stdout
    are written through ``sys.stdout``, so that what is printed later follows it,
    and any other existing path that is not a regular file (a FIFO) in place.
    Else ``path`` is checked on entry, before the block's work, and the handle
    writes a new file beside it that replaces it when the block ends without
    an exception and is removed when it raises."""
    if path is None or _is_stdout(path):
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        return
    _check_writable(path)
    target = os.path.realpath(path)  # a symbolic link stays and its target is replaced
    temp, fd = _create_beside(target)
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temp, target)
    except BaseException:  # Ctrl-C included: leave no partial file behind
        os.remove(temp)
        raise


def _report_around(summary: SweepSummary) -> tuple[str, str]:
    """``report_payload(summary)`` as ``verify --report`` writes it, cut into
    the text before and after its (empty) list of input records."""
    text = json.dumps(report_payload(summary), indent=2) + "\n"
    head, tail = text.split('"inputs": []', 1)
    return head + '"inputs": [', "]" + tail


# the characters for which csv.QUOTE_MINIMAL quotes a field
_CSV_QUOTED = frozenset(',"\r\n')


def _input_head(head: dict) -> str:
    """A record's text up to the end of its ``"input"`` object, as
    ``JSONEncoder(indent=2)`` renders it at the depth of ``"inputs"``."""
    return (
        '{\n      "input": {\n        "provenance": '
        + encode_basestring_ascii(head["provenance"])
        + ',\n        "order": '
        + int.__repr__(head["order"])
        + "\n      }"
    )


class _StreamedReport:
    """Writes ``json.dumps(report_payload(summary), indent=2)`` and a newline
    one input record at a time: each record is indented to its depth in the
    document (JSON strings hold no raw newline), and the text around the
    records is cut from report_payload's own rendering.

    A record's text after its ``"input"`` object is encoded once per body,
    the pair of ``report`` and ``claims`` objects that :func:`sweep` shares
    between records of equal outcome, and reused; the ``"input"`` object is
    written as the encoder writes it, from the provenance's ASCII escape and
    the order's repr. The memo holds each body it keys by id, so that no id
    is reused: one entry per distinct shared body, plus at most one per
    record with a failed claim, for which the sweep keeps a Violation too."""

    def __init__(self, handle):
        self.handle = handle
        self.encode = json.JSONEncoder(indent=2).encode
        self.separator = "\n    "
        self.bodies: dict = {}
        handle.write(_report_around(SweepSummary(0, {}, [], [], []))[0])

    def add(self, record: dict):
        body = record["report"], record["claims"]
        key = tuple(map(id, body))
        if key in self.bodies:
            text = _input_head(record["input"]) + self.bodies[key][1]
        else:
            text = self.encode(record).replace("\n", "\n    ")
            self.bodies[key] = body, text[len(_input_head(record["input"])):]
        self.handle.write(self.separator + text)
        self.separator = ",\n    "

    def finish(self, summary: SweepSummary):
        closing = "" if self.separator == "\n    " else "\n  "
        self.handle.write(closing + _report_around(summary)[1])


class _StreamedCSV:
    """Writes ``summary_csv_rows(summary)`` as ``csv.writer`` does, one input
    record at a time. A record's rows after their provenance and order are
    rendered once per ``claims`` list, which :func:`sweep` shares between
    records of equal outcome, and reused, unless QUOTE_MINIMAL would quote
    the provenance. The memo holds each list it keys by id, and is bounded
    as :class:`_StreamedReport`'s is."""

    def __init__(self, handle):
        self.handle = handle
        self.writer = csv.writer(handle)
        self.writer.writerow(CSV_HEADER)
        self.bodies: dict = {}

    def add(self, record: dict):
        provenance = record["input"]["provenance"]
        if not _CSV_QUOTED.isdisjoint(provenance):
            self.writer.writerows(record_csv_rows(record))
            return
        prefix = f"{provenance},{record['input']['order']}"
        claims = record["claims"]
        if id(claims) not in self.bodies:
            rows = [_csv_line(row)[len(prefix):] for row in record_csv_rows(record)]
            self.bodies[id(claims)] = claims, rows
        rows = self.bodies[id(claims)][1]
        if rows:
            self.handle.write(prefix + prefix.join(rows))


def _csv_line(row) -> str:
    line = io.StringIO(newline="")
    csv.writer(line).writerow(row)
    return line.getvalue()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def _cmd_analyze(args) -> int:
    with _output_file(args.output) as out:
        s = load_input(args.input)
        doc = {"schema": SCHEMA, "order": s.order}
        doc.update(vars(analyze(s)))
        out.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_construct(args) -> int:
    with _output_file(args.output) as out:
        out.write(format_mtab(load_input(args.recipe)))
    return 0


def _cmd_enumerate(args) -> int:
    config = EnumerationConfig(
        order=args.order,
        up_to_isomorphism=args.up_to_iso,
        include_anti_isomorphs=not args.fold_anti,
        limit=args.limit,
    )
    if args.count:
        total = sum(1 for _ in enumerate_semigroups(config))
        print(total)
        return 0
    first = True
    for s in enumerate_semigroups(config):
        if not first:
            sys.stdout.write("\n")
        sys.stdout.write(format_mtab(s))
        first = False
    return 0


def _cmd_verify(args) -> int:
    inputs: list = []
    if args.enumerate_order is not None:
        inputs.append(
            EnumerationConfig(order=args.enumerate_order, up_to_isomorphism=args.up_to_iso)
        )
    elif args.up_to_iso:
        raise RangeError("--up-to-iso needs --enumerate-order")
    inputs.extend(args.recipes)
    if not inputs:
        print("nothing to verify: pass recipes or --enumerate-order", file=sys.stderr)
        return 2
    _reject_shared_paths(
        {"--report": args.report, "--csv": args.csv, "--triples-log": args.triples_log}
    )
    with ExitStack() as outputs:
        report = table = triples_log = None
        if args.report is not None:
            report = _StreamedReport(outputs.enter_context(_output_file(args.report)))
        if args.csv is not None:
            table = _StreamedCSV(outputs.enter_context(_output_file(args.csv, newline="")))
        if args.triples_log is not None:
            triples_log = outputs.enter_context(_output_file(args.triples_log))

        def write_record(record):
            if report is not None:
                report.add(record)
            if table is not None:
                table.add(record)

        summary = sweep(inputs, jobs=args.jobs, on_record=write_record)
        if report is not None:
            report.finish(summary)
        if triples_log is not None:
            lines = (" ".join(str(v) for v in triple) for triple in summary.attained_triples)
            triples_log.write("\n".join(lines) + "\n")

    # the outputs are complete before anything is printed: a reader that
    # closes stdout early cannot cost them
    print(f"inputs: {summary.inputs}")
    print(f"claims per input: {len(CLAIM_IDS)}")
    print(f"claim evaluations: {summary.total_evaluations}")
    for claim_id, (applicable, held) in summary.claim_stats.items():
        print(f"  {claim_id:<18} applicable {applicable:>6}  held {held:>6}")
    print(f"violations: {len(summary.violations)}")
    for violation in summary.violations:
        print(f"  {violation.claim_id} on {violation.provenance}")
    return 1 if summary.violations else 0


def _cmd_export_dot(args) -> int:
    relations = args.relation or list(ORDERED_RELATIONS)
    if args.out_dir is None and len(relations) != 1:
        print("--out-dir is required when exporting several relations", file=sys.stderr)
        return 2
    s = load_input(args.input)
    if args.out_dir is None:
        paths = [None]
    else:
        os.makedirs(args.out_dir, exist_ok=True)
        paths = [os.path.join(args.out_dir, f"{relation}.dot") for relation in relations]
    for relation, path in zip(relations, paths):
        with _output_file(path) as out:
            out.write(to_dot(s, relation))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenheights",
        description="Green's relations, class-poset heights and claim checks "
        "for finite semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="heights and flags of one semigroup, as JSON")
    p.add_argument("input", help="mtab path, recipe string, or '-' for stdin")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="build a recipe and print its mtab table")
    p.add_argument("recipe", help="recipe string such as nm:3,5 or u-of:fig1_s")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="stream the census of one order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument(
        "--fold-anti",
        action="store_true",
        help="also identify anti-isomorphic tables (only with --up-to-iso)",
    )
    p.add_argument("--limit", type=int)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the claim registry over a batch")
    p.add_argument("recipes", nargs="*", help="recipe strings or mtab paths")
    p.add_argument("--enumerate-order", type=int)
    p.add_argument("--up-to-iso", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--csv", help="write the per-(input, claim) CSV here")
    p.add_argument("--triples-log", help="write attained (H_L,H_R,H_J) triples here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot", help="Hasse diagrams as Graphviz files")
    p.add_argument("input")
    p.add_argument(
        "--relation",
        action="append",
        choices=list(ORDERED_RELATIONS),
        help="repeatable; defaults to all four",
    )
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def _discard_output():
    """Point stdout and stderr at os.devnull once a reader has closed the pipe,
    so that the flush at shutdown cannot fail on it again (see "Note on SIGPIPE"
    in the documentation of Python's signal module)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        for stream in (sys.stdout, sys.stderr):
            try:
                os.dup2(devnull, stream.fileno())
            except (OSError, ValueError):  # no open descriptor behind the stream
                pass
    finally:
        os.close(devnull)


def _fail(code: int, message: str) -> int:
    try:
        print(message, file=sys.stderr)
    except BrokenPipeError:  # nobody reads stderr any more; the code still tells
        _discard_output()
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe shows here, not at shutdown
            return code
    except BrokenPipeError:  # the reader closed the pipe: nothing more to say
        _discard_output()
        return 2
    except InternalCheckError as exc:
        return _fail(3, f"internal cross-check failure: {exc}")
    except (SemigroupError, OSError, ValueError, IndexError) as exc:
        return _fail(2, f"error: {exc}")
    except Exception as exc:  # a bug, not bad input: never the "violations" code 1
        return _fail(3, f"internal error: {type(exc).__name__}: {exc}")


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
