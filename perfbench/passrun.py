"""One pass of one workload, in a fresh interpreter.

    passrun.py setup
    passrun.py run RESULT TRACE_DIR|- -- <greenheights arguments>

`setup` imports `greenheights.cli`, prints the clock reading taken right
after the import and exits. `run` also calls `greenheights.cli.main` with the
given arguments, times it, and writes a JSON result to RESULT. With a
TRACE_DIR, the call runs under the span tracer and the spans go there.

The parent reads the import stamp against its own `time.perf_counter()`
(CLOCK_MONOTONIC, shared by all processes) taken before it started this
interpreter, so the difference is the set-up time a user of the CLI pays.
"""

import time  # noqa: I001 -- the import of the CLI must come first
import greenheights.cli as cli

READY = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _own_peak_rss_kib(usage) -> int:
    """Peak RSS of this interpreter.

    Linux carries the high-water mark of the image a process replaced by
    exec into its ru_maxrss, so a pass started by a large parent would
    report the parent's size. VmHWM covers only the current image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def run(result_path: str, trace_dir: str, argv: list[str]) -> int:
    tracer = None
    main = cli.main
    if trace_dir != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(cli.main, "cli.main")

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    error = None
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed pass, not a crash of the bench
        error = traceback.format_exc()
        code = -1
    sys.stdout.flush()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "ready": READY,
        "exit": code,
        "error": error,
        "wall_s": wall,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(children1) - _cpu_s(children0),
        # both are in KiB on Linux
        "peak_rss_mb": (_own_peak_rss_kib(self1) + children1.ru_maxrss) / 1024,
        "worker_cpu_s": _cpu_s(children1) - _cpu_s(children0),
        "worker_peak_rss_mb": children1.ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.aggregate()
        tracer.write_spans(os.path.join(trace_dir, "spans.tsv.gz"))
    if error is not None:
        print(error, file=sys.stderr)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def main(args: list[str]) -> int:
    if args == ["setup"]:
        print(repr(READY))
        return 0
    if len(args) >= 4 and args[0] == "run" and args[3] == "--":
        return run(args[1], args[2], args[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
