"""Benchmark of the greenheights command line.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--workdir DIR]

Run it from the root of a source checkout; it runs `src/greenheights` from
there. Every pass of a workload calls `greenheights.cli.main` in a fresh
interpreter, because the package's lru caches would serve a second pass in
the same process from memory. Each pass's output is checked against
`perfbench/references.json`.

A run gives each workload `--seconds` of passes. The seed orders the passes
of the workloads of one run; the inputs are the same for every seed. With
`--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics (medians over the passes of the run); with `--trace 1` one more,
traced pass per workload gives the per-layer metrics instead. With
`--workload all` (the default) every workload runs and a table of all of
their metrics is printed. `--smoke` swaps in scaled-down inputs.

Results, traces and scratch files go to DIR (default `.bench_work`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS, check, load_references

PASSRUN = Path(__file__).with_name("passrun.py")

# Set-up is short and noisy, so each run samples it many times.
SETUPS_PER_PASS = 3
MIN_SETUPS = 15
# A run stays under three minutes per workload: a pass still running at this
# deadline is killed and its inputs count as failed.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class PassTimeout(Exception):
    pass


class Bench:
    def __init__(self, root: Path, workdir: Path, smoke: bool, workloads: int = 1):
        self.root = root
        self.workdir = workdir
        self.smoke = smoke
        self.deadline = time.perf_counter() + DEADLINE_S * workloads
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # Passes run as an installed CLI does: bytecode cached after the first
        # import, stdout buffered.
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
            self.env.pop(name, None)

    def _time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def _spawn(self, args, stdout, stderr) -> int:
        """Run passrun.py in its own process group; kill the group on timeout."""
        proc = subprocess.Popen(
            [sys.executable, str(PASSRUN), *args],
            stdout=stdout, stderr=stderr, env=self.env, cwd=self.root,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=max(1.0, self._time_left()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise PassTimeout("pass did not end before the run's deadline") from None
        finally:
            # pool workers share the group; none may outlive the pass
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def setup_sample(self) -> float:
        out_path = self.workdir / "setup.txt"
        with open(out_path, "w", encoding="utf-8") as out:
            t = time.perf_counter()
            code = self._spawn(["setup"], out, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"importing greenheights.cli failed (exit {code})")
        return float(out_path.read_text(encoding="utf-8")) - t

    def run_pass(self, workload, trace: bool) -> dict:
        """One pass; returns its measurements and the paths of its outputs."""
        d = self.workdir / "pass"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        outputs = {"stdout": d / "stdout.txt", "report": d / "report.json",
                   "csv": d / "claims.csv"}
        argv = [a.format(report=outputs["report"], csv=outputs["csv"])
                for a in workload.argv(self.smoke)]
        trace_dir = "-"
        if trace:
            trace_dir = self.workdir / "traces" / (workload.name + ("-smoke" if self.smoke else ""))
            trace_dir.mkdir(parents=True, exist_ok=True)
        load = os.getloadavg()
        with open(outputs["stdout"], "w") as out, open(d / "stderr.txt", "w") as err:
            t = time.perf_counter()
            code = self._spawn(
                ["run", str(d / "result.json"), str(trace_dir), "--", *argv], out, err
            )
            elapsed = time.perf_counter() - t
        try:
            result = json.loads((d / "result.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = {"exit": code if code else -1, "error": "no result written"}
        if "ready" in result:
            result["setup_s"] = result["ready"] - t
        result.update(elapsed_s=elapsed, loadavg=[load, os.getloadavg()],
                      outputs=outputs, trace_dir=trace_dir)
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def environment(root: Path) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from its own .git; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def gate(workload, result: dict, reference: dict) -> dict:
    attempted, failed, problems = check(
        workload, result["exit"], result["outputs"], reference
    )
    if result.get("error"):
        problems.append(result["error"].strip().splitlines()[-1])
    sizes = {k: p.stat().st_size for k, p in result["outputs"].items() if p.exists()}
    return {"attempted": attempted, "failed": failed, "problems": problems, "sizes": sizes}


def end_to_end(state: dict) -> dict[str, float]:
    good = [p for p in state["passes"] if p["failed"] == 0]
    items = state["items"]
    return {
        "setup_s": median(state["setups"]),
        "wall_s": median([p["wall_s"] for p in good]),
        "items_per_s": median([items / p["wall_s"] for p in good]),
        "cpu_s": median([p["cpu_s"] for p in good]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in good]),
    }


def trace_report(name: str, trace: dict, values: dict, wall_s: float) -> list[str]:
    """Top layers by self time, the calls-per-input ratios, top spans."""
    by_layer: dict[str, float] = {}
    for span, agg in trace["spans"].items():
        layer = "verify.claims" if span.startswith("verify.claim.") else span.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + agg["self_s"]
    lines = [f"trace {name}: traced wall {wall_s:.3f} s, {trace['span_count']} spans, "
             f"overhead {values['trace.overhead_s']:+.3f} s"]
    if name.endswith("jobs2"):
        lines.append("  spans cover the parent process only; workers ran untraced "
                     "(their cost: verify.pool.*)")
    lines.append("  layers by self time:")
    for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        if self_s == 0:
            continue
        lines.append(f"    {layer:<16} {self_s:9.3f} s  {100 * self_s / wall_s:5.1f}%")
    lines.append("  calls per input:")
    for metric in PER_LAYER:
        if metric["name"].endswith("calls_per_input"):
            lines.append(f"    {metric['name']:<42} {values[metric['name']]:.3f}")
    lines.append("  top spans by self time:")
    ran = [kv for kv in trace["spans"].items() if kv[1]["calls"]]
    top = sorted(ran, key=lambda kv: -kv[1]["self_s"])[:10]
    for span, agg in top:
        lines.append(f"    {span:<36} {agg['calls']:>9} calls {agg['self_s']:9.3f} s "
                     f"{100 * agg['self_s'] / wall_s:5.1f}%")
    return lines


def bench(names, seed: int, seconds: float, trace: bool, smoke: bool,
          root: Path, workdir: Path) -> dict:
    references = load_references()
    runner = Bench(root, workdir, smoke, len(names))
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(root)
    env["loadavg_start"] = os.getloadavg()
    rng = random.Random(seed)

    runner.setup_sample()  # compiles the bytecode of a fresh checkout; not measured
    states = {}
    for name in names:
        workload = WORKLOADS[name]
        states[name] = {
            "workload": workload,
            "reference": references[workload.reference_key(smoke)],
            "passes": [], "setups": [], "spent": 0.0, "trace": None,
        }
        states[name]["items"] = len(states[name]["reference"]["records"])

    def measured_pass(state, traced):
        result = runner.run_pass(state["workload"], traced)
        result.update(gate(state["workload"], result, state["reference"]))
        for problem in result["problems"]:
            print(f"  {state['workload'].name}: {problem}", file=sys.stderr)
        return result

    active = list(names)
    try:
        while active:
            rng.shuffle(active)
            for name in list(active):
                state = states[name]
                t = time.perf_counter()
                state["setups"].extend(runner.setup_sample() for _ in range(SETUPS_PER_PASS))
                result = measured_pass(state, False)
                state["passes"].append(result)
                if "setup_s" in result:
                    state["setups"].append(result["setup_s"])
                last = time.perf_counter() - t
                state["spent"] += last
                if result["failed"] or state["spent"] + last > seconds:
                    active.remove(name)
        for name in names:
            state = states[name]
            while len(state["setups"]) < MIN_SETUPS:
                state["setups"].append(runner.setup_sample())
        if trace:
            order = list(names)
            rng.shuffle(order)
            for name in order:
                state = states[name]
                result = measured_pass(state, True)
                state["trace"] = result
    except PassTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        for state in states.values():
            state["timed_out"] = True
    env["loadavg_end"] = os.getloadavg()
    shutil.rmtree(workdir / "pass", ignore_errors=True)

    doc = {"seed": seed, "seconds": seconds, "smoke": smoke, "environment": env,
           "workloads": {}}
    for name in names:
        state = states[name]
        passes = state["passes"] + ([state["trace"]] if state["trace"] else [])
        attempted = sum(p["attempted"] for p in passes) or state["items"]
        failed = sum(p["failed"] for p in passes)
        if state.get("timed_out") or not passes:
            failed = attempted
        entry = {
            "why": state["workload"].why,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "end_to_end": end_to_end(state) if state["passes"] else {},
            "setups_s": state["setups"],
            "passes": [_public(p) for p in state["passes"]],
        }
        traced = state["trace"]
        if traced is not None and traced.get("trace") and traced["failed"] == 0:
            values = layer_metrics(traced["trace"], state["items"], traced, traced["sizes"],
                                   entry["end_to_end"]["wall_s"])
            entry["per_layer"] = values
            entry["trace_pass"] = _public(traced)
            entry["trace_report"] = trace_report(name, traced["trace"], values,
                                                 traced["wall_s"])
            aggregate = {"workload": name, "seed": seed, "smoke": smoke, "environment": env,
                         "items": state["items"], "wall_s": traced["wall_s"],
                         "per_layer": values, **traced["trace"]}
            (traced["trace_dir"] / "aggregate.json").write_text(
                json.dumps(aggregate, indent=1), encoding="utf-8")
        doc["workloads"][name] = entry
    return doc


def _public(result: dict) -> dict:
    """A pass's record for the results file, without paths and raw traces."""
    skip = {"outputs", "trace_dir", "trace", "ready"}
    return {k: v for k, v in result.items() if k not in skip}


def print_results(doc: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the final JSON line."""
    env = doc["environment"]
    print(f"seed {doc['seed']}  nproc {env['nproc']}  cpu {env['cpu_model']}  "
          f"{env['implementation']} {env['python']}  commit {env['commit']}  "
          f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    single = len(doc["workloads"]) == 1
    metrics = {}
    for name, entry in doc["workloads"].items():
        e2e = entry["end_to_end"]
        print(f"{name}: {len(entry['passes'])} passes, {entry['attempted']} inputs "
              f"attempted, {entry['failed']} failed")
        for metric, unit in END_TO_END:
            if metric in e2e:
                print(f"  {metric:<12} {e2e[metric]:12.4f} {unit}")
        print(f"  {'failed_frac':<12} {entry['failed_frac']:12.4f} ratio")
        for line in entry.get("trace_report", []):
            print(line)
        prefix = "" if single else f"{name}."
        if trace:
            for m in PER_LAYER:
                if "per_layer" in entry:
                    metrics[prefix + m["name"]] = {"value": entry["per_layer"][m["name"]],
                                                   "unit": m["unit"]}
        else:
            for metric, unit in END_TO_END:
                if metric in e2e:
                    metrics[prefix + metric] = {"value": e2e[metric], "unit": unit}
    attempted = sum(e["attempted"] for e in doc["workloads"].values())
    failed = sum(e["failed"] for e in doc["workloads"].values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", default=".bench_work")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "greenheights" / "cli.py").is_file():
        print("error: run from the root of a greenheights checkout "
              "(src/greenheights/cli.py not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = (root / args.workdir).resolve()
    doc = bench(names, args.seed, args.seconds, bool(args.trace), args.smoke, root, workdir)
    line = print_results(doc, bool(args.trace))
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    out = workdir / "results" / f"{label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, default=str), encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
