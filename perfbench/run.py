#!/usr/bin/env python3
"""staralg benchmark: seeded workloads driven through ``staralg.cli.main``.

    python3 perfbench/run.py --workload star_powers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

One client, closed loop, one thread: each item is one in-process
``cli.main(argv)`` call, sent when the previous one has returned.  A run
repeats the workload's pass (see gen.py) until ``--seconds`` have gone by,
always ending on a whole pass, then checks every output outside the timed
region (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see spans.py) and prints the per-layer metrics,
per traced pass, plus the traced-over-untraced throughput ratio.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Raw per-item results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import checks  # noqa: E402  (HERE is on sys.path as the script's directory)
import gen  # noqa: E402
import spans  # noqa: E402


class SetupError(Exception):
    pass


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc


def drop_staralg() -> None:
    for name in [m for m in sys.modules if m == "staralg" or m.startswith("staralg.")]:
        del sys.modules[name]


def fresh_cli():
    """Import staralg from this checkout's src/, dropping any earlier import."""
    drop_staralg()
    try:
        cli = importlib.import_module("staralg.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import staralg from {SRC}: {exc}") from exc
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"staralg came from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[object, str]:
    """One item: cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an internal fault fails the item, not the run
            rc = f"exception {exc!r}"
    return rc, out.getvalue()


class Run:
    """One run of a workload: its pass repeated, outputs kept from the first pass."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.setup_s: list[float] = []
        self.setup()
        self.first: list[tuple[object, str]] = []       # (exit code, stdout) per item
        self.latencies: list[list[float]] = [[] for _ in self.items]   # per item, per pass
        self.pass_busy: list[float] = []                 # summed item time per pass
        self.diverged: set[tuple[int, int]] = set()      # (pass, item) whose output changed

    def setup(self) -> None:
        """Import staralg afresh, generate the inputs, run the warm-up item."""
        drop_staralg()
        gc.collect()    # free the previous import first, so it neither counts nor lingers
        t0 = perf_counter()
        self.cli = fresh_cli()
        self.items, warmup = gen.generate(self.workload, self.seed)
        call(self.cli, warmup.argv)
        self.setup_s.append(perf_counter() - t0)

    def passes(self, seconds: float, tracer: spans.Tracer | None) -> tuple[list[int], list[int]]:
        """Run whole passes, each but the first after a fresh set-up, until
        `seconds` have elapsed.

        With a tracer, passes alternate untraced and traced, ending on a
        traced one, so that both sample the same stretch of machine speed.
        Returns the indices of the untraced and of the traced passes.
        """
        plain: list[int] = []
        traced: list[int] = []
        start = perf_counter()
        while True:
            p = len(self.pass_busy)
            if p:
                self.setup()
            tracing = tracer is not None and len(plain) > len(traced)
            if tracing:
                tracer.install()
            busy = 0.0
            for i, item in enumerate(self.items):
                t0 = perf_counter()
                result = call(self.cli, item.argv)
                dt = perf_counter() - t0
                busy += dt
                self.latencies[i].append(dt)
                if p == 0:
                    self.first.append(result)
                elif result != self.first[i]:
                    self.diverged.add((p, i))
            self.pass_busy.append(busy)
            (traced if tracing else plain).append(p)
            if perf_counter() - start >= seconds and len(traced) == (len(plain) if tracer else 0):
                return plain, traced

    # This machine's speed varies by speeding up from a steady floor for
    # stretches of seconds to minutes (up to 1.4x), so the slowest
    # observations in a run are the reproducible ones: throughput is read
    # from the slowest pass and each item's latency from its slowest call.

    def records_per_s(self, verdicts: list, passes: list[int]) -> float:
        """Verified records per second of item time in the slowest of `passes`."""
        return min(
            sum(v.records for i, v in enumerate(verdicts) if v.ok and (p, i) not in self.diverged)
            / self.pass_busy[p] for p in passes)

    def slowest_latencies(self, passes: list[int]) -> list[float]:
        """Each item's slowest call over `passes`."""
        return [max(lat[p] for p in passes) for lat in self.latencies]


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "staralg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def ledger_check(items: list, sha: str) -> str:
    """Same program, same argv, same bytes: compare with earlier runs here."""
    path = RESULTS / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    inputs = hashlib.sha256(json.dumps([item.argv for item in items]).encode()).hexdigest()
    key = f"{src_digest()[:16]}:{inputs[:16]}"
    earlier = ledger.setdefault(key, sha)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return "" if earlier == sha else f"stdout sha256 {sha[:12]} differs from an earlier run's {earlier[:12]}"


def run_workload(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    run = Run(workload, seed)
    tracer = spans.Tracer() if traced else None
    plain, traced_passes = run.passes(seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    items = run.items
    verdicts = [checks.check(item, rc, out) for item, (rc, out) in zip(items, run.first)]
    npasses = len(run.pass_busy)
    attempted = npasses * len(items)
    failed = (npasses * sum(not v.ok for v in verdicts)
              + sum(verdicts[i].ok for _, i in run.diverged))
    h = hashlib.sha256()
    for rc, out in run.first:
        h.update(out.encode() + b"\0")
    sha = h.hexdigest()
    RESULTS.mkdir(exist_ok=True)
    ledger_problem = ledger_check(items, sha)

    latencies = run.slowest_latencies(plain)
    if traced:
        overhead = run.records_per_s(verdicts, traced_passes) / run.records_per_s(verdicts, plain)
        values = layer_metrics(tracer, len(traced_passes), overhead)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(run.setup_s),
            "records_per_s": run.records_per_s(verdicts, plain),
            "item_p50_ms": percentile(latencies, 50) * 1000,
            "item_p90_ms": percentile(latencies, 90) * 1000,
            "peak_rss_mib": peak_rss_mib,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    problems = [f"item {i} ({' '.join(items[i].argv[:3])} ...): {v.reason}"
                for i, v in enumerate(verdicts) if not v.ok]
    problems += [f"item {i}: output changed on pass {p}" for p, i in sorted(run.diverged)]
    if ledger_problem:
        problems.append(ledger_problem)
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "src_sha256": src_digest(),
        "stdout_sha256": sha, "passes": npasses, "pass_busy_s": run.pass_busy,
        "attempted": attempted, "failed": failed, "setup_s": run.setup_s,
        "problems": problems, "metrics": metrics,
        "items": [{"argv": item.argv, "rc": rc, "ok": v.ok, "reason": v.reason,
                   "records": v.records, "stdout_bytes": len(out.encode()), **v.sizes,
                   "latency_ms": [round(x * 1000, 4) for x in lat]}
                  for item, (rc, out), v, lat in zip(items, run.first, verdicts, run.latencies)],
    }
    if traced:
        raw["layers"] = {g: tracer.layer(g) for g in tracer.groups}
        raw["spans_seen"] = tracer.spans_seen
        raw["spans"] = tracer.spans()
    out_path = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}.json"
    out_path.write_text(json.dumps(raw) + "\n")

    print(f"workload={workload} seed={seed} trace={int(traced)} passes={raw['passes']} "
          f"items_per_pass={len(items)} attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        note = (f"  (n={len(latencies)} items, each its slowest of {len(plain)} passes)"
                if name.startswith("item_p") else "")
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    if not traced:
        print(f"  {'fail_ratio':32s} {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    print(f"  stdout_sha256 (first pass)       {sha}")
    print(f"  raw results                      {out_path.relative_to(ROOT)}")
    for p in problems[:10]:
        print(f"FAIL {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(tracer: spans.Tracer, passes: int, overhead: float) -> dict:
    """Per-layer values per pass, by metric name."""
    root = tracer.layer("cli.main")["incl_s"]
    modules = {name.split(".")[0] for name in tracer.groups}
    values = {"trace.overhead_ratio": overhead,
              "cli_syntax.self_share": (tracer.module_self_s("cli") +
                                        tracer.module_self_s("syntax")) / root}
    for module in modules:
        values[f"{module}.self_s"] = tracer.module_self_s(module) / passes
    for group in tracer.groups:
        layer = tracer.layer(group)
        for field, value in layer.items():
            values[f"{group}.{field}"] = value / passes
        values[f"{group}.incl_share"] = layer["incl_s"] / root
    return values


def run_all(args, spec) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if not (SRC / "staralg" / "__init__.py").is_file():
            raise SetupError(f"no staralg sources under {SRC}")
        if args.workload == "all":
            return run_all(args, spec)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
