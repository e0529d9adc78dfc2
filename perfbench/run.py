#!/usr/bin/env python3
"""flipkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload design_loop --seed 1 --seconds 25 --trace 0

Run from the root of a flipkit checkout; the package is imported from
its `src/` tree.  With --trace 0 the run measures the end-to-end metrics
with tracing off.  With --trace 1 it runs each request twice, untraced
and then traced, and reports the per-layer metrics from the traced
runs.  Every metric is printed by name and unit, then the last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Metric names
and units come from BENCHMARK.json; see perfbench/README.md for what
each one measures and which layer metric should move which end-to-end
metric.  A run record (host facts, metrics, failures) and, when traced,
the spans go to .perfbench_out/ in the checkout.

The latency metrics are scaled to a fixed host speed, measured by the
sampler in speed.py while the loop runs; the unscaled figures are
printed by name as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from speed import CAL_REF_S
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# setup probes and cold CLI starts, spread through the loop so that they
# sample the whole run on a host whose load comes and goes
PROBES = 11
# computed bytes one SOR sweep moves per cell: seven coefficient arrays
# read, the padded potential read and written, 8 bytes each
SOR_BYTES_PER_CELL = (7 + 2) * 8


@dataclass
class Result:
    request: object
    outcome: object
    error: str | None
    start: float
    seconds: float
    traced: bool


class HostSpeed:
    """The speed.py sampler, running as a child process until stop()."""

    def __init__(self, workdir: Path):
        self.path = workdir / "speed.txt"
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("speed.py")),
             str(self.path)], stdin=subprocess.DEVNULL)
        self.samples: list[tuple[float, float]] = []
        deadline = time.monotonic() + 60.0
        while not (self.path.exists() and self.path.stat().st_size):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("host-speed sampler did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=60)
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as f:
            self.samples = [tuple(map(float, line.split()))
                            for line in f if line.endswith("\n")]

    def cal_s(self, start: float, seconds: float) -> float:
        """Mean calibration pass time over [start, start + seconds], with
        the last pass before it and the first after it, so that short
        spans get samples too."""
        end = start + seconds
        near = ([d for t, d in self.samples if t < start][-1:]
                + [d for t, d in self.samples if start <= t <= end]
                + [d for t, d in self.samples if t > end][:1])
        if not near:
            raise RuntimeError("host-speed sampler has no samples")
        return statistics.fmean(near)

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * CAL_REF_S / self.cal_s(start, seconds)


def child_env() -> dict:
    """The caller's environment plus src/ on PYTHONPATH; thread settings
    (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, FLIPKIT_THREADS) are left as
    the user has them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env: dict) -> float:
    """Fresh interpreter to ready: import flipkit, load the preset."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import flipkit.device as d; d.paper_default()"],
                   env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=120)
    return time.perf_counter() - start


def host_facts() -> dict:
    import numpy as np

    from flipkit import transmon

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    ec = transmon.charging_energy(89e-15)
    n = np.arange(-30, 31, dtype=float)
    ham = (np.diag(4.0 * ec * n * n)
           + np.diag(np.full(60, -0.5 * 85.0 * ec), 1)
           + np.diag(np.full(60, -0.5 * 85.0 * ec), -1))

    def probe_ms(fn, repeat):
        fn(ham)
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn(ham)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "FLIPKIT_THREADS")},
        "eigh61_ms": probe_ms(np.linalg.eigh, 5),
        "eigvalsh61_ms": probe_ms(np.linalg.eigvalsh, 21),
    }


def closed_loop(workload, seconds: float, tracer=None, probe=None
                ) -> tuple[list, float]:
    """One client: the next request starts when the previous one is done.

    Requests run in groups of the workload's cycle, a whole rotation of
    request kinds.  When traced, each request runs twice, untraced and
    then traced.  Returns the results and the loop's busy time: request
    time plus input generation.  Stops once the next group would end past
    `seconds` of busy time at the pace of the last one; at least one group
    runs.  probe(k, results) runs between requests, outside the busy
    time, each time another 1/PROBES of `seconds` has passed, and the
    rest run at the end, so the probes sample the whole run.
    """
    results: list[Result] = []
    busy = 0.0
    probed = 0
    i = 0
    while True:
        group_start = busy
        for _ in range(workload.cycle):
            t_req = time.perf_counter()
            req = workload.request(i)
            i += 1
            for traced in ((False, True) if tracer else (False,)):
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out, err = workload.run(req), None
                except Exception as exc:  # a failed request is counted
                    traceback.print_exc()
                    out, err = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if traced:
                    tracer.remove()
                results.append(Result(req, out, err, t0, dt, traced))
            busy += time.perf_counter() - t_req
            while (probe and probed < PROBES
                   and busy >= probed * seconds / PROBES):
                probe(probed, results)
                probed += 1
        if busy + (busy - group_start) > seconds:
            break
    while probe and probed < PROBES:
        probe(probed, results)
        probed += 1
    return results, busy


def kind_gmean(samples) -> float:
    """Geometric mean over kinds of each kind's median, from (kind, value)
    pairs, so that every kind moves it whatever the kinds' costs."""
    groups = defaultdict(list)
    for kind, value in samples:
        groups[kind].append(value)
    logs = [math.log(statistics.median(v)) for v in groups.values()]
    return math.exp(sum(logs) / len(logs))


def layer_metrics(tracer, results: list[Result], names) -> dict[str, float]:
    """Per-layer metrics from the traced requests, as means per request.

    A name `<span or layer>.<stat>` is read generically for the stats
    calls, self_s, self_ms, ms_per_call and share; the rest are special.
    """
    traced = [r for r in results if r.traced]
    n = len(traced)
    wall = sum(r.seconds for r in traced)
    tracer.compute_self_times()
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        self_s[s.layer] += s.self_s

    sp = "fieldsolve.solve_potential"
    solves = [s.info for s in tracer.spans if s.name == sp and s.info]
    cell_sweeps = sum(nx * ny * it for nx, ny, _, it in solves)
    distinct = {s.info for s in tracer.spans
                if s.name == "transmon.cpb_spectrum" and s.info}
    special = {
        "transmon.cpb_spectrum.calls_per_distinct_input":
            calls["transmon.cpb_spectrum"] / len(distinct) if distinct
            else 0.0,
        "device.sweep.rows": calls["device.sweep.row"] / n,
        f"{sp}.ns_per_cell_sweep":
            self_s[sp] / cell_sweeps * 1e9 if cell_sweeps else 0.0,
        "trace.overhead_frac":
            wall / sum(r.seconds for r in results if not r.traced) - 1.0,
    }
    for label, cell in (("1um", 1e-6), ("0.5um", 0.5e-6)):
        at = [info for info in solves if abs(info[2] - cell) < 1e-3 * cell]
        special[f"{sp}.sweeps_{label}"] = statistics.median(
            [it for _, _, _, it in at] or [0.0])
        special[f"{sp}.computed_mb_per_sweep_{label}"] = statistics.median(
            [nx * ny * SOR_BYTES_PER_CELL / 1e6 for nx, ny, _, _ in at]
            or [0.0])

    def value(name):
        if name in special:
            return special[name]
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            return calls[span] / n
        if stat == "self_s":
            return self_s[span] / n
        if stat == "self_ms":
            return self_s[span] / n * 1e3
        if stat == "ms_per_call":
            return self_s[span] / calls[span] * 1e3 if calls[span] else 0.0
        if stat == "share":
            return self_s[span] / wall
        raise KeyError(f"no rule for per-layer metric {name!r}")

    return {name: value(name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "flipkit" / "__init__.py").is_file():
        print(f"perfbench: no flipkit package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = child_env()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = host_facts()
        workload = WORKLOADS[args.workload](args.seed, workdir, env, ROOT)
        attempted, failures = workload.reference_checks()

        tracer = Tracer() if args.trace else None
        setup, cold = [], []

        def probe(k, results):
            """One setup probe and one cold CLI start."""
            nonlocal attempted
            setup.append(setup_seconds(env))
            attempted += 1
            try:
                t0 = time.perf_counter()
                kind, elapsed, missed = workload.cold_start(results, k)
            except Exception as exc:  # a failed cold start is counted
                traceback.print_exc()
                failures.append(f"cold start {k}: {type(exc).__name__}: "
                                f"{exc}")
                return
            cold.append((kind, t0, elapsed))
            failures.extend(missed)

        speed = HostSpeed(workdir)
        try:
            results, busy = closed_loop(workload, args.seconds, tracer,
                                        None if args.trace else probe)
        finally:
            speed.stop()
        for r in results:
            attempted += 1
            if r.error is not None:
                failures.append(f"request {r.request.index}: {r.error}")
                continue
            try:
                missed = workload.check(r.request, r.outcome)
            except Exception as exc:  # an oracle that cannot run is a miss
                traceback.print_exc()
                missed = [f"check raised {type(exc).__name__}: {exc}"]
            failures += [f"request {r.request.index}: {f}" for f in missed]

        named = []
        if args.trace:
            metrics = layer_metrics(
                tracer, results,
                [m["name"] for m in declared
                 if not m["name"].startswith("host.")])
            metrics["host.eigh61_ms"] = host["eigh61_ms"]
            metrics["host.eigvalsh61_ms"] = host["eigvalsh61_ms"]
            attempted += 1
            for name in workload.bypassed:
                if any(s.name == name for s in tracer.spans):
                    failures.append(f"bypass broken: {name} ran")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = {"setup_s": statistics.median(setup),
                       "p50_gmean_ms": kind_gmean(
                           (r.request.kind, speed.scaled(r.start, r.seconds))
                           for r in results) * 1e3}
            named = [("p50_gmean_unscaled_ms", kind_gmean(
                (r.request.kind, r.seconds) for r in results) * 1e3, "ms",
                "p50_gmean_ms before scaling to the reference host speed")]
            if cold:
                metrics["cli_cold_s"] = kind_gmean(
                    (kind, speed.scaled(t0, t)) for kind, t0, t in cold)
                named.append(("cli_cold_unscaled_s", kind_gmean(
                    (kind, t) for kind, _, t in cold), "s",
                    "cli_cold_s before scaling"))
            cals = [d for _, d in speed.samples]
            named.append(("host.calibration_ms",
                          statistics.median(cals) * 1e3, "ms",
                          f"median of {len(cals)} sampler passes; "
                          f"{CAL_REF_S * 1e3:g} ms is the reference speed"))
            named += workload.named([r.seconds for r in results], busy,
                                    results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    failed = len(failures)
    for f in failures[:20]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(f"host = {json.dumps(host)}")
    print(f"workload = {args.workload}, seed = {args.seed}, "
          f"requests = {len(results)}, loop = {busy:.3f} s busy")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    for name, value, unit, note in named:
        print(f"{name} = {value:.6g} {unit}  ({note})")
    print(f"failed_frac = {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations)")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "requests": len(results), "busy_s": busy,
        "setup_samples_s": setup, "cold_samples_s": cold,
        "latencies_s": [[r.request.kind, r.traced, r.start, r.seconds]
                        for r in results],
        "speed_samples_s": speed.samples,
        "metrics": metrics,
        "named": {name: {"value": v, "unit": u, "note": note}
                  for name, v, u, note in named},
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
