"""probcone benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (``src/probcone`` must exist)::

    python3 bench/run.py --workload axioms-triangle --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; the only thing it adds to the
CLI processes is a set-up timestamp (see ``probe.py``). ``--trace 1`` is a
separate run that measures the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
environment and every metric with its sample count and quartiles.
Everything the run writes stays under ``.bench_run/`` in the checkout;
``.bench_run/results/`` keeps each run's full record, spans included.
See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import REFERENCE_PATH, WORKLOADS, check_cell, cli_args

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh probe processes per traced run behind the cli.* metrics
CHILD_TIMEOUT_S = 120.0


def quartiles(samples):
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def rounds(seconds: float, start: float):
    """Yield 1, 2, ... until the run begun at ``start`` is as close to ``seconds``
    long as whole rounds allow; at least one round runs."""
    n = 0
    while True:
        began = time.monotonic()
        n += 1
        yield n
        now = time.monotonic()
        # stop when one more round would overshoot by more than this one undershoots
        if now - start + (now - began) / 2 >= seconds:
            return


def blas_info():
    """BLAS vendor and thread count of the numpy in this process."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return vendor, threads


def environment(args):
    import numpy as np
    import scipy

    vendor, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """One run: the workload's cells, where they write, and what went wrong."""

    def __init__(self, workload: str, seed: int, src: Path, work_dir: Path):
        self.cells = WORKLOADS[workload]
        self.seed = seed
        self.src = src
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self.child_env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first_bytes = {}
        self.config_paths = []
        self.out_dirs = []
        self.stamp_paths = []
        self.stderr_paths = []
        for cell in self.cells:
            out_dir = work_dir / cell.name
            out_dir.mkdir(parents=True)
            config_path = work_dir / f"{cell.name}.json"
            config_path.write_text(json.dumps(cell.config))
            self.config_paths.append(config_path)
            self.out_dirs.append(out_dir)
            self.stamp_paths.append(work_dir / f"{cell.name}.setup.json")
            self.stderr_paths.append(work_dir / f"{cell.name}.stderr.txt")

    def fail(self, message: str, invocations: int = 1):
        """Record a problem; ``invocations`` is how many attempts it newly fails."""
        self.failed += invocations
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def argv(self, i: int) -> list:
        """CLI arguments of cell ``i``, after removing the report of its last pass."""
        (self.out_dirs[i] / "report.json").unlink(missing_ok=True)
        return cli_args(self.cells[i], self.config_paths[i], self.seed, self.out_dirs[i])

    # -- set-up probes ----------------------------------------------------

    def probe(self):
        """One fresh set-up probe; returns its record, or None."""
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "probe.py"), *map(str, self.config_paths)],
                env=self.child_env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"set-up probe ran over {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            self.fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        return self.checked_record(proc.stdout.strip().splitlines()[-1])

    def checked_record(self, text: str):
        record = json.loads(text)
        if not Path(record["probcone_file"]).resolve().is_relative_to(self.src):
            self.fail(f"probcone was imported from {record['probcone_file']}, not {self.src}")
            return None
        return record

    # -- passes -----------------------------------------------------------

    def check_outputs(self, failed_cells):
        """Check the outputs of every cell that exited cleanly in this pass."""
        for i, cell in enumerate(self.cells):
            if i in failed_cells:
                continue
            problems, det = check_cell(cell, self.out_dirs[i], self.reference[cell.name])
            first = self.first_bytes.setdefault(cell.name, det)
            if det != first:
                problems.append(f"{cell.name}: report.json bytes differ from the first pass")
            for k, problem in enumerate(problems):
                self.fail(problem, invocations=int(k == 0))

    def fresh_pass(self):
        """Every cell as a fresh CLI process.

        Returns (wall s, cpu s, peak rss MB, set-up s of each process).
        """
        cpu = 0.0
        peak_kb = 0
        setup = []
        failed = set()
        start = time.perf_counter()
        for i in range(len(self.cells)):
            self.attempted += 1
            self.stamp_paths[i].unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "probe.py"), "--stamp", str(self.stamp_paths[i]), *self.argv(i)]
            launched, code, usage = self.spawn(argv, self.stderr_paths[i])
            cpu += usage.ru_utime + usage.ru_stime
            peak_kb = max(peak_kb, usage.ru_maxrss)
            if code != 0:
                stderr = self.stderr_paths[i].read_text().strip()[-500:]
                self.fail(f"{self.cells[i].name}: CLI exited {code}: {stderr}")
                failed.add(i)
                continue
            record = self.checked_record(self.stamp_paths[i].read_text())
            if record is None:
                failed.add(i)
            else:
                setup.append(record["ready"] - launched)
        wall = time.perf_counter() - start
        self.check_outputs(failed)
        return wall, cpu, peak_kb / 1024.0, setup

    def spawn(self, argv, stderr_path):
        """Run one child to completion; returns (launch time, exit code, its rusage)."""
        launched = time.monotonic()
        with open(stderr_path, "w") as stderr:
            proc = subprocess.Popen(argv, env=self.child_env, stdout=subprocess.DEVNULL, stderr=stderr)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return launched, proc.returncode, usage

    def inprocess_pass(self):
        """Every cell through ``probcone.cli.main`` in this process; returns seconds."""
        from probcone import cli

        failed = set()
        start = time.perf_counter()
        for i in range(len(self.cells)):
            self.attempted += 1
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(self.argv(i))
            except Exception:
                code = traceback.format_exc()
            if code != 0:
                failed.add(i)
                self.fail(f"{self.cells[i].name}: in-process CLI returned {code}")
        seconds = time.perf_counter() - start
        self.check_outputs(failed)
        return seconds

    def report_bytes(self) -> int:
        return sum(path.stat().st_size for d in self.out_dirs for path in d.iterdir())


def timed_run(bench: Bench, seconds: float, start: float) -> dict:
    """End-to-end metrics; only the set-up stamp is added to the CLI processes."""
    bench.inprocess_pass()  # warm-up: lazy imports, first-call set-up, reference bytes
    setup, wall, cpu, rss, compute = [], [], [], [], []
    for _ in rounds(seconds, start):
        w, c, r, s = bench.fresh_pass()
        wall.append(w)
        cpu.append(c)
        rss.append(r)
        setup.extend(s)
        compute.append(bench.inprocess_pass())
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "compute_s": (compute, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def workers_ratio(seed: int, nproc: int, repeats: int = 3) -> list:
    """check_axioms at workers=nproc over workers=1, on the first axioms-triangle cell."""
    from probcone.registry import make_space
    from probcone.space import check_axioms

    cell = WORKLOADS["axioms-triangle"][0]
    space = make_space(cell.config["space"])
    n_points = cell.config["axioms"]["n_points"]
    ratios = []
    for _ in range(repeats):
        times = {}
        for workers in (1, nproc):
            start = time.perf_counter()
            check_axioms(space, n_points=n_points, seed=seed, workers=workers)
            times[workers] = time.perf_counter() - start
        ratios.append(times[nproc] / times[1])
    return ratios


def traced_run(bench: Bench, seconds: float, start: float, nproc: int, spans: list) -> dict:
    """Per-layer metrics: untraced and traced in-process passes, alternating."""
    import tracer

    probes = list(filter(None, (bench.probe() for _ in range(SETUP_PROBES))))
    ratios = workers_ratio(bench.seed, nproc)
    bench.inprocess_pass()
    untraced, traced, unexplained = [], [], []
    layers = {}
    counts_seen = None
    for pass_id in rounds(seconds, start):
        untraced.append(bench.inprocess_pass())
        trace = tracer.Tracer(pass_id)
        seconds_traced, unexplained_s = tracer.run_pass(trace, bench.inprocess_pass)
        traced.append(seconds_traced)
        unexplained.append(unexplained_s / seconds_traced)
        spans.extend(trace.spans)
        for name, (value, unit) in tracer.layer_metrics(trace).items():
            layers.setdefault(name, ([], unit))[0].append(value)
        counts = {k: v[0][-1] for k, v in layers.items() if v[1] != "s"} | dict(trace.calls)
        if counts_seen is not None and counts != counts_seen:
            bench.fail("work counts differ between traced passes", invocations=0)
        counts_seen = counts
    overhead = [t - u for t, u in zip(traced, untraced)]
    metrics = {
        "cli.import_s": ([p["import_s"] for p in probes], "s"),
        "cli.modules_loaded": ([p["modules_loaded"] for p in probes], "count"),
        "cli.validate_s": ([p["validate_s"] for p in probes], "s"),
        "report.bytes": ([bench.report_bytes()], "bytes"),
        **layers,
        "parallel.workers_ratio": (ratios, "ratio"),
        "trace.untraced_compute_s": (untraced, "s"),
        "trace.traced_compute_s": (traced, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unexplained_share": (unexplained, "ratio"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "probcone" / "cli.py").is_file():
        print(f"no probcone sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import probcone

    if not Path(probcone.__file__).resolve().is_relative_to(src):
        print(f"probcone imported from {probcone.__file__}, not from {src}", file=sys.stderr)
        return 2

    env = environment(args)
    bench_root = root / ".bench_run"
    results_dir = bench_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_root))
    spans = []
    try:
        bench = Bench(args.workload, args.seed, src, work_dir)
        if args.trace:
            samples = traced_run(bench, args.seconds, start, env["nproc"], spans)
        else:
            samples = timed_run(bench, args.seconds, start)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    summary = {}
    print("env " + json.dumps(env, sort_keys=True))
    for name, (values, unit) in samples.items():
        q1, median, q3 = quartiles(values)
        summary[name] = {"value": median, "unit": unit}
        print(f"{name} = {median:.6g} {unit}  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    failed = bench.failed
    print(f"error_rate = {failed / bench.attempted:.6g} ratio  ({failed} failed of {bench.attempted} attempted)")
    record = {
        "env": env,
        "samples": {name: {"unit": unit, "values": values} for name, (values, unit) in samples.items()},
        "attempted": bench.attempted,
        "failures": bench.failures,
        "spans": {"fields": ["id", "name", "start", "end", "parent", "pass"], "rows": spans},
    }
    trace_tag = f"trace{args.trace}"
    (results_dir / f"{args.workload}-seed{args.seed}-{trace_tag}-{os.getpid()}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted, "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
