"""dimcalc benchmark: one seeded workload per run, against the checkout's src/.

    python3 bench/run.py --workload laws|sweep|language|groups \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
a fresh interpreter, the workload's CLI command as a subprocess, and
in-process throughput and per-item time over a seeded item pool.  With
``--trace 1`` it runs a fixed batch of the pool alternately untraced and
traced and reports per-layer counts, times and ratios.  Every outcome is
checked against oracles that are not dimcalc itself.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
Workloads, metrics and the layer map are described in ``bench/meta.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import oracles
import tracing
from hostspeed import (KERNEL_GAP_S, KERNEL_REFERENCE_S, SPAWN_REFERENCE_S, HostSpeed,
                       kernel_probe)
from launch import run_child
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INIT = SRC / "dimcalc" / "__init__.py"  # the only dimcalc a run may measure
OUT = HERE / "out"

ROUNDS = 15  # parts of the timed loop; each is followed by subprocess samples
CLI_PER_ROUND = 2  # the CLI wait is the shortest timing, so it gets more samples
CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits 2 without a result."""


def import_checkout():
    """Import dimcalc from the checkout's src/ and refuse any other copy."""
    if not INIT.is_file():
        raise BenchError(f"no dimcalc package under {SRC}")
    if "dimcalc" in sys.modules:
        raise BenchError("dimcalc was imported before the checkout was put on the path")
    sys.path.insert(0, str(SRC))
    import dimcalc
    import dimcalc.cli

    if Path(dimcalc.__file__).resolve() != INIT:
        raise BenchError(f"dimcalc resolves to {dimcalc.__file__}, not {INIT}")
    return dimcalc


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], ready_line: bool = False):
    """Run a child interpreter from the checkout root; see ``run_child``."""
    return run_child(argv, CHILD_TIMEOUT_S, ready_line, cwd=ROOT, env=child_env())[:4]


def measure_setup(workload) -> float:
    """Seconds from spawn until a fresh interpreter has imported the
    checkout's dimcalc and made the workload's first call."""
    code = ("import dimcalc\n" + workload.setup_call
            + "\nprint(dimcalc.__file__, flush=True)\n")
    wait, status, out, err = spawn([sys.executable, "-c", code], ready_line=True)
    path = out.splitlines()[0] if out else ""
    if status != 0 or Path(path).resolve() != INIT:
        raise BenchError(f"set-up child failed or imported another dimcalc: {path!r} {err}")
    return wait


def measure_cli(workload):
    """Wall time and peak RSS of the workload's CLI command, whether its
    output checked out, and the sha256 of its stdout."""
    argv = [sys.executable, str(HERE / "launch.py"), str(CHILD_TIMEOUT_S - 5),
            sys.executable, "-m", "dimcalc", *workload.cli_args]
    _, status, report, err = spawn(argv)
    if status != 0:
        raise BenchError(f"launcher failed: {err.strip()[-500:]}")
    wall, code, rss_kib, out, err = json.loads(report)
    try:
        ok = workload.check_cli(code, out)
    except (ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        print(f"cli check failed (exit {code}): {err.strip()[-500:]}", file=sys.stderr)
    return wall, rss_kib * 1024 / 1e6, ok, hashlib.sha256(out.encode()).hexdigest()


class Checker:
    """Checks outcomes against the pool's expectations and records, per pool
    position, the digest text of the first pass; later passes must repeat it."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, str] = {}
        self.first_attempted = self.first_failed = 0  # the first pass only
        self.wrong = False

    def __call__(self, index: int, item, outcome) -> None:
        size = self.workload.size(item)
        first = index not in self.first
        try:
            failed, wrong, digest = self.workload.check(item, outcome, first)
        except Exception as err:  # an outcome of the wrong shape is a wrong answer
            failed, wrong, digest = size, True, f"unchecked {type(err).__name__}: {err}"
        if first:
            self.first_attempted += size
            self.first_failed += failed
        if wrong or self.first.setdefault(index, digest) != digest:
            self.wrong = True

    def fail_ratio(self) -> float:
        """Failed over attempted items of one full pass: exact for a seed."""
        return self.first_failed / self.first_attempted

    def digest(self) -> str:
        joined = "\n".join(self.first[i] for i in sorted(self.first))
        return hashlib.sha256(joined.encode()).hexdigest()


def run_item(workload, item):
    try:
        return workload.run(item)
    except Exception as err:  # the checker counts it as failed
        return err


def end_to_end(workload, seconds: float):
    """Cycle through the pool for ``seconds`` in ROUNDS parts, with a set-up
    sample and CLI samples after each part, so that they span the whole run.

    Every timing is scaled to the quiet host's speed (see hostspeed.py):
    in-process timings by kernel probes, subprocess timings by spawn
    probes.  Each pool item keeps the median of its scaled times.
    """
    checker = Checker(workload)
    pool = workload.items
    times: list[list[tuple[float, float]]] = [[] for _ in pool]
    kernel = HostSpeed(kernel_probe, KERNEL_REFERENCE_S, window_s=0.6)
    spawns = HostSpeed(lambda: spawn([sys.executable, "-c", "pass"])[0], SPAWN_REFERENCE_S,
                       window_s=0.5)
    for item in workload.trace_items:  # warm-up
        run_item(workload, item)
    setups, clis = [], []
    i = 0
    for round_ in range(ROUNDS):
        deadline = time.perf_counter() + seconds / ROUNDS
        while time.perf_counter() < deadline or (round_ == ROUNDS - 1 and i < len(pool)):
            k = i % len(pool)
            t0 = time.perf_counter()
            outcome = run_item(workload, pool[k])
            times[k].append((t0, time.perf_counter() - t0))
            checker(k, pool[k], outcome)
            kernel.maybe_probe(KERNEL_GAP_S)
            i += 1
        spawns.probe()
        setups.append((time.perf_counter(), measure_setup(workload)))
        spawns.probe()
        for _ in range(CLI_PER_ROUND):
            clis.append((time.perf_counter(), *measure_cli(workload)))
        spawns.probe()

    def scaled(speed):
        return lambda samples: [dt * speed.scale(at) for at, dt in samples]

    def raw(samples):
        return [dt for _, dt in samples]

    sizes = [workload.size(item) for item in pool]
    cli_walls = [(at, wall) for at, wall, _, _, _ in clis]

    def timings(in_process, subprocess):
        item_s = [statistics.median(in_process(samples)) for samples in times]
        per_item = sorted(t / n for t, n in zip(item_s, sizes))
        return {
            "setup_s": statistics.median(subprocess(setups)),
            "cli_s": statistics.median(subprocess(cli_walls)),
            "items_per_s": sum(sizes) / sum(item_s),
            "item_p50_us": statistics.median(per_item) * 1e6,
        }, per_item

    metrics, per_item = timings(scaled(kernel), scaled(spawns))
    unscaled, _ = timings(raw, raw)
    p99 = per_item[min(len(per_item) - 1, int(0.99 * len(per_item)))]
    metrics["pass_ratio"] = 1 - checker.fail_ratio()
    metrics["peak_rss_mb"] = statistics.median(rss for _, _, rss, _, _ in clis)
    cli_digests = {digest for *_, digest in clis}
    notes = {
        "fail_ratio": f"{checker.fail_ratio():.6f} ({checker.first_failed} of "
                      f"{checker.first_attempted} items in the first pass)",
        "item_p99_us": f"{p99 * 1e6:.3f} (from {len(per_item)} items)",
        "passes": f"{i / len(pool):.1f} over {len(pool)} pool items",
        "host_scale": f"kernel {kernel.median_scale():.4f} (median of {len(kernel.took)} "
                      f"probes), spawn {spawns.median_scale():.4f} (of {len(spawns.took)})",
        "unscaled": " ".join(f"{k} {v:.6g}" for k, v in unscaled.items()),
        "setup_samples_ms": " ".join(f"{t * 1e3:.1f}" for _, t in setups),
        "cli_samples_ms": " ".join(f"{t * 1e3:.1f}" for _, t in cli_walls),
        "digest_cli": min(cli_digests),
        "digest_report": checker.digest(),
    }
    cli_ok = all(ok for *_, ok, _ in clis) and len(cli_digests) == 1
    return checker, cli_ok, metrics, notes


def run_batch(workload, items):
    """Run a fixed batch and the CLI command in process, unchecked."""
    outcomes = [run_item(workload, item) for item in items]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            code = workload.dimcalc.cli.main(list(workload.cli_args))
        except Exception as err:  # fails check_cli below
            code = err
    return outcomes, code, stdout.getvalue()


def check_batch(workload, items, batch, checker: Checker) -> bool:
    outcomes, code, stdout = batch
    for i, (item, outcome) in enumerate(zip(items, outcomes)):
        checker(i, item, outcome)
    try:
        return workload.check_cli(code, stdout)
    except (ValueError, KeyError, TypeError):
        return False


def per_layer(workload, seconds: float):
    spawn_s = statistics.median(spawn([sys.executable, "-c", "pass"])[0] for _ in range(5))
    import_code = ("import time\nt = time.perf_counter()\nimport dimcalc\n"
                   "print(time.perf_counter() - t, dimcalc.__file__)\n")
    imports = []
    for _ in range(5):
        out = spawn([sys.executable, "-c", import_code])[2].split(maxsplit=1)
        if len(out) != 2 or Path(out[1].strip()).resolve() != INIT:
            raise BenchError(f"a child failed or imported another dimcalc: {out}")
        imports.append(float(out[0]))
    import_s = statistics.median(imports)

    checker = Checker(workload)
    items = workload.trace_items
    gc_now = {"collections": 0, "ns": 0}
    gc_started = []

    def on_gc(phase, info):
        if phase == "start":
            gc_started.append(time.perf_counter_ns())
        elif gc_started:
            gc_now["collections"] += 1
            gc_now["ns"] += time.perf_counter_ns() - gc_started.pop()

    # One checked pass over the whole pool gives the result line's attempted
    # and failed; the traced batch is a prefix of the pool, so its later
    # passes must repeat this pass's digests.
    for k, item in enumerate(workload.items):
        checker(k, item, run_item(workload, item))
    ok = check_batch(workload, items, run_batch(workload, items), checker)  # warm-up
    plain, traced, passes, gc_stats = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        gc_now.update(collections=0, ns=0)
        gc.callbacks.append(on_gc)
        t0 = time.perf_counter()
        try:
            batch = run_batch(workload, items)
        finally:
            plain.append(time.perf_counter() - t0)
            gc.callbacks.remove(on_gc)
        gc_stats.append((gc_now["collections"], gc_now["ns"] / 1e9))
        ok = check_batch(workload, items, batch, checker) and ok

        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        with tracing.instrument(tracer):
            batch = run_batch(workload, items)
        traced.append(time.perf_counter() - t0)
        ok = check_batch(workload, items, batch, checker) and ok
        passes.append(tracing.layer_metrics(tracer))
    tracer.write(OUT / f"trace-{workload.name}.json")

    counts = [k for k in passes[0] if k.endswith((".calls", ".ratio", ".decnum_per_entry"))]
    stable = all(p[k] == passes[0][k] for p in passes for k in counts)
    metrics = {}
    for key in passes[0]:
        metrics[key] = (passes[0][key] if key in counts
                        else statistics.median(p[key] for p in passes))
    metrics["cli.spawn_s"] = spawn_s
    metrics["cli.import_s"] = import_s
    metrics["runtime.gc.collections"] = statistics.median(c for c, _ in gc_stats)
    metrics["runtime.gc_s"] = statistics.median(s for _, s in gc_stats)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    self_s = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
    size = sum(workload.size(item) for item in items)
    notes = {"passes": f"{len(passes)} untraced and {len(passes)} traced",
             "counts_repeat_within_run": str(stable),
             "self_share": " ".join(f"{layer} {100 * s / sum(self_s.values()):.1f}%"
                                    for layer, s in self_s.items()),
             "is_prime_calls_per_item": f"{metrics['decorated.is_prime.calls'] / size:.1f}"
                                        f" (the batch holds {size} items and the CLI)",
             "digest_report": checker.digest()}
    return checker, ok, metrics, notes


def load_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json states them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def host() -> str:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = load_units()
        dimcalc = import_checkout()
        support = oracles.load_support(ROOT)
        OUT.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload](dimcalc, support, args.seed, OUT)
        measure = per_layer if args.trace else end_to_end
        checker, ok, metrics, notes = measure(workload, args.seconds)
    except (BenchError, OSError, ImportError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; {host()}")
    print(f"dimcalc from {dimcalc.__file__}")
    for key, value in metrics.items():
        print(f"  {key:36s} {value:.6g} {units[key]}")
    for key, text in notes.items():
        print(f"  {key:36s} {text}")
    result = {
        "correct": ok and not checker.wrong,
        # one full pass over the seeded pool: later passes repeat its items
        # and must repeat its outcomes, so these counts are exact for a seed
        "attempted": checker.first_attempted,
        "failed": checker.first_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
