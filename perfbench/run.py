"""The repository's benchmark: one command, four workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder_batch --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair); the lines before it are the human-readable
report and the platform stamp.  See ``perfbench/README.md``.

The first run in a checkout builds the native kernel and a warm artifact
store template under ``.bench_build/perfbench``; every run then works in
fresh temporary stores there and removes them on exit.

Closed-loop timings and every set-up are reported at reference speed:
divided by the slowness of a fixed pure-Python loop sampled next to them
(``common.calibrate``).  The report lines give the figures as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import calibrate, median, platform_stamp, source_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ladder_batch", "serve_burst", "serve_http", "paper_flow")
#: Hard limit on one run, kept under the 180 s the runs are allowed.
RUN_LIMIT_S = 170.0

#: Set-up samples per untraced run, each from a fresh process, one after
#: another.  Two keep the full set of runs within its time budget: the cold
#: ``ladder_batch`` set-up takes about 10 s.
SETUP_SAMPLES = 2

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms.low": "ms",
    "latency_p50_ms.high": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for op, curve in (("ecdh_batch", "B-163"), ("ecdh_batch", "K-163"),
                      ("keygen_batch", "K-163"), ("sign_batch", "K-163")):
        units[f"protocols.{op}.{curve}.busy_s"] = "s"
    units["point.multiply_batch.self_s"] = "s"
    for bucket in ("ld_step", "tau_frobenius_add", "comb_double_add", "on_curve_residual", "other"):
        units[f"native.run_arrays.calls.{bucket}"] = "count"
        units[f"native.run_arrays.busy_s.{bucket}"] = "s"
    units["native.ld_step_us"] = "us"
    for name in ("broadcast_bits", "pack", "unpack", "multiply_batch", "square_batch", "inverse_batch"):
        units[f"native.{name}.busy_s"] = "s"
    units["native.compile.calls"] = "count"
    for name in ("recode", "multiply_tau_batch", "multiply_comb_batch", "comb_table"):
        units[f"scalarmul.{name}.busy_s"] = "s"
    units["comb.table.build"] = "count"
    units["comb.table.hit"] = "count"
    units["galois.inverse.calls"] = "count"
    units["galois.inverse.busy_s"] = "s"
    units["batcher.flush_wait_ms.p50"] = "ms"
    units["batcher.flush_wait_ms.p99"] = "ms"
    units["batcher.batch_fill.mean"] = "lanes"
    units["batcher.batch_fill.p50"] = "lanes"
    units["batcher.flush.size"] = "count"
    units["batcher.flush.deadline"] = "count"
    for name in ("pool_wait_ms", "execute_ms"):
        units[f"workers.{name}.p50"] = "ms"
        units[f"workers.{name}.p99"] = "ms"
    units["workers.execute_us_per_lane"] = "us"
    units["workers.fallback.batches"] = "count"
    units["workers.fallback.busy_s"] = "s"
    units["server.route_ms.mean"] = "ms"
    units["server.outside_route_ms.mean"] = "ms"
    units["server.rejected_400"] = "count"
    for stage in ("generate", "restructure", "map", "pack", "time", "report", "store"):
        units[f"flow.{stage}_s"] = "s"
    units["flow.luts_total"] = "count"
    units["flow.slices_total"] = "count"
    units["flow.axt_total"] = "LUT.ns"
    for layer in ("curves.protocols", "curves.point", "curves.scalarmul", "backends.native",
                  "galois", "serve.batcher", "serve.workers", "pipeline"):
        units[f"layer.{layer}.self_s"] = "s"
    for name in ("p90", "p99"):
        units[f"latency_{name}_ms.low"] = "ms"
        units[f"latency_{name}_ms.high"] = "ms"
    units["max_rate_rps"] = "req/s"
    units["loadgen.late_ms.p99"] = "ms"
    units["trace.overhead_frac"] = "fraction"
    units["trace.unattributed_frac"] = "fraction"
    units["calibration.slowness"] = "ratio"
    return units


class RunError(RuntimeError):
    """The run cannot produce a valid result."""


def child_env(store: Path, scratch: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("GF2M_REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["GF2M_REPRO_CACHE_DIR"] = str(store)
    env["TMPDIR"] = str(scratch / "tmp")
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def run_checked(command, env, what: str, timeout: float) -> None:
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=timeout, check=False,
    )
    if done.returncode != 0:
        raise RunError(f"{what} failed:\n{done.stdout[-2000:]}")


def ensure_build(scratch: Path) -> Path:
    """Build the native kernel and the warm store template once per source tree.

    The kernel is the program's install-time build product (``pip install
    .[native]`` compiles it); the warm template holds what a served
    process leaves in its store (the comb tables), so the serve workloads
    can start from a pre-populated store.
    """
    build = WORK / f"build-{source_digest(ROOT)[:16]}"
    if (build / "done").exists():
        return build
    if build.exists():
        shutil.rmtree(build)
    kernel = build / "kernel"
    warm = build / "warm"
    run_checked(
        [sys.executable, "-c",
         "import sys; from repro.backends.native import native_available; "
         "sys.exit(0 if native_available() else 1)"],
        child_env(kernel, scratch), "building the native kernel", 600,
    )
    shutil.copytree(kernel, warm)
    run_checked(
        [sys.executable, "-c",
         "from repro.curves import curve_by_name; from repro.serve.workers import warm_curve; "
         "[warm_curve(curve_by_name(name)) for name in ('B-163', 'K-163')]"],
        child_env(warm, scratch), "warming the store template", 300,
    )
    (build / "done").write_text("ok\n")
    return build


def fresh_store(build: Path, scratch: Path, warm: bool) -> Path:
    """A new store: the warm template, or empty apart from the built kernel."""
    store = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
    if warm:
        shutil.copytree(build / "warm", store, dirs_exist_ok=True)
    else:
        shutil.copytree(build / "kernel" / "native", store / "native")
    return store


class Child:
    """A worker process whose stdout JSON events are read on a thread."""

    def __init__(self, args, mode: str, store: Path, scratch: Path) -> None:
        self.log = open(scratch / f"worker-{mode}-{store.name}.log", "w")
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--mode", mode, "--scratch", str(store),
        ] + (["--tiny"] if args.tiny else [])
        self.started = time.perf_counter()
        # Its own process group, so stopping it also stops any server it
        # started (serve_http) even if the worker itself was killed.
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(store, scratch),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=self.log, text=True,
            start_new_session=True,
        )
        self.events: "queue.Queue" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            if line.startswith("{"):
                self.events.put((time.perf_counter(), json.loads(line)))
        self.events.put((time.perf_counter(), None))

    def next_event(self, deadline: float):
        try:
            stamp, event = self.events.get(timeout=max(deadline - time.perf_counter(), 0.0))
        except queue.Empty:
            raise RunError("the workload process timed out") from None
        if event is None:
            self.process.wait()
            self.log.flush()
            tail = Path(self.log.name).read_text()[-3000:]
            raise RunError(f"the workload process exited early (code {self.process.returncode}):\n{tail}")
        return stamp, event

    def finish(self, deadline: float) -> None:
        """Wait for a normal exit; a non-zero exit is an error."""
        self.process.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        if self.process.returncode != 0:
            raise RunError(f"the workload process exited with code {self.process.returncode}")

    def stop(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already exited
        self.process.wait()
        self.reader.join(timeout=5)
        self.log.close()


def run_workload(args, build: Path, scratch: Path, deadline: float) -> dict:
    """Set up several times, one fresh process after another; the last one measures.

    A set-up sample runs from the process start to its ready event, or is
    the server's own start-up time that ``serve_http`` reports in it.  It
    is put at reference speed by the calibration taken here right before
    the process starts, while no program runs.
    """
    warm = args.workload in ("serve_burst", "serve_http")
    samples = 1 if args.trace else SETUP_SAMPLES
    setup = []
    slowness = []
    for mode in ["setup"] * (samples - 1) + ["run"]:
        store = fresh_store(build, scratch, warm)
        slowness.append(calibrate(3))
        child = Child(args, mode, store, scratch)
        try:
            stamp, event = child.next_event(deadline)
            setup.append(event["setup_s"] if event.get("setup_s") is not None else stamp - child.started)
            if mode == "run":
                _, result = child.next_event(deadline)
            child.finish(deadline)
        finally:
            child.stop()
    result["setup_s"] = median(setup)
    result["setup_s_at_reference"] = median([value / factor for value, factor in zip(setup, slowness)])
    result["setup_all"] = setup
    result["slowness"] = median(slowness)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test configuration: small batches and a small flow grid")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # A terminated run still stops its workers and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        build = ensure_build(scratch)
        result = run_workload(args, build, scratch, time.perf_counter() + RUN_LIMIT_S)
        stamp = platform_stamp(ROOT)
    except (RunError, subprocess.TimeoutExpired, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    ok_frac = 1.0 - failed / max(attempted, 1)
    raw = dict(result["e2e_raw"], setup_s=result["setup_s"], ok_frac=ok_frac)
    if args.trace:
        units = per_layer_units()
        values = dict(result["layers"], **{"calibration.slowness": result["slowness"]})
    else:
        units = END_TO_END
        values = dict(result["e2e"], setup_s=result["setup_s_at_reference"], ok_frac=ok_frac)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# platform " + json.dumps(stamp, sort_keys=True))
    print("# backends " + json.dumps(result["backends"], sort_keys=True))
    print(f"# {result.get('log', '')}")
    print(f"# set-up samples (s): {', '.join(f'{value:.3f}' for value in result['setup_all'])}")
    print(f"# calibration slowness {result['slowness']:.4f}; end-to-end figures as measured: "
          + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    print(f"# attempted {attempted}, failed {failed}, failed_frac {failed / max(attempted, 1):.6f}")
    for name, unit in units.items():
        print(f"{name:44s} {values[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
