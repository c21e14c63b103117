"""univox benchmark: closed-loop workloads against the library under src/.

    python3 benchmark/run.py --workload train_desk --seed 1 --seconds 50 --trace 0
    python3 benchmark/run.py --workload all

One op runs at a time from this one process. After set-up and one untimed
warm-up op, ops repeat until ``--seconds`` have passed, and every op's
outputs are checked. With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` the time is split between an untraced
and a traced phase, and the last line reports the per-layer metrics, which
come from spans recorded by wrappers that exist only during the traced phase.
The whole result, with the environment block and every op's digests, is also
written to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Installed, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train_desk", "cli_roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

# Self time per op (ms) of these spans; see tracing.TRACE_POINTS for where
# each is recorded.
SELF_TIME_SPANS = (
    "trainer.make_batch", "model._stack_windows", "model._forward", "model._backward",
    "trainer.train_step", "trainer._clip_scale", "ge2e.loss_gradients",
    "poison.select_attacker_utterances", "poison.apply_inner", "poison.apply_outer",
    "model.embed_utterance", "evaluate.enroll", "evaluate.score", "evaluate.compute_eer",
    "evaluate.evaluate_model", "dataio.write_feature_cache", "dataio.read_feature_cache",
    "dataio.parse_wav", "dataio.extract_logmel", "dataio.cmvn", "model.save_checkpoint",
    "model.load_checkpoint", "cli.write_manifest", "cli.build_datasets", "cli.main",
    "trainer.train_run",
)
# Counts per op, taken at the same boundaries.
COUNTS = (
    ("dataio.feature_sequences", "count"), ("trainer.poisoned_steps", "count"),
    ("model._forward.calls", "count"), ("model.embed_utterance.calls", "count"),
    ("evaluate.score.calls", "count"), ("dataio.write_feature_cache.bytes", "B"),
    ("dataio.read_feature_cache.bytes", "B"),
    # Kernel work of the op as a whole: page faults on numpy's temporaries
    # took 10-18% of a train_desk op in the measurements in README.md.
    ("proc.minor_faults", "count"), ("proc.sys_cpu.ms", "ms"),
)
PER_LAYER = (
    tuple((f"{name}.ms", "ms") for name in SELF_TIME_SPANS)
    + COUNTS
    + (("model.forward.rows", "rows/call"), ("model.train_gflop", "GFLOP"),
       ("trace.overhead_frac", "ratio"))
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def pin_blas_threads() -> int:
    """Fix BLAS threads before numpy loads; one thread keeps op times steadiest
    on a shared host and is never more than nproc."""
    threads = 1
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_seconds() -> float:
    """Seconds to import numpy and univox in a fresh interpreter that has the
    pinned environment: the import part of set-up, which one process pays once."""
    probe = ("import time; start = time.perf_counter(); import numpy, univox.cli; "
             "print(time.perf_counter() - start)")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads_in_effect():
    """Ask the loaded OpenBLAS itself; None when it cannot be found."""
    import ctypes
    import glob

    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None, "note": "not a git checkout"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"sha": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"sha": sha.stdout.strip() or None,
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git": _git_state(),
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Ledger:
    """Every op record of one workload run, plus the first fingerprint seen per key."""

    def __init__(self):
        self.records = []
        self.reference = {}

    def add(self, record: dict) -> dict:
        key = record["key"]
        if record["fingerprint"] is not None and not record["problems"]:
            first = self.reference.setdefault(key, (record["phase"], record["fingerprint"]))
            if first[1] != record["fingerprint"]:
                record["problems"].append(
                    f"outputs differ from the {first[0]} op of the same variant and seed")
            elif first[1] is not record["fingerprint"]:
                record["repeats"] = first[0]
        self.records.append(record)
        return record

    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def run_op(workload, index: int, phase: str, ledger: Ledger, tracer=None) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF) if tracer is not None else None
    start = time.perf_counter()
    try:
        raw = workload.run(index)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a failed benchmark
        raw, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    spans, counts = ([], {})
    if tracer is not None:
        spans, counts = tracer.take()
        after = resource.getrusage(resource.RUSAGE_SELF)
        counts["proc.minor_faults"] = after.ru_minflt - usage.ru_minflt
        counts["proc.sys_cpu.ms"] = 1000.0 * (after.ru_stime - usage.ru_stime)

    record = {"phase": phase, "index": index, "key": workload.key(index), "seconds": seconds,
              "fingerprint": None, "problems": [error] if error else []}
    if error is None:
        try:
            out = workload.check(index, raw)
        except Exception as exc:  # a check that cannot read the outputs fails the op
            record["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        else:
            record.update(fingerprint=out.fingerprint, train_steps=out.train_steps,
                          train_s=out.train_s, eval_utts=out.eval_utts, eval_s=out.eval_s)
            record["problems"].extend(out.problems)
    if tracer is not None:
        record["self_s"] = self_times(spans)
        record["counts"] = dict(counts)
    return ledger.add(record)


def measure(workload, seconds: float, phase: str, ledger: Ledger, tracer=None) -> list:
    """Closed loop: the next op starts when the previous one and its checks end."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records.append(run_op(workload, len(records), phase, ledger, tracer))
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def summary(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    p25, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": p50, "p25": p25, "p75": p75, "n": len(values)}


def _rate(records, work: str, secs: str):
    rates = [r[work] / r[secs] for r in records if r.get(work) and r.get(secs)]
    return statistics.median(rates) if rates else None


def per_layer_metrics(traced: list, untraced: list) -> dict:
    n_ops = len(traced)
    self_s = {name: sum(r["self_s"].get(name, 0.0) for r in traced) for name in SELF_TIME_SPANS}
    counts = {}
    for r in traced:
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0) + value
    values = {f"{name}.ms": 1000.0 * total / n_ops for name, total in self_s.items()}
    for name, _ in COUNTS:
        values[name] = counts.get(name, 0) / n_ops
    forwards = counts.get("model._forward.calls", 0)
    values["model.forward.rows"] = (
        counts.get("model.forward.rows", 0) / forwards if forwards else 0.0)
    values["model.train_gflop"] = counts.get("model.train_flop", 0) / n_ops / 1e9
    paired = min(len(traced), len(untraced))
    values["trace.overhead_frac"] = (
        sum(r["seconds"] for r in traced[:paired])
        / sum(r["seconds"] for r in untraced[:paired]) - 1.0
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS  # imports univox, so only after the BLAS pin

    run_problems = []
    ledger = Ledger()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            import_s = import_seconds()
            start = time.perf_counter()
            digests.append(workload.setup())
            setup_times.append(import_s + time.perf_counter() - start)
        if len(set(digests)) != 1:
            run_problems.append("repeated set-ups with one seed built different inputs")

        run_op(workload, 0, "warm-up", ledger)
        if not trace:
            untraced = measure(workload, seconds, "untraced", ledger)
            traced = []
        else:
            untraced = measure(workload, seconds / 2, "untraced", ledger)
            tracer = Tracer()
            installed = Installed(tracer)
            try:
                traced = measure(workload, seconds / 2, "traced", ledger, tracer)
            finally:
                installed.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    ok_times = [r["seconds"] for r in untraced if not r["problems"]]
    op = summary(ok_times or [r["seconds"] for r in untraced])
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "op_s": op["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = len(ledger.records), ledger.failed()
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and not run_problems,
        "attempted": attempted, "failed": failed, "run_problems": run_problems,
        "end_to_end": {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END},
        "op_s_quartiles": op,
        "setup_repeats_s": setup_times,
        "train_steps_per_s": _rate(untraced, "train_steps", "train_s"),
        "eval_utts_per_s": _rate(untraced, "eval_utts", "eval_s"),
        "ops_failed": failed / attempted,
        "ops": [{k: v for k, v in r.items() if k not in ("self_s", "counts")}
                for r in ledger.records],
    }
    if trace:
        result["traced_ops_matching_untraced"] = sum(
            1 for r in traced if r.get("repeats") in ("warm-up", "untraced"))
        result["per_layer"] = per_layer_metrics(traced, untraced)
        result["traced_self_s"] = [r["self_s"] for r in traced]
        result["traced_counts"] = [r["counts"] for r in traced]
    return result


def print_report(result: dict) -> None:
    op = result["op_s_quartiles"]
    e2e = result["end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"ops {result['attempted']} (1 warm-up)")
    print(f"  {'setup_s':<18} {e2e['setup_s']['value']:.4f} s")
    print(f"  {'op_s':<18} {op['median']:.4f} s  (p25 {op['p25']:.4f}, p75 {op['p75']:.4f}, "
          f"n {op['n']})")
    for name, unit in (("train_steps_per_s", "1/s"), ("eval_utts_per_s", "1/s")):
        if result[name] is not None:
            print(f"  {name:<18} {result[name]:.2f} {unit}")
    print(f"  {'peak_rss_mb':<18} {e2e['peak_rss_mb']['value']:.1f} MB")
    print(f"  {'ops_failed':<18} {result['ops_failed']:.4f} ({result['failed']} of "
          f"{result['attempted']})")
    for record in result["ops"]:
        for problem in record["problems"]:
            print(f"  FAILED {record['phase']} op {record['index']} ({record['key']}): {problem}")
    for problem in result["run_problems"]:
        print(f"  FAILED run: {problem}")
    if result["trace"]:
        print(f"  traced ops whose digests equal an untraced op's: "
              f"{result['traced_ops_matching_untraced']} of {len(result['traced_self_s'])}")
    for name, metric in result.get("per_layer", {}).items():
        print(f"  {name:<38} {metric['value']:.4f} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "univox" / "__init__.py").is_file():
        print(f"error: the univox library is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import univox
    if Path(univox.__file__).resolve().parent != SRC / "univox":
        print(f"error: imported univox from {univox.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    if env["blas_threads_in_effect"] not in (None, threads):
        print(f"warning: BLAS runs {env['blas_threads_in_effect']} threads, pinned {threads}")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = bench_workload(name, args.seed, args.seconds, bool(args.trace))
        result["env"] = env
        print_report(result)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        results.append(result)

    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[section].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
