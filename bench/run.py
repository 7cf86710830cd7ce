"""Closed-loop benchmark of the tensorcert command line, run in-process.

    python3 bench/run.py --workload certify-sweep --seed 5 --seconds 50 --trace 0

One client sends each op, a ``tensorcert.cli.main([...])`` call, only after
the previous one has returned, for ``--seconds`` seconds, cycling through the
workload's op list in passes.  Every answer is
then checked (see workloads.py); a wrong one aborts the run with exit code 3
and no result.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

A traced run spends the first half of its time untraced and then replays the
same ops with spans around every layer (see tracing.py), so the tracing
overhead is measured on identical work.  Spans go to ``bench/out/``.
"""
from __future__ import annotations

import os

# OpenBLAS reads its thread count when numpy is first imported, so the pin
# comes before any import that could load numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 5  # the acceptance sweep's pattern seed
SETUP_PROBES = 5
SETUP_PROBE_S = 0.1  # host-speed probing after each fresh set-up process
# Measured times grow more slowly than the probe's (see hostspeed.py), so
# they are divided by a power of the host factor.  Fitted on sets of five
# and ten runs of each workload: op time grows about as the factor to the
# 0.8 (power 1 left spreads of up to 0.097 in the op metrics, 0.8 up to
# 0.07); set-up time (imports, file reads) about as its square root (power
# 1 widened the spread of setup_s from 0.14 and 0.22 to 0.22 and 0.44, 0.5
# cut it to 0.10 and 0.05).
OP_HOST_POWER = 0.8
SETUP_HOST_POWER = 0.5
TAIL_BEYOND = 10
EXIT_GATE = 3
EXIT_NO_SOURCE = 2

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _execute(op, out_path: str, tracer=None):
    """One op: a cli.main call with its own output captured."""
    import tensorcert.cli as cli
    from workloads import Record
    from tracing import OP_SPAN

    if os.path.exists(out_path):
        os.unlink(out_path)
    argv = op.argv + ["--out", out_path]
    out = io.StringIO()
    rc: Optional[int] = None
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = tracer.call(OP_SPAN, cli.main, (argv,), {}) if tracer else cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that crashes is a failed op, not a stopped run
            crash = type(exc).__name__
        seconds = time.perf_counter() - start
    artifact = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            artifact = fh.read()
    return Record(op.key, rc, seconds, artifact, out.getvalue(), crash)


def _loop(ops, out_path: str, seconds: float = 0.0, keys: Optional[Sequence[int]] = None, tracer=None):
    """Closed loop: cycle through `ops` until `seconds` have passed (at least
    one op), or replay exactly the ops named by `keys`.  Between ops, the
    host-speed probe runs every `hostspeed.EVERY_S` seconds; each record gets
    the host factor of the probes just before and just after it."""
    import hostspeed

    records, samples, before = [], [hostspeed.probe()], []
    start = last_probe = time.perf_counter()
    while True:
        if keys is not None:
            if len(records) == len(keys):
                break
            op = ops[keys[len(records)]]
        else:
            op = ops[len(records) % len(ops)]
        if tracer is not None:
            tracer.op = len(records)
        before.append(len(samples) - 1)
        records.append(_execute(op, out_path, tracer))
        now = time.perf_counter()
        if now - last_probe >= hostspeed.EVERY_S:
            samples.append(hostspeed.probe())
            last_probe = time.perf_counter()
        if keys is None and now - start >= seconds:
            break
    if before and before[-1] == len(samples) - 1:
        samples.append(hostspeed.probe())
    for r, i in zip(records, before):
        r.host = hostspeed.factor(samples[i:i + 2])
    return records, samples


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to the point where it could send
    its first op (interpreter start, imports and input generation), and the
    host factor the process measured right after."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    ready, host = proc.stdout.split()[-2:]
    return float(ready) - start, float(host)


def _percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _tail(latencies: Sequence[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten samples beyond it;
    the maximum when there are too few ops for one."""
    n = len(latencies)
    q = math.floor(1000.0 * (1.0 - TAIL_BEYOND / n)) / 10.0
    if q < 50.0:
        return max(latencies), f"max, n={n}: too few ops for a percentile with {TAIL_BEYOND} beyond"
    return _percentile(latencies, q), f"p{q:g}, n={n}, {TAIL_BEYOND} beyond"


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _manifest(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import hostspeed
    import numpy
    import scipy

    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas_info.get("name"), "version": blas_info.get("version")}
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = {"name": "unknown", "version": "unknown"}
    digest = hashlib.sha256()
    for path in sorted((SRC / "tensorcert").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "host_probe": {"nominal_s": hostspeed.NOMINAL_S, "every_s": hostspeed.EVERY_S,
                       "op_power": OP_HOST_POWER, "setup_power": SETUP_HOST_POWER},
    }


def _classify(wl, ops, records) -> collections.Counter:
    """Outcome of every op read from its artifact; refusals get the class of
    the error behind them."""
    refusals: dict[int, str] = {}
    counts: collections.Counter = collections.Counter()
    for r in records:
        if r.crash is not None:
            r.outcome, r.failed = f"crash:{r.crash}", True
        else:
            r.outcome, r.failed = wl.outcome(ops[r.key], r)
            if r.outcome.startswith("refused"):
                if r.key not in refusals:
                    refusals[r.key] = wl.refusal_class(ops[r.key])
                r.outcome = f"{r.outcome}:{refusals[r.key]}"
        counts[r.outcome] += 1
    return counts


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its result; raises GateError on a wrong answer."""
    import tensorcert.cli  # noqa: F401  (the ops' entry point; imported before timing)
    import hostspeed
    import tracing
    import workloads

    setup = [_setup_probe(name, seed) for _ in range(probes)]
    wl = workloads.WORKLOADS[name]()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        ops = wl.build(seed, workdir, tiny=tiny)
        out_path = os.path.join(workdir, "artifact.out")
        records, samples = _loop(ops, out_path, seconds=seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = absent = None
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer) as absent:
                replay, replay_samples = _loop(ops, out_path, keys=[r.key for r in records], tracer=tracer)
            for a, b in zip(records, replay):
                if (a.rc, a.artifact, a.stdout) != (b.rc, b.artifact, b.stdout):
                    raise workloads.GateError(f"op {a.key} answered differently when traced")
        gate = contextlib.nullcontext()
        if trace:
            tracer.op = tracing.GATE_OP
            only_oracle = [l for l in tracing.LAYERS if l.name == "oracle.jacobian_rank"]
            gate = tracing.installed(tracer, only_oracle)
        with gate:  # outcomes of refused sweep ops are read from the oracle too
            counts = _classify(wl, ops, records)
            wl.check(ops, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failed for r in records)
    host = hostspeed.factor(samples)
    result = {
        "manifest": _manifest(name, seed, seconds, trace),
        "outcomes": dict(sorted(counts.items())),
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "setup_samples_s": [s for s, _ in setup],
        "setup_host_factors": [f for _, f in setup],
        "host_factor": host,
        "host_probes": len(samples),
        "ops": [[r.key, r.seconds, r.host, r.outcome] for r in records],
    }
    if trace:
        # the untraced time at the host speed of the traced replay
        untraced_s = sum(r.seconds for r in records) * (hostspeed.factor(replay_samples) / host) ** OP_HOST_POWER
        values = tracing.layer_metrics(tracer.spans, untraced_s)
        inside, op_total = tracing.op_self_sum(tracer.spans)
        result["absent_layers"] = absent
        result["self_time_sum_s"] = inside
        result["traced_op_s"] = op_total
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in tracing.METRICS}
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        # Times at nominal host speed: each measured time over a power of
        # the host factor around it.
        latencies = [r.seconds / r.host**OP_HOST_POWER for r in records]
        tail, tail_note = _tail(latencies)
        result["tail"] = tail_note
        result["passes"] = len(records) / len(ops)
        whole = len(records) - len(records) % len(ops) or len(records)
        values = {
            "setup_s": statistics.median(s / f**SETUP_HOST_POWER for s, f in setup),
            "ops_per_s": whole / sum(latencies[:whole]),
            "op_p50_s": _percentile(latencies, 50.0),
            "op_tail_s": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        result["wall_clock"] = {
            "setup_s": statistics.median(s for s, _ in setup),
            "ops_per_s": whole / sum(r.seconds for r in records[:whole]),
            "op_p50_s": _percentile([r.seconds for r in records], 50.0),
            "op_tail_s": _tail([r.seconds for r in records])[0],
        }
    with open(OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return result


def _report(result: dict) -> None:
    m = result["manifest"]
    print(f"workload {m['workload']}  seed {m['seed']}  seconds {m['seconds']:g}  trace {int(m['trace'])}")
    print("manifest " + json.dumps(m, sort_keys=True))
    print("outcomes " + json.dumps(result["outcomes"]))
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  ({result['tail']})"
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples_s'])} fresh processes)"
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'failed_frac':48s} {result['failed_frac']:.6g} ratio  ({result['failed']} of {result['attempted']} ops)")
    print(f"host factor {result['host_factor']:.4g} over {result['host_probes']} probes"
          " (mean probe time over nominal)")
    if not m["trace"]:
        print("wall clock " + json.dumps({k: round(v, 6) for k, v in result["wall_clock"].items()}))
        print(f"passes over the op list: {result['passes']:.2f}")
    if m["trace"]:
        print(f"self times inside ops sum to {result['self_time_sum_s']:.6f} s; traced op time {result['traced_op_s']:.6f} s")
        if result["absent_layers"]:
            print("absent layers (reported as 0): " + ", ".join(result["absent_layers"]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tensorcert" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'tensorcert'}; run from a tensorcert checkout",
              file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path.insert(0, str(SRC))
    import tensorcert.cli  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
        try:
            workloads.WORKLOADS[args.workload]().build(args.seed, workdir)
            print(time.monotonic(), flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        import hostspeed

        print(hostspeed.factor(hostspeed.probe_for(SETUP_PROBE_S)), flush=True)
        os._exit(0)  # interpreter teardown is not part of set-up; skip it

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return EXIT_GATE
    _report(result)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
