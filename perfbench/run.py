"""Benchmark of cvqkdsim's three user paths, end to end and per layer.

Run every workload untraced and traced, check their outputs and print
every metric by name with its unit (exit status 1 if any check fails):

    python3 perfbench/run.py

Run one workload; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics:

    python3 perfbench/run.py --workload longrun --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The program is imported from src/ next to this directory; there is
nothing to build.  README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("longrun", "link", "eye")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 600.0

# (name, unit) of the metrics each run prints, in BENCHMARK.json order
END_TO_END = [
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("realtime_factor", "x"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
MSG_TYPES = ["BASIS_ANNOUNCE", "POSTSELECT_MASK", "SAMPLE_INDICES",
             "SAMPLE_BITS", "QBER_REPORT", "PARITY_REQ", "PARITY_RSP",
             "HASH_SEED", "KEY_CONFIRM"]
PER_LAYER = [
    ("physics.prepare_and_measure.self_ms", "ms"),
    ("physics.prepare_and_measure.calls", "count"),
    ("physics.pulses_simulated", "count"),
    ("physics.calibrate_shot_noise.self_ms", "ms"),
    ("pipeline.simulate_quantum_exchange.self_ms", "ms"),
    ("pipeline.distill_block.self_ms", "ms"),
    ("postprocess.sift.self_ms", "ms"),
    ("postprocess.sift_alice_bits.self_ms", "ms"),
    ("postprocess.post_select.self_ms", "ms"),
    ("postprocess.qber_estimate.self_ms", "ms"),
    ("postprocess.keep_ratio", "ratio"),
    ("postprocess.CascadePermutations.self_ms", "ms"),
    ("postprocess.cascade_reconcile.self_ms", "ms"),
    ("postprocess.parity_queries", "count"),
    ("postprocess.leak_bits", "bits"),
    ("postprocess.toeplitz_hash.self_ms", "ms"),
    ("postprocess.secret_fraction.self_ms", "ms"),
    ("quantum.holevo_bound.self_ms", "ms"),
    ("quantum.holevo_bound.calls", "count"),
    ("protocol.round_trips", "count"),
    ("protocol.recv_wait_ms.alice", "ms"),
    ("protocol.recv_wait_ms.bob", "ms"),
    ("protocol.frames_sent", "count"),
    ("protocol.bytes_sent", "bytes"),
    *[(f"protocol.frames_sent.{t}", "count") for t in MSG_TYPES],
    *[(f"protocol.bytes_sent.{t}", "bytes") for t in MSG_TYPES],
    ("protocol.encode_frame.self_ms", "ms"),
    ("protocol.decode_frame.self_ms", "ms"),
    ("protocol.send_frame.self_ms", "ms"),
    ("protocol.run_session.alice.self_ms", "ms"),
    ("protocol.run_session.bob.self_ms", "ms"),
    ("classical.prbs15_sequence.self_ms", "ms"),
    ("classical.simulate_ook_link.self_ms", "ms"),
    ("classical.simulate_ook_link.calls", "count"),
    ("experiments.run_block.self_ms", "ms"),
    ("experiments.exp_longrun.self_ms", "ms"),
    ("experiments.exp_eye.self_ms", "ms"),
    ("key_bits_per_block", "bits"),
    ("skr_bits_per_s_mean", "bit/s"),
    ("setup.import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]
# per-layer metrics named differently from the span they are read from
_RENAMED = {
    "protocol.recv_wait_ms.alice": "protocol.recv_frame.alice.self_ms",
    "protocol.recv_wait_ms.bob": "protocol.recv_frame.bob.self_ms",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    if not (SRC / "cvqkdsim" / "__init__.py").is_file():
        fail(f"no program sources at {SRC / 'cvqkdsim'}; run from a "
             "checkout of the repository")


def import_program() -> float:
    """Import cvqkdsim from src/ and return the import time in ms."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cvqkdsim  # noqa: F401
    import cvqkdsim.experiments  # noqa: F401
    import_ms = (time.perf_counter() - t0) * 1e3
    if Path(cvqkdsim.__file__).resolve().parent != (SRC / "cvqkdsim").resolve():
        fail(f"imported cvqkdsim from {cvqkdsim.__file__}, not from {SRC}")
    return import_ms


def pin_to_one_cpu() -> None:
    """Run on one CPU of this process's own affinity set.  Alice and Bob
    then hand the interpreter lock to each other on one core, which keeps
    the link workload's session time steady."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def machine_context() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


# -- one workload ---------------------------------------------------------


def setup_probe(args) -> None:
    """Child process of run_setup_probes: import, build, one warm-up op,
    then report the import time."""
    import_ms = import_program()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        warm = wl.warm_up()
        print(json.dumps({"import_ms": import_ms,
                          "ok": all(op.ok for op in warm)}), flush=True)
    finally:
        wl.close()


def run_setup_probes(args, probe) -> list[dict]:
    """Set-up time from process start to the end of one warm-up op, once
    per fresh child process, with the speed sampled by `probe` just
    before the child starts and just after it ends."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = probe.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        killer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.communicate()
        finally:
            killer.cancel()
        if proc.returncode != 0 or not line:
            fail(f"set-up probe exited with status {proc.returncode}")
        probe.sample()
        rec = json.loads(line)
        rec["setup_s"] = setup_s
        rec["scale"] = probe.factor(before)
        out.append(rec)
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def run_workload(args) -> int:
    import speed
    probes = run_setup_probes(args, speed.SpeedProbe())
    import_program()
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    wl = cls(args.seed)
    probe = speed.SpeedProbe()
    units: list[list] = []          # ops of each untraced unit
    traced_units: list[list] = []   # (op id, op) of each traced unit
    tracer = tracing.Tracer() if args.trace else None
    try:
        warm_ok = all(op.ok for op in wl.warm_up())
        t_start = time.perf_counter()
        index = 0
        while not wl.broken and (index < cls.min_units
                                 or time.perf_counter() - t_start < args.seconds):
            units.append(wl.run_unit(index, probe))
            if tracer is not None and not wl.broken:
                wl.install(tracer)
                try:
                    ops = wl.run_unit(index, probe, tracer)
                finally:
                    tracer.uninstall()
                traced_units.append(list(zip(wl.op_ids(index), ops)))
            index += 1
        probe.sample()   # the speed after the last op
        finish = wl.finish()
    finally:
        wl.close()

    plain = [op for ops in units for op in ops]
    all_ops = plain + [op for pairs in traced_units for _, op in pairs]
    failed = sum(not op.ok for op in all_ops)
    first = [op for ops in units[:cls.min_units] for op in ops]
    determinism = {
        "key_bits_per_block": _mean([op.key_bits for op in first]),
        "skr_bits_per_s_mean": _mean([op.skr for op in first]),
        "leak_bits_mean": _mean([op.leak_bits for op in first]),
        **finish,
    }
    checks = {"warm_up_ok": warm_ok and all(p["ok"] for p in probes)}
    blocks = {op.block for op in all_ops if op.block is not None}
    unreconciled = sorted({op.block for op in all_ops if op.unreconciled})
    if blocks:
        checks["unreconciled_within_share"] = len(unreconciled) <= max(
            1, workloads.UNRECONCILED_SHARE * len(blocks))
    if "mismatched_blocks" in finish:
        checks["link_keys_match_distill_block"] = not finish["mismatched_blocks"]
    if tracer is not None:
        traced_first = [op for pairs in traced_units[:cls.min_units]
                        for _, op in pairs]
        checks["tracing_keeps_outputs"] = (
            [(op.key_bits, op.skr) for op in traced_first]
            == [(op.key_bits, op.skr) for op in first])
        if args.workload == "longrun":
            checks["self_times_add_up"] = (
                tracing.check_self_sum(tracer, "experiments.run_block") < 1e-9)
    correct = failed == 0 and all(checks.values())

    timed = [op for op in plain if op.speed_index >= 0]
    if not timed:
        fail("no op completed")
    scale = [probe.factor(op.speed_index) for op in timed]
    op_ms = [op.ms * f for op, f in zip(timed, scale)]
    tail_ms, tail_pct, beyond = tail(op_ms)
    setup = [p["setup_s"] * p["scale"] for p in probes]
    e2e = {
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": tail_ms,
        "realtime_factor": (sum(op.represented_s for op in timed)
                            / (sum(op_ms) / 1e3)),
        "cpu_ms_per_op": sum(op.cpu_ms * f for op, f in zip(timed, scale))
                         / len(timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_context(),
        "correct": correct, "checks": checks,
        "attempted": len(all_ops), "failed": failed,
        "fail_ratio": failed / len(all_ops),
        "ops_timed": len(timed), "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_samples_beyond": beyond,
        "end_to_end": e2e, "determinism": determinism,
        "unreconciled_blocks": unreconciled,
        "speed": probe.summary(),
        "raw": {"op_ms_p50": statistics.median(op.ms for op in timed),
                "cpu_ms_per_op": sum(op.cpu_ms for op in timed) / len(timed),
                "setup_s": statistics.median(p["setup_s"] for p in probes)},
        "timeline": {"speed_ms": probe.samples,
                     "ops": [(op.speed_index, op.ms) for op in timed]},
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        if not traced_units:
            fail("no traced op completed")
        layer = per_layer_metrics(cls, tracer, timed, traced_units, probe,
                                  probes, determinism)
        report["per_layer"] = layer
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    report_path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    for name, unit in (END_TO_END if tracer is None else PER_LAYER):
        print(f"{args.workload:8s} {name:45s} {metrics[name]['value']:.6g} {unit}")
    print("report: " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": len(all_ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _mean(values) -> float:
    xs = [v for v in values if v is not None]
    return sum(xs) / len(xs) if xs else 0.0


def per_layer_metrics(cls, tracer, untraced, traced_units, probe, probes,
                      determinism) -> dict:
    """Per-op medians from the traced units.  Times are scaled like the
    end-to-end ones and are medians over all traced ops; counts are
    medians over the ops of the first min_units traced units, which are
    the same blocks in every run with one seed."""
    rows = tracer.per_op()
    scale = {op_id: probe.factor(op.speed_index)
             for pairs in traced_units for op_id, op in pairs}
    all_ids = list(scale)
    first = [pair for pairs in traced_units[:cls.min_units] for pair in pairs]
    first_ids = [op_id for op_id, _ in first]

    def med(key, ids, scaled):
        vals = [rows.get(i, {}).get(key, 0.0) * (scale[i] if scaled else 1.0)
                for i in ids]
        return statistics.median(vals)

    out = {}
    for name, unit in PER_LAYER:
        key = _RENAMED.get(name, name)
        if unit == "ms":
            out[name] = med(key, all_ids, True)
        elif unit in ("count", "bytes"):
            out[name] = med(key, first_ids, False)
    out["protocol.round_trips"] = med("protocol.direction_changes",
                                      first_ids, False) / 2
    out["postprocess.keep_ratio"] = statistics.median(
        rows.get(i, {}).get("postprocess.kept_pulses", 0.0)
        / rows.get(i, {}).get("postprocess.signal_pulses", 1.0)
        for i in first_ids)
    out["postprocess.leak_bits"] = statistics.median(
        op.leak_bits or 0 for _, op in first)
    # exp_longrun spans one call of CHUNK_BLOCKS ops, so it belongs to no op
    out["experiments.exp_longrun.self_ms"] = (
        tracer.unowned_self_ms("experiments.exp_longrun") / len(all_ids)
        * statistics.mean(scale.values()))
    out["key_bits_per_block"] = determinism["key_bits_per_block"]
    out["skr_bits_per_s_mean"] = determinism["skr_bits_per_s_mean"]
    out["setup.import_ms"] = statistics.median(p["import_ms"] for p in probes)
    traced_ms = [op.ms * scale[i] for pairs in traced_units for i, op in pairs]
    out["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(
        op.ms * probe.factor(op.speed_index) for op in untraced)
    return out


# -- every workload ---------------------------------------------------------


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own process."""
    ok = True
    reports = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            rep = next((json.loads(line[len("report: "):]) for line in lines
                        if line.startswith("report: ")), None)
            if proc.returncode != 0 or rep is None:
                print(f"{name} trace={trace}: exit status {proc.returncode}")
                ok = False
                continue
            reports[(name, trace)] = rep
            ok = ok and rep["correct"]

    first = next(iter(reports.values()), None)
    if first:
        print("machine: " + json.dumps(first["machine"]))
    print(f"seed: {args.seed}  seconds per run: {args.seconds}")
    for name in WORKLOAD_NAMES:
        plain, traced = reports.get((name, 0)), reports.get((name, 1))
        if plain is None:
            continue
        e2e = plain["end_to_end"]
        print(f"\n{name}: {plain['ops_timed']} ops timed, "
              f"correct={plain['correct']}")
        for metric, unit in END_TO_END:
            extra = ""
            if metric == "op_ms_tail":
                extra = (f"  (p{plain['op_ms_tail_percentile']:.1f}, "
                         f"{plain['op_ms_tail_samples_beyond']} beyond, "
                         f"n={plain['ops_timed']})")
            print(f"  {metric:28s} {e2e[metric]:12.6g} {unit}{extra}")
        det = plain["determinism"]
        if name != "eye":
            print(f"  {'key_bits_per_block':28s} {det['key_bits_per_block']:12.6g} bits")
            print(f"  {'skr_bits_per_s_mean':28s} {det['skr_bits_per_s_mean']:12.6g} bit/s")
        print(f"  {'fail_ratio':28s} {plain['fail_ratio']:12.6g} ratio")
        if name != "eye":
            print(f"  {'unreconciled blocks':28s} {plain['unreconciled_blocks']}")
        if traced is None:
            continue
        if traced["determinism"] != det:
            print("  outputs differ between the untraced and the traced run")
            ok = False
        print("  per layer (traced run):")
        for metric, unit in PER_LAYER:
            value = traced["per_layer"][metric]
            if value:
                print(f"    {metric:45s} {value:12.6g} {unit}")
    print("\nall output checks passed" if ok else "\nOUTPUT CHECK FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    check_checkout()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
