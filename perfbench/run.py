#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same workload traced and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record —
provenance, every metric, the checks and (traced) the spans — is written
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import os
import sys

#: BLAS threads, pinned before numpy is imported.  One thread is both
#: faster and steadier than OpenBLAS's two-thread default on a 2-core
#: x86-64 machine (30 train_dense steps: 17.9-18.5 s at one thread,
#: 19.6-21.8 s at two), and leaves the second core to the serving
#: workload's load generator.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_dense", "train_fast", "serve_mixed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="input scale (tiny is for the benchmark's tests)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the run record")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import report
    import spans
    import workloads

    started = time.perf_counter()
    size = workloads.SIZES[args.size]
    tracer = spans.Tracer() if args.trace else None
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = args.out / "work" / f"{run_id}-{os.getpid()}"
    try:
        with (spans.instrument(tracer) if tracer is not None
              else contextlib.nullcontext()):
            if args.workload == "serve_mixed":
                outcome = workloads.run_serve(args.seed, args.seconds, size,
                                              tracer, work)
            else:
                outcome = workloads.run_train(args.workload, args.seed,
                                              args.seconds, size, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)   # serving checkpoints

    config = workloads.config_for(args.workload, size)
    meta = {
        **report.provenance(ROOT, BLAS_THREADS),
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace), "seconds": args.seconds,
        "size": args.size, "config_digest": report.config_digest(config),
        "run_s": time.perf_counter() - started,
        **outcome.meta,
    }
    if tracer is None:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in workloads.END_TO_END.items()}
    else:
        metrics = {name: {"value": outcome.layers[name], "unit": unit}
                   for name, unit in workloads.PER_LAYER.items()}
    correct = all(ok for _, ok, _ in outcome.checks)
    record = {
        "meta": meta, "metrics": metrics,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in outcome.checks],
        "end_to_end": outcome.metrics,
    }
    if tracer is not None:
        record["spans"] = spans.span_records(tracer.spans)
        record["counters"] = [{"unit": unit, "name": name, "value": value}
                              for (unit, name), value
                              in tracer.counters.items()]
    path = report.write_record(args.out, f"{run_id}.json", record)

    print(f"{args.workload} seed={args.seed} traced={bool(args.trace)} "
          f"run={meta['run_s']:.1f}s record={path}")
    print("meta " + json.dumps(meta, sort_keys=True, default=str))
    for name, ok, detail in outcome.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    for line in report.format_table(metrics):
        print(line)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
