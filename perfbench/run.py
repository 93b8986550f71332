"""kgedenoise benchmark: run one workload and print its metrics.

Usage, from the root of a kgedenoise checkout:

    python3 perfbench/run.py --workload synthetic-n1 --seed 1 --seconds 25 --trace 0

The library is imported from the checkout's ``src`` directory, never
from an installed copy. One process, one caller, BLAS pinned to one
thread. With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` the workload runs twice, untraced and then
traced with the same work, and the last line holds the per-layer
metrics. The line before it records the environment and the measured
graph shape; a full record, and the spans of a traced run, go to
``.perfbench_out/``.
"""

import os

# Pin BLAS before numpy loads; nothing else here controls threads at run time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def load_library():
    """Import ``kgedenoise`` from ``ROOT/src``; exit with code 2 if it is not there."""
    package_dir = ROOT / "src" / "kgedenoise"
    if not (package_dir / "__init__.py").is_file():
        print(f"perfbench: no kgedenoise sources under {ROOT / 'src'}; "
              "run from the root of a kgedenoise checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import kgedenoise
    from kgedenoise import (agent, config, evaluation, graph, models, noise,  # noqa: F401
                            seeding, synth, trainer)
    if Path(kgedenoise.__file__).resolve().parent != package_dir.resolve():
        print(f"perfbench: imported kgedenoise from {kgedenoise.__file__}, "
              f"not from {package_dir}", file=sys.stderr)
        sys.exit(2)
    return kgedenoise


def manifest_units(trace: int) -> dict[str, str]:
    """Name → unit of the metrics ``BENCHMARK.json`` lists for this kind of run."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {ROOT / 'BENCHMARK.json'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return {entry["name"]: entry["unit"]
            for entry in manifest["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _normalized(value):
    """JSON round trip, so numpy values compare and save as plain numbers."""
    return json.loads(json.dumps(value, sort_keys=True, default=float))


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".total_s", ".self_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    from checks import Checks
    from preset import drift
    from spans import Tracer, metric_names
    from workloads import WORKLOADS, Probe

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected_units = manifest_units(args.trace)
    kg = load_library()
    checks = Checks()
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    ran, problems = drift(kg)
    record["preset_drift"] = problems if problems or not ran else "none"
    if ran:
        checks.expect(not problems, f"preset copy drifted: {problems}")

    run = WORKLOADS[args.workload]
    untraced = run(kg, args.seed, args.seconds, checks)
    record["notes"] = untraced.notes

    if args.trace:
        tracer = Tracer().install(kg)
        tracer.exclude(Probe, "run", "perfbench.probe")
        try:
            replay = {} if untraced.plan is None else {"plan": untraced.plan}
            traced = run(kg, args.seed, args.seconds, checks, **replay)
        finally:
            tracer.close()
        checks.expect(_normalized(traced.quality) == _normalized(untraced.quality),
                      f"{args.workload}: traced quality differs from untraced")
        values, tail_pcts = tracer.summary(traced.wall_s - untraced.wall_s)
        record["tail_percentiles"] = tail_pcts
        record["untraced_wall_s"] = untraced.wall_s
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = {name: (values[name], unit_of(name)) for name in metric_names()}
    else:
        metrics = dict(untraced.metrics)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        metrics["ok_ratio"] = ((checks.attempted - checks.failed) / checks.attempted, "ratio")

    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != expected_units:
        wrong_unit = sorted(name for name in units.keys() & expected_units.keys()
                            if units[name] != expected_units[name])
        print("perfbench: metrics do not match BENCHMARK.json: "
              f"missing {sorted(expected_units.keys() - units.keys())}, "
              f"extra {sorted(units.keys() - expected_units.keys())}, "
              f"other unit {wrong_unit}", file=sys.stderr)
        return 3

    record["failures"] = checks.failures
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(_normalized(record), handle, indent=1, sort_keys=True)
    print(json.dumps({k: record[k] for k in ("environment", "notes", "preset_drift",
                                             "failures")}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
