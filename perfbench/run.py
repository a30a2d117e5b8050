"""Run one workload of the LargeEA benchmark and print its metrics.

    python3 perfbench/run.py --workload dbp1m-enfr-rrea --seed 105 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the program from source (see build.py), then runs the harness
(``repro.perfbench.Bench``) in one JVM with pinned load settings. The last
line of stdout is the JSON result; it is printed only if the run succeeded.
With ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones. ``--self-test`` runs the harness on a tiny dataset and
checks that every metric named in BENCHMARK.json is printed with its unit
and that every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
HEAP = "4g"
TIMEOUT_S = 170
RESULT_PREFIX = '{"correct"'

# Spark on JDK 17 needs the module opens that spark-submit normally adds.
JPMS_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def harness(classes, workload, seed, seconds, trace):
    """Run the harness once; return its JSON result, or None if it failed."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(classes), str(ROOT / "src" / "main" / "resources"),
                          str(build.spark_jars() / "*")])
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}", *JPMS_OPENS, "-cp", cp, "repro.perfbench.Bench",
           "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith(RESULT_PREFIX):
                result = line.strip()
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        print(f"harness exited with code {code}", file=sys.stderr)
        return None
    if result is None:
        print("harness printed no result", file=sys.stderr)
    return result


def self_test(classes):
    """Run the tiny workload untraced and traced and check the output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = harness(classes, "tiny", None, 2, trace)
        if line is None:
            problems.append(f"trace {trace}: no result")
            continue
        result = json.loads(line)
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"trace {trace}: output checks failed ({result['failed']} of {result['attempted']})")
        metrics = result["metrics"]
        for m in spec[key]:
            got = metrics.get(m["name"])
            if got is None:
                problems.append(f"trace {trace}: metric {m['name']} not printed")
            elif got.get("unit") != m["unit"]:
                problems.append(f"trace {trace}: metric {m['name']} has unit {got.get('unit')}, not {m['unit']}")
        extra = set(metrics) - {m["name"] for m in spec[key]}
        if extra:
            problems.append(f"trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, help="dataset and pipeline seed (default: the registry seed)")
    ap.add_argument("--seconds", type=int, default=10, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        classes = build.build(ROOT)
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test(classes) else 1
    result = harness(classes, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
