"""Build file of the benchmark: compiles the program and the harness.

The program's main sources (``src/main/scala``) and the harness
(``perfbench/src``) are compiled together with the Scala compiler that ships
with Spark, straight into ``.bench_build/perfbench/classes-<hash>``. The hash
covers every source file and the compiler options, so an unchanged tree is
compiled once; older builds are removed. Nothing is written outside the
checkout.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

SCALA_VERSION = "2.13.17"
SCALAC_OPTIONS = ["-nowarn", "-encoding", "UTF-8"]
# The DuckDB test oracle: DuckDB is a test dependency, not on the Spark
# classpath, and no pipeline code calls it.
EXCLUDED = {"src/main/scala/repro/Oracle.scala"}


class BuildError(Exception):
    pass


def spark_jars():
    """The jars directory of the Spark distribution (``$SPARK_HOME/jars``,
    else the one of ``spark-submit`` on ``PATH``)."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise BuildError(f"no jars directory in Spark home {home}")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources(root):
    main = root / "src" / "main" / "scala"
    bench = root / "perfbench" / "src"
    if not main.is_dir():
        raise BuildError(f"program sources not found: {main}")
    files = sorted(p for d in (main, bench) for p in d.rglob("*.scala")
                   if p.relative_to(root).as_posix() not in EXCLUDED)
    if not any(p.is_relative_to(bench) for p in files):
        raise BuildError(f"harness sources not found: {bench}")
    return files


def build(root):
    """Compile if needed; return the classes directory."""
    root = Path(root)
    files = sources(root)
    digest = hashlib.sha256(" ".join(SCALAC_OPTIONS + [SCALA_VERSION]).encode())
    for f in files:
        digest.update(f.relative_to(root).as_posix().encode())
        digest.update(f.read_bytes())
    out = root / ".bench_build" / "perfbench" / f"classes-{digest.hexdigest()[:16]}"
    if (out / ".complete").exists():
        return out

    jars = spark_jars()
    compiler = [jars / f"scala-{n}-{SCALA_VERSION}.jar" for n in ("compiler", "library", "reflect")]
    missing = [str(j) for j in compiler if not j.exists()]
    if missing:
        raise BuildError(f"Scala {SCALA_VERSION} compiler jars not found: {', '.join(missing)}")
    for old in out.parent.glob("classes-*"):
        shutil.rmtree(old)
    out.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", *SCALAC_OPTIONS,
           "-classpath", str(jars / "*"), "-d", str(out), *map(str, files)]
    print(f"compiling {len(files)} Scala sources into {out.relative_to(root)}", file=sys.stderr)
    # Compiler output goes to stderr: stdout carries the benchmark result only.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(out, ignore_errors=True)
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    (out / ".complete").touch()
    return out


if __name__ == "__main__":
    try:
        print(build(Path(__file__).resolve().parent.parent))
    except BuildError as e:
        sys.exit(f"build failed: {e}")
