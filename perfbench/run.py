#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the benchmark binary and the repository's
`pdm-diskd` worker (into $CARGO_TARGET_DIR, default `.bench_build`), then
runs one workload; the last line of standard output is the JSON result.
`--smoke` runs every workload at tiny size in both trace modes, checks that
every metric prints with a unit, that the result lines carry exactly the
metrics BENCHMARK.json declares, that a seed reproduces its inputs and exact
counts while another seed changes the inputs, and that a deliberately
misplaced record fails the run.

Scratch files go to `.benchtmp` in the checkout. The exit status is the
benchmark's: 0 when every check held, nonzero otherwise.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ["bmmc-tiny-threaded", "bmmc-4k-file", "sort-shuffle", "served-uds"]


def environment():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    # Relative, so Unix socket paths stay short whatever the checkout path.
    env["TMPDIR"] = ".benchtmp"
    env["PDM_DISKD_BIN"] = str(target / "release" / "pdm-diskd")
    return env, target / "release" / "perfbench"


def build(env):
    """Builds the benchmark and the worker binary; False on failure."""
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pdm-diskd"],
    ]
    for cmd in commands:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def run(binary, env, args, echo=True):
    """Runs the benchmark binary in its own process group; returns
    (exit status, stdout lines). Without `echo` its output and
    diagnostics are kept quiet. On timeout the whole group (the binary
    and any pdm-diskd workers) is killed and reaped."""
    (ROOT / ".benchtmp").mkdir(exist_ok=True)
    proc = subprocess.Popen([str(binary), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            stderr=None if echo else subprocess.DEVNULL,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 124, []
    if echo:
        sys.stdout.write(out)
    return proc.returncode, out.splitlines()


def exact_counts(lines):
    """The run's exact counts: input digests and every count metric."""
    counts = {l for l in lines if l.startswith("input ")}
    for name, m in json.loads(lines[-1])["metrics"].items():
        if m["unit"] in ("count", "B/rec") or name.startswith(("sort.", "transport.")):
            counts.add(f"{name}={m['value']}")
    return counts


def smoke(binary, env):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        "0": [m["name"] for m in declared["end_to_end"]],
        "1": [m["name"] for m in declared["per_layer"]],
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            what = f"{workload} --trace {trace}"
            found = []
            counts = {}
            for seed in ("7", "7", "8", "8"):
                args = ["--workload", workload, "--seed", seed, "--seconds", "0.5",
                        "--trace", trace, "--tiny"]
                code, lines = run(binary, env, args, echo=False)
                if code != 0 or not lines:
                    found.append(f"{what} --seed {seed}: exit {code}")
                    break
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    found.append(f"{what}: result not correct: {lines[-1]}")
                if list(result["metrics"]) != names[trace]:
                    found.append(f"{what}: metrics {list(result['metrics'])} != {names[trace]}")
                for name, m in result["metrics"].items():
                    if not m.get("unit"):
                        found.append(f"{what}: metric {name} has no unit")
                for line in lines:
                    fields = line.split()
                    if fields[:1] == ["metric"] and not (len(fields) >= 5 and fields[4].startswith("n=")):
                        found.append(f"{what}: table line without a unit: {line}")
                # The same seed must give identical inputs and exact counts.
                exact = exact_counts(lines)
                if counts.setdefault(seed, exact) != exact:
                    found.append(f"{what} --seed {seed}: exact counts differ between runs: "
                                 f"{sorted(counts[seed] ^ exact)}")
            if len(counts) == 2 and counts["7"] == counts["8"]:
                found.append(f"{what}: seeds 7 and 8 gave identical inputs")
            # A misplaced record must fail the run. The untraced served run
            # has no benchmark-side placement oracle (its jobs verify
            # themselves), so it is exercised traced only.
            if workload != "served-uds" or trace == "1":
                code, lines = run(binary, env, args + ["--corrupt"], echo=False)
                caught = code == 1 and lines and not json.loads(lines[-1])["correct"]
                if not caught:
                    found.append(f"{what}: a misplaced record was not caught (exit {code})")
            print(f"smoke {what}: {'ok' if not found else 'FAILED'}", file=sys.stderr)
            problems += found
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    env, binary = environment()
    if not build(env):
        return 1
    if sys.argv[1:] == ["--smoke"]:
        return smoke(binary, env)
    code, _ = run(binary, env, sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
