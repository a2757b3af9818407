#!/usr/bin/env python3
"""The sqlog benchmark.

Run from the root of a sqlog checkout:

    python3 perfbench/run.py --workload skyserver --seed 1 --seconds 20 --trace 0

builds `sqlog-clean` and the harness (`perfbench/harness`) from source,
generates the workload's input from the seed, measures for `--seconds`
seconds, checks the outputs, and prints one JSON object as the last line of
stdout: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` gives
the end-to-end metrics of BENCHMARK.json (untraced runs of the real
process), `--trace 1` the per-layer metrics (a traced run that calls each
layer from the harness) and writes the span file.

Other modes:

    --results DIR          also write the full record of the run into DIR
    --self-check A B       compare two result directories of the same code
    --smoke                run every workload on tiny inputs and check the
                           emitted metric sets against BENCHMARK.json

See perfbench/README.md for the workloads, metrics and their rationale.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# Input sizes and settings per workload. `smoke` shrinks every size.
WORKLOADS = {
    "skyserver": {"kind": "pipeline", "gen": "skyserver", "entries": 1_000_000,
                  "threads": 2, "truth": True, "minidb_rows": 5_000, "minidb_cap": 1_500},
    "adhoc": {"kind": "pipeline", "gen": "adhoc", "entries": 150_000,
              "threads": 2, "truth": False, "minidb_rows": 5_000, "minidb_cap": 1_500},
    "checkpoint": {"kind": "checkpoint", "gen": "skyserver", "entries": 200_000,
                   "threads": 1, "truth": True, "minidb_rows": 5_000, "minidb_cap": 1_500},
    "oracle": {"kind": "oracle", "gen": "skyserver", "entries": 100_000, "rows": 20_000,
               "threads": 1, "truth": False, "minidb_rows": 20_000, "minidb_cap": 100_000},
}
SMOKE = {"entries": 4_000, "rows": 2_000, "minidb_rows": 1_000, "minidb_cap": 300}
# What the traced run must confirm about a workload's design (recorded in
# the results; a later change to the program may legitimately move them).
DESIGN = {
    "skyserver": lambda m: m["parse.cache_hit_ratio"] >= 0.99
    and m["dedup.prefilter_bailouts"] >= 1,
    "adhoc": lambda m: m["parse.cache_hit_ratio"] < 0.5 and m["dedup.prefilter_bailouts"] == 0,
}
# Traced runs measure the checkpoint layer on at most this many entries of
# the workload's input (all of it on the `checkpoint` workload).
CHECKPOINT_PREFIX = 100_000
SETUPS = 3          # set-ups per run; setup_s is their median
MIN_ITERATIONS = 3  # timed iterations per run, at least
ABORT_ENV = {"SQLOG_FAULT_MARKER": "SELECT", "SQLOG_FAULT_STAGE": "solve",
             "SQLOG_FAULT_ACTION": "abort"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SetupError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- building

def build():
    """Builds sqlog-clean and the harness; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SetupError(f"{ROOT} is not a sqlog checkout (no Cargo.toml / crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "sqlog", "--bin", "sqlog-clean"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "harness" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SetupError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "sqlog-clean", target / "release" / "sqlog-perfbench"


# ------------------------------------------------------------ processes

class Run:
    """One finished child process with its resource usage."""

    def __init__(self, code, wall, cpu, rss_mb, stdout):
        self.code, self.wall, self.cpu, self.rss_mb, self.stdout = code, wall, cpu, rss_mb, stdout


def run_child(cmd, out_dir, env=None, tag="child"):
    """Runs `cmd` to completion; wall time and rusage are the child's own."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout_path, stderr_path = out_dir / f"{tag}.stdout", out_dir / f"{tag}.stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=so, stderr=se,
                                env=dict(os.environ, **(env or {})))
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
               stdout_path.read_text(errors="replace"))


def harness_json(run, what):
    """The JSON object a harness subcommand printed, or a SetupError."""
    if run.code != 0:
        raise SetupError(f"harness {what} exited {run.code}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def median(values):
    return statistics.median(values)


def prefix_file(src, dst, lines):
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        for i, line in enumerate(fin):
            if i >= lines:
                break
            fout.write(line)


# ------------------------------------------------------------- workloads

class Bench:
    def __init__(self, name, seed, seconds, smoke):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.cfg = dict(WORKLOADS[name], **(SMOKE if smoke else {}))
        self.clean, self.harness = build()
        self.dir = WORK / f"{name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failures = []
        self.record = {"workload": name, "seed": seed, "seconds": seconds,
                       "settings": self.cfg, "machine": machine()}

    def check(self, ok, what):
        """Counts one attempted operation; records it as failed unless `ok`."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"FAILED: {what}")

    def input_paths(self):
        return self.dir / "input.tsv", self.dir / "truth.txt"

    def generate(self):
        inp, truth = self.input_paths()
        cmd = [self.harness, "gen", "--workload", self.cfg["gen"], "--seed", self.seed,
               "--entries", self.cfg["entries"], "--out", inp]
        if self.cfg["truth"]:
            cmd += ["--truth", truth]
        out = harness_json(run_child(cmd, self.dir, tag="gen"), "gen")
        self.record["input"] = out
        return out

    def reference(self, inp, threads, tag="reference", extra=()):
        """The in-process traced run; its outputs are the reference bytes."""
        clean, removal = self.dir / f"{tag}.clean.tsv", self.dir / f"{tag}.removal.tsv"
        cmd = [self.harness, "pipeline", "--in", inp, "--threads", threads,
               "--out", clean, "--removal", removal, *extra]
        if self.cfg["truth"]:
            cmd += ["--truth", self.input_paths()[1]]
        run = run_child(cmd, self.dir, tag=tag)
        out = harness_json(run, "pipeline")
        for p in out["problems"]:
            log(f"reference check: {p}")
        self.check(not out["problems"], f"{tag} run checks: {out['problems'][:3]}")
        out["digests"] = [digest(clean), digest(removal)]
        return run, out

    def clean_run(self, inp, threads, tag, extra=(), env=None):
        clean, removal = self.dir / f"{tag}.clean.tsv", self.dir / f"{tag}.removal.tsv"
        for p in (clean, removal):
            p.unlink(missing_ok=True)
        run = run_child([self.clean, "--in", inp, "--parallelism", threads,
                         "--out", clean, "--removal", removal, *extra],
                        self.dir, env=env, tag=tag)
        run.outputs = (clean, removal)
        return run

    def outputs_match(self, run, ref_digests):
        return all(p.exists() for p in run.outputs) and \
            [digest(p) for p in run.outputs] == ref_digests

    # ---- end-to-end (untraced) runs

    def setup_times(self):
        times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            self.generate()
            times.append(time.perf_counter() - t0)
        return times

    def timed_loop(self, body):
        """Calls `body()` until `--seconds` of measured time have passed."""
        runs, measured = [], 0.0
        while measured < self.seconds or len(runs) < MIN_ITERATIONS:
            run = body()
            runs.append(run)
            measured += run.wall
        return runs

    def end_to_end(self):
        kind = self.cfg["kind"]
        if kind == "oracle":
            return self.oracle_end_to_end()
        setup = self.setup_times()
        inp, _ = self.input_paths()
        entries = self.record["input"]["entries"]
        threads = self.cfg["threads"]
        ckpt = kind == "checkpoint"

        def body():
            extra = ()
            if ckpt:
                run_dir = self.dir / "run"
                shutil.rmtree(run_dir, ignore_errors=True)
                extra = ("--run-dir", run_dir)
            run = self.clean_run(inp, threads, "timed", extra)
            run.digests = [digest(p) if p.exists() else None for p in run.outputs]
            run.disk = dir_bytes(self.dir / "run") + sum(
                p.stat().st_size for p in run.outputs if p.exists()) if ckpt else 0
            return run

        runs = self.timed_loop(body)
        _, ref = self.reference(inp, 1)
        for i, run in enumerate(runs):
            self.check(run.code == 0 and run.digests == ref["digests"],
                       f"timed run {i}: exit {run.code}, outputs {run.digests} "
                       f"vs reference {ref['digests']}")
        if ckpt:
            self.abort_and_resume(inp, ref["digests"])
        in_bytes = self.record["input"]["bytes"]
        self.record.update(
            reference=ref, iterations=[
                {"wall_s": r.wall, "cpu_s": r.cpu, "rss_mb": r.rss_mb, "exit": r.code,
                 "digests": r.digests, **({"disk_bytes_per_input_byte": r.disk / in_bytes}
                                         if ckpt else {})} for r in runs],
            setup_runs_s=setup)
        return {
            "entries_per_s": median([entries / r.wall for r in runs]),
            "cpu_us_per_entry": median([r.cpu * 1e6 / entries for r in runs]),
            "peak_rss_mb": median([r.rss_mb for r in runs]),
            "setup_s": median(setup),
        }

    def abort_and_resume(self, inp, ref_digests):
        """Kill the checkpointed run at the start of solve, then resume it."""
        run_dir = self.dir / "run-abort"
        shutil.rmtree(run_dir, ignore_errors=True)
        aborted = self.clean_run(inp, self.cfg["threads"], "abort",
                                 ("--run-dir", run_dir), env=ABORT_ENV)
        self.check(aborted.code == -6 and not aborted.outputs[0].exists(),
                   f"abort leg: exit {aborted.code} (want SIGABRT, no clean log)")
        resumed = self.clean_run(inp, self.cfg["threads"], "resume", ("--resume", run_dir))
        self.check(resumed.code == 0 and self.outputs_match(resumed, ref_digests),
                   f"resume leg: exit {resumed.code}, outputs differ from the plain run")
        self.record["resume"] = {"abort_wall_s": aborted.wall, "resume_s": resumed.wall}

    def oracle_end_to_end(self):
        cfg = self.cfg
        run = run_child([self.harness, "oracle", "--seed", self.seed, "--rows", cfg["rows"],
                         "--source-entries", cfg["entries"], "--seconds", self.seconds,
                         "--setups", SETUPS], self.dir, tag="oracle")
        out = harness_json(run, "oracle")
        self.record["oracle"] = out
        for p in out["problems"]:
            log(f"oracle check: {p}")
        # One operation per statement replayed, plus one per checked statement.
        self.attempted += out["samples"] + out["statements"]
        self.failures += [f"rejected in replay: {out['rejected']}"] * out["rejected"]
        self.failures += out["problems"]
        return {
            "entries_per_s": out["entries_per_s"],
            "cpu_us_per_entry": out["cpu_us_per_entry"],
            "peak_rss_mb": run.rss_mb,
            "setup_s": out["setup_s"],
        }

    # ---- traced run

    def traced(self):
        cfg = self.cfg
        self.generate()
        inp, _ = self.input_paths()
        threads = cfg["threads"]
        untraced = self.clean_run(inp, threads, "untraced")
        spans = [self.dir / "spans.pipeline.json", self.dir / "spans.checkpoint.json"]
        run, out = self.reference(inp, threads, "traced", (
            "--spans", spans[0], "--minidb-rows", cfg["minidb_rows"],
            "--minidb-cap", cfg["minidb_cap"], "--seed", self.seed))
        self.attempted += out["attempted"] - 1
        self.check(untraced.code == 0 and self.outputs_match(untraced, out["digests"]),
                   f"untraced run: exit {untraced.code} or outputs differ from the traced run")

        ckpt_in = inp
        if cfg["kind"] != "checkpoint" and self.record["input"]["entries"] > CHECKPOINT_PREFIX:
            ckpt_in = self.dir / "checkpoint-input.tsv"
            prefix_file(inp, ckpt_in, CHECKPOINT_PREFIX)
        ckpt = harness_json(run_child(
            [self.harness, "checkpoint", "--in", ckpt_in, "--threads", threads,
             "--work", self.dir / "ckpt", "--spans", spans[1]], self.dir, tag="checkpoint"),
            "checkpoint")
        self.attempted += ckpt["attempted"] - 1
        self.check(not ckpt["problems"], f"checkpoint layer: {ckpt['problems']}")

        m = dict(out["metrics"])
        m.update(ckpt["metrics"])
        pipeline_s = run.wall - self.minidb_ms(spans[0]) / 1e3
        m["unattributed.ms"] = run.wall * 1e3 - out["layer_ms"]
        m["trace.overhead_pct"] = (pipeline_s - untraced.wall) / untraced.wall * 100
        m["rss.peak_mb"] = run.rss_mb
        all_spans = []
        for path in spans:
            all_spans += json.loads(path.read_text())
        span_out = WORK / "spans" / f"{self.name}-{self.seed}.json"
        span_out.parent.mkdir(parents=True, exist_ok=True)
        span_out.write_text(json.dumps(all_spans))
        log(f"spans: {span_out}")
        if self.name in DESIGN:
            holds = DESIGN[self.name](m)
            self.record["design_holds"] = holds
            log(f"{self.name} design {'holds' if holds else 'DOES NOT HOLD'}")
        self.record.update(traced=out, checkpoint=ckpt, untraced_wall_s=untraced.wall,
                           traced_wall_s=run.wall, spans=str(span_out))
        return m

    @staticmethod
    def minidb_ms(span_path):
        """Milliseconds of the minidb layer, which the CLI run does not have."""
        return sum(s["end_us"] - s["start_us"] for s in json.loads(span_path.read_text())
                   if s["name"].startswith("minidb.") and s["parent"] is None) / 1e3


def machine():
    model = ""
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SetupError("BENCHMARK.json not found in the current directory")
    return json.loads(spec_path.read_text())


def run_workload(name, seed, seconds, trace, smoke=False, results=None):
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    bench = Bench(name, seed, seconds, smoke)
    values = bench.traced() if trace else bench.end_to_end()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    result = {
        "correct": not bench.failures,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    bench.record.update(trace=trace, result=result, failures=bench.failures)
    if results:
        out = Path(results)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}-seed{seed}-trace{trace}.json").write_text(
            json.dumps(bench.record, indent=1, default=str))
    # Inputs and outputs are large; spans and results are kept.
    shutil.rmtree(bench.dir, ignore_errors=True)
    return result


# ---------------------------------------------------------- self-check

def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def self_check(dir_a, dir_b):
    """Do two result sets of the same code agree within the bounds?"""
    spec = load_spec()
    ok = True
    print(f"{'workload':<11} {'metric':<18} {'bound':>6} {'spread A':>9} {'spread B':>9} "
          f"{'median A':>12} {'median B':>12} {'worse by':>9}  verdict")
    for wl in spec["workloads"]:
        sets = []
        for d in (dir_a, dir_b):
            recs = [json.loads(p.read_text())
                    for p in sorted(Path(d).glob(f"{wl['name']}-seed*-trace0.json"))]
            sets.append(recs)
        if not sets[0] or not sets[1]:
            print(f"{wl['name']:<11} (no results in one of the sets)")
            ok = False
            continue
        for m in spec["end_to_end"]:
            va, vb = ([r["result"]["metrics"][m["name"]]["value"] for r in s] for s in sets)
            sa, sb = quartile_spread(va), quartile_spread(vb)
            ma, mb = median(va), median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_ok = m["name"] == "setup_s" or (sa <= m["bound"] and sb <= m["bound"])
            good = spread_ok and worse <= m["bound"]
            ok &= good
            verdict = "agree" if good else "DISAGREE"
            if good and m["name"] != "setup_s" and max(sa, sb) > m["bound"] / 3:
                verdict = "agree (spread above a third of the bound)"
            print(f"{wl['name']:<11} {m['name']:<18} {m['bound']:>6.2f} {sa:>9.4f} {sb:>9.4f} "
                  f"{ma:>12.4f} {mb:>12.4f} {worse:>9.4f}  {verdict}")
        fails = [r for s in sets for r in s if not r["result"]["correct"]]
        if fails:
            ok = False
            print(f"{wl['name']:<11} {len(fails)} runs reported correct=false")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# --------------------------------------------------------------- smoke

def smoke():
    """Every workload on tiny inputs, both modes: the emitted metric sets
    must be exactly the declared ones, with valid names, within limits."""
    spec = load_spec()
    problems = []
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16:
        problems.append(f"{len(e2e)} end-to-end metrics (want 1..16)")
    if not 1 <= len(layer) <= 128:
        problems.append(f"{len(layer)} per-layer metrics (want 1..128)")
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in spec["workloads"]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    problems += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    # Every workload the driver knows, also those outside BENCHMARK.json.
    for wl in WORKLOADS:
        for trace, declared in ((0, e2e), (1, layer)):
            res = run_workload(wl, 7, 1, trace, smoke=True)
            got = set(res["metrics"])
            want = {m["name"] for m in declared}
            if got != want:
                problems.append(f"{wl} trace {trace}: emitted {sorted(got ^ want)} "
                                "differently from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{wl} trace {trace}: correct=false")
            log(f"smoke {wl} trace {trace}: {len(got)} metrics, "
                f"correct={res['correct']}")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: PASS" if not problems else "smoke: FAIL")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="directory for the full record of each run")
    ap.add_argument("--self-check", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check(*args.self_check)
        if args.smoke:
            return smoke()
        if not args.workload:
            ap.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              results=args.results)
    except SetupError as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
