#!/usr/bin/env python3
"""Benchmark of dfcm-repro's two jobs: regenerating the figure CSVs and
serving the DFCM prediction load.

Run from the root of a checkout:

  python3 perfbench/run.py --workload figures|service_churn|service_paced \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selfcheck
  python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

The benchmark builds the repository and its own probe programs from
source into .bench_build/, runs the workload in .bench_work/, checks the
outputs and prints one JSON object as the last line of stdout, with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics BENCHMARK.json declares; --trace 1 is a separate run
that reports the per-layer metrics and writes the run's spans to
.bench_work/trace/. Every result is also saved, with the host
fingerprint, under .bench_work/results/ for --compare.

perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
JOBS = min(4, os.cpu_count() or 1)
SETUPS = 3  # set-ups per figures run; setup_s is their median

# The 22 figure and ablation drivers, in the order they run.
DRIVERS = [
    "table1_benchmarks", "fig03_predictor_size_sweep",
    "fig06_stride_occupancy_fcm", "fig09_stride_occupancy_dfcm",
    "fig10_fcm_vs_dfcm", "fig11_pareto", "fig12_alias_accuracy",
    "fig13_alias_all", "fig14_alias_wrong", "fig16_hybrid",
    "fig17_delayed_update", "sec44_stride_width", "ablation_hash",
    "ablation_confidence", "ablation_ideal_hash", "ablation_assoc",
    "related_classification", "related_last_n",
    "workload_characterization", "ablation_alias_geometry",
    "extra_workloads", "ilp_limit",
]
# Tracked under results/ but written by no driver.
NOT_A_FIGURE = {"test_table.csv"}
REPO_LIBS = ["vpred_core", "vpred_tracegen", "vpred_sim", "vpred_workloads",
             "vpred_harness", "vpred_service"]

# Per-layer metric prefixes each workload's traced run must produce;
# declared per-layer metrics outside them are layers the workload does
# not exercise, reported as 0.
LAYERS_OF = {
    "figures": ("figures.", "core.", "harness.", "sim.", "trace.",
                "latency."),
    "service_churn": ("service.", "gen.", "core.multi_geom_dfcm.",
                      "trace.", "latency."),
    "service_paced": ("service.", "gen.", "core.multi_geom_dfcm.",
                      "harness.trace_store.", "sim.", "trace.",
                      "latency."),
}
TIMINGS = ("wall_s", "latency_p50_ms", "latency_p99_ms")


class BenchError(Exception):
    pass


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def pinned_env(**extra):
    """The environment of every child: no REPRO_* knob leaks in except
    the two the benchmark sets itself, and temporary files stay in
    the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_JOBS"] = str(JOBS)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def run_checked(cmd, logfile, env):
    """Run cmd with output to logfile; raise with the log's tail on
    failure."""
    with open(logfile, "ab") as out:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=subprocess.STDOUT, env=env)
        try:
            status = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if status != 0:
        tail = Path(logfile).read_text(errors="replace")[-3000:]
        raise BenchError(f"command failed ({status}): {' '.join(map(str, cmd))}\n{tail}")


def run_json(cmd, env):
    """Run one of the benchmark's programs and parse its JSON result."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} failed ({proc.returncode}): "
                         + err.decode(errors="replace")[-3000:])
    return json.loads(out.decode().strip().splitlines()[-1])


def check_checkout():
    missing = [p for p in ("CMakeLists.txt", "src", "bench", "results")
               if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"not a dfcm-repro checkout ({', '.join(missing)} missing in {ROOT})")


def build():
    """Build the drivers, the libraries and the benchmark's programs.
    Incremental after the first run."""
    env = pinned_env()
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    logfile.write_bytes(b"")
    repo = BUILD / "repo"
    if not (repo / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", ROOT, "-B", repo,
                     "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"],
                    logfile, env)
    targets = REPO_LIBS + ["bench_" + d for d in DRIVERS]
    run_checked(["cmake", "--build", repo, "-j", JOBS, "--target", *targets],
                logfile, env)
    bench = BUILD / "perfbench"
    if not (bench / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", BENCH_DIR, "-B", bench,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DREPO_BUILD_DIR={repo.resolve()}"], logfile, env)
    run_checked(["cmake", "--build", bench, "-j", JOBS], logfile, env)
    return {"driver": lambda d: repo / "bench" / f"bench_{d}",
            "service": bench / "perfbench_service_bench",
            "probe": bench / "perfbench_layer_probe"}


# ---------------------------------------------------------------- tracing

class Tracer:
    """Spans recorded by this process, kept in memory until the run
    ends. It accounts the time spent in its own bookkeeping, which is
    the whole cost of tracing a workload whose traced calls are
    separate processes."""

    def __init__(self):
        self.spans = []
        self.cost_ns = 0

    def span(self, name, start_ns, end_ns, parent=0, **counts):
        t0 = time.monotonic_ns()
        sid = len(self.spans) + 1
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start_ns": start_ns, "end_ns": end_ns,
                           "counts": counts})
        self.cost_ns += time.monotonic_ns() - t0
        return sid


def merge_spans(own, files, path):
    """Merge this process's spans with the span files children wrote,
    renumbering ids and hanging every top-level span under one root,
    then add each span's self time (duration minus the union of its
    children's intervals) and write them as JSON lines."""
    spans = [dict(s) for s in own]
    for f in files:
        if not f.exists():
            continue
        local = [json.loads(line) for line in f.read_text().splitlines() if line]
        base = len(spans) + 1
        remap = {s["id"]: base + i for i, s in enumerate(local)}
        for s in local:
            s["id"] = remap[s["id"]]
            s["parent"] = remap.get(s["parent"], 0)
            spans.append(s)
    root = {"id": len(spans) + 1, "parent": 0, "name": "run",
            "start_ns": min((s["start_ns"] for s in spans), default=0),
            "end_ns": max((s["end_ns"] for s in spans), default=0),
            "counts": {}}
    for s in spans:
        if s["parent"] == 0:
            s["parent"] = root["id"]
    spans.append(root)
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, s["start_ns"]), min(b, s["end_ns"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        s["self_ns"] = s["end_ns"] - s["start_ns"] - covered
    with open(path, "w") as out:
        for s in spans:
            out.write(json.dumps(s) + "\n")
    return spans


def self_time_table(spans, top=12):
    by_name = {}
    for s in spans:
        agg = by_name.setdefault(s["name"], [0, 0, 0])
        agg[0] += 1
        agg[1] += s["end_ns"] - s["start_ns"]
        agg[2] += s["self_ns"]
    rows = sorted(by_name.items(), key=lambda kv: -kv[1][2])[:top]
    return [f"  {name:40s} {n:8d} spans  total {tot / 1e9:9.3f} s  self {own / 1e9:9.3f} s"
            for name, (n, tot, own) in rows]


# -------------------------------------------------------------- workloads

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def compare_csvs(reference_dir, produced):
    """The figures oracle: every reference CSV must have been written,
    byte for byte. produced maps a CSV name to the path a driver wrote.
    Returns the names that are missing or differ."""
    bad = []
    for ref in sorted(reference_dir.glob("*.csv")):
        if ref.name in NOT_A_FIGURE:
            continue
        got = produced.get(ref.name)
        if got is None or got.read_bytes() != ref.read_bytes():
            bad.append(ref.name)
    return bad


def reference_csvs():
    return [p for p in sorted((ROOT / "results").glob("*.csv"))
            if p.name not in NOT_A_FIGURE]


def run_drivers(bins, env, work, tracer):
    """Run every driver, one after another, each as its own process in
    its own empty directory. Returns per-driver records and the pass's
    wall time."""
    runs = []
    pass_start = time.monotonic_ns()
    root = tracer.span("figures.pass", pass_start, pass_start) if tracer else 0
    for d in DRIVERS:
        cwd = reset_dir(work / "run" / d)
        start = time.monotonic_ns()
        with open(cwd / "stdout.txt", "wb") as out:
            proc = subprocess.Popen([str(bins["driver"](d))], cwd=cwd, env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        end = time.monotonic_ns()
        run = {"driver": d, "wall_s": (end - start) / 1e9,
               "cpu_s": ru.ru_utime + ru.ru_stime,
               "maxrss_mib": ru.ru_maxrss / 1024.0,
               "exit": proc.returncode, "dir": cwd}
        runs.append(run)
        if tracer:
            tracer.span("figures." + d, start, end, parent=root,
                        cpu_s=run["cpu_s"], maxrss_mib=run["maxrss_mib"],
                        exit=run["exit"])
    pass_end = time.monotonic_ns()
    if tracer:
        tracer.spans[root - 1]["end_ns"] = pass_end
    return runs, (pass_end - pass_start) / 1e9


def dfcm_accuracy(fig10b):
    """DFCM suite accuracy at level-2 2^12 from the regenerated
    Figure 10b CSV (its "average" row), or 0 when it is missing."""
    if fig10b is None:
        return 0.0
    lines = fig10b.read_text().splitlines()
    col = lines[0].split(",").index("dfcm")
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == "average":
            return float(cells[col])
    return 0.0


def figures(bins, args, traced):
    """All 22 drivers against a trace store populated in set-up; the
    26 CSVs they write must equal results/*.csv byte for byte."""
    work = reset_dir(WORK / "figures")
    store = work / "store"
    setup = []
    for _ in range(SETUPS):
        shutil.rmtree(store, ignore_errors=True)
        t0 = time.perf_counter()
        run_json([bins["probe"], "populate", "--store", store], pinned_env())
        setup.append(time.perf_counter() - t0)
    env = pinned_env(REPRO_TRACE_DIR=store)
    tracer = Tracer() if traced else None
    runs, wall = run_drivers(bins, env, work, tracer)

    produced = {}
    for r in runs:
        for f in sorted((r["dir"] / "results").glob("*.csv")):
            produced.setdefault(f.name, f)
    bad_csvs = compare_csvs(ROOT / "results", produced)
    bad_drivers = [r["driver"] for r in runs if r["exit"] != 0]
    notes = [f"driver {d} exited non-zero" for d in bad_drivers]
    notes += [f"CSV {n} missing or differs from results/{n}" for n in bad_csvs]

    walls_ms = [r["wall_s"] * 1e3 for r in runs]
    out = {
        "e2e": {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "latency_p50_ms": quantile(walls_ms, 0.50),
            "latency_p99_ms": quantile(walls_ms, 0.99),
            "peak_rss_mib": max(r["maxrss_mib"] for r in runs),
            "hit_rate": dfcm_accuracy(produced.get("fig10b_per_benchmark.csv")),
        },
        "samples": len(runs),
        "attempted": len(DRIVERS) + len(reference_csvs()),
        "failed": len(bad_drivers) + len(bad_csvs),
        "notes": notes,
        "setups": setup,
    }
    if traced:
        layers = {}
        for r in runs:
            layers[f"figures.{r['driver']}.wall_s"] = r["wall_s"]
            layers[f"figures.{r['driver']}.cpu_s"] = r["cpu_s"]
        spans_file = reset_dir(work / "probe_spans") / "probe.jsonl"
        probe = run_json([bins["probe"], "probe", "--store", store,
                          "--scratch", work / "probe_store",
                          "--groups", "kernels,sweep,acquisition",
                          "--spans", spans_file], env)
        layers.update(probe["metrics"])
        # The drivers are untouched by tracing; the only extra work of
        # the traced pass is the tracer's own bookkeeping.
        cost = tracer.cost_ns / 1e9
        layers["trace.overhead_pct.wall_s"] = 100.0 * cost / (wall - cost)
        layers["trace.overhead_pct.latency_p50_ms"] = 0.0
        layers["trace.overhead_pct.latency_p99_ms"] = 0.0
        layers["latency.samples"] = len(runs)
        layers["latency.whole_run_p99_ms"] = quantile(walls_ms, 0.99)
        out["layers"] = layers
        out["spans"] = (tracer.spans, [spans_file])
    return out


def service(bins, args, traced, kind):
    """One of the two service workloads through perfbench_service_bench;
    a traced run also runs it untraced first, for the tracing cost."""
    work = reset_dir(WORK / f"service_{kind}")
    env = pinned_env()
    common = [bins["service"], "--workload", kind, "--seed", args.seed,
              "--seconds", args.seconds, "--work", work]
    runs = [run_json(common, env)]
    if traced:
        spans_file = work / "service_spans.jsonl"
        runs.append(run_json(common + ["--trace", 1, "--spans", spans_file],
                             env))
    r = runs[-1]
    notes, warnings = [], []
    for x in runs:
        if x["lost"]:
            notes.append(f"{int(x['lost'])} records pushed but never predicted")
        if x["state_mismatches"]:
            notes.append(f"{int(x['state_mismatches'])} sampled streams differ "
                         "from the single-stream reference kernel")
        if x["late_bursts"]:
            warnings.append(f"the generator started {int(x['late_bursts'])} "
                            "bursts more than one burst interval late; their "
                            "records are left out of the latency quantiles")
    out = {
        "e2e": {
            "setup_s": statistics.median(r["setup_s"]),
            "wall_s": r["wall_s"],
            "latency_p50_ms": r["latency_p50_ms"],
            "latency_p99_ms": r["latency_p99_ms"],
            "peak_rss_mib": r["peak_rss_mib"],
            "hit_rate": r["hit_rate"],
        },
        "samples": int(r["latency_samples"]),
        "records_per_s": r["records_per_s"],
        "attempted": int(sum(x["pushed"] + x["streams_checked"] for x in runs)),
        "failed": int(sum(x["lost"] + x["state_mismatches"] for x in runs)),
        "notes": notes,
        "warnings": warnings,
        "setups": r["setup_s"],
    }
    if traced:
        base = runs[0]
        layers = dict(r["layers"])
        layers.update(r["counters"])
        layers["latency.samples"] = r["latency_samples"]
        layers["latency.whole_run_p99_ms"] = r["latency_whole_run_p99_ms"]
        for m in TIMINGS:
            layers[f"trace.overhead_pct.{m}"] = 100.0 * (r[m] - base[m]) / base[m]
        probe_spans = work / "probe_spans.jsonl"
        groups = "mg_dfcm,acquisition" if kind == "paced" else "mg_dfcm"
        store = work / "store" if kind == "paced" else work / "probe_traces"
        probe = run_json([bins["probe"], "probe", "--store", store,
                          "--scratch", work / "probe_store", "--groups", groups,
                          "--spans", probe_spans], env)
        layers.update(probe["metrics"])
        out["layers"] = layers
        out["spans"] = ([], [spans_file, probe_spans])
    return out


WORKLOADS = {
    "figures": figures,
    "service_churn": lambda b, a, t: service(b, a, t, "churn"),
    "service_paced": lambda b, a, t: service(b, a, t, "paced"),
}


# ------------------------------------------------------------ fingerprint

def fingerprint():
    """Where a result was measured: results with different
    fingerprints are not comparable (--compare flags them)."""
    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    thp = read("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    compiler = "unknown"
    for f in sorted((BUILD / "repo" / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        vals = {}
        for line in f.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID ", "CMAKE_CXX_COMPILER_VERSION "):
                if line.startswith(f"set({key}"):
                    vals[key.strip()] = line.split('"')[1]
        compiler = f"{vals.get('CMAKE_CXX_COMPILER_ID', '?')} {vals.get('CMAKE_CXX_COMPILER_VERSION', '?')}"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "results", "perfbench"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(f for f in p.rglob("*") if f.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
            digest.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "thp": thp,
        "compiler": compiler,
        "build_type": "Release",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------ modes

def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def measure(args):
    check_checkout()
    end_to_end, per_layer = declared_metrics()
    bins = build()
    traced = args.trace == 1
    res = WORKLOADS[args.workload](bins, args, traced)

    if traced:
        produced = res["layers"]
        declared = {m["name"] for m in per_layer}
        extra = sorted(set(produced) - declared)
        if extra:
            raise BenchError(f"undeclared per-layer metrics: {extra}")
        expected = LAYERS_OF[args.workload]
        missing = [m["name"] for m in per_layer if m["name"] not in produced
                   and m["name"].startswith(expected)]
        if missing:
            raise BenchError(f"{args.workload} did not measure {missing}")
        values = {m["name"]: produced.get(m["name"], 0.0) for m in per_layer}
        units = {m["name"]: m["unit"] for m in per_layer}
    else:
        values = {m["name"]: res["e2e"][m["name"]] for m in end_to_end}
        units = {m["name"]: m["unit"] for m in end_to_end}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if not traced:
        for name, v in values.items():
            extra = ""
            if name == "setup_s":
                extra = f"  (median of {len(res['setups'])} set-ups)"
            elif name.startswith("latency_"):
                extra = f"  ({res['samples']} samples)"
            print(f"  {name:18s} {v:14.6f} {units[name]}{extra}")
        if "records_per_s" in res:
            print(f"  {'records_per_s':18s} {res['records_per_s']:14.1f} records/s")
    for note in res["notes"]:
        print(f"  FAILED: {note}")
    for warning in res.get("warnings", []):
        print(f"  WARNING: {warning}")
    if traced:
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        own, files = res["spans"]
        spans = merge_spans(own, files, path)
        print(f"  {len(spans)} spans written to {path.relative_to(ROOT)}; "
              "largest self times:")
        for line in self_time_table(spans):
            print(line)

    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    saved = WORK / "results"
    saved.mkdir(parents=True, exist_ok=True)
    (saved / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "fingerprint": fp, "result": result},
                   indent=1, default=str))
    print(json.dumps(result), flush=True)


def compare(path_a, path_b):
    """Print each metric of two saved results side by side; flag a
    comparison across different hosts or builds."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    diff = {k: (a["fingerprint"].get(k), b["fingerprint"].get(k))
            for k in a["fingerprint"] if k not in ("commit", "source_sha256")
            and a["fingerprint"].get(k) != b["fingerprint"].get(k)}
    if diff:
        print("WARNING: results come from different hosts or builds:")
        for k, (x, y) in diff.items():
            print(f"  {k}: {x} vs {y}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"  {name:44s} {ma['value']:14.6g} {mb['value']:14.6g}  x{ratio:.4f} {ma['unit']}")
    return 1 if diff else 0


def selfcheck():
    """Each oracle must fire on an injected fault: one flipped CSV byte
    for the figures oracle, one withheld record for the lost-record and
    stream-state oracles of both service workloads."""
    check_checkout()
    ok = True
    ref = ROOT / "results"
    copy = reset_dir(WORK / "selfcheck" / "csv")
    produced = {}
    for f in reference_csvs():
        produced[f.name] = copy / f.name
        shutil.copyfile(f, copy / f.name)
    clean = compare_csvs(ref, produced)
    victim = copy / "fig10a_l2_sweep.csv"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    flipped = compare_csvs(ref, produced)
    fired = clean == [] and flipped == ["fig10a_l2_sweep.csv"]
    print(f"figures CSV oracle: clean copy {len(clean)} failures, one flipped "
          f"byte {len(flipped)} failures -> {'ok' if fired else 'BROKEN'}")
    ok &= fired

    bins = build()
    env = pinned_env()
    for kind in ("churn", "paced"):
        work = reset_dir(WORK / "selfcheck" / kind)
        common = [bins["service"], "--workload", kind, "--seed", 7,
                  "--seconds", 0.5, "--work", work]
        clean = run_json(common, env)
        faulty = run_json(common + ["--withhold-last", 1], env)
        fired = (clean["lost"] == 0 and clean["state_mismatches"] == 0
                 and faulty["lost"] == 1 and faulty["state_mismatches"] == 1)
        print(f"service_{kind} oracles: clean run lost {int(clean['lost'])}, "
              f"mismatched {int(clean['state_mismatches'])}; one withheld record "
              f"lost {int(faulty['lost'])}, mismatched "
              f"{int(faulty['state_mismatches'])} -> {'ok' if fired else 'BROKEN'}")
        ok &= fired
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time of a service run; a figures run "
                         "always regenerates every CSV once")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()
    # Turn SIGTERM into an exception so running children are killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.selfcheck:
            return selfcheck()
        if args.compare:
            return compare(*args.compare)
        if not args.workload:
            ap.error("--workload is required")
        if args.seed is None:
            seeds = json.loads((BENCH_DIR / "metrics.json").read_text())["seeds"]
            args.seed = seeds["default"]
        if args.seconds is None:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            args.seconds = spec["run_seconds"]
        if args.seed < 0 or args.seconds <= 0:
            ap.error("--seed must be >= 0 and --seconds > 0")
        measure(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
