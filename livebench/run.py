#!/usr/bin/env python3
"""Live-path benchmark of the APPx proxy.

One command builds the `livebench` binary from the repository sources and
runs three processes on this host:

  origin  bench-owned origin serving apps::OriginServer content, optionally
          after a share of the paper's per-host WAN delay
          (livebench/src/origin.cpp);
  proxy   ShardedProxyEngine behind LiveProxyServer, configured as deployed
          (livebench/src/proxy.cpp);
  gen     open-loop generator replaying the seeded user-study trace and
          checking every response (livebench/src/gen.cpp).

  python3 livebench/run.py --workload wish_wan --seed 1 --seconds 20 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run is made twice, untraced and then with the engine wrapped in
a timing decorator, and the last line carries the per-layer metrics. The
traced pass also prints a per-layer self-time table and the tracing overhead
(traced - untraced) for every end-to-end metric on stderr. Workload settings
live in livebench/workloads.json; livebench/README.md documents the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15         # proxy starts per run; setup_s is their median
WARMUP_SHARE = 0.1         # of --seconds, not measured; the rest is the reference window
LAG_BOUND_MS = 20          # generator lateness (p99) beyond which a run is invalid
GEN_GRACE_S = 10           # the generator's drain after the schedule ends
# Figures too unsteady on a shared host for a regression bound (see
# README.md). They are computed like the end-to-end metrics but reported in
# the provenance line and, with --trace 1, as the per-layer metrics named here.
UNBOUNDED = {name: "client." + name for name in
             ("interaction_p90_ms", "request_p50_ms", "request_p99_ms", "hit_p50_ms", "hit_ratio")}
UNBOUNDED["cpu_ms_per_req"] = "proc.cpu_ms_per_req"


def log(*parts):
    print("livebench:", *parts, file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------------------


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the livebench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit("livebench: proxy sources (src/) not found next to livebench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "livebench",
                    "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return out / "livebench"


def build_type():
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.exists() else []:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def source_id():
    """The commit when the checkout is a git repository, else a digest of src/."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


# --- processes -----------------------------------------------------------------------


class Child:
    """A benchmark process: stdout is a line protocol, stdin EOF stops it."""

    def __init__(self, argv, cwd):
        self.started = time.monotonic()
        self.proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def line(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"{self.proc.args[1]}: no output within {timeout}s")
        text = self.proc.stdout.readline()
        if not text:
            raise RuntimeError(f"{self.proc.args[1]}: exited early "
                               f"(code {self.proc.wait()})")
        return text.strip()

    def stop(self, timeout=30):
        """Close stdin, return the final stdout line, wait for exit."""
        if self.proc.stdin:
            self.proc.stdin.close()
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.proc.wait(timeout=timeout)
        if code != 0:
            raise RuntimeError(f"{self.proc.args[1]} exited with code {code}")
        lines = [l for l in rest.splitlines() if l.strip()]
        return json.loads(lines[-1]) if lines else {}

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


def proc_sample(pid):
    """CPU seconds, RSS MB, context switches and thread count of a process."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / ticks
    rss_kb = 0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                rss_kb = int(line.split()[1])
    ctxsw = 0
    tasks = os.listdir(f"/proc/{pid}/task")
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                for line in f:
                    if "ctxt_switches" in line:
                        ctxsw += int(line.split()[1])
        except FileNotFoundError:
            pass
    return {"cpu_s": cpu, "rss_mb": rss_kb / 1024.0, "ctxsw": ctxsw, "threads": len(tasks)}


def sleep_until(t):
    delay = t - time.monotonic()
    if delay > 0:
        time.sleep(delay)


# --- one pass: origin + proxy + generator ---------------------------------------------


def run_pass(binary, workload, seed, seconds, traced, workdir, corrupt=0):
    """One full run; returns the raw results of all three processes.

    corrupt > 0 makes the origin flip one byte of its corrupt-th response
    body (the checker's fault-injection test)."""
    warmup = seconds * WARMUP_SHARE
    children = []
    try:
        origin_args = [str(binary), "origin", "--app", workload["app"],
                       "--delay-scale", str(workload["delay_scale"]),
                       "--corrupt", str(corrupt)]
        if traced:
            origin_args += ["--spans", str(workdir / "origin.tsv")]
        origin = Child(origin_args, workdir)
        children.append(origin)
        origin_port = origin.line(30).split()[1]

        # Set-up: start the proxy several times and keep the last one.
        setups = []
        proxy = None
        for i in range(SETUP_REPEATS):
            proxy_args = [str(binary), "proxy", "--app", workload["app"], "--seed", str(seed),
                          "--origin-port", origin_port, "--trace", "1" if traced else "0",
                          "--spans", str(workdir / "proxy.tsv")]
            proxy = Child(proxy_args, workdir)
            children.append(proxy)
            ready = proxy.line(120).split()
            setups.append({"setup_s": time.monotonic() - proxy.started,
                           "analysis_ms": float(ready[2]), "serve_ms": float(ready[3])})
            if i + 1 < SETUP_REPEATS:
                proxy.stop()
                children.remove(proxy)
        proxy_port = ready[1]

        gen_args = [str(binary), "gen", "--app", workload["app"], "--seed", str(seed),
                    "--port", proxy_port, "--dilation", str(workload["dilation"]),
                    "--warmup", str(warmup), "--ref-seconds", str(seconds - warmup),
                    "--users", str(workload["users"])]
        if traced:
            gen_args += ["--spans", str(workdir / "gen.tsv")]
        gen = Child(gen_args, workdir)
        children.append(gen)
        epoch = int(gen.line(60).split()[1]) / 1e6
        ref_start = epoch + warmup
        ref_end = epoch + seconds
        sleep_until(ref_start)
        before = proc_sample(proxy.proc.pid)
        sleep_until(ref_end)
        after = proc_sample(proxy.proc.pid)
        gen_out = gen.stop(timeout=seconds + GEN_GRACE_S + 60)
        children.remove(gen)
        final = proc_sample(proxy.proc.pid)
        proxy_out = proxy.stop()
        children.remove(proxy)
        origin_out = origin.stop()
        children.remove(origin)
    finally:
        for child in children:
            child.kill()
    return {"setups": setups, "gen": gen_out, "proxy": proxy_out,
            "origin": origin_out, "proc": {"ref_start": before, "ref_end": after,
                                           "end": final},
            "ref_window": (ref_start, ref_end)}


# --- metrics -------------------------------------------------------------------------


def window_failures(w):
    return w["fail_5xx"] + w["fail_mismatch"] + w["fail_reset"] + w["fail_unanswered"]


def sub_median(window, key):
    """Median over the window's non-empty sub-windows of a latency percentile
    (key req_* or interaction_*); 0 when every sub-window is empty."""
    count = key.split("_")[0] + "_n"
    values = [sub[key] for sub in window["sub"] if sub[count] > 0]
    return statistics.median(values) if values else 0.0


def end_to_end(result):
    gen = result["gen"]
    windows = gen["windows"]
    ref = windows[1]
    total_bytes = sum(w["bytes"] for w in windows)
    cpu = result["proc"]["ref_end"]["cpu_s"] - result["proc"]["ref_start"]["cpu_s"]
    setup = statistics.median(s["setup_s"] for s in result["setups"])
    metrics = {
        "interaction_p50_ms": (sub_median(ref, "interaction_p50"), "ms"),
        "interaction_p90_ms": (sub_median(ref, "interaction_p90"), "ms"),
        "request_p50_ms": (sub_median(ref, "req_p50"), "ms"),
        "request_p99_ms": (sub_median(ref, "req_p99"), "ms"),
        "hit_p50_ms": (ref["hit_p50"], "ms"),
        "hit_ratio": (ref["hits"] / max(1, ref["sent"]), "1"),
        "data_overhead": (result["origin"]["bytes"] / max(1, total_bytes), "1"),
        "cpu_ms_per_req": (1000.0 * cpu / max(1, ref["completed"]), "ms"),
        "success_ratio": (1.0 - window_failures(ref) / max(1, ref["sent"]), "1"),
        "setup_s": (setup, "s"),
    }
    return metrics


def read_rows(path, convert):
    if not path.exists():
        return []
    with open(path) as f:
        return [convert(line.rstrip("\n").split("\t")) for line in f if line.strip()]


def pct(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    rank = q * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


# Decorator records (src/proxy.cpp): kind, id, parent, user, t0, t1, a, b, c.
KIND, ID, PARENT, USER, T0, T1, A, B, C = range(9)


def join_trace(workdir):
    """Joins the three processes' records into spans and sums self time.

    Times are µs on the shared monotonic clock. Each client request is a
    gen.request span [sent, received] whose children net.inbound,
    core.decide, net.upstream, core.learn and net.outbound follow one
    another. A core.prefetch_learn span's parent is the engine call that
    emitted its job; it starts after that call returned, so engine-call
    spans never overlap their children and their self time is their
    duration. origin.serve spans stand alone.

    Returns (requests, calls, table): per joined request (intended, inbound,
    outbound, upstream or None); the decorator records; and per span name
    [count, total µs, self µs].
    """
    calls = read_rows(workdir / "proxy.tsv",
                      lambda r: (r[0], int(r[1]), int(r[2]), r[3], *map(int, r[4:9])))
    # A user's requests reach the engine strictly in order (one connection,
    # one request at a time), so the n-th on_request of a user is the
    # generator's request n, and a miss's on_response follows it.
    per_user = {}
    for c in calls:
        if c[KIND] in "RS":
            per_user.setdefault(c[USER], []).append(c)
    by_key = {}
    for user, rows in per_user.items():
        rows.sort(key=lambda c: c[T0])
        seq = -1
        for c in rows:
            if c[KIND] == "R":
                seq += 1
                by_key[(user, seq)] = [c, None]
            elif seq >= 0:
                by_key[(user, seq)][1] = c

    table = {}

    def add(name, t0, t1, covered=0):
        row = table.setdefault(name, [0, 0, 0])
        duration = max(0, t1 - t0)
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered

    requests = []
    gen_rows = read_rows(workdir / "gen.tsv", lambda g: (g[0], int(g[1]), int(g[2]),
                                                           int(g[3]), int(g[4])))
    for user, seq, intended, sent, received in gen_rows:
        joined = by_key.get((user, seq))
        if joined is None:
            continue
        r, s = joined
        parts = [("net.inbound", sent, r[T0]), ("core.decide", r[T0], r[T1])]
        engine_exit, upstream = r[T1], None
        if s is not None and r[A] == 0:
            parts += [("net.upstream", r[T1], s[T0]), ("core.learn", s[T0], s[T1])]
            engine_exit, upstream = s[T1], s[T0] - r[T1]
        parts.append(("net.outbound", engine_exit, received))
        covered = 0
        for name, t0, t1 in parts:
            add(name, t0, t1)
            covered += max(0, min(t1, received) - max(t0, sent))
        add("gen.request", sent, received, covered)
        requests.append((intended, r[T0] - sent, received - engine_exit, upstream))
    for c in calls:
        if c[KIND] == "P":
            add("core.prefetch_learn", c[T0], c[T1])
    for t0, t1 in read_rows(workdir / "origin.tsv", lambda o: (int(o[0]), int(o[1]))):
        add("origin.serve", t0, t1)
    return requests, calls, table


def print_self_times(table, calls):
    total_self = sum(r[2] for r in table.values()) or 1
    log("self time per layer (traced pass):")
    log(f"  {'layer':<22}{'spans':>9}{'total ms':>12}{'self ms':>12}{'self %':>8}")
    for name, (count, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        log(f"  {name:<22}{count:>9}{total / 1000:>12.1f}{own / 1000:>12.1f}"
            f"{100 * own / total_self:>8.1f}")
    names = {"R": "core.decide", "S": "core.learn", "P": "core.prefetch_learn",
             "U": "pump"}
    kind_of = {c[ID]: c[KIND] for c in calls if c[B] > 0}
    parents = {}
    for c in calls:
        if c[KIND] == "P":
            parent = names.get(kind_of.get(c[PARENT]), "unknown")
            parents[parent] = parents.get(parent, 0) + 1
    if parents:
        log("  core.prefetch_learn parents: " +
            ", ".join(f"{name} {n}" for name, n in sorted(parents.items())))


def per_layer(result, workdir):
    requests, calls, table = join_trace(workdir)
    print_self_times(table, calls)
    gen = result["gen"]
    ref = gen["windows"][1]
    lo, hi = (t * 1e6 for t in result["ref_window"])
    in_ref = [r for r in requests if lo <= r[0] < hi]
    requests_seen = [c for c in calls if c[KIND] == "R"]
    client_requests = len(requests_seen)
    hits = sum(1 for c in requests_seen if c[A] == 1)
    misses = client_requests - hits
    dur = lambda kind: [c[T1] - c[T0] for c in calls if c[KIND] == kind]
    prefetch = [c for c in calls if c[KIND] == "P"]
    queue_wait = [(c[T0] - c[A] - c[C]) / 1000.0 for c in prefetch if c[C] > 0]
    jobs = sum(c[B] for c in calls if c[KIND] in "RSPU")
    dropped = sum(1 for c in calls if c[KIND] == "D")
    engine_us = sum(c[T1] - c[T0] for c in calls)
    upstream = [r[3] for r in in_ref if r[3] is not None]
    origin = result["origin"]
    proc = result["proc"]
    n = max(1, client_requests)
    out = {
        "core.decide_us.p50": pct(dur("R"), 0.5),
        "core.decide_us.p99": pct(dur("R"), 0.99),
        "core.learn_us.p50": pct(dur("S"), 0.5),
        "core.learn_us.p99": pct(dur("S"), 0.99),
        "core.prefetch_learn_us.p50": pct(dur("P"), 0.5),
        "core.prefetch_learn_us.p99": pct(dur("P"), 0.99),
        "core.engine_ms_per_req": engine_us / 1000.0 / n,
        "core.jobs_per_req": jobs / n,
        "net.inbound_us.p50": pct([r[1] for r in in_ref], 0.5),
        "net.inbound_us.p99": pct([r[1] for r in in_ref], 0.99),
        "net.outbound_us.p50": pct([r[2] for r in in_ref], 0.5),
        "net.outbound_us.p99": pct([r[2] for r in in_ref], 0.99),
        "net.upstream_us.p50": pct(upstream, 0.5),
        "net.upstream_us.p99": pct(upstream, 0.99),
        "prefetch.queue_wait_ms.p50": pct(queue_wait, 0.5),
        "prefetch.queue_wait_ms.p99": pct(queue_wait, 0.99),
        "prefetch.fetch_ms.p50": pct([c[A] / 1000.0 for c in prefetch], 0.5),
        "prefetch.drop_ratio": dropped / max(1, jobs),
        "prefetch.useful_ratio": hits / max(1, origin["requests"] - misses),
        "origin.reqs_per_req": origin["requests"] / n,
        "origin.bytes_per_req": origin["bytes"] / n,
        "origin.max_inflight": origin["max_inflight"],
        "origin.conn_per_req": origin["accepts"] / max(1, origin["requests"]),
        "proc.ctxsw_per_req": (proc["ref_end"]["ctxsw"] - proc["ref_start"]["ctxsw"])
        / max(1, ref["completed"]),
        "proc.threads": proc["end"]["threads"],
        "proc.rss_mb": proc["ref_end"]["rss_mb"],
        "setup.analysis_ms": statistics.median(s["analysis_ms"] for s in result["setups"]),
        "setup.serve_ms": statistics.median(s["serve_ms"] for s in result["setups"]),
        "gen.lag_p99_ms": ref["lag_p99"],
        "gen.cpu_share": gen["cpu_share"],
    }
    rejected = result["proxy"].get("policy_rejected", -1)
    if rejected >= 0:
        out["policy.rejected_per_req"] = rejected / n
    return out


def layer_unit(name):
    for suffix, unit in (("_us.p50", "us"), ("_us.p99", "us"), ("_ms.p50", "ms"),
                         ("_ms.p99", "ms"), ("_ms_per_req", "ms"), ("_ms", "ms"),
                         ("bytes_per_req", "B"), ("threads", "count"), ("rss_mb", "MB"),
                         ("max_inflight", "count")):
        if name.endswith(suffix):
            return unit
    return "1"


# --- main ----------------------------------------------------------------------------


def validate(result):
    """Run validity: in the reference window the generator kept to its schedule."""
    lag = result["gen"]["windows"][1]["lag_p99"]
    return lag <= LAG_BOUND_MS, lag


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in workloads:
        raise SystemExit(f"livebench: unknown workload {args.workload}")
    workload = workloads[args.workload]
    binary = build()

    workdir = build_dir() / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        passes = [False, True] if args.trace else [False]
        results = {}
        for traced in passes:
            result = run_pass(binary, workload, args.seed, args.seconds, traced, workdir,
                              args.corrupt)
            valid, lag = validate(result)
            if not valid:
                raise SystemExit(f"livebench: run invalid: in the reference window the "
                                 f"generator lag p99 was {lag:.2f} ms (bound "
                                 f"{LAG_BOUND_MS} ms); result discarded")
            results[traced] = result
        base = results[False]
        e2e = end_to_end(base)
        windows = base["gen"]["windows"]
        mismatches = sum(w["fail_mismatch"] for r in results.values()
                         for w in r["gen"]["windows"])
        attempted = sum(w["sent"] for w in windows)
        failed = sum(window_failures(w) for w in windows)
        ref = windows[1]
        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "build_type": build_type(), "commit": source_id(),
            "io_backend": os.environ.get("APPX_IO_BACKEND") or "epoll",
            "kernel": platform.release(), "valid": True,
            "request_digest": base["gen"]["digest"],
            "samples": {"requests": ref["req_n"], "hits": ref["hit_n"],
                        "interactions": ref["interaction_n"]},
            "fail_ratio": window_failures(ref) / max(1, ref["sent"]),
            "gen_lag_p99_ms": ref["lag_p99"], "gen_cpu_share": base["gen"]["cpu_share"],
            "rss_mb": base["proc"]["ref_end"]["rss_mb"],
            "unbounded": {name: e2e[name][0] for name in UNBOUNDED},
            "windows": [{k: w[k] for k in ("name", "users", "seconds", "sent", "req_p99")}
                        for w in windows],
        }
        print(json.dumps({"provenance": provenance}))
        if args.trace:
            traced_e2e = end_to_end(results[True])
            log("tracing overhead (traced - untraced):")
            for name, (value, unit) in e2e.items():
                log(f"  {name:<22}{traced_e2e[name][0] - value:>+14.4f} {unit}")
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in per_layer(results[True], workdir).items()}
            metrics.update({layer: {"value": e2e[name][0], "unit": e2e[name][1]}
                            for name, layer in UNBOUNDED.items()})
        else:
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in e2e.items() if name not in UNBOUNDED}
        if mismatches:
            log(f"{mismatches} responses differed from the origin model")
        print(json.dumps({"correct": mismatches == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if mismatches == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
