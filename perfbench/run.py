#!/usr/bin/env python3
"""Repository benchmark for shaclprov: one command, three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 40 --trace 0

(--workload all runs the three workloads in turn.)

It builds `shaclprov` and the benchmark's own helper (perfbench.ml) with
dune, generates the workload's inputs from --seed, measures for --seconds
in closed loops, checks every output against an oracle, prints a
human-readable report and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
(predictions.json says which end-to-end metric each should move).

Workloads (sizes in perfbench.ml):
  cli           fresh `shaclprov fragment` and `shaclprov validate`
                processes over a 29k-triple Kg graph and the 57-shape suite
  serve-read    `shaclprov serve --jobs 2` on a 16k-triple Bsbm graph,
                two clients sending ad-hoc fragment and neighborhood
                requests over the Section 4.1 query shapes
  serve-update  `shaclprov serve --journal --fsync always` on a 19k-triple
                Kg graph, one client alternating 1-triple and 1% updates
                (each reverted) with validate and fragment reads

BENCHMARK.json lists serve-read and serve-update only.  On a shared
2-vCPU host the medians of ten cli runs spread by 26-36% of their median
(first to third quartile), more than the largest bound a metric may
have (25%), so cli runs on request and is not gated.  The layers only
cli exercises (the schema fragment with the batch kernel, both validate
paths) are traced on serve-update as well.

Every run works in perfbench/.work/ inside the checkout and removes its
files when it ends; a traced run leaves its spans (client round trips and
the in-process replay, joined by request index) in
perfbench/.work/trace-WORKLOAD-SEED.json.

The benchmark's own tests: python3 perfbench/test_bench.py
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
EXE = os.path.join(ROOT, "_build", "default", "bin", "shaclprov.exe")
HELPER = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")

WORKLOADS = ("cli", "serve-read", "serve-update")

# Each run sets up this many times and reports the median (setup_s).  A
# cli set-up is a cheap fresh process; the serve workloads split their
# load over as many server processes.
SETUPS = {"cli": 15, "serve-read": 5, "serve-update": 5}
# serve-update snapshots the journal every this many records.
SNAPSHOT_EVERY = 8
# A shaclprov process that runs longer than this is killed and counted
# as failed.
PROCESS_TIMEOUT = 60.0

# The metrics, name -> unit, as BENCHMARK.json declares them.  Layers a
# workload does not exercise report 0 on it.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCH = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
LISTED = tuple(w["name"] for w in _BENCH["workloads"])
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

# Each latency metric covers exactly one op class per workload.
OP_CLASSES = {
    "cli": {"main_p50_ms": "fragment", "second_p50_ms": "validate"},
    "serve-read": {"main_p50_ms": "fragment", "second_p50_ms": "neighborhood"},
    "serve-update": {"main_p50_ms": "update", "second_p50_ms": "validate"},
}


class BenchError(Exception):
    """A failed build, a failed gate or a broken checkout."""


# ---------------------------------------------------------------------
# Statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples), or None with fewer than 11
    samples.  The value is the 11th largest sample, so exactly ten
    samples lie beyond it (ties aside)."""
    n = len(xs)
    if n < 11:
        return None
    s = sorted(xs)
    return s[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------
# Checkout, build and helpers

def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("dune not found (neither on PATH nor through opam)")


def build():
    for need in ("dune-project", "bin/shaclprov.ml", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a shaclprov checkout: {need} is missing in {ROOT}")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = find_dune() + ["build", "--root", ROOT, "perfbench/perfbench.exe",
                         "bin/shaclprov.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout.decode(errors="replace"))


def helper(*args, timeout=170):
    proc = subprocess.run([HELPER, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: "
                         + proc.stderr.decode(errors="replace").strip())
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]) if proc.stdout.strip() else None


def fs_type(path):
    """File system type of the mount holding [path], from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) > 2 and (path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")):
                    if len(parts[1]) >= len(best):
                        best, kind = parts[1], parts[2]
    except OSError:
        pass
    return kind


def source_digest():
    """The git commit when the checkout is a repository of its own, else a
    digest of the sources the benchmark builds (lib/, bin/, perfbench/)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        top, _, head = out.stdout.decode().strip().partition("\n")
        if out.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + head
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".py")) or name in ("dune", "dune-project"):
                    p = os.path.join(dirpath, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return "sources:" + h.hexdigest()[:16]


def digest(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------
# Processes

def run_process(cmd, out_path, timeout=PROCESS_TIMEOUT):
    """Run one CLI process to completion: (seconds, exit code, max RSS
    in MB, stdout digest)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        d = digest(f.read())
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, d


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server process")


def round_trip(port, line, timeout=PROCESS_TIMEOUT):
    """One request on its own connection, as the wire protocol has it:
    returns the reply line (bytes, without the newline)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(line.encode() + b"\n")
        chunks = []
        while True:
            b = s.recv(1 << 16)
            if not b:
                break
            if b.endswith(b"\n"):
                chunks.append(b[:-1])
                break
            chunks.append(b)
    return b"".join(chunks)


def is_ok(reply):
    return reply.startswith(b'{"status":"ok"')


class Server:
    """A `shaclprov serve` child process."""

    def __init__(self, wdir, meta, journal=None):
        self.port_file = os.path.join(wdir, "port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [EXE, "serve", "-d", os.path.join(wdir, "data.ttl"), "--port", "0",
               "--port-file", self.port_file, "--jobs", "2"]
        for p in meta["prefix_args"]:
            cmd += ["--prefix", p]
        if os.path.exists(os.path.join(wdir, "shapes.ttl")):
            cmd += ["-s", os.path.join(wdir, "shapes.ttl")]
        if journal:
            cmd += ["--journal", journal, "--fsync", "always",
                    "--snapshot-every", str(SNAPSHOT_EVERY)]
        self.log = open(os.path.join(wdir, "server.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log)
        self.port = None
        deadline = t0 + PROCESS_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode} during start")
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("server did not answer health in time")
            if self.port is None and os.path.exists(self.port_file):
                with open(self.port_file) as f:
                    text = f.read().strip()
                self.port = int(text) if text else None
            if self.port is not None:
                try:
                    if is_ok(round_trip(self.port, '{"op":"health"}', timeout=5)):
                        break
                except OSError:
                    pass
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        """SIGTERM, then wait for the drain; True on a clean exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode == 0

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self.log.closed:
            self.log.close()


def load_ops(wdir):
    ops = []
    with open(os.path.join(wdir, "ops.tsv")) as f:
        for line in f:
            cls, safe, req = line.rstrip("\n").split("\t")
            ops.append((cls, safe == "1", req))
    return ops


def split(results, classes):
    """Latency samples per op class, from the requests answered ok."""
    samples = {cls: [] for cls in classes}
    for _, cls, ms, ok, _ in results:
        if ok:
            samples[cls].append(ms)
    return samples


def run_cli(wdir, meta, seconds, servers):
    setups = [helper("setup-cli", wdir)["setup_s"] for _ in range(SETUPS["cli"])]
    data = os.path.join(wdir, "data.ttl")
    shapes = os.path.join(wdir, "shapes.ttl")
    commands = [("fragment", [EXE, "fragment", "-d", data, "-s", shapes], (0,)),
                ("validate", [EXE, "validate", "-d", data, "-s", shapes], (0, 1))]
    digests = {"fragment": set(), "validate": set()}
    rss, results = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    while time.perf_counter() < deadline or i % 2:
        cls, cmd, ok_codes = commands[i % 2]
        start = time.time()
        t, code, maxrss, d = run_process(cmd, os.path.join(wdir, f"out.{cls}"))
        rss.append(maxrss)
        results.append((i, cls, t * 1e3, code in ok_codes, start))
        digests[cls].add(d)
        i += 1
    elapsed = time.perf_counter() - t_start
    # gate: every output identical, and equal to the oracle
    helper("oracle-cli", wdir)
    for cls, oracle in (("fragment", "oracle.fragment.ttl"), ("validate", "oracle.report.txt")):
        with open(os.path.join(wdir, oracle), "rb") as f:
            want = digest(f.read())
        if digests[cls] != {want}:
            raise BenchError(f"cli {cls} output differs from the oracle "
                             f"({len(digests[cls])} distinct digest(s))")
    return dict(samples=split(results, digests), results=results, setups=setups,
                peak_rss_mb=max(rss), elapsed=elapsed, fingerprint={})


def serve_segments(wdir, meta, seconds, servers, journaled, segment):
    """The serve workloads' load, split into segments, each on a
    freshly started server: a server process's speed varies from one
    start to the next, and spreading the load over several starts keeps
    that out of the medians.  [segment(srv, state, deadline)] runs the
    load of one segment, continuing the op stream at state["next"]."""
    count = SETUPS[meta["workload"]]
    setups, peaks, stats, results = [], [], [], []
    state = {"next": 0}
    elapsed = 0.0
    for k in range(count):
        journal = None
        if journaled:
            journal = os.path.join(wdir, f"journal{k}")
            shutil.rmtree(journal, ignore_errors=True)
            os.makedirs(journal)
        srv = Server(wdir, meta, journal)
        servers.append(srv)
        setups.append(srv.setup_s)
        t0 = time.perf_counter()
        gc.disable()
        try:
            results += segment(srv, state, t0 + seconds / count)
        finally:
            gc.enable()
        elapsed += time.perf_counter() - t0
        stats.append(json.loads(round_trip(srv.port, '{"op":"stats"}')))
        peaks.append(vm_hwm_mb(srv.proc.pid))
        if not srv.stop():
            raise BenchError("server did not drain cleanly")
        if journaled:
            # acked => persisted: the journal recovers the reverted live
            # graph and every acked update
            helper("check-journal", wdir, journal, stats[-1]["journal"]["seq"])
    totals = {k: sum(st.get(k, 0) for st in stats) for k in ("shed", "failed", "crashes")}
    return dict(results=results, setups=setups, peak_rss_mb=max(peaks), elapsed=elapsed,
                stats=totals, journal_stats=[st.get("journal") for st in stats])


def run_serve_read(wdir, meta, seconds, servers):
    ops = load_ops(wdir)
    first = {}     # request line -> first reply
    digests = {}   # request line -> set of reply digests
    lock = threading.Lock()

    def segment(srv, state, deadline):
        results = []

        def client():
            while True:
                with lock:
                    i = state["next"]
                    if time.perf_counter() >= deadline:
                        return
                    if i >= len(ops):
                        raise BenchError("serve-read ran out of generated requests")
                    state["next"] = i + 1
                cls, _, req = ops[i]
                start = time.time()
                t0 = time.perf_counter()
                try:
                    reply = round_trip(srv.port, req)
                except OSError:
                    reply = b""
                ms = (time.perf_counter() - t0) * 1e3
                ok = is_ok(reply)
                d = digest(reply)
                with lock:
                    results.append((i, cls, ms, ok, start))
                    if ok:
                        first.setdefault(req, reply)
                        digests.setdefault(req, set()).add(d)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    r = serve_segments(wdir, meta, seconds, servers, False, segment)
    # gate: one reply per distinct request, equal to the oracle
    unstable = [q for q, ds in digests.items() if len(ds) != 1]
    if unstable:
        raise BenchError(f"{len(unstable)} request(s) got differing replies")
    pairs = os.path.join(wdir, "pairs.tsv")
    with open(pairs, "wb") as f:
        for req, reply in first.items():
            f.write(req.encode() + b"\t" + reply + b"\n")
    helper("check-read", wdir, pairs)
    r["results"].sort()
    r.update(samples=split(r["results"], ("fragment", "neighborhood")), ops=ops,
             fingerprint={"distinct_requests": len(first)})
    return r


def run_serve_update(wdir, meta, seconds, servers):
    ops = load_ops(wdir)
    served = []

    def reads(srv):
        return [round_trip(srv.port, '{"op":"validate"}'),
                round_trip(srv.port, '{"op":"fragment","shapes":[]}')]

    def segment(srv, state, deadline):
        # the reads double as the segment's warm-up
        before = reads(srv)
        if not all(is_ok(x) for x in before):
            raise BenchError("validate or fragment failed before the first update")
        served.append(before)
        results = []
        while True:
            i = state["next"]
            if i >= len(ops):
                raise BenchError("serve-update ran out of generated requests")
            state["next"] = i + 1
            cls, safe, req = ops[i]
            start = time.time()
            t0 = time.perf_counter()
            try:
                reply = round_trip(srv.port, req)
            except OSError:
                reply = b""
            results.append((i, cls, (time.perf_counter() - t0) * 1e3, is_ok(reply), start))
            if safe and time.perf_counter() >= deadline:
                break
        # gate: every delta was reverted, so the maintained report and
        # fragment are back to what was served before the first update
        if reads(srv) != before:
            raise BenchError("maintained report or fragment differs after reverting every update")
        return results

    r = serve_segments(wdir, meta, seconds, servers, True, segment)
    if any(x != served[0] for x in served):
        raise BenchError("servers started on the same data served different reports or fragments")
    acked = [j["seq"] for j in r["journal_stats"]]
    r.update(samples=split(r["results"], ("update", "bulk_update", "validate", "fragment")),
             ops=ops,
             fingerprint={"journal_fs": fs_type(wdir), "fsync": "always",
                          "snapshot_every": SNAPSHOT_EVERY,
                          "snapshots": sum(a // SNAPSHOT_EVERY for a in acked),
                          "acked_updates": sum(acked),
                          "journal_fsyncs": sum(j["fsyncs"] for j in r["journal_stats"])})
    return r


RUNNERS = {"cli": run_cli, "serve-read": run_serve_read, "serve-update": run_serve_update}


# ---------------------------------------------------------------------
# Reporting

def counts(r):
    """(attempted, failed): ops sent in the timed loop, and those not
    answered ok (overloaded, failed, error, transport error or a CLI
    exit code other than the command's ok codes)."""
    return len(r["results"]), sum(1 for x in r["results"] if not x[3])


def end_to_end(workload, r):
    roles = OP_CLASSES[workload]
    attempted, failed = counts(r)
    return {
        "setup_s": median(r["setups"]),
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_rate": (attempted - failed) / attempted,
        "main_p50_ms": median(r["samples"][roles["main_p50_ms"]]),
        "second_p50_ms": median(r["samples"][roles["second_p50_ms"]]),
    }


def issue_metrics(workload, r):
    """The same run under per-op names: (name, value, unit, note)."""
    s = r["samples"]
    attempted, failed = counts(r)
    rows = [("setup_s", median(r["setups"]), "s", f"median of {len(r['setups'])}"),
            ("peak_rss_mb", r["peak_rss_mb"], "MB", "VmHWM"),
            ("error_rate", failed / attempted, "fraction", f"{failed}/{attempted}")]

    def p50(name, cls, scale=1.0, unit="ms"):
        rows.append((name, median(s[cls]) * scale, unit, f"n={len(s[cls])}"))

    def tl(name, cls):
        t = tail(s[cls])
        if t is None:
            rows.append((name, float("nan"), "ms", f"n={len(s[cls])} < 11, no tail"))
        else:
            rows.append((name, t[0], "ms", f"p{t[1]:.1f} of n={t[2]}"))

    if workload == "cli":
        p50("fragment_s", "fragment", 1e-3, "s")
        p50("validate_s", "validate", 1e-3, "s")
    elif workload == "serve-read":
        done = attempted - failed
        rows.append(("read_rps", done / r["elapsed"], "req/s", f"{done} in {r['elapsed']:.1f}s"))
        p50("fragment_p50_ms", "fragment")
        tl("fragment_tail_ms", "fragment")
        p50("neighborhood_p50_ms", "neighborhood")
    else:
        p50("fragment_p50_ms", "fragment")
        p50("update_p50_ms", "update")
        tl("update_tail_ms", "update")
        p50("bulk_update_p50_ms", "bulk_update")
        p50("validate_p50_ms", "validate")
    return rows


def traced(workload, wdir, r, seconds):
    """Replay the run's requests in-process with one span per layer call,
    fold in what only the live server knows, and write the client spans
    and the replay's spans (joined by request index) to the trace file."""
    sent = os.path.join(wdir, "sent.tsv")
    with open(sent, "w") as f:
        for i, cls, _, _, _ in r["results"] if "ops" in r else []:
            f.write(f"{cls}\t{r['ops'][i][2]}\n")
    jdir = os.path.join(wdir, "journal-replay")
    shutil.rmtree(jdir, ignore_errors=True)
    os.makedirs(jdir)
    out = helper("replay", workload, wdir, sent, jdir, SNAPSHOT_EVERY,
                 max(5, min(seconds, 30)), timeout=175)
    m = dict(out["metrics"])
    # a round trip minus the in-process replay of the same request
    rt = [ms for _, _, ms, _, _ in r["results"]]
    m["server.overhead_ms"] = median([rt[i] - ms for i, ms in out["roots"] if i < len(rt)])
    for k in ("shed", "failed", "crashes"):
        m["server." + k] = float(r.get("stats", {}).get(k, 0))
    journals = [j for j in r.get("journal_stats", []) if j]
    if sum(j["seq"] for j in journals):
        # the live servers' own count
        m["journal.fsyncs_per_update"] = (sum(j["fsyncs"] for j in journals)
                                          / sum(j["seq"] for j in journals))
    with open(os.path.join(wdir, "trace.json")) as f:
        replay_spans = json.load(f)
    client_spans = [{"name": "client." + cls, "req": i, "start": start, "stop": start + ms / 1e3,
                     "ok": ok} for i, cls, ms, ok, start in r["results"]]
    with open(os.path.join(WORK, f"trace-{os.path.basename(wdir)}.json"), "w") as f:
        json.dump({"client": client_spans, "replay": replay_spans}, f)
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise BenchError(f"replay did not report {sorted(missing)}")
    return {k: m[k] for k in PER_LAYER}, out["layers"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args) for w in workloads)


def run_workload(workload, args):
    """One workload, end to end; returns the exit code."""
    servers = []
    try:
        build()
        os.makedirs(WORK, exist_ok=True)
        wdir = os.path.join(WORK, f"{workload}-{args.seed}")
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        helper("gen", workload, args.seed, wdir)
        with open(os.path.join(wdir, "meta.json")) as f:
            meta = json.load(f)
        r = RUNNERS[workload](wdir, meta, args.seconds, servers)
        fingerprint = dict(meta, seconds=args.seconds, trace=args.trace, nproc=os.cpu_count(),
                           commit=source_digest(), work_fs=fs_type(wdir),
                           op_classes=OP_CLASSES[workload],
                           samples={k: len(v) for k, v in r["samples"].items()},
                           **r["fingerprint"])
        for name, value, unit, note in issue_metrics(workload, r):
            print(f"{workload:13} {name:22} {value:12.4f} {unit:9} {note}")
            if name.endswith("_tail_ms"):
                fingerprint.setdefault("tails", {})[name] = note
        if args.trace:
            metrics, layers = traced(workload, wdir, r, args.seconds)
            units = PER_LAYER
            print("layer self time (ms, all calls):")
            for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
                print(f"  {name:26} {v['self_ms']:12.2f} in {v['calls']} call(s)")
            print(f"tracing overhead: {metrics['trace.overhead_pct']:.2f}% of replayed op time; "
                  f"traced run main_p50_ms {end_to_end(workload, r)['main_p50_ms']:.4f} "
                  f"(compare with the untraced runs)")
        else:
            metrics = end_to_end(workload, r)
            units = END_TO_END
        print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
        shutil.rmtree(wdir, ignore_errors=True)
        attempted, failed = counts(r)
        result = {"correct": True, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
        print(json.dumps(result), flush=True)
        return 0
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr, flush=True)
        return 1
    finally:
        for srv in servers:
            srv.kill()


if __name__ == "__main__":
    sys.exit(main())
