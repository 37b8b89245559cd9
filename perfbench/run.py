#!/usr/bin/env python3
"""Command-level benchmark of `tmrtool`.

Times the `tmrtool inject` commands a user runs to reproduce the paper's
Table 3, from exec to exit, and checks their answers.  Run it from the root
of a source checkout:

    python3 perfbench/run.py --workload paper_p2_inject --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

It builds `bin/tmrtool.exe` and the benchmark's own replay tool with dune,
then measures one workload.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones (tracing off); with `--trace 1` they are the
per-layer ones from an in-process traced replay of every command
(perfbench/replay/replay.ml).  See perfbench/README.md for the workloads,
the metrics and the checks.
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
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_BASE = os.path.join(ROOT, ".perfbench-work")
WORK = WORK_BASE  # this run's own directory under WORK_BASE, set by main
TMRTOOL = os.path.join(ROOT, "_build", "default", "bin", "tmrtool.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "perfbench", "replay", "replay.exe")

# A run must end within 180 s; past this many seconds of measuring (build
# excluded) no new operation starts, and running ones are cut at it.
DEADLINE_S = 165.0
DESIGNS = ["standard", "tmr_p1", "tmr_p2", "tmr_p3", "tmr_p3_nv"]

# Wrong-answer counts pinned at the commit that introduced this benchmark,
# keyed by the command's tmrtool seed: design -> (injected, wrong).  A run
# whose rate is incompatible with the pin under Tmr_obs.Stats.compatible
# (the run store's regression test) fails.  Seeds without a pin skip this
# one check.
PINS = {
    "paper_p2_inject": {1: {"tmr_p2": (1000, 8)}},
    "reduced_exhaustive": {
        1: {
            "standard": (8091, 4179),
            "tmr_p1": (36638, 732),
            "tmr_p2": (31728, 1052),
            "tmr_p3": (28795, 1240),
            "tmr_p3_nv": (24767, 756),
        }
    },
    "reduced_detect_forensics": {1: {"tmr_p2": (20000, 443)}},
}
# Detection split of the detecting-voter pin: silent-correct,
# detected-corrected, detected-wrong, silent-wrong (SDC).  The SDC rate is
# tested like the wrong rate.
PIN_SPLIT = {"reduced_detect_forensics": {1: (8584, 10973, 371, 72)}}

END_TO_END = [
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# --- workloads -----------------------------------------------------------


class Command:
    """One `tmrtool inject` invocation of a workload."""

    def __init__(self, design, seed, scale, flags, jobs, procs, exhaustive=False,
                 forensic=False, voter="majority", faults=1500):
        self.design = design
        self.seed = seed
        self.key = "%s seed %d" % (design, seed)
        self.scale = scale
        self.flags = flags
        self.jobs = jobs
        self.procs = procs
        self.exhaustive = exhaustive
        self.forensic = forensic
        self.voter = voter
        self.faults = faults

    def argv(self):
        return ([TMRTOOL, "inject", "--scale", self.scale, "--design", self.design,
                 "--seed", str(self.seed)] + self.flags + ["--json"])

    def replay_argv(self, tmp, probes):
        a = [REPLAY, "inject", "--scale", self.scale, "--design", self.design,
             "--voter", self.voter, "--seed", str(self.seed), "--faults", str(self.faults),
             "--shards", "16", "--procs", str(self.procs), "--jobs", str(self.jobs),
             "--dir", tmp]
        if self.exhaustive:
            a.append("--exhaustive")
        if not probes:
            a.append("--no-probes")
        if self.forensic:
            a += ["--forensics", os.path.join(tmp, "forensics.jsonl"),
                  "--events", os.path.join(tmp, "events.jsonl")]
        return a


def workload_commands(name, seed, hw):
    """(scale, commands) of a workload at a workload seed."""
    jobs, procs = hw["jobs"], hw["procs"]
    if name == "paper_p2_inject":
        return "paper", [Command("tmr_p2", seed, "paper", ["--faults", "1000"], jobs,
                                 procs, faults=1000)]
    if name == "reduced_exhaustive":
        # one domain per forked process, so procs x domains <= nproc
        return "reduced", [
            Command(d, seed, "reduced",
                    ["--exhaustive", "--shards", "16", "--procs", str(procs),
                     "--merged-out", "merged.jsonl"],
                    1, procs, exhaustive=True)
            for d in DESIGNS
        ]
    if name == "reduced_detect_forensics":
        # The campaign's cost differs by up to half between placements
        # (tmrtool seeds), so workload seed n runs four of them: 4n-3 .. 4n.
        return "reduced", [
            Command("tmr_p2", 4 * seed - k, "reduced",
                    ["--voter", "detecting", "--faults", "20000",
                     "--forensics", "forensics.jsonl", "--events", "events.jsonl"],
                    jobs, procs, forensic=True, voter="detecting", faults=20000)
            for k in (3, 2, 1, 0)
        ]
    raise KeyError(name)


WORKLOADS = ["paper_p2_inject", "reduced_exhaustive", "reduced_detect_forensics"]
# Passes per run at least.  A paper-scale pass (cold + warm) outlasts
# --seconds on its own; a second one halves the weight of a command that
# ran while the host was slow.
MIN_PASSES = {"paper_p2_inject": 2}


# --- processes -----------------------------------------------------------


class Proc:
    def __init__(self, code, timed_out, wall, cpu, rss_mb, stdout, stderr):
        self.code = code
        self.timed_out = timed_out
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self):
        return DEADLINE_S - (time.perf_counter() - self.start)


def run_proc(argv, cwd, env, timeout):
    """Run one process to completion: wall from exec to exit, and the
    user+sys CPU and peak RSS of it and every child it reaped (wait4)."""
    if timeout <= 0:
        return Proc(None, True, 0.0, 0.0, 0.0, "", "not started: time budget spent")
    cap = tempfile.mkdtemp(dir=WORK, prefix="cap-")
    try:
        with open(os.path.join(cap, "out"), "wb") as fo, \
                open(os.path.join(cap, "err"), "wb") as fe:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe,
                                 stdin=subprocess.DEVNULL, start_new_session=True)
            fired = []

            def kill():
                fired.append(True)
                try:
                    os.killpg(p.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            # forked shard workers are reaped by tmrtool; anything left in
            # the group is stopped here
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        with open(os.path.join(cap, "out"), "rb") as f:
            out = f.read().decode("utf-8", "replace")
        with open(os.path.join(cap, "err"), "rb") as f:
            err = f.read().decode("utf-8", "replace")
    finally:
        shutil.rmtree(cap, ignore_errors=True)
    return Proc(p.returncode, bool(fired), wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0, out, err)


def command_env(home, jobs):
    env = dict(os.environ)
    env.update(HOME=home, XDG_CACHE_HOME=home, TMPDIR=home, TMR_JOBS=str(jobs))
    return env


def fresh_dir():
    return tempfile.mkdtemp(dir=WORK, prefix="cold-")


def sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


# --- checks --------------------------------------------------------------


class Ledger:
    """Failure accounting: every operation is attempted once and either
    passes or fails with reasons; nothing aborts the run."""

    def __init__(self, verbose=True):
        self.verbose = verbose
        self.attempted = 0
        self.failures = {}  # operation label -> problems
        self.rate_tests = []  # (op label, what, n1, k1, n2, k2)

    def record(self, label, problems):
        self.attempted += 1
        for p in problems:
            self.fail(label, p)
        return not problems

    def fail(self, label, problem):
        """A problem of an operation, also one found after it was recorded."""
        self.failures.setdefault(label, []).append(problem)
        if self.verbose:
            print("FAILED %s: %s" % (label, problem))


def count_lines(path, wrong_key):
    """(lines, wrong answers) of a per-fault JSONL file."""
    n = k = 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            n += 1
            if rec["outcome"] == wrong_key:
                k += 1
    return n, k


def event_counts(path):
    """(events published, events written) of an event stream: every
    published event takes a sequence number, so the stream's highest seq
    + 1 is the published count and the missing numbers were dropped."""
    last, written = -1, 0
    with open(path) as f:
        for line in f:
            if line.strip():
                written += 1
                last = max(last, int(json.loads(line)["seq"]))
    return last + 1, written


def check_summary(s, exhaustive_bits=None, has_detection=False):
    """Consistency rules one `inject --json` summary must satisfy."""
    probs = []
    try:
        inj, wrong, req = int(s["injected"]), int(s["wrong"]), int(s["requested"])
        d = s["detection"]
        sc, dc = int(d["silent_correct"]), int(d["detected_corrected"])
        dw, sw = int(d["detected_wrong"]), int(d["silent_wrong"])
        pp = s["plan_paths"]
        by_effect = sum(int(v) for v in s["wrong_by_effect"].values())
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        return ["summary lacks field %s" % e]
    if inj != req:
        probs.append("injected %d of %d requested" % (inj, req))
    not_wrong = sc + dc
    if wrong + not_wrong != inj:
        probs.append("wrong %d + not-wrong %d != injected %d" % (wrong, not_wrong, inj))
    if sc + dc + dw + sw != inj:
        probs.append("detection split %d+%d+%d+%d != injected %d" % (sc, dc, dw, sw, inj))
    if dw + sw != wrong:
        probs.append("detected-wrong %d + silent-wrong %d != wrong %d" % (dw, sw, wrong))
    if not has_detection and (dc or dw):
        probs.append("detections reported on a design without detection voters")
    if by_effect != wrong:
        probs.append("wrong by effect sums to %d, not %d" % (by_effect, wrong))
    paths = sum(int(pp[k]) for k in ("silent", "patched", "rerouted", "rebuilt"))
    if paths != inj:
        probs.append("plan paths sum to %d, not injected %d" % (paths, inj))
    if exhaustive_bits is not None and inj != exhaustive_bits:
        probs.append("exhaustive run injected %d, design has %d DUT bits"
                     % (inj, exhaustive_bits))
    return probs


def check_command(ledger, label, cmd, proc, pin, split_pin, cwd, dut_bits):
    """Check one command run; returns the parsed summary (or None)."""
    if proc.timed_out:
        ledger.record(label, ["timed out (%s)" % proc.stderr.strip()[-200:]])
        return None
    if proc.code != 0:
        ledger.record(label, ["exit %s: %s" % (proc.code, proc.stderr.strip()[-300:])])
        return None
    try:
        s = last_json(proc.stdout)
    except ValueError as e:
        ledger.record(label, ["--json output does not parse (%s)" % e])
        return None
    probs = check_summary(s, dut_bits.get(cmd.key) if cmd.exhaustive else None,
                          has_detection=cmd.voter == "detecting")
    per_fault = [("merged verdicts", "merged.jsonl")] if cmd.exhaustive else \
        [("forensic records", "forensics.jsonl")] if cmd.forensic else []
    for what, name in per_fault if not probs else []:
        try:
            n, k = count_lines(os.path.join(cwd, name), "wrong_answer")
        except (OSError, ValueError, KeyError) as e:
            probs.append("%s unreadable (%s)" % (what, e))
            continue
        if (n, k) != (s["injected"], s["wrong"]):
            probs.append("%s hold %d faults, %d wrong; the summary says %d, %d"
                         % (what, n, k, s["injected"], s["wrong"]))
    ok = ledger.record(label, probs)
    if ok and pin is not None:
        ledger.rate_tests.append((label, "wrong rate", s["injected"], s["wrong"],
                                  pin[0], pin[1]))
    if ok and split_pin is not None:
        ledger.rate_tests.append((label, "SDC rate", s["injected"],
                                  s["detection"]["silent_wrong"], sum(split_pin),
                                  split_pin[3]))
    return s if ok else None


def run_rate_tests(ledger, clock):
    """Two-proportion compatibility against the pins, via Tmr_obs.Stats."""
    if not ledger.rate_tests:
        return
    args = [REPLAY, "compat"]
    for t in ledger.rate_tests:
        args += [str(x) for x in t[2:]]
    p = run_proc(args, ROOT, dict(os.environ), min(30.0, clock.left()))
    verdicts = p.stdout.split()
    if p.code != 0 or len(verdicts) != len(ledger.rate_tests):
        ledger.record("rate tests", ["compat helper failed: %s" % p.stderr.strip()[-200:]])
        return
    for t, v in zip(ledger.rate_tests, verdicts):
        label, what, n1, k1, n2, k2 = t
        line = "%s: %s %d/%d vs pinned %d/%d: %s" % (
            label, what, k1, n1, k2, n2, "compatible" if v == "true" else "INCOMPATIBLE")
        print(line)
        if v != "true":
            ledger.fail(label, "%s %d/%d incompatible with pinned %d/%d"
                        % (what, k1, n1, k2, n2))


VERDICT_FIELDS = ("injected", "wrong", "wrong_by_effect", "detection")


def verdict_view(s):
    return {k: s.get(k) for k in VERDICT_FIELDS}


# --- measurement ---------------------------------------------------------


def dut_bits_of(ledger, cmds, clock):
    """DUT bits per command from `tmrtool implement` (exhaustive workloads)."""
    bits = {}
    for cmd in cmds:
        if not cmd.exhaustive:
            continue
        d = fresh_dir()
        try:
            p = run_proc([TMRTOOL, "implement", "--scale", cmd.scale, "--design",
                          cmd.design, "--seed", str(cmd.seed)], d, command_env(d, 1),
                         min(60.0, clock.left()))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        n = [int(l.split()[-2]) for l in p.stdout.splitlines()
             if l.strip().startswith("DUT ") and l.strip().endswith("bits")]
        if ledger.record("implement %s" % cmd.key,
                         [] if p.code == 0 and n else ["exit %s, %d DUT bit lines"
                                                       % (p.code, len(n))]):
            bits[cmd.key] = sum(n)
    return bits


class Run:
    """One command run: its process figures and, when it passed its
    checks, the summary and verdict digest."""

    def __init__(self, label, cmd, phase, proc, summary, digest, cwd):
        self.label = label
        self.cmd = cmd
        self.phase = phase
        self.proc = proc
        self.summary = summary
        self.digest = digest
        self.cwd = cwd


def one_pass(ledger, wl, cmds, dut_bits, clock, tag, warm=True):
    """Every command cold (a fresh directory as cwd, HOME, XDG_CACHE_HOME
    and TMPDIR), then, with [warm], once more at once in that directory.
    The directories are removed unless [warm] is off (the caller then
    reads the command's files and removes them)."""
    runs = []
    for cmd in cmds:
        pin = PINS.get(wl, {}).get(cmd.seed, {}).get(cmd.design)
        split = PIN_SPLIT.get(wl, {}).get(cmd.seed)
        d = fresh_dir()
        env = command_env(d, cmd.jobs)
        for phase in ("cold", "warm") if warm else ("cold",):
            label = "%s %s %s #%s" % (wl, cmd.key, phase, tag)
            p = run_proc(cmd.argv(), d, env, min(150.0, clock.left()))
            s = check_command(ledger, label, cmd, p, pin, split, d, dut_bits)
            digest = None
            if s is not None and cmd.exhaustive:
                digest = sha(os.path.join(d, "merged.jsonl"))
            elif s is not None and cmd.forensic:
                digest = sha(os.path.join(d, "forensics.jsonl"))
            runs.append(Run(label, cmd, phase, p, s, digest, d))
        if warm:
            shutil.rmtree(d, ignore_errors=True)
    return runs


def measure_setup(ledger, scale, seed, reps, clock):
    """Context.create at the workload's scale, once per fresh process."""
    vals = []
    for i in range(reps):
        d = fresh_dir()
        try:
            p = run_proc([REPLAY, "setup", "--scale", scale, "--seed", str(seed)], d,
                         command_env(d, 1), min(60.0, clock.left()))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        try:
            v = float(p.stdout.strip()) if p.code == 0 else None
        except ValueError:
            v = None
        if ledger.record("setup #%d" % i, [] if v is not None else ["exit %s" % p.code]):
            vals.append(v)
    return vals


def check_determinism(ledger, runs):
    """Every run of one command must reach the same verdicts: the per-fault
    file digest where the command writes one, else the verdict counts."""
    by_design = {}
    for r in runs:
        if r.summary is not None:
            key = (r.digest, json.dumps(verdict_view(r.summary), sort_keys=True))
            by_design.setdefault(r.cmd.key, []).append((key, r.label))
    for design, keys in sorted(by_design.items()):
        first = keys[0][0]
        same = sum(1 for k, _ in keys if k == first)
        digest = first[0] or hashlib.sha256(first[1].encode()).hexdigest() + " (counts)"
        print("verdicts %s: %d/%d runs identical, digest %s"
              % (design, same, len(keys), digest[:16] + digest[64:]))
        for k, label in keys:
            if k != first:
                ledger.fail(label, "verdicts differ from the first run of the command")


def end_to_end(args, wl, cmds, scale, ledger, clock):
    dut_bits = dut_bits_of(ledger, cmds, clock)
    setups = measure_setup(ledger, scale, args.seed, 3 if scale == "paper" else 7, clock)
    passes = []
    t0 = time.perf_counter()
    while not passes or clock.left() > 0 and (
            len(passes) < MIN_PASSES.get(wl, 1) or time.perf_counter() - t0 < args.seconds):
        passes.append(one_pass(ledger, wl, cmds, dut_bits, clock, len(passes)))
    runs = [r for p in passes for r in p]
    check_determinism(ledger, runs)
    report_paper_error(wl, runs, ledger, clock)

    def per_command(phase, field):
        """Sum over the workload's commands of each one's median over passes."""
        by = {}
        for r in runs:
            if r.phase == phase:
                by.setdefault(r.cmd.key, []).append(getattr(r.proc, field))
        return sum(statistics.median(v) for v in by.values())

    for phase in ("cold", "warm"):
        print("%s_s per pass: %s" % (phase, " ".join(
            "%.3f" % sum(r.proc.wall for r in p if r.phase == phase) for p in passes)))
    print("setup_s per rep: %s" % " ".join("%.4f" % v for v in setups))
    return {
        "cold_s": per_command("cold", "wall"),
        "warm_s": per_command("warm", "wall"),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": per_command("cold", "cpu"),
        "peak_rss_mb": statistics.median(max(r.proc.rss_mb for r in p) for p in passes),
    }


def report_paper_error(wl, runs, ledger, clock):
    """Error of paper-scale tmr_p2's wrong % against the paper's Table 3."""
    if wl != "paper_p2_inject":
        print("%s: the reduced-scale model is unvalidated against the paper; "
              "no error figure is given" % wl)
        return
    s = next((r.summary for r in runs if r.summary is not None), None)
    if s is None:
        return
    p = run_proc([REPLAY, "paper-table3"], WORK, dict(os.environ), min(30.0, clock.left()))
    try:
        ref = json.loads(p.stdout)["tmr_p2"]["percent"]
    except (ValueError, KeyError):
        ledger.record("paper-table3", ["cannot read the paper's Table 3"])
        return
    pct = 100.0 * s["wrong"] / s["injected"]
    print("paper_p2_inject: tmr_p2 wrong %.2f%% (%d/%d) vs the paper's %.2f%%: "
          "error %+.2f points (%+.1f%% relative)"
          % (pct, s["wrong"], s["injected"], ref, pct - ref, 100.0 * (pct - ref) / ref))


# --- traced run ----------------------------------------------------------

# Layer spans summed per name over every replayed command.
TIME_LAYERS = [
    "arch.device_build", "arch.bitdb_build", "setup.golden_stimulus",
    "core.design_build", "netlist.check", "techmap.run",
    "pnr.pack", "pnr.place", "pnr.route", "pnr.bitgen", "pnr.timing",
    "fabric.extract", "fabric.sim_build", "inject.faultlist",
    "inject.shard_campaign", "inject.shard_merge", "experiments.run_sharded",
    "obs.sinks",
]
COUNTS = ["techmap.luts", "pnr.route_iters", "pnr.route_pips", "pnr.dut_bits",
          "fabric.sim_nodes", "inject.faults", "inject.skipped", "inject.patched",
          "inject.rerouted", "inject.rebuilt", "inject.batched", "inject.converged"]
PNR = ["pnr.pack", "pnr.place", "pnr.route", "pnr.bitgen", "pnr.timing"]
# the command's campaign layer: Campaign.run, or Service.run_sharded when
# the command shards
CAMPAIGN = ["inject.campaign", "experiments.run_sharded"]


def span_times(doc):
    """Seconds per span name over all spans, and per name over the
    command's own layers only (children of the command span, probes out)."""
    spans = doc["spans"]
    root = next(s["id"] for s in spans if s["name"] == "command")
    every, own = {}, {}
    for s in spans:
        dt = (s["t1_ns"] - s["t0_ns"]) / 1e9
        every[s["name"]] = every.get(s["name"], 0.0) + dt
        if s["parent"] == root and s["name"] != "probe":
            own[s["name"]] = own.get(s["name"], 0.0) + dt
    return every, own


def compare_replay(cmd, doc, run, rdir, dut_bits):
    """The traced replay must reach the command's verdicts, and every
    engine path it took must agree fault for fault."""
    probs = []
    if verdict_view(doc["summary"]) != verdict_view(run.summary):
        probs.append("replay verdict counts differ from the command's")
    probs += ["replay: " + p for p in
              check_summary(doc["summary"], dut_bits.get(cmd.key) if cmd.exhaustive
                            else None, has_detection=cmd.voter == "detecting")]
    digests = {f: sha(os.path.join(rdir, f)) for f in sorted(os.listdir(rdir))
               if f.startswith("verdicts")}
    if len(set(digests.values())) != 1:
        probs.append("engine paths disagree: %s" % ", ".join(
            "%s=%s" % (f, h[:12]) for f, h in digests.items()))
    else:
        print("replay %s: verdict digest %s, same on %d engine path(s)"
              % (cmd.key, next(iter(digests.values()))[:16], len(digests)))
    if cmd.exhaustive and run.digest not in digests.values():
        probs.append("replay verdicts differ from the command's merged verdicts")
    if cmd.forensic and run.digest != sha(os.path.join(rdir, "forensics.jsonl")):
        probs.append("replay forensic records differ from the command's")
    return probs


def traced(args, wl, cmds, ledger, clock):
    """Per-layer metrics: each command once (tracing off, for its wall and
    its sinks), then its in-process traced replay."""
    dut_bits = dut_bits_of(ledger, cmds, clock)
    runs = one_pass(ledger, wl, cmds, dut_bits, clock, 0, warm=False)
    every, own, counts = {}, {}, {}
    probed = set()  # probes run once per design
    unaccounted = records = sink_bytes = published = dropped = 0.0
    print("%-20s %10s %10s %14s" % ("command", "wall_s", "layers_s", "unaccounted_s"))
    try:
        for run in runs:
            cmd = run.cmd
            label = "replay %s" % cmd.key
            if run.summary is None:
                ledger.record(label, ["not replayed: the command failed"])
                continue
            rdir = tempfile.mkdtemp(dir=WORK, prefix="replay-")
            try:
                p = run_proc(cmd.replay_argv(rdir, cmd.design not in probed), rdir,
                             command_env(rdir, cmd.jobs), min(170.0, clock.left()))
                try:
                    if p.code != 0:
                        raise ValueError("exit %s: %s" % (p.code, p.stderr.strip()[-300:]))
                    doc = last_json(p.stdout)
                    probs = compare_replay(cmd, doc, run, rdir, dut_bits)
                    e, o = span_times(doc)
                    probed.add(cmd.design)
                except (ValueError, KeyError, OSError, StopIteration) as ex:
                    ledger.record(label, [str(ex) or repr(ex)])
                    continue
                ledger.record(label, probs)
            finally:
                shutil.rmtree(rdir, ignore_errors=True)
            for k, v in e.items():
                every[k] = every.get(k, 0.0) + v
            for k, v in o.items():
                own[k] = own.get(k, 0.0) + v
            for k, v in doc["counts"].items():
                counts[k] = counts.get(k, 0.0) + v
            layers = sum(o.values())
            unaccounted += run.proc.wall - layers
            print("%-20s %10.3f %10.3f %14.3f" % (cmd.key, run.proc.wall, layers,
                                                 run.proc.wall - layers))
            if cmd.forensic:
                records += count_lines(os.path.join(run.cwd, "forensics.jsonl"), "wrong_answer")[0]
                sink_bytes += sum(os.path.getsize(os.path.join(run.cwd, f))
                                  for f in ("forensics.jsonl", "events.jsonl"))
                pub, written = event_counts(os.path.join(run.cwd, "events.jsonl"))
                published += pub
                dropped += pub - written
    finally:
        for run in runs:
            shutil.rmtree(run.cwd, ignore_errors=True)
    check_determinism(ledger, runs)
    cold = sum(r.proc.wall for r in runs)

    def ratio(a, b):
        return a / b if b else 0.0

    c = lambda k: counts.get(k, 0.0)
    m = {k + "_s": (every.get(k, 0.0), "s") for k in TIME_LAYERS}
    m["inject.campaign_s"] = (sum(own.get(k, 0.0) for k in CAMPAIGN), "s")
    m.update({k: (c(k), "count") for k in COUNTS})
    m["pnr.place_cost"] = (c("pnr.place_cost"), "wirelength")
    m["pnr.route_s_per_iter"] = (ratio(every.get("pnr.route", 0.0), c("pnr.route_iters")), "s")
    m["inject.scalar_diffed"] = (c("inject.diffed") - c("inject.batched"), "count")
    m["inject.batched_ratio"] = (ratio(c("inject.batched"), c("inject.faults")), "ratio")
    m["inject.rebuilt_ratio"] = (ratio(c("inject.rebuilt"), c("inject.faults")), "ratio")
    m["inject.skip_ratio"] = (ratio(c("inject.skipped"), c("inject.faults")), "ratio")
    m["inject.converged_ratio"] = (ratio(c("inject.converged"), c("inject.diffed")), "ratio")
    busy, wsetup, wwall = (c("inject.worker_busy_s"), c("inject.worker_setup_s"),
                           c("inject.worker_wall_s"))
    m["inject.worker_busy_s"] = (busy, "s")
    m["inject.worker_busy_min_s"] = (c("inject.worker_busy_min_s"), "s")
    m["inject.worker_setup_s"] = (wsetup, "s")
    m["inject.worker_idle_s"] = (wwall - busy - wsetup, "s")
    m["inject.utilization"] = (ratio(busy + wsetup, wwall), "ratio")
    m["inject.shard_setup_s"] = (c("inject.shard_setup_s"), "s")
    m["obs.events_published"] = (published, "count")
    m["obs.events_dropped"] = (dropped, "count")
    m["obs.forensics_records"] = (records, "count")
    m["obs.sink_bytes"] = (sink_bytes, "bytes")
    m["trace.unaccounted_s"] = (unaccounted, "s")
    m["trace.pnr_share"] = (ratio(sum(own.get(k, 0.0) for k in PNR), cold), "ratio")
    m["trace.inject_share"] = (ratio(m["inject.campaign_s"][0] + own.get("inject.faultlist", 0.0),
                                     cold), "ratio")
    print("traced: pnr %.1f%% and inject %.1f%% of cold_s %.3f s"
          % (100 * m["trace.pnr_share"][0], 100 * m["trace.inject_share"][0], cold))
    return m


# --- self-test -----------------------------------------------------------


def self_test():
    """Doctored summaries must each count as one failed operation, not a
    crash.  Returns the number of doctored cases the checker missed."""
    good = {"design": "tmr_p2", "requested": 10, "injected": 10, "wrong": 2,
            "plan_paths": {"silent": 4, "patched": 1, "rerouted": 4, "rebuilt": 1},
            "wrong_by_effect": {"LUT": 1, "Bridge": 1},
            "detection": {"silent_correct": 8, "detected_corrected": 0,
                          "detected_wrong": 0, "silent_wrong": 2}}
    off_by_one = json.loads(json.dumps(good))
    off_by_one["wrong"] = 3
    bad_split = json.loads(json.dumps(good))
    bad_split["detection"]["detected_corrected"] = 1
    cmd = Command("tmr_p2", 1, "reduced", [], 1, 1)
    cases = [
        ("control (undoctored)", Proc(0, False, 1.0, 1.0, 1.0, json.dumps(good), ""), 0),
        ("wrong count off by one", Proc(0, False, 1.0, 1.0, 1.0, json.dumps(off_by_one), ""), 1),
        ("detection split does not sum", Proc(0, False, 1.0, 1.0, 1.0, json.dumps(bad_split), ""), 1),
        ("non-zero exit", Proc(1, False, 1.0, 1.0, 1.0, json.dumps(good), "boom"), 1),
        ("unparsable --json", Proc(0, False, 1.0, 1.0, 1.0, "{\"wrong\": ", ""), 1),
        ("timeout", Proc(None, True, 1.0, 1.0, 1.0, "", "killed"), 1),
    ]
    missed = 0
    for name, proc, expect in cases:
        ledger = Ledger(verbose=False)
        try:
            check_command(ledger, "self-test", cmd, proc, None, None, WORK, {})
            got = len(ledger.failures)
        except Exception as e:  # a crash is itself a checker defect
            got = "crash: %r" % e
        ok = ledger.attempted == 1 and got == expect
        missed += 0 if ok else 1
        print("checker self-test %-30s %s" % (
            name, "ok: %s" % "; ".join(p for ps in ledger.failures.values() for p in ps)
            if ok and expect else "ok" if ok else "MISSED (%s)" % got))
    return missed


# --- main ----------------------------------------------------------------


def build():
    for need in ("dune-project", "bin/tmrtool.ml", "lib", "perfbench/replay/replay.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is not a tmr_repro source checkout (missing %s)" % (ROOT, need))
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ROOT, "--profile", "release",
                        "./bin/tmrtool.exe", "./perfbench/replay/replay.exe"],
                       cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=850)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode("utf-8", "replace")[-3000:])
        die("build failed")


def host_info(hw):
    def out(argv):
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=20, cwd=ROOT).stdout.decode().strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    commit = out(["git", "rev-parse", "--short", "HEAD"]) if \
        os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "nproc": hw["nproc"],
        "jobs": hw["jobs"],
        "procs": hw["procs"],
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]) or out(["ocaml", "-vnum"]),
        "commit": commit or "unknown (not a git checkout)",
        "tmrtool_version": out([TMRTOOL, "--version"]),
        "loadavg": list(os.getloadavg()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build()
    global WORK
    os.makedirs(WORK_BASE, exist_ok=True)
    WORK = tempfile.mkdtemp(dir=WORK_BASE, prefix="run-")
    try:
        result = measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(WORK_BASE)
        except OSError:
            pass
    if result is not None:
        print(json.dumps(result))


def measure(args):
    missed = self_test()
    if missed:
        die("checker self-test missed %d doctored case(s)" % missed)
    if args.self_test:
        return None
    nproc = len(os.sched_getaffinity(0))
    hw = {"nproc": nproc, "jobs": min(2, nproc), "procs": min(2, nproc)}
    print("host: " + json.dumps(host_info(hw), sort_keys=True))
    scale, cmds = workload_commands(args.workload, args.seed, hw)
    clock = Clock()
    ledger = Ledger()
    if args.trace:
        metrics = traced(args, args.workload, cmds, ledger, clock)
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k]) for k, v in
                   end_to_end(args, args.workload, cmds, scale, ledger, clock).items()}
    run_rate_tests(ledger, clock)
    print("load average after: %s" % " ".join("%.2f" % x for x in os.getloadavg()))
    for name, (v, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, v, unit))
    failed = len(ledger.failures)
    return {
        "correct": failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    main()
