"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is one closed-loop client in one process: it issues the next
request only when the previous one has returned.  A *pass* is one fixed
batch of requests; ``run_pass`` times it and returns the outputs, and
``check`` judges the outputs afterwards, outside the timed section.

The program is always called through the ``hopfcheck`` package attributes
at call time, so that a traced pass sees the span wrappers.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import spans
from probe import reference_loop_s

HERE = os.path.dirname(os.path.abspath(__file__))
GROUP_ORDER = {"C2": 2, "C3": 3, "C4": 4, "S3": 6}
TENSOR_DIM_CAP = 12  # largest tensor (incl. N (x) N*) dense-q builds; see README
# A YD decision works in the image of the double D(H), of dimension up to
# dim(H)^2, not dim(H): the one dim-9 YD pair over Q would take most of a pass.
YD_PAIR_DIM_CAP = 3


@dataclass
class Pass:
    wall: float
    latencies: list  # seconds, one per request
    pairs: int
    outputs: object
    rss_kib: int = 0  # largest child, for workloads that start children


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def theory(hopf_name: str, kind: str):
    """Known answer for every object of ``kind`` over ``hopf_name``, or None.

    Over kG and k^G with char k not dividing |G| every module, comodule and
    YD module is semisimple (Maschke; comodules over kG are G-graded spaces,
    modules over k^G are modules over a product of copies of k, and YD
    modules are modules over the semisimple double D(G)).  Modules over k^G
    and comodules over kG are semisimple in every characteristic.
    """
    algebra, field_name = hopf_name.split("/")
    if algebra.startswith("kd"):
        order, functions = GROUP_ORDER.get(algebra[2:]), True
    elif algebra.startswith("k"):
        order, functions = GROUP_ORDER.get(algebra[1:]), False
    else:
        return None
    if order is None:
        return None
    char = 0 if field_name == "Q" else int(field_name[1:])
    if char == 0 or order % char:
        return True
    if (functions and kind == "module") or (not functions and kind == "comodule"):
        return True
    return None


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def child_env(root: str) -> dict:
    """The environment for child interpreters: the checkout's src first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _field_of(entry_id: str) -> str:
    return entry_id.split("/")[1]


def _hopf_of(entry_id: str) -> str:
    return entry_id.rsplit("/", 1)[0]


class Workload:
    name = ""
    traced_in_children = False

    def __init__(self, hc, root: str, seed: int, workdir: str):
        self.hc = hc
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self):
        pass

    def reference_block(self) -> list:
        """Host-speed samples taken next to every pass, run the way the
        workload runs: here in-process."""
        return [reference_loop_s() for _ in range(10)]

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, outputs, verdict: Verdict):
        raise NotImplementedError

    def reconcile(self, tracer, outputs) -> list:
        """Span counts that must equal counts read off the outputs."""
        return []


# campaigns ------------------------------------------------------------------------


def frozen_report(name: str) -> dict:
    """A campaign report minus wall_time, as the seed program wrote it."""
    with gzip.open(os.path.join(HERE, "expected", f"{name}.json.gz"), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def report_objects(doc) -> dict:
    """(hopf, kind, name) -> semisimplicity verdict, read off a report's pairs."""
    objects = {}
    for v in doc["serre_verdicts"]:
        objects[(v["hopf"], v["category"], v["m"])] = v["conclusion_m"]
        objects[(v["hopf"], v["category"], v["n"])] = v["conclusion_n"]
    return objects


def report_pairs(doc) -> dict:
    return {(v["hopf"], v["category"], v["m"], v["n"]): v for v in doc["serre_verdicts"]}


def _object_key(entry_id: str, kind: str) -> tuple:
    return (_hopf_of(entry_id), kind, entry_id.rsplit("/", 1)[1])


class Campaign(Workload):
    name = "campaign"
    kwargs: dict = {}

    def prepare(self):
        self.expected = frozen_report(self.name)
        self.expected_digest = digest(self.expected)

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        report = self.hc.run_campaign(**self.kwargs)
        wall = time.perf_counter() - start
        return Pass(wall, [wall], report.pairs_checked, report)

    def check(self, report, verdict: Verdict):
        doc = report.to_doc()
        doc.pop("wall_time")
        objects = report_objects(doc)
        verdict.attempted += len(objects) + len(doc["serre_verdicts"])
        failed_ops = set()
        if digest(doc) != self.expected_digest:
            want, got = report_pairs(self.expected), report_pairs(doc)
            for key in sorted(set(want) | set(got)):
                if want.get(key) != got.get(key):
                    failed_ops.add(("pair",) + key)
            for section in sorted(set(doc) | set(self.expected)):
                if section != "serre_verdicts" and doc.get(section) != self.expected.get(section):
                    failed_ops.add(("section", section))
        for (hopf, kind, name), semisimple in objects.items():
            known = theory(hopf, kind)
            if known is not None and semisimple != known:
                failed_ops.add(("object", hopf, kind, name))
        for v in doc["serre_verdicts"]:
            known = theory(v["hopf"], v["category"])
            if known is not None and v["hypothesis_holds"] != known:
                failed_ops.add(("pair", v["hopf"], v["category"], v["m"], v["n"]))
        for op in sorted(failed_ops):
            verdict.fail(f"{self.name}: {op} differs from the frozen report or the theory table")

    def reconcile(self, tracer, report) -> list:
        problems = []
        objects = len(report_objects(report.to_doc()))
        want = {
            "duality.verify_serre": report.pairs_checked,
            "duality.build_strong_dual_certificates": objects,
        }
        if report.oracle.get("enabled"):
            skipped = len(report.oracle["skipped_bound_exceeded"])
            want["oracle"] = report.oracle["checked"] + skipped
        for key, count in want.items():
            seen = sum(tracer.calls(k) for k in spans.ORACLE_KEYS) if key == "oracle" else tracer.calls(key)
            if seen != count:
                problems.append(f"{key}: {seen} spans, report says {count}")
        return problems


class CampaignOracleFp(Campaign):
    name = "campaign-oracle-fp"
    kwargs = {"fields": ["F2", "F3", "F5", "F7"], "oracle": True}


# dense rationals -------------------------------------------------------------------


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in zip(*b)] for row in a]


def _inverse(p):
    n = len(p)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        r = next(r for r in range(c, n) if m[r][c])
        m[c], m[r] = m[r], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r2 in range(n):
            if r2 != c and m[r2][c]:
                f = m[r2][c]
                m[r2] = [a - f * b for a, b in zip(m[r2], m[c])]
    return [row[n:] for row in m]


def change_of_basis(rng: random.Random, n: int):
    """P = L U with unit-diagonal L, diag(U) = (2, 1, ..., 1) and every
    off-diagonal entry +-1: always invertible with det 2, so P^-1 has
    genuine halves, and every seed gives inputs of the same density."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[(2 if i == 0 else 1) if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    p = _matmul(lower, upper)
    return p, _inverse(p)


def conjugated_doc(entry, rng: random.Random) -> dict:
    """The catalog object in the basis given by a seeded P, as a document."""
    obj = entry.payload
    n = obj.dim
    p, p_inv = change_of_basis(rng, n)

    def conj(rows):
        return _matmul(_matmul(p, [[Fraction(x) for x in r] for r in rows]), p_inv)

    doc = {"name": entry.id.rsplit("/", 1)[1] + "~", "hopf": _hopf_of(entry.id), "dim": n}
    module = obj if entry.kind == "module" else getattr(obj, "module", None)
    comodule = obj if entry.kind == "comodule" else getattr(obj, "comodule", None)
    if module is not None:
        doc["action"] = [[[str(x) for x in row] for row in conj(a.entries)] for a in module.action]
    if comodule is not None:
        co = comodule.coaction
        hdim = len(co[0][0])
        # B_t[b][a] = coaction[a][b][t] are the operators a subcomodule is stable under
        comps = [conj([[co[a][b][t] for a in range(n)] for b in range(n)]) for t in range(hdim)]
        doc["coaction"] = [[[str(comps[t][b][a]) for t in range(hdim)] for b in range(n)] for a in range(n)]
    return doc


SERRE_FIELDS = ("involutory", "hypothesis_holds", "rank_invertible_m", "rank_invertible_n", "conclusion_m", "conclusion_n")


def _serre_fields(v) -> tuple:
    return tuple(getattr(v, k) for k in SERRE_FIELDS)


class DenseQ(Workload):
    """Catalog objects over Q after a seeded change of basis P.A.P^-1."""

    name = "dense-q"

    def _axioms(self, kind):
        hc = self.hc
        return {"module": hc.check_module_axioms, "comodule": hc.check_comodule_axioms, "yd": hc.check_yd_compat}[kind]

    def _decide(self, kind):
        hc = self.hc
        return {"module": hc.is_semisimple, "comodule": hc.is_cosemisimple, "yd": hc.is_yd_semisimple}[kind]

    def _resolve(self, ref):
        return self.hc.lookup(ref).payload

    def _certificate(self, obj) -> str:
        hc = self.hc
        try:
            hc.build_strong_dual_certificates(obj)
            return "built"
        except (hc.errors.NotInvolutoryError, hc.errors.RankNotInvertibleError) as exc:
            return type(exc).__name__

    def prepare(self):
        pool = [
            e
            for e in self.hc.catalog_entries()
            if e.kind != "hopf" and _field_of(e.id) == "Q" and e.expected_failure is None
        ]
        self.docs = [(e.id, e.kind, json.dumps(conjugated_doc(e, self.rng))) for e in pool]
        self.rng.shuffle(self.docs)
        self.cert_ids = sorted(e.id for e in pool if e.payload.dim ** 2 <= TENSOR_DIM_CAP)
        groups: dict = {}
        for e in pool:
            groups.setdefault((_hopf_of(e.id), e.kind), []).append(e)
        self.pairs = [
            (a.id, b.id)
            for _, members in sorted(groups.items())
            for a, b in combinations_with_replacement(members, 2)
            if max(a.payload.dim, b.payload.dim) >= 2
            and a.payload.dim * b.payload.dim <= (YD_PAIR_DIM_CAP if a.kind == "yd" else TENSOR_DIM_CAP)
        ]
        self.rng.shuffle(self.pairs)
        # reference answers from the unconjugated catalog objects
        by_id = {e.id: e for e in pool}
        self.ref_objects = {}
        for e in pool:
            report = self._decide(e.kind)(e.payload)
            self.ref_objects[e.id] = (True, report.verdict, report.radical_dim)
        self.ref_certs = {i: self._certificate(by_id[i].payload) for i in self.cert_ids}
        cache: dict = {}
        self.ref_pairs = [
            _serre_fields(self.hc.verify_serre(by_id[a].payload, by_id[b].payload, cache=cache))
            for a, b in self.pairs
        ]
        self.kinds = {e.id: e.kind for e in pool}
        frozen = frozen_report("campaign")
        self.frozen_objects, self.frozen_pairs = report_objects(frozen), report_pairs(frozen)

    def run_pass(self) -> Pass:
        hc = self.hc
        objects, certs, pairs, results = {}, {}, [], {}
        start = time.perf_counter()
        for oid, kind, text in self.docs:
            try:
                obj = hc.documents.object_from_doc(json.loads(text), self._resolve)
                report = self._decide(kind)(obj)
                objects[oid] = obj
                results[oid] = (self._axioms(kind)(obj).ok, report.verdict, report.radical_dim)
            except Exception as exc:  # a failed request is counted, not fatal
                results[oid] = ("error", repr(exc))
        for oid in self.cert_ids:
            try:
                certs[oid] = self._certificate(objects[oid])
            except Exception as exc:
                certs[oid] = f"error {exc!r}"
        cache: dict = {}
        for a, b in self.pairs:
            try:
                pairs.append(_serre_fields(hc.verify_serre(objects[a], objects[b], cache=cache)))
            except Exception as exc:
                pairs.append(("error", repr(exc)))
        wall = time.perf_counter() - start
        # the batch is the request: single operations range over three orders of
        # magnitude, so a percentile over them jumps with the seed
        return Pass(wall, [wall], len(self.pairs), {"objects": results, "certs": certs, "pairs": pairs})

    def check(self, out, verdict: Verdict):
        verdict.attempted += len(out["objects"]) + len(out["certs"]) + len(out["pairs"])
        for oid, got in sorted(out["objects"].items()):
            kind = self.kinds[oid]
            known = (theory(_hopf_of(oid), kind), self.frozen_objects.get(_object_key(oid, kind)))
            if got != self.ref_objects[oid] or any(k is not None and got[1] != k for k in known):
                verdict.fail(f"dense-q load {oid}: got {got}, unconjugated {self.ref_objects[oid]}, known {known}")
        for oid, got in sorted(out["certs"].items()):
            if got != self.ref_certs[oid]:
                verdict.fail(f"dense-q certificate {oid}: got {got}, unconjugated {self.ref_certs[oid]}")
        for (a, b), got, want in zip(self.pairs, out["pairs"], self.ref_pairs):
            known = theory(_hopf_of(a), self.kinds[a])
            frozen = self.frozen_pairs.get(_object_key(a, self.kinds[a]) + (b.rsplit("/", 1)[1],))
            if frozen is not None:
                frozen = tuple(frozen[k] for k in SERRE_FIELDS)
            if got != want or (known is not None and got[1] != known) or (frozen is not None and got != frozen):
                verdict.fail(f"dense-q pair {a} (x) {b}: got {got}, unconjugated {want}, frozen {frozen}")

    def reconcile(self, tracer, out) -> list:
        want = {
            "documents.object_from_doc": len(self.docs),
            "duality.build_strong_dual_certificates": len(self.cert_ids),
            "duality.verify_serre": len(self.pairs),
        }
        return [f"{k}: {tracer.calls(k)} spans, {n} requests" for k, n in want.items() if tracer.calls(k) != n]


# command line -------------------------------------------------------------------


@dataclass
class Request:
    argv: list
    kind: str  # catalog kind or "hopf" of the (first) target
    target: str  # catalog id the answer is judged against
    expected: tuple = ()  # (exit code, stdout) of the same request made in-process
    known: tuple = ()  # theory and frozen-report answers for semisimple requests


class CliRequests(Workload):
    """One fresh interpreter per request: what a user of the CLI pays."""

    name = "cli-requests"
    traced_in_children = True
    DENSE_DOCS = 3
    ORACLE_MAX_VECTORS = 256  # keeps --oracle requests interactive

    def prepare(self):
        hc, rng = self.hc, self.rng
        entries = [e for e in hc.catalog_entries() if e.expected_failure is None]
        objects = [e for e in entries if e.kind != "hopf"]
        small_q = [e for e in objects if _field_of(e.id) == "Q" and 2 <= e.payload.dim <= 4]
        fp_oracle = [
            e
            for e in objects
            if _field_of(e.id) != "Q" and int(_field_of(e.id)[1:]) ** e.payload.dim <= self.ORACLE_MAX_VECTORS
        ]
        q_objects = [e for e in objects if _field_of(e.id) == "Q"]
        groups: dict = {}
        for e in objects:
            groups.setdefault((_hopf_of(e.id), e.kind), []).append(e)
        tensor_pairs = [
            (a, b)
            for _, members in sorted(groups.items())
            for a, b in combinations_with_replacement(members, 2)
            if a.payload.dim * b.payload.dim <= 16
        ]
        docs = []
        for i, e in enumerate(rng.sample(small_q, self.DENSE_DOCS)):
            path = os.path.join(self.workdir, f"dense{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(conjugated_doc(e, rng), fh)
            docs.append((path, e))
        pick = rng.choice
        reqs = []
        e = pick(entries)
        reqs.append(Request(["check", e.id], e.kind, e.id))
        path, e = docs[0]
        reqs.append(Request(["check", path], e.kind, e.id))
        e = pick(fp_oracle)
        reqs.append(Request(["semisimple", e.id, "--oracle"], e.kind, e.id))
        e = pick(q_objects)
        reqs.append(Request(["semisimple", e.id], e.kind, e.id))
        path, e = docs[1]
        reqs.append(Request(["semisimple", path], e.kind, e.id))
        e = pick(objects)
        reqs.append(Request(["dual", e.id], e.kind, e.id))
        path, e = docs[2]
        reqs.append(Request(["dual", path], e.kind, e.id))
        for _ in range(2):
            a, b = pick(tensor_pairs)
            reqs.append(Request(["tensor", a.id, b.id], a.kind, a.id))
        e = pick(objects)
        reqs.append(Request(["export", e.id], e.kind, e.id))
        rng.shuffle(reqs)
        self.requests = reqs
        self._expect_in_process()
        self.bare_start_ms = self._bare_start_ms()

    def _expect_in_process(self):
        import contextlib
        import io

        frozen = report_objects(frozen_report("campaign"))
        for req in self.requests:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.hc.cli.main(list(req.argv))
            req.expected = (code, buf.getvalue())
            if req.argv[0] == "semisimple":
                req.known = (theory(_hopf_of(req.target), req.kind), frozen.get(_object_key(req.target, req.kind)))

    def _bare_start_ms(self) -> float:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True)
            times.append((time.perf_counter() - start) * 1000)
        return sorted(times)[len(times) // 2]

    def reference_block(self) -> list:
        """Each sample is a fresh interpreter running the reference loop: a
        request's cost is mostly interpreter start, import and catalog build,
        which a busy host slows differently from in-process arithmetic."""
        probe = [sys.executable, os.path.join(HERE, "probe.py"), "reference"]
        return [self._spawn(probe)[0] for _ in range(2)]

    def _spawn(self, argv):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(self.root), cwd=self.root
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return time.perf_counter() - start, proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss

    def run_pass(self, probe_mode=None) -> Pass:
        latencies, outputs, rss, probes = [], [], 0, []
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            if probe_mode is None:
                argv = [sys.executable, "-m", "hopfcheck.cli", *req.argv]
            else:
                out_path = os.path.join(self.workdir, f"probe{i}.json")
                argv = [sys.executable, os.path.join(HERE, "probe.py"), "request", out_path, probe_mode, "--", *req.argv]
            took, code, out, maxrss = self._spawn(argv)
            latencies.append(took)
            outputs.append((code, out))
            rss = max(rss, maxrss)
            if probe_mode is not None:
                with open(out_path, encoding="utf-8") as fh:
                    probe = json.load(fh)
                probe["latency_s"] = took
                probes.append(probe)
        wall = time.perf_counter() - start
        return Pass(wall, latencies, 0, {"outputs": outputs, "probes": probes}, rss_kib=rss)

    def check(self, out, verdict: Verdict):
        verdict.attempted += len(out["outputs"])
        for req, (code, text) in zip(self.requests, out["outputs"]):
            problem = None
            if code != 0:
                problem = f"exit {code}"
            elif (code, text) != req.expected:
                problem = "output differs from the same request made in-process"
            elif req.argv[0] == "check" and "axioms: PASS" not in text.splitlines()[0]:
                problem = "valid object not reported PASS"
            elif req.argv[0] == "semisimple":
                if "DISAGREES" in text or (req.argv[-1] == "--oracle" and "oracle: agrees" not in text):
                    problem = "oracle does not agree"
                elif any(k is not None and not text.startswith(str(k).lower()) for k in req.known):
                    problem = f"verdict contradicts the theory table or the frozen report {req.known}"
            elif req.argv[0] in ("dual", "tensor", "export"):
                problem = self._check_document(req, text)
            if problem:
                verdict.fail(f"cli {' '.join(req.argv)}: {problem}")

    def _check_document(self, req, text):
        try:
            doc = json.loads(text)
        except ValueError:
            return "output is not a JSON document"
        dims = [self._dim(t) for t in req.argv[1:]]
        want = dims[0] * dims[1] if req.argv[0] == "tensor" else dims[0]
        if doc.get("dim") != want:
            return f"document dim {doc.get('dim')}, expected {want}"
        return None

    def _dim(self, target):
        if target.endswith(".json"):
            with open(target, encoding="utf-8") as fh:
                return json.load(fh)["dim"]
        return self.hc.lookup(target).payload.dim

    def reconcile(self, tracer, out) -> list:
        calls = sum(p["main_calls"] for p in out["probes"])
        if calls != len(self.requests):
            return [f"cli.main: {calls} spans, {len(self.requests)} requests"]
        return []


WORKLOADS = {w.name: w for w in (Campaign, CampaignOracleFp, DenseQ, CliRequests)}
