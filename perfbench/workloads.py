"""The benchmark's three workloads as seeded job lists with per-job oracles.

A workload is a set of spec files plus an ordered list of jobs; each job is
one CLI command on one spec and carries the oracle its report must pass.
Every workload also runs one small "floor" job on su(2)/u(1) for each CLI
command it does not otherwise use, so that every per-command metric exists
and is nonzero on every workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import specs

# Per-job time limits, well above the slowest healthy job of each kind on a
# 2-CPU machine whose speed drifts by a third (classify of so(5)/t: 3.2 s;
# otherwise verify on su(3)/t: 8.6 s). A job that runs longer is stopped and
# counts as failed.
CLASSIFY_LIMIT_S = 8.0
LIMIT_S = 30.0

# The change of basis of each dense instance is drawn once from this seed
# rather than from the workload seed: the cost of classify on a rotated table
# swings with the bit size of one characteristic-polynomial coefficient, so a
# seeded basis would make the workload's time a coin flip (see BENCHMARK.json).
DENSE_BASIS_SEED = 0

COMMANDS = ("classify", "construct", "decompose", "check", "verify", "m",
            "symmetric", "validate", "catalog")

SU2SU2 = {"kind": "sum", "parts": [{"kind": "su", "n": 2},
                                   {"kind": "su", "n": 2}]}


@dataclass(frozen=True)
class Instance:
    """A quotient g/h with the facts the oracles need."""
    name: str
    spec: dict
    dim_g: int
    dim_h: int
    parabolics: int            # |W| or the known parabolic count
    dim_m: int | None = None   # canonical m of its integrable structures
    symmetric: str | None = None

    @property
    def q(self):
        return self.dim_g - self.dim_h


def _catalog(name, algebra, sub, dim_g, dim_h, parabolics, **kw):
    return Instance(name, {"algebra": algebra, "subalgebra": sub},
                    dim_g, dim_h, parabolics, **kw)


S2 = _catalog("su2_u1", {"kind": "su", "n": 2},
              {"name": "span", "vectors": [["0", "0", "1"]]}, 3, 1,
              specs.weyl_order("su", 2), dim_m=1, symmetric="symmetric")
SU3_T = _catalog("su3_t", {"kind": "su", "n": 3}, {"name": "maximal_torus"},
                 8, 2, specs.weyl_order("su", 3), dim_m=2,
                 symmetric="not_applicable")
SO5_T = _catalog("so5_t", {"kind": "so", "n": 5}, {"name": "maximal_torus"},
                 10, 2, specs.weyl_order("so", 5))
SU3_U2 = _catalog("su3_u2", {"kind": "su", "n": 3},
                  {"name": "block_u", "k": 2}, 8, 4, 2, dim_m=4,
                  symmetric="symmetric")
SU2SU2_0 = _catalog("su2su2_0", SU2SU2, {"name": "zero"}, 6, 0,
                    specs.weyl_order_of_sum([("su", 2), ("su", 2)]), dim_m=2,
                    symmetric="not_applicable")


@dataclass
class Job:
    name: str
    command: str
    spec: str                      # spec file name inside the work dir
    args: tuple = ()
    expect_code: int = 0
    checks: dict = field(default_factory=dict)
    after: str | None = None       # construct job whose J this job decomposes

    @property
    def limit_s(self):
        return CLASSIFY_LIMIT_S if self.command == "classify" else LIMIT_S


@dataclass
class Workload:
    name: str
    specs: dict                    # file name -> spec object
    jobs: list


class _Builder:
    def __init__(self, name):
        self.name = name
        self.specs = {}
        self.jobs = []

    def spec(self, name, obj):
        self.specs[name + ".json"] = obj
        return name + ".json"

    def job(self, name, command, spec, *args, **kw):
        job = Job(name, command, spec, tuple(str(a) for a in args), **kw)
        self.jobs.append(job)
        return job

    def classify_job(self, inst):
        self.job(f"classify:{inst.name}", "classify",
                 self.spec(inst.name, inst.spec),
                 checks={"parabolics": inst.parabolics})

    def flag_jobs(self, inst, rng, classify=True):
        """classify, construct(k) for a seeded k, decompose of that J."""
        spec = self.spec(inst.name, inst.spec)
        if classify:
            self.classify_job(inst)
        k = rng.randrange(inst.parabolics)
        con = self.job(f"construct:{inst.name}:{k}", "construct", spec,
                       "--parabolic-index", k,
                       checks={"index": k, "q": inst.q})
        self.job(f"decompose:{inst.name}:{k}", "decompose",
                 self.spec(f"{inst.name}.decompose", inst.spec),
                 checks={"index": k}, after=con.name)

    def structure_jobs(self, inst, label, j, rng, commands):
        """Some of verify, m and symmetric on one integrable structure."""
        spec = self.spec(f"{inst.name}.{label}", dict(inst.spec, j=j))
        if "verify" in commands:
            seed = rng.randrange(1000)
            evaluations = math.comb(inst.q, 2) * (3 + 20 * (inst.dim_h > 0))
            self.job(f"verify:{inst.name}:{label}", "verify", spec,
                     "--seed", seed,
                     checks={"evaluations": evaluations, "seed": seed})
        if "m" in commands:
            self.job(f"m:{inst.name}:{label}", "m", spec,
                     checks={"dim_m": inst.dim_m,
                             "fiber_dim": inst.dim_m - inst.dim_h})
        if "symmetric" in commands:
            self.job(f"symmetric:{inst.name}:{label}", "symmetric", spec,
                     expect_code=0 if inst.symmetric == "symmetric" else 1,
                     checks={"status": inst.symmetric})

    def check_job(self, inst, label, j, invariant, integrable):
        spec = self.spec(f"{inst.name}.{label}", dict(inst.spec, j=j))
        self.job(f"check:{inst.name}:{label}", "check", spec,
                 expect_code=0 if invariant and integrable else 1,
                 checks={"invariant": invariant,
                         "integrable": integrable if invariant else None})

    def validate_job(self, inst):
        self.job(f"validate:{inst.name}", "validate",
                 self.spec(inst.name, inst.spec), checks={"ok": True})

    def catalog_job(self, inst):
        self.job(f"catalog:{inst.name}", "catalog",
                 self.spec(inst.name, inst.spec),
                 checks={"dim_quotient": inst.q})

    def floor(self, rng):
        """One su(2)/u(1) job for every command this workload lacks."""
        have = {j.command for j in self.jobs}
        j = specs.sign_pattern_j((1,))
        if "construct" not in have:
            self.flag_jobs(S2, rng, classify="classify" not in have)
        if "check" not in have:
            self.check_job(S2, "p", j, True, True)
        if "verify" not in have:
            self.structure_jobs(S2, "p", j, rng, ("verify", "m", "symmetric"))
        if "validate" not in have:
            self.validate_job(S2)
        if "catalog" not in have:
            self.catalog_job(S2)
        missing = set(COMMANDS) - {job.command for job in self.jobs}
        if missing:
            raise RuntimeError(f"{self.name} lacks {sorted(missing)}")
        return Workload(self.name, self.specs, self.jobs)


def flags(seed):
    """Parabolic enumeration, construction and decomposition."""
    rng = random.Random(seed)
    b = _Builder("flags")
    # construct and decompose on a Borel case (fiber 0) and on a case with a
    # fiber m/h of dim 2; classify alone on the others keeps a round short
    for inst in (SU3_T, SU3_U2):
        b.classify_job(inst)
    for inst in (SO5_T, SU2SU2_0):
        b.flag_jobs(inst, rng)
    return b.floor(rng)


def nijenhuis(seed):
    """Integrability checks of every sign pattern, then the Nijenhuis trials,
    m and the symmetric-pair test on one seeded integrable structure each."""
    rng = random.Random(seed)
    b = _Builder("nijenhuis")
    structures = []
    for inst, n in ((S2, None), (SU3_T, 3), (SU3_U2, None)):
        planes = inst.q // 2
        good = []
        for signs in specs.sign_patterns(planes):
            label = "".join("p" if s > 0 else "n" for s in signs)
            j = specs.sign_pattern_j(signs)
            # on su(3)/u(2) the isotropy u(2) mixes both planes, so only the
            # two constant patterns are invariant, and both are integrable
            invariant = inst is not SU3_U2 or len(set(signs)) == 1
            integrable = invariant and (n is None or
                                        specs.su_t_integrable(n, signs))
            b.check_job(inst, label, j, invariant, integrable)
            if integrable:
                good.append((label, j))
        if n is not None and len(good) != specs.weyl_order("su", n):
            raise RuntimeError("sign patterns disagree with |W|")
        structures.append((inst, rng.choice(good)))
    b.check_job(SU2SU2_0, "calabi_eckmann", specs.CALABI_ECKMANN_J, True, True)
    b.check_job(SU2SU2_0, "swap", specs.SWAP_J, True, False)
    structures.append((SU2SU2_0, ("calabi_eckmann", specs.CALABI_ECKMANN_J)))
    # the Nijenhuis trials on su(3)/t (9 s) dominate; the other commands run
    # where they are cheap and cover each verdict: symmetric, and
    # not_applicable with h = 0
    commands = {S2.name: ("verify", "m", "symmetric"), SU3_T.name: ("verify",),
                SU3_U2.name: ("m", "symmetric"),
                SU2SU2_0.name: ("m", "symmetric")}
    for inst, (label, j) in structures:
        b.structure_jobs(inst, label, j, rng, commands[inst.name])
    return b.floor(rng)


DENSE_PARTS = {
    "su3_t": [("su", 3)],
    "su2su2_t": [("su", 2), ("su", 2)],
    "so5_t": [("so", 5)],
}


def dense_instances():
    """The dense instances: catalog algebras in a random integer basis."""
    out = []
    for name, parts in DENSE_PARTS.items():
        spec = specs.dense_spec(parts, random.Random(DENSE_BASIS_SEED))
        dim_g = len(spec["algebra"]["table"])
        dim_h = len(spec["subalgebra"]["vectors"])
        out.append(Instance(f"dense_{name}", spec, dim_g, dim_h,
                            specs.weyl_order_of_sum(parts)))
    return out


def dense(seed):
    """validate, catalog and classify on explicit dense tables."""
    rng = random.Random(seed)
    b = _Builder("dense")
    insts = dense_instances()
    # validate on so(5) (8 s) and catalog, which validates twice, on the
    # larger tables would push a round past 30 s
    su3, su2su2, _ = insts
    b.validate_job(su3)
    b.validate_job(su2su2)
    b.catalog_job(su2su2)
    for inst in insts:
        b.classify_job(inst)
    return b.floor(rng)


WORKLOADS = {"flags": flags, "nijenhuis": nijenhuis, "dense": dense}


# ---------------------------------------------------------------------------
# oracles

def check_report(job, code, report, construct_report=None):
    """Problems with one finished job's exit code and report, as strings."""
    problems = []
    if code != job.expect_code:
        problems.append(f"exit code {code}, expected {job.expect_code}")
    if not isinstance(report, dict):
        return problems + ["no JSON report"]
    if "error" in report:
        return problems + [f"{report['error']}: {report.get('message')}"]
    c = job.checks
    cmd = job.command
    if cmd == "classify":
        got = len(report.get("parabolics", []))
        if not report.get("exists") or got != c["parabolics"]:
            problems.append(f"{got} parabolics, expected {c['parabolics']}")
    elif cmd == "construct":
        j = report.get("j")
        if report.get("parabolic_index") != c["index"]:
            problems.append("construct reports another parabolic index")
        if not (isinstance(j, list) and len(j) == c["q"]
                and all(isinstance(x, str) for row in j for x in row)
                and specs.j_squared_is_minus_identity(j)):
            problems.append("constructed j is not a real J with J^2 = -I")
    elif cmd == "decompose":
        if report.get("parabolic_index") != c["index"]:
            problems.append(f"decompose gives index "
                            f"{report.get('parabolic_index')}, "
                            f"expected {c['index']}")
        if (construct_report is None or json.dumps(report.get("j1"))
                != json.dumps(construct_report.get("j1"))):
            problems.append("decompose j1 differs from the constructed j1")
    elif cmd == "check":
        if report.get("invariant") is not c["invariant"]:
            problems.append(f"invariant is {report.get('invariant')}")
        elif not c["invariant"]:
            if "invariance_witness" not in report:
                problems.append("no invariance witness")
        elif report.get("integrable") is not c["integrable"]:
            problems.append(f"integrable is {report.get('integrable')}")
        elif not c["integrable"] and "nijenhuis_witness" not in report:
            problems.append("no Nijenhuis witness")
    elif cmd == "verify":
        if report.get("all_ok") is not True:
            problems.append("ledger not all_ok")
        if report.get("nijenhuis_evaluations") != c["evaluations"]:
            problems.append(f"{report.get('nijenhuis_evaluations')} "
                            f"evaluations, expected {c['evaluations']}")
        if report.get("seed") != c["seed"]:
            problems.append("verify ran with another seed")
    elif cmd == "m":
        for key in ("dim_m", "fiber_dim"):
            if report.get(key) != c[key]:
                problems.append(f"{key} {report.get(key)}, expected {c[key]}")
    elif cmd == "symmetric":
        if report.get("status") != c["status"]:
            problems.append(f"status {report.get('status')}, "
                            f"expected {c['status']}")
    elif cmd == "validate":
        if report.get("ok") is not True:
            problems.append("validate is not ok")
    elif cmd == "catalog":
        if report.get("validation_ok") is not True:
            problems.append("catalog validation not ok")
        if report.get("dim_quotient") != c["dim_quotient"]:
            problems.append(f"dim_quotient {report.get('dim_quotient')}")
    return problems
