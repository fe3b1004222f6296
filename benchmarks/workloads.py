"""The benchmark's workloads: what one pass learns, derived from the seed.

A pass is a fixed list of jobs; a run repeats passes until its time is up.
Each job names a target and the arguments of the ``Oracle`` built for it,
so the program receives only generated targets and oracle seeds.  Why each
workload was chosen, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from smalearn import RandomSpec, make_builtin, random_sma


@dataclass(frozen=True)
class Job:
    target: tuple  # ("builtin", name) or ("random", states, essential, seed)
    mode: str  # oracle mode: lexmin | random
    oracle_seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    plan: object  # seed -> list[Job], the jobs of one pass
    eq_budget: int | None = None  # answered equivalence queries before a learn stops
    expect: dict = field(default_factory=dict)  # behaviour every learn must show


def build_target(spec: tuple):
    if spec[0] == "builtin":
        return make_builtin(spec[1])
    _, states, essential, seed = spec
    return random_sma(RandomSpec(n=states, k=essential, seed=seed))


def build_targets(jobs) -> dict:
    """Each distinct target of a pass, built once."""
    return {job.target: build_target(job.target) for job in jobs}


def _seed_base(name: str, seed: int, salt: str) -> int:
    return random.Random(f"{name}:{salt}:{seed}").randrange(2 ** 31)


def _lexmin(name: str):
    return lambda seed: [Job(("builtin", name), "lexmin")]


def _mh_random(seed: int):
    base = _seed_base("mh-random", seed, "oracle")
    return [Job(("builtin", "mh"), "random", base + i) for i in range(MH_LEARNS)]


def _nat_random(seed: int):
    targets = _seed_base("nat-random", seed, "target")
    oracles = _seed_base("nat-random", seed, "oracle")
    return [Job(("random", 20, 10, targets + i), "random", oracles + i)
            for i in range(NAT_LEARNS)]


MH_LEARNS = 40
NAT_LEARNS = 20

# Reference counts of the complete atgs learn (ROADMAP re-anchor values).
ATGS_FULL = {"eq_queries": 59, "output_queries": 69914, "output_queries_total": 70108,
             "r_size": 1015, "sigma_e_size": 61, "e_size": 7, "states": 16}
# The same learn stopped at its 25th equivalence query.
ATGS_PREFIX = {"eq_queries": 25, "output_queries": 9308, "output_queries_total": 9393,
               "cex_digest": "2bdc178e6fd74ece",
               "states": 11}

WORKLOADS = {w.name: w for w in [
    Workload("atgs", _lexmin("atgs"), eq_budget=24, expect=ATGS_PREFIX),
    Workload("mh-random", _mh_random),
    Workload("nat-random", _nat_random),
    Workload("atgs-full", _lexmin("atgs"), expect=ATGS_FULL),
    Workload("worked-example", _lexmin("worked-example"),
             expect={"eq_queries": 4, "states": 4}),
    Workload("lower:3,3", _lexmin("lower:3,3"), expect={"eq_queries": 6, "states": 6}),
]}
