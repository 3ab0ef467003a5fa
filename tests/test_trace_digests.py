"""Pinned digests of generated traces.

Every SPEC2006 and desktop spec, seed 1, the ``small`` scale's budget
(extended per :func:`repro.engine.jobs.budget_for`), partitions 0 and 1
of 2.  A digest hashes the ``(compute, is_write, address, dependent)``
stream of one trace pass and the loop flag, so any change to the
generator's RNG call order, to its arithmetic or to how a trace stores
its records shows up here as a changed digest.
"""

import hashlib

from repro.engine.jobs import budget_for
from repro.experiments.base import SCALES
from repro.sim.config import SystemConfig
from repro.workloads.desktop import DESKTOP_BENCHMARKS
from repro.workloads.spec2006 import SPEC2006
from repro.workloads.synthetic import SyntheticTraceGenerator

SEED = 1
PARTITIONS = 2


def trace_digest(trace) -> str:
    digest = hashlib.sha256(f"loop={int(trace.loop)}\n".encode())
    for compute, is_write, address, dependent in trace:
        digest.update(
            f"{compute},{int(is_write)},{address},{int(dependent)}\n".encode()
        )
    return digest.hexdigest()[:16]


def generated_digests() -> dict[str, str]:
    generator = SyntheticTraceGenerator(SystemConfig().mapper(), SEED)
    budget = SCALES["small"].budget
    digests = {}
    for spec in [*SPEC2006.values(), *DESKTOP_BENCHMARKS.values()]:
        for partition in range(PARTITIONS):
            trace = generator.trace_for(
                spec, budget_for(spec, budget),
                partition=partition, num_partitions=PARTITIONS,
            )
            digests[f"{spec.name}/{partition}"] = trace_digest(trace)
    return digests


PINNED = {
    "GemsFDTD/0": "4705d4cefc497bae",
    "GemsFDTD/1": "6f55ef01ff740809",
    "astar/0": "3f4bfedac8416031",
    "astar/1": "252621b8a3f8a573",
    "bzip2/0": "9e371a63ac9e443a",
    "bzip2/1": "23d2c9697bf29629",
    "cactusADM/0": "e3ee3e70ae16f8fd",
    "cactusADM/1": "f0210e0688b2c865",
    "calculix/0": "b121ff1db8484c30",
    "calculix/1": "8b349d48770477f4",
    "dealII/0": "3a711fa95aa24852",
    "dealII/1": "94468ae3d91b428a",
    "gcc/0": "08823688f8384c79",
    "gcc/1": "df686871e3a44fa5",
    "gobmk/0": "d65ead6c9801a182",
    "gobmk/1": "53c52927341c43ad",
    "gromacs/0": "06426c452e2f677f",
    "gromacs/1": "ad7474b16508ba81",
    "h264ref/0": "b567e7611c804a6d",
    "h264ref/1": "6fe3c94e4155fbb9",
    "hmmer/0": "2b439cbc362c7e75",
    "hmmer/1": "dfd492e6c5a1a2ac",
    "iexplorer/0": "2c15d1e01c2dcc40",
    "iexplorer/1": "c64dcbcfa4b5bd57",
    "instant-messenger/0": "a96718b7da8148d8",
    "instant-messenger/1": "3205490c3a30f5bc",
    "lbm/0": "919ac0e750fe494c",
    "lbm/1": "d4afe518c8330d1d",
    "leslie3d/0": "e767ea2ef348ce08",
    "leslie3d/1": "53abd4b6c05a81ba",
    "libquantum/0": "51f7424f7d9f2eb7",
    "libquantum/1": "fdcea96001a6aec8",
    "matlab/0": "bc64059e5dff4efe",
    "matlab/1": "bf1ec95a8bdf6960",
    "mcf/0": "92c6ad28f945f4dd",
    "mcf/1": "fd0bac06e33d9697",
    "milc/0": "acb80205c3d80b0f",
    "milc/1": "7372ba1f39341d05",
    "namd/0": "19f61b4ad1ad91c1",
    "namd/1": "30eb0c25654da989",
    "omnetpp/0": "8bdbd3575999dff1",
    "omnetpp/1": "9d73aae5b454b850",
    "perlbench/0": "17f9ddf1b2fdf156",
    "perlbench/1": "e6be576e95df4445",
    "povray/0": "240d31b81a035c6c",
    "povray/1": "3c35ad77cd20cdc0",
    "sjeng/0": "bb09a026a39fe4a5",
    "sjeng/1": "232e49aaee692a62",
    "soplex/0": "07a5e379d775612b",
    "soplex/1": "5ea45dcaaf56fabf",
    "sphinx3/0": "5190cea4af3bcc97",
    "sphinx3/1": "8727940895879185",
    "tonto/0": "a46488aedb7e30b3",
    "tonto/1": "e5c30df06a35ee8e",
    "wrf/0": "39e7fb3a9d97611f",
    "wrf/1": "4c44c57c5a21f86a",
    "xalancbmk/0": "38ddb366ea5e1b1d",
    "xalancbmk/1": "7620cfb9d5a217a1",
    "xml-parser/0": "be225acdc78645d3",
    "xml-parser/1": "9c08c7b74f5fd9a0",
}


def test_generated_traces_match_pinned_digests():
    assert generated_digests() == PINNED
