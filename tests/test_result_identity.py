"""Result identity: the benchmark's digests at seeds 1-3 keep their values.

Each digest covers a workload's sampled items and its CLI counterpart's
output, as ``benchmarks/run.py`` reports it, so a change that moves any
allocation, CSV byte, violation count or witness rate fails here. The CLI
runs in-process; its output is the same as the subprocess run.py starts.
A deliberate results change updates these values and says why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402
from wfalloc import cli  # noqa: E402

DIGESTS = {
    "online-greedy": (
        "dc391689a2af1b9353760adeb4d4b0b7684a16fee1cf6de932e40b3f6d8aedf7",
        "28babdadad1b2811de728fbe40f71087f52c53f91af740139d5411cf1c8108ee",
        "2070f69f6f3f89da3e17afa5c6e271c508763a37df828a43021d8d184eee8b29",
    ),
    "exact-offline": (
        "a3f4a56e1f88128120ea832ec94983b07a1272eec1504ecdc3ca9f55c4261d58",
        "5e85e3ec575ef33a520d5f7e1bbbd0be96dde92b6948771d493fa21d2fbcca7f",
        "e6bc9490421e219ffc684fe59fdd1f64e35edc74ba01946e612fed7f0257af0e",
    ),
    "certify": (
        "4e11f185967f9f0c43982974ef0bd47d1ed52a8be61a180cf3e1e5ecb605b3a5",
        "a7a0cb05162e20f86627e90b3d2d1f819c71610215ab3a42f5aa0b9ac57b8d58",
        "ce5a9da5b9eb28a3de2976589b0a5d88a7f3a634e2ebad8ea13dbbbd8925e0c7",
    ),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_digest_is_unchanged(name, seed):
    size = workloads.SIZES["full"]
    workload = workloads.WORKLOADS[name](size, seed)
    with workload.capturing():
        sample = workload.build()[:size.samples]
        outputs = [workload.run(item) for item in sample]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(workload.cli_argv(sample[0])) == 0
    assert workloads.digest(workload, sample, outputs, stdout.getvalue()) == DIGESTS[name][seed - 1]
