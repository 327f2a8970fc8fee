"""Every benchmark workload builds and answers correctly on this tree.

The benchmark in `perfbench/` counts a wrong answer or an exception as a
failed op. This builds each workload of `perfbench.workloads.SETUPS` at one
seed and runs the first op of each kind through that op's own check, so a
library change that would make a benchmark run fail shows here. CLI ops run
in process, through `thickvc.cli.main`. Each workload writes its input
files under pytest's `tmp_path`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (imports its sibling `oracles` by name)


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_first_op_of_each_kind_passes_its_check(name, tmp_path):
    setup = workloads.SETUPS[name](5, tmp_path)
    first = {}
    for op in setup.ops:
        first.setdefault(op.kind, op)
    for kind, op in first.items():
        assert op.check((op.inproc or op.run)()), kind
