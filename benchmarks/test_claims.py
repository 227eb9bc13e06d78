"""Every paper claim (:mod:`repro.bench.claims`) on one fresh run of each
configuration: each row must hold, and the table ``repro run`` prints
must be the one pasted into EXPERIMENTS.md, measured cells included."""

from pathlib import Path

import pytest

from repro.bench import claims
from repro.cli import EXPERIMENTS, configure, run_experiment

#: (experiment, --fs-type, --device): every default run, then the variants
CONFIGS = [(name, None, None) for name in sorted(EXPERIMENTS)] + [
    ("fig8", "f2fs", None), ("fig8", "btrfs", None), ("fig9", "f2fs", None), ("fig11", None, "optane")]
DOC = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()


@pytest.mark.parametrize("name,fs_type,device", CONFIGS)
def test_claims(name, fs_type, device):
    config = configure(name, fs_type, device)
    outcomes = claims.check(name, config, run_experiment(name, config))
    table = claims.render(name, config, outcomes)
    assert outcomes and all(outcome.ok for outcome in outcomes), table
    heading, *rows = table.splitlines()
    assert heading in DOC, f"EXPERIMENTS.md lacks this table:\n{table}"
    assert DOC.split(heading + "\n", 1)[1].splitlines()[:len(rows)] == rows
