"""Every command of the benchmark's CLI catalogue prints, byte for byte,
what the recorded reference printed, so no speed change can alter an
output unnoticed."""

import importlib.util
from pathlib import Path

from uwrt import cli

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_cli_catalogue_stdout_is_the_recorded_one():
    workloads = _load_workloads()
    digests = workloads.load_digests()
    catalogue = workloads.cli_catalogue()
    assert len(catalogue) == len(digests)
    changed = [workloads.argv_key(argv) for argv in catalogue
               if workloads.stdout_digest(*workloads.run_cli(cli, argv))
               != digests[workloads.argv_key(argv)]]
    assert changed == []
