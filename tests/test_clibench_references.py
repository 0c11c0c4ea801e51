"""Every invocation pinned in clibench/reference, replayed in-process through ``cli.main``.

The payload is compared with clibench's own ``matches``, so an output the
benchmark would reject fails here first.
"""

import json
import pathlib
import sys

import pytest

from coopbasis.cli import main

CLIBENCH = pathlib.Path(__file__).resolve().parent.parent / "clibench"
sys.path.insert(0, str(CLIBENCH))
from check import matches  # noqa: E402  (modules of clibench/, found through the line above)
from workloads import WORKLOADS  # noqa: E402

CASES = [pytest.param(json.loads(key), reference, id=f"{path.stem}-{n}")
         for path in sorted((CLIBENCH / "reference").glob("*.json"))
         for n, (key, reference) in enumerate(json.loads(path.read_text()).items())]


def test_every_workload_is_replayed():
    assert {case.id.rsplit("-", 1)[0] for case in CASES} == set(WORKLOADS)


@pytest.mark.parametrize("args, reference", CASES)
def test_pinned_invocation_matches_its_reference(capsys, args, reference):
    code = main(args)
    out = capsys.readouterr().out
    assert code == reference["exit"]
    assert matches(reference["payload"], json.loads(out))
