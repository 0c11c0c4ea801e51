"""Byte identity of large CLI outputs, replayed in-process through ``cli.main``.

tests/data/verify_sha256.json pins the SHA-256 of stdout and stderr and the
exit code of runs larger than the clibench references: ``verify --format
json`` at four primes and, at p = 2, also at ``--max-n 100``, a suite size
that is not a power of two (the top phi has degree 127, while the suite's
products reach degree 199), and at ``--max-n 1 --max-k 48``, which runs
``q_square_is_zero``, ``margolis_homology`` and ``homologous`` on every
weight piece up to k = 48, and at p = 3 with ``--max-n 1 --max-k 60``,
the odd-prime benchmark's run; ``phi --prime 3 --n 6``; ``margolis --format
json`` at (p, k) = (2, 64), (3, 90), (5, 125) and (7, 98), whose homology
generators ``verify`` does not print; and ``margolis --format csv`` at
(2, 40) and (3, 90), which print each monomial's degree and weight in basis
order.  It also pins the pretty output of
every subcommand and the CSV output of the four that have a table, at small
sizes, which the clibench references (all JSON) do not cover, and the JSON
verdicts of ``check-integrality`` at odd p: two integral inputs (e = 11 at
p = 3, e = 2 at p = 7), one that is not (e = 2 at p = 5) and one over the
residue budget (e = 20 at p = 3).  A change meant to keep every output must keep these hashes.
"""

import hashlib
import json
import pathlib

import pytest

from coopbasis.cli import main

PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "verify_sha256.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
def test_output_is_byte_identical_to_the_pinned_hashes(capsys, case):
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert _sha256(captured.out) == case["stdout_sha256"]
    assert _sha256(captured.err) == case["stderr_sha256"]
