"""Golden bytes of the dataset directories the CLI writes.

``dataset_sha256.json`` holds the sha256 of every file ``save_dataset``
writes for the README recipe's ``ledg generate`` call and for one small
ingested stream per edge task. The streams repeat and reverse pairs, carry
self-loops, empty buckets, out-of-order timestamps and link-prediction
values, which are parsed, checked, dropped, so the ``u v [label]`` lines,
the kept label of a repeated pair and the line order cannot drift unseen.
To record new hashes after a deliberate format change, run
``python3 tests/test_dataset_bytes.py > tests/dataset_sha256.json``
with ``src`` on the path.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from ledg import cli

GOLDEN = Path(__file__).with_name("dataset_sha256.json")

RECIPE = [
    "generate", "--num-nodes", "100", "--num-communities", "2",
    "--intra-p", "0.025", "--inter-p", "0.003", "--drift-rate", "0.05",
    "--num-snapshots", "20", "--seed", "0",
]

LINK_STREAM = """\
# values are parsed, checked, dropped; buckets 1 and 3 stay empty
alice bob 2 0.3
bob alice 1 0.2
alice bob 0 0.1
carol carol 3 5
dave alice 4 1e-7
erin bob 25 2.5
bob erin 26 -1.25
carol dave 27
erin bob 28 0.1234567890123456
zed alice 45 3.14159265358979
"""

CLASS_STREAM = """\
# the last label of a repeated pair wins; labels may be written as floats
n1 n2 0 1
n2 n1 1 3
n3 n3 2 2
n4 n1 3 2.0
n2 n3 4 1e0
n5 n2 5
n1 n2 6 0
n3 n4 7 4
"""

INGESTS = {
    "ingest_link": (LINK_STREAM, ["--interval", "10"]),
    "ingest_class": (CLASS_STREAM, ["--edges-per-snapshot", "3", "--task", "edge_classification"]),
}


def dataset_digests() -> dict:
    """{case: {file name: sha256}} for every dataset directory the cases write."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = {"recipe": RECIPE}
        for name, (text, flags) in INGESTS.items():
            (tmp / f"{name}.txt").write_text(text)
            runs[name] = ["ingest", "--input", str(tmp / f"{name}.txt"), *flags]
        for name, argv in runs.items():
            out = tmp / name
            assert cli.main([*argv, "--out", str(out)]) == 0
            digests[name] = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out.iterdir())
            }
    return digests


def test_dataset_files_keep_their_bytes(capsys):
    expected = json.loads(GOLDEN.read_text())
    got = dataset_digests()
    capsys.readouterr()
    assert got.keys() == expected.keys()
    for case in expected:
        assert got[case] == expected[case], case


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        digests = dataset_digests()
    print(json.dumps(digests, indent=1, sort_keys=True))
