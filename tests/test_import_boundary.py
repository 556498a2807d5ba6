"""The serving path loads no baseline cipher; the ``aes`` PRG still loads its own.

The paper's strawmen (Paillier, EC-ElGamal, ABE) and its software-AES PRG
point live in :mod:`repro.baselines`.  Importing any serving tier must not
pull them in, and a stream persisted with ``prg="aes"`` must still derive
the keys ``golden_keys.json`` recorded.  Other tests import the baselines
in-process, so the check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
GOLDEN = json.loads((ROOT / "tests" / "fixtures" / "crypto" / "golden_keys.json").read_text())

SCRIPT = """
import json, sys
import repro, repro.deploy, repro.server.engine, repro.server.router
import repro.net.server, repro.net.client, repro.storage.node
serving = sorted(name for name in sys.modules if name.startswith("repro.baselines"))
from repro.crypto.keytree import KeyDerivationTree
from repro.crypto.prf import get_prg
get_prg("aes")
seed, indices = bytes.fromhex(sys.argv[1]), json.loads(sys.argv[2])
tree = KeyDerivationTree(seed=seed, height=12, prg="aes")
print(json.dumps({"serving": serving, "labels": {i: tree.leaf(i).hex() for i in indices}}))
"""


def test_serving_modules_load_no_baseline_and_aes_prg_still_derives():
    case = GOLDEN["cases"]["aes/12"]["leaves"]
    indices = sorted(map(int, case))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, GOLDEN["seed"], json.dumps(indices)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout)
    assert result["serving"] == []
    assert result["labels"] == {str(i): case[str(i)]["label"] for i in indices}
