"""The demos print exactly what they printed when their digests were taken."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout, recorded before the decomposition search,
# its checks and the text rendering of factors were rewritten
DEMO_DIGESTS = {
    "01_lengths_and_factorizations.py":
        "a1722b200cef56bb2104e0de583cf3f377614d9ecb2e90b6d46468f98f943bc7",
    "02_streams_and_profiles.py":
        "46f8e8b22410ab226a74c33e37b53a0e4633d4e7aa9ba8f551c82e4702dd160f",
    "03_bound_two_classification.py":
        "916b1b7e14db644888d3a6095c7f833bc46c16656378f445692a15893d5a495c",
    "04_word_u.py":
        "8aafd8af7847ce62f247c79ce5d5edba666a7c69c4d0d050549cda47a7bf7763",
    "05_ladder_and_b_values.py":
        "dc0b2412b74ae021ce77673e5eca014a96d57991d1f265f71c6f321fbcfebe0a",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            capture_output=True, env=env, timeout=60, check=False)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[name]
