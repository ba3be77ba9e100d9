"""Every report the benchmark checks must stay byte-identical to its recorded digest."""

import hashlib
import json
from pathlib import Path

import pytest

from amalgext.cli import run

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))["reports"]


def argv_of(key: str) -> list[str]:
    """The key is the argv with the instance path cut to its file name."""
    command, name, *rest = key.split()
    path = ROOT / "fixtures" / name
    if not path.exists():
        path = ROOT / "bench" / "instances" / name
    return [command, str(path), *rest]


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_report_matches_recorded_digest(key):
    code, text = run(argv_of(key))
    assert code == 0
    assert [line for line in text.splitlines() if line.startswith("ext_")] == EXPECTED[key]["ext"]
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED[key]["sha256"]
