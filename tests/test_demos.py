"""Every narrative script in demos/ and the README's library tour runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_gives_its_commented_results(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # "expression  # [1, 2, 2]" becomes an assertion that the expression has that value
    result = re.compile(r"^(\S.*?)\s+#\s*(\[[\d, ]*\])$")
    lines = [result.sub(r"assert (\1) == \2", line) for line in tour.splitlines()]
    assert sum(line.startswith("assert ") for line in lines) == 3
    monkeypatch.chdir(ROOT)
    exec(compile("\n".join(lines), "README.md", "exec"), {})
    assert "RESULT: PASS" in capsys.readouterr().out
