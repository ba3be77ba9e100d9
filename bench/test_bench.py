"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
from amalgext import cli  # noqa: E402
from amalgext.linalg import Field  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["reports"]


def _bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=120)
    return out.returncode, out.stdout.strip().splitlines()


def test_committed_instances_are_seed_zero():
    for name, make in gen.INSTANCES.items():
        assert (BENCH / "instances" / f"{name}.amg").read_text(encoding="utf-8") == make(0)


@pytest.mark.parametrize("seed", [1, 7])
def test_seeded_instances_validate_to_the_same_report(tmp_path, seed):
    for name, path in gen.write_instances(seed, tmp_path).items():
        assert path.read_text(encoding="utf-8") != gen.INSTANCES[name](0)
        code, text = cli.run(["validate", str(path)])
        reference = cli.run(["validate", str(BENCH / "instances" / f"{name}.amg")])
        assert (code, text) == reference and code == 0


def test_check_accepts_recorded_reports_and_flags_changes():
    command = run.fixture_commands()[5]  # ext on d-infinity: carries the oracle line
    code, text = cli.run(command.argv)
    assert run.check(command, code, text, EXPECTED) == []
    assert run.check(command, 1, text, EXPECTED) == ["exit code 1"]
    wrong = text.replace("ext_G: 1 2 2", "ext_G: 1 2 3")
    assert len(run.check(command, code, wrong, EXPECTED)) == 2
    broken = text.replace("oracle: PASS", "oracle: FAIL")
    assert "abelianization oracle line is not PASS" in run.check(command, code, broken, EXPECTED)


def test_every_workload_command_has_a_recorded_report():
    for name in run.WORKLOADS:
        for command in run.make_workload(name, 3).commands:
            assert command.key in EXPECTED


def test_tracer_accounts_for_the_operation_and_restores():
    original = Field.rref
    tracer = tracing.Tracer()
    argv = ["les", str(ROOT / "fixtures" / "sl2z.amg"), "--degree", "3", "--v2", "std2"]
    with tracer.installed():
        code, _ = cli.run(argv)
    assert code == 0 and Field.rref is original
    metrics = tracer.layer_metrics()
    root = [s for s in tracer.spans if s[3] == -1]
    assert len(root) == 1 and tracer.names[root[0][0]] == "cli.run"
    total = sum(metrics[f"{m}.self_s"][0] for m in tracing.MODULES)
    assert total == pytest.approx((root[0][2] - root[0][1]) / 1e9)
    assert 0.5 < metrics["trace.layer_share"][0] < 1.0
    assert metrics["linalg.rref_calls"][0] > 0
    assert metrics["mayer_vietoris.lift_solves"][0] > 0
    assert metrics["resolutions.rank_sum"][0] > 0


def test_setup_samples_put_back_the_loaded_modules():
    workload = run.make_workload("fixtures-cli", 1)
    samples = run.setup_samples(workload, run.WallClock())
    assert len(samples) == run.SETUP_SAMPLES and min(samples) > 0
    assert sys.modules["amalgext.cli"] is cli and sys.modules["amalgext.linalg"].Field is Field


def test_host_speed_rescales_to_a_quiet_host():
    speed = run.HostSpeed()
    speed.loops = [2 * run.REF_QUIET_S]  # the host runs at half speed
    mark = speed.mark()
    time.sleep(0.1)
    speed.spent += 0.04  # as if the signal handler had taken 40 ms of it
    assert speed.since(mark) == pytest.approx((0.1 - 0.04) / 2, abs=0.01)
    with speed.sampling():
        time.sleep(0.3)
    assert len(speed.loops) >= 4 and all(t > 0 for t in speed.loops)


def test_untraced_run_prints_every_end_to_end_metric():
    code, lines = _bench("--workload", "fixtures-cli", "--seed", "2", "--seconds", "0.2", "--trace", "0")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    code, lines = _bench("--workload", "fixtures-cli", "--seed", "2", "--seconds", "0.2", "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert 0.0 < result["metrics"]["trace.layer_share"]["value"] < 1.0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, lines = _bench("--workload", "mv-s4", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=tmp_path)
    assert code != 0 and not any(line.startswith("{") for line in lines)


def test_steadiness_verdicts():
    spec = {"end_to_end": [{"name": "op_s_p50", "better": "lower", "bound": 0.1},
                           {"name": "ops_per_s", "better": "higher", "bound": 0.1},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    calm = [1.0, 1.01, 0.99, 1.0, 1.02]
    noisy = [1.0, 0.5, 1.5, 1.0, 1.0, 0.5, 1.5]
    values = {"w": {"op_s_p50": [calm, calm], "ops_per_s": [calm, calm], "setup_s": [calm, calm]},
              "faster": {"op_s_p50": [calm, [0.7 * x for x in calm]],
                         "ops_per_s": [calm, [1.3 * x for x in calm]], "setup_s": [calm, calm]},
              "noisy-setup": {"op_s_p50": [calm, calm], "ops_per_s": [calm, calm],
                              "setup_s": [calm, noisy]}}
    rows, ok = steady.verdicts(spec, values)
    assert not ok
    verdict = {(r["workload"], r["metric"]): r["pass"] for r in rows}
    assert all(verdict[("w", m)] for m in ("op_s_p50", "ops_per_s", "setup_s"))
    # the same code running 30 % faster in the second set is disagreement too
    assert not verdict[("faster", "op_s_p50")] and not verdict[("faster", "ops_per_s")]
    assert not verdict[("noisy-setup", "setup_s")]
    assert steady.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
