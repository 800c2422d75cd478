"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Runs use the tiny input size, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True, scope="module")
def package_on_path():
    sys.path.insert(0, str(run.SRC))
    yield
    sys.path.remove(str(run.SRC))


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    done = bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "checks_failed_frac 0 ratio" in done.stdout


def test_traced_run_writes_linked_spans():
    done = bench("--workload", "cli_mix", "--seed", "4", "--seconds", "0.2",
                 "--trace", "1", "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((run.OUT_DIR / "cli_mix-seed4-trace1.json").read_text())
    assert record["dropped"] == []
    spans = record["spans"]
    by_id = {span["id"]: span for span in spans}
    passes = [span for span in spans if span["name"] == "pass"]
    assert len(passes) == len(record["traced_pass_times_s"]) >= run.MIN_PASSES
    for span in spans:
        if span["name"] != "pass":
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert span["request"] is not None
    mains = [span for span in spans if span["name"] == "cli.main"]
    assert mains and all(by_id[s["request"]]["name"].startswith("cli/") for s in mains)


def test_same_seed_same_inputs_other_seed_other_requests():
    first = workloads.build("cli_mix", 11)
    again = workloads.build("cli_mix", 11)
    other = workloads.build("cli_mix", 12)
    assert first.inputs == again.inputs
    assert first.inputs["requests"] != other.inputs["requests"]
    assert len(first.requests) == len(other.requests) == 1000
    series = [workloads.build("series_product", seed, "tiny").inputs for seed in (5, 5, 6)]
    assert series[0] == series[1] != series[2]
    for name in ("roundtrip_sweep", "character_walk"):  # exhaustive: seed unused
        assert workloads.build(name, 1, "tiny").inputs == workloads.build(name, 2, "tiny").inputs


def test_wrong_result_counts_as_failed_check(monkeypatch):
    workload = workloads.build("roundtrip_sweep", 1, "tiny")
    deg1 = sys.modules["partition_forge.deg1"]
    real_omega = deg1.omega

    def off_by_one(pi, energy, colors):
        image = real_omega(pi, energy, colors)
        if len(image) < 2:
            return image
        first = image[0]
        return (first._replace(size=first.size + 1),) + image[1:]

    monkeypatch.setattr(deg1, "omega", off_by_one)
    checks = workloads.Checks(workload.expected)
    workload.run_pass(checks)
    assert 0 < checks.failed < checks.attempted


def test_exception_and_wrong_count_count_as_failed_checks(monkeypatch):
    workload = workloads.build("series_product", 1, "tiny")
    series = sys.modules["partition_forge.series"]

    def broken(factors, order, nvars):
        raise ArithmeticError("injected")

    monkeypatch.setattr(series, "pochhammer_expand", broken)
    monkeypatch.setattr(sys.modules["partition_forge.characters"], "pochhammer_expand", broken)
    checks = workloads.Checks({})  # no recorded counts: every count check fails too
    workload.run_pass(checks)
    assert checks.failed >= 3 + 4  # the product sides and the named identities
    assert any("ArithmeticError" in what for what in checks.failures)


def test_wrong_cli_output_counts_as_failed_check(monkeypatch):
    workload = workloads.build("cli_mix", 1, "tiny")
    cli = sys.modules["partition_forge.cli"]
    monkeypatch.setattr(cli, "main", lambda argv=None: print("0c") or 0)
    checks = workloads.Checks(workload.expected)
    workload.run_pass(checks)
    assert checks.failed > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
